"""Property-based differential fuzzing of the execution modes.

With four execution axes live (memory/SQLite storage × sharded/single
deployment × inline/process shards × replicated/direct reads), the
equivalence surface has outgrown hand-written differential tests; this
package is the repo's standing randomized oracle, and its put axis
holds the reference engine to ``put(S, V')``.  See ``strategies.py``
for the workload generator and ``test_differential`` for the
assertions.
"""
