"""The layered benchmark: four workloads, nine end-to-end metrics and a
traced run that attributes each operation's time to the repo's modules.
See README.md in this directory; ``spec.py`` is the single source of
every workload and metric name."""
