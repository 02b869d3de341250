"""The solver's canonical candidate streams, pinned.

``golden/solver_answers.json`` pins each answer, but an UNSAT answer
pins only how many candidates its search judged.
``golden/canonical_streams.json`` pins the candidates themselves: for
every goal that validating a Table 1 entry or a mutant of
``test_verdict_golden.py`` asks the solver, the whole canonical stream
(``Search._canonical``, run to its end) under ``SolverConfig()`` and
under ``SolverConfig().scaled_down()``, as its length and the sha256 of
its candidates in order.  A candidate is written as its sorted
``(relation, sorted repr rows)`` pairs, so the digest reads content and
order, not set or dict layout; it is read from a ``{relation: rows}``
mapping or from a set of ``(relation, row)`` facts alike, so the same
file checks any earlier commit.  A change to candidate construction
must leave this file as it is; regenerate it with
``PYTHONPATH=src python tests/test_stream_golden.py`` only when the
stream is meant to change.
"""

import hashlib
import json
from collections.abc import Mapping
from pathlib import Path

import pytest

from repro.fol import solver
from repro.fol.solver import SolverConfig

import test_verdict_golden as verdicts

STREAMS = Path(__file__).parent / 'golden' / 'canonical_streams.json'

CONFIGS = {'default': SolverConfig(),
           'scaled_down': SolverConfig().scaled_down()}


def _digest(search: solver.Search, goal: str) -> list:
    """``[length, sha256]`` of ``goal``'s whole canonical stream."""
    digest, length = hashlib.sha256(), 0
    for candidate in search._canonical(goal):
        facts = candidate if not isinstance(candidate, Mapping) else \
            [(pred, row) for pred, rows in candidate.items() for row in rows]
        relations: dict[str, list] = {}
        for pred, row in facts:
            relations.setdefault(pred, []).append(repr(row))
        form = sorted((pred, sorted(rows)) for pred, rows in relations.items())
        digest.update(repr(form).encode() + b'\n')
        length += 1
    return [length, digest.hexdigest()]


def _streams(run, *args) -> list:
    """``[goal, {config: [length, sha256]}]`` per check ``run(*args)``
    asks, in order."""
    asked: list = []
    real = solver.Search.check

    def recording(search, goal):
        asked.append((search, goal))
        return real(search, goal)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver.Search, 'check', recording)
        run(*args)
    return [[goal, {name: _digest(solver.Search(
                search.program, search.goals, schema=search.schema,
                config=config), goal)
                    for name, config in CONFIGS.items()}]
            for search, goal in asked]


def _all_streams() -> dict:
    return {'catalog': {entry.name: _streams(verdicts._entry_verdict, entry)
                        for entry in verdicts.EXPRESSIBLE},
            'mutants': {key: _streams(verdicts._mutant_failures, key)
                        for key in sorted(verdicts.MUTANTS)}}


def test_canonical_streams():
    """Every goal's canonical stream, candidate for candidate, under both
    configurations."""
    expected = json.loads(STREAMS.read_text())
    assert len(expected['catalog']) == 31 and len(expected['mutants']) == 14
    assert sum(map(len, expected['catalog'].values())) \
        + sum(map(len, expected['mutants'].values())) == 276
    actual = _all_streams()
    for kind, table in expected.items():
        for key, streams in table.items():
            assert actual[kind][key] == streams, key


if __name__ == '__main__':
    STREAMS.write_text(json.dumps(_all_streams(), indent=1,
                                  sort_keys=True) + '\n')
