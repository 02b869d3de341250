"""Shared fixtures: the paper's running examples as ready-made objects,
plus the Hypothesis profiles the fuzz harness runs under."""

from __future__ import annotations

import os

import pytest

from repro.core.strategy import UpdateStrategy
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema

try:
    from hypothesis import HealthCheck, settings as hyp_settings

    def _registered(profile: str) -> bool:
        try:
            hyp_settings.get_profile(profile)
        except Exception:
            return False
        return True

    # Idempotence guard: some tests re-import this module under the
    # ``tests.conftest`` name, which must not re-register profiles
    # mid-test (hypothesis deprecation).  The guard asks for ``long``,
    # a name Hypothesis does not ship — recent releases (6.1xx) come
    # with a ``ci`` profile of their own.
    if not _registered('long'):
        _CHECKS = [HealthCheck.too_slow, HealthCheck.data_too_large,
                   HealthCheck.filter_too_much]
        # ``dev`` — the default local run; ``long`` — the deep
        # differential run (``REPRO_FUZZ=long``), sized so the
        # sharded-vs-single oracle sees well over 200 generated
        # transactions.
        hyp_settings.register_profile('dev', max_examples=25,
                                      deadline=None,
                                      suppress_health_check=_CHECKS)
        hyp_settings.register_profile('long', max_examples=150,
                                      deadline=None,
                                      suppress_health_check=_CHECKS)
        # ``ci`` — what the CI matrix selects with
        # ``--hypothesis-profile=ci``.  Where Hypothesis ships one
        # (derandomised, 100 examples, no deadline) CI has been running
        # that, so it is left alone: replacing it with the ten-example
        # smoke below would weaken CI.  Older releases get the smoke.
        if not _registered('ci'):
            hyp_settings.register_profile('ci', max_examples=10,
                                          deadline=None,
                                          suppress_health_check=_CHECKS)
        hyp_settings.load_profile(
            'long' if os.environ.get('REPRO_FUZZ') == 'long' else 'dev')
except ImportError:                              # pragma: no cover
    pass

UNION_PUTDELTA = """
    -r1(X) :- r1(X), not v(X).
    -r2(X) :- r2(X), not v(X).
    +r1(X) :- v(X), not r1(X), not r2(X).
"""

UNION_GET = """
    v(X) :- r1(X).
    v(X) :- r2(X).
"""


@pytest.fixture
def union_sources() -> DatabaseSchema:
    return DatabaseSchema.build(r1={'a': 'int'}, r2={'a': 'int'})


@pytest.fixture
def union_strategy(union_sources) -> UpdateStrategy:
    """Example 3.1: the union-view update strategy."""
    return UpdateStrategy.parse('v', union_sources, UNION_PUTDELTA,
                                expected_get=UNION_GET)


@pytest.fixture
def union_database() -> Database:
    """The source instance of Example 3.1."""
    return Database.from_dict({'r1': {(1,)}, 'r2': {(2,), (4,)}})


LUXURY_PUTDELTA = """
    ⊥ :- luxuryitems(I, N, P), not P > 1000.
    +items(I, N, P) :- luxuryitems(I, N, P), not items(I, N, P).
    expensive(I, N, P) :- items(I, N, P), P > 1000.
    -items(I, N, P) :- expensive(I, N, P), not luxuryitems(I, N, P).
"""

LUXURY_GET = "luxuryitems(I, N, P) :- items(I, N, P), P > 1000."


@pytest.fixture
def luxury_sources() -> DatabaseSchema:
    return DatabaseSchema.build(
        items={'iid': 'int', 'iname': 'string', 'price': 'int'})


@pytest.fixture
def luxury_strategy(luxury_sources) -> UpdateStrategy:
    """A selection view with a domain constraint (catalog entry #3)."""
    return UpdateStrategy.parse('luxuryitems', luxury_sources,
                                LUXURY_PUTDELTA, expected_get=LUXURY_GET)


CED_PUTDELTA = """
    +ed(E, D) :- ced(E, D), not ed(E, D).
    -eed(E, D) :- ced(E, D), eed(E, D).
    +eed(E, D) :- ed(E, D), not ced(E, D), not eed(E, D).
"""

CED_GET = "ced(E, D) :- ed(E, D), not eed(E, D)."


@pytest.fixture
def ced_sources() -> DatabaseSchema:
    return DatabaseSchema.build(ed=['emp_name', 'dept_name'],
                                eed=['emp_name', 'dept_name'])


@pytest.fixture
def ced_strategy(ced_sources) -> UpdateStrategy:
    """The case study's set-difference view (§3.3)."""
    return UpdateStrategy.parse('ced', ced_sources, CED_PUTDELTA,
                                expected_get=CED_GET)
