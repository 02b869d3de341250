"""Delta relation tests, including property-based algebra checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ContradictionError
from repro.relational.database import Database
from repro.relational.delta import Composition, Delta, DeltaSet


class TestDelta:

    def test_paper_example(self):
        # §3.1: R = {(1,2),(1,3)}, ΔR = {-r(1,2), +r(1,1)}.
        delta = Delta(insertions={(1, 1)}, deletions={(1, 2)})
        result = delta.apply(frozenset({(1, 2), (1, 3)}))
        assert result == {(1, 1), (1, 3)}

    def test_contradiction_raises(self):
        delta = Delta(insertions={(1,)}, deletions={(1,)})
        with pytest.raises(ContradictionError):
            delta.apply(frozenset())

    def test_effective_on(self):
        delta = Delta(insertions={(1,), (2,)}, deletions={(3,), (4,)})
        effective = delta.effective_on(frozenset({(1,), (3,)}))
        assert effective.insertions == {(2,)}
        assert effective.deletions == {(3,)}

    def test_len_and_empty(self):
        assert len(Delta({(1,)}, {(2,)})) == 2
        assert Delta().is_empty()


class TestDeltaSet:

    def test_from_database(self):
        out = Database.from_dict({'+r1': {(3,)}, '-r2': {(2,)},
                                  'aux': {(9,)}})
        deltas = DeltaSet.from_database(out)
        assert deltas['r1'].insertions == {(3,)}
        assert deltas['r2'].deletions == {(2,)}
        assert 'aux' not in deltas.relations()

    def test_from_database_restricted(self):
        out = Database.from_dict({'+r1': {(3,)}, '+other': {(1,)}})
        deltas = DeltaSet.from_database(out, relations={'r1'})
        assert deltas.relations() == {'r1'}

    def test_apply_example_3_1(self, union_database):
        deltas = DeltaSet({'r1': Delta(insertions={(3,)}),
                           'r2': Delta(deletions={(2,)})})
        updated = deltas.apply_to(union_database)
        assert updated['r1'] == {(1,), (3,)}
        assert updated['r2'] == {(4,)}

    def test_contradiction_detection(self):
        deltas = DeltaSet({'r': Delta({(1,)}, {(1,)})})
        assert deltas.contradictions() == {'r': frozenset({(1,)})}
        with pytest.raises(ContradictionError):
            deltas.apply_to(Database())


# -- property-based algebra --------------------------------------------------

rows = st.frozensets(
    st.tuples(st.integers(min_value=0, max_value=6)), max_size=8)


@given(rows, rows, rows)
@settings(max_examples=200, deadline=None)
def test_apply_semantics(base, insertions, deletions):
    """R ⊕ Δ = (R \\ Δ⁻) ∪ Δ⁺ for non-contradictory deltas."""
    insertions = insertions - deletions
    delta = Delta(insertions, deletions)
    assert delta.apply(base) == (base - deletions) | insertions


@given(rows, rows, rows)
@settings(max_examples=200, deadline=None)
def test_effective_delta_has_same_effect(base, insertions, deletions):
    insertions = insertions - deletions
    delta = Delta(insertions, deletions)
    effective = delta.effective_on(base)
    assert effective.apply(base) == delta.apply(base)
    # Effectiveness: nothing inserted that exists, nothing deleted that
    # does not.
    assert not (effective.insertions & base)
    assert effective.deletions <= base


@given(rows, st.lists(st.tuples(rows, rows), max_size=5))
@settings(max_examples=200, deadline=None)
def test_composition_is_sequential_application(base, steps):
    """Applying the composition once equals applying each delta in
    turn, and the composition of contradiction-free deltas is
    contradiction-free."""
    composed = Composition()
    expected = base
    for insertions, deletions in steps:
        delta = Delta(insertions - deletions, deletions)
        expected = delta.apply(expected)
        composed.then(delta.insertions, delta.deletions)
    result = Delta(composed.insertions, composed.deletions)
    assert result.apply(base) == expected
    assert not result.contradictions()


# ---------------------------------------------------------------------------
# Partition split/merge (the sharded engine's routing primitive)
# ---------------------------------------------------------------------------


def _merged(parts) -> Delta:
    """The union of ``parts``, insertions and deletions apiece."""
    parts = list(parts)
    return Delta(frozenset().union(*(p.insertions for p in parts)),
                 frozenset().union(*(p.deletions for p in parts)))


class TestSplitMerge:

    def test_split_by_key_modulus(self):
        delta = Delta({(0, 'a'), (1, 'b'), (3, 'c')}, {(2, 'd')})
        parts = delta.split(lambda row: row[0] % 2)
        assert parts[0] == Delta({(0, 'a')}, {(2, 'd')})
        assert parts[1].insertions == {(1, 'b'), (3, 'c')}
        assert parts[1].deletions == frozenset()

    def test_split_omits_empty_partitions(self):
        delta = Delta({(1,)}, set())
        parts = delta.split(lambda row: row[0] % 4)
        assert set(parts) == {1}

    def test_merge_inverts_split(self):
        delta = Delta({(i,) for i in range(10)},
                      {(i,) for i in range(20, 25)})
        parts = delta.split(lambda row: row[0] % 3)
        assert _merged(parts.values()) == delta


@given(rows, rows)
@settings(max_examples=100, deadline=None)
def test_split_partitions_are_disjoint_and_complete(insertions, deletions):
    deletions = deletions - insertions
    delta = Delta(insertions, deletions)
    parts = delta.split(lambda row: row[0] % 3)
    assert _merged(parts.values()) == delta
    seen_plus: set = set()
    seen_minus: set = set()
    for part in parts.values():
        assert not (part.insertions & seen_plus)
        assert not (part.deletions & seen_minus)
        seen_plus |= part.insertions
        seen_minus |= part.deletions
