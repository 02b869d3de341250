"""Static placement analysis for the sharded engine.

Two questions are answered here, both without touching a shard:
*where does a row live* (:func:`shard_of` hashes a shard-key value to
a shard index) and *may a view be routed shard-locally*
(:func:`decide_placement`).  A view is shard-local when every relation
its putback can reach is partitioned on the same-named attribute
**and** its programs are key-aligned
(:func:`key_aligned`); otherwise it falls back to the documented global
placement and its base tables are demoted with it.  The functions take
the coordinator's catalog explicitly — schema, view entries, placement
map, key positions and attributes — and mutate nothing, so
:mod:`repro.rdbms.sharded` keeps only routing, 2PC and scatter-gather.
"""

from __future__ import annotations

import zlib
from typing import Mapping

from repro.core.strategy import UpdateStrategy
from repro.datalog.ast import (Lit, Program, Rule, Var, delta_base,
                               is_delta_pred)
from repro.errors import SchemaError
from repro.rdbms.engine import ViewEntry
from repro.relational.schema import DatabaseSchema, RelationSchema

__all__ = ['decide_placement', 'key_aligned', 'resolve_key', 'shard_of']


# ---------------------------------------------------------------------------
# Hash placement
# ---------------------------------------------------------------------------


def shard_of(value, n_shards: int) -> int:
    """The shard in ``[0, n_shards)`` owning rows whose key equals
    ``value``: numbers by modulus, everything else by CRC-32 of its
    ``repr`` — deliberately *not* Python's built-in ``hash``, whose
    string seed changes per process and would make two runs (or a
    differential test against a persisted SQLite shard) disagree about
    row ownership.

    Equal values route equally: ``x == y`` implies ``shard_of(x, n) ==
    shard_of(y, n)`` — WHERE clauses match rows with ``==`` (where
    ``1 == 1.0 == True``), so a placement that told equal values apart
    would route a keyed statement away from the rows it matches."""
    # Normalise every numeric type onto one representative so
    # ==-equal values (True/1/1.0/Decimal(1), and inf/Decimal
    # ('Infinity') via the float step) share a shard; non-numerics
    # fall through to the repr hash.
    if isinstance(value, complex) and value.imag == 0:
        value = value.real
    if not isinstance(value, str):
        try:
            as_int = int(value)
            if as_int == value:
                return as_int % n_shards
        except (TypeError, ValueError, OverflowError):
            pass
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    return zlib.crc32(repr(value).encode('utf-8')) % n_shards


# ---------------------------------------------------------------------------
# The placement decision
# ---------------------------------------------------------------------------


def decide_placement(strategy: UpdateStrategy,
                     get_program: Program | None, key_spec, *,
                     schema: DatabaseSchema,
                     entries: Mapping[str, ViewEntry],
                     placement: Mapping[str, int | None],
                     keys: Mapping[str, tuple[int, str]]
                     ) -> tuple[int | None, list[str]]:
    """``(None, [])`` when the view can be routed shard-locally, else
    ``(0, bases to demote)``: the view goes to shard 0, the global
    shard.  The demotions are *decided* here but applied by the caller
    only after every shard accepted the view, so a failed
    ``define_view`` cannot leave the cluster degraded (§"Global
    fallback" in :mod:`repro.rdbms.sharded`).

    ``key_spec`` is the view's declared shard key (``None`` when it has
    none); the keyword arguments are the coordinator's catalog: base
    schema, defined views, relation → ``None`` (partitioned) or pinned
    shard, and partitioned relation → (key position, key attribute).

    Shard-locality needs two proofs: every relation the putback can
    reach is partitioned on the same-named attribute, and the programs
    are *key-aligned* (:func:`key_aligned`) — name matching alone would
    accept rules that join through a non-key variable and then route
    wrongly."""
    name = strategy.view.name
    update_closure: set[str] = set()
    for updated in strategy.updated_relations():
        update_closure.add(updated)
        if updated in entries:
            update_closure |= entries[updated].update_closure
    # Only relations the programs actually *read* constrain the
    # placement — the engine hands every schema relation to plan
    # evaluation, but unreferenced ones cannot affect the result.
    # ``get_program`` (the certified view definition when a report
    # was given) is the program the engine will evaluate, so it —
    # not ``strategy.expected_get`` — is what counts here.
    referenced: set[str] = set()
    for program in (strategy.putdelta, get_program):
        if program is not None:
            referenced |= program.edb_preds()
    known = set(schema.names()) | set(entries)
    source_names = referenced & known
    base_closure: set[str] = set()
    for source in source_names:
        if source in entries:
            base_closure |= entries[source].base_closure
        else:
            base_closure.add(source)
    relevant = (update_closure | source_names | base_closure) - {name}

    if key_spec is not None:
        # A key declaration that does not resolve against the view
        # schema is a configuration error, exactly as it is for
        # base tables at construction — never a silent fallback.
        view_pos, view_attr = resolve_key(strategy.view, key_spec)
        if all(
                placement.get(rel) is None
                and keys[rel][1] == view_attr
                for rel in relevant):
            key_pos_of = {rel: keys[rel][0] for rel in relevant}
            key_pos_of[name] = view_pos
            if key_aligned(strategy.putdelta, get_program, name,
                           key_pos_of):
                return None, []

    # Global fallback: pin the view, demote its base tables.
    demotions: list[str] = []
    for rel in sorted(relevant):
        if placement.get(rel) is None:
            holder = _partitioned_view_over(rel, entries, placement)
            if holder is not None:
                raise SchemaError(
                    f'view {name!r} is not shard-local (its update '
                    f'closure reaches {rel!r}, partitioned on '
                    f'{keys[rel][1]!r}) but {rel!r} '
                    f'already serves the shard-local view '
                    f'{holder!r}; declare a co-partitioned shard '
                    f'key for {name!r} or drop {rel!r} from '
                    f'shard_keys')
            if rel in schema:
                demotions.append(rel)
            else:
                # A previously defined shard-local *view* source
                # cannot be re-placed — same conflict.
                raise SchemaError(
                    f'view {name!r} is not shard-local but its '
                    f'source view {rel!r} is; declare a '
                    f'co-partitioned shard key for {name!r}')
    return 0, demotions


def _partitioned_view_over(rel: str, entries: Mapping[str, ViewEntry],
                           placement: Mapping[str, int | None]
                           ) -> str | None:
    for view, entry in entries.items():
        if placement.get(view) is not None:
            continue
        if rel in entry.base_closure or rel in entry.update_closure \
                or rel in entry.source_names:
            return view
    return None


# ---------------------------------------------------------------------------
# Static key-alignment analysis
# ---------------------------------------------------------------------------
#
# Matching key *attribute names* is necessary but not sufficient for
# shard-local routing: a rule like ``+r1(X) :- r2(X), v(Y), not r1(X).``
# references only relations partitioned on the same attribute, yet the
# variable it writes ``r1`` with is not the view row's key — evaluating
# it per shard against shard-local sources would silently diverge from
# the single engine.  These helpers prove the stronger property the
# routing argument actually needs: in every rule of the putback, the
# ⊥-constraints, and the view definition, all partitioned atoms are
# keyed by ONE shared variable, which intermediate predicates carry
# through to the delta heads.


def _rule_key_var(rule: Rule, key_pos_of: Mapping[str, int],
                  carry: Mapping[str, int | None]) -> str | None:
    """The single variable sitting at the key position of every
    partitioned (or key-carrying intermediate) atom in ``rule``'s body,
    or ``None`` when no such shared variable exists.  The variable must
    occur in at least one *positive* atom so it is genuinely bound to a
    shard-owned row."""
    shared: str | None = None
    positively_bound = False
    for literal in rule.body:
        if not isinstance(literal, Lit):
            continue                      # builtins carry no key
        atom = literal.atom
        pred = delta_base(atom.pred) if is_delta_pred(atom.pred) \
            else atom.pred
        if pred in key_pos_of:
            position = key_pos_of[pred]
        elif atom.pred in carry:
            position = carry[atom.pred]
            if position is None:          # intermediate drops the key
                return None
        else:                             # unanalysable predicate
            return None
        argument = atom.args[position]
        if not isinstance(argument, Var):
            return None                   # constant/anonymous key
        if shared is None:
            shared = argument.name
        elif argument.name != shared:
            return None                   # two different join keys
        if literal.positive:
            positively_bound = True
    if shared is None or not positively_bound:
        return None
    return shared


def _carry_positions(program: Program,
                     key_pos_of: Mapping[str, int]) -> dict[str,
                                                            int | None]:
    """For each intermediate (non-delta IDB) predicate: the head
    position that provably carries the rule key through every defining
    rule, or ``None`` when no position does (the predicate "drops" the
    key and any rule using it is not shard-local)."""
    rules_of: dict[str, list[Rule]] = {}
    for rule in program.proper_rules():
        if rule.head is not None and not is_delta_pred(rule.head.pred) \
                and rule.head.pred not in key_pos_of:
            rules_of.setdefault(rule.head.pred, []).append(rule)
    carry: dict[str, int | None] = {}
    pending = dict(rules_of)
    progress = True
    while pending and progress:           # nonrecursive → terminates
        progress = False
        for pred in list(pending):
            rules = pending[pred]
            depends = {literal.atom.pred for rule in rules
                       for literal in rule.body
                       if isinstance(literal, Lit)}
            if depends & set(pending):
                continue                  # a dependency is unresolved
            positions: set[int] | None = None
            for rule in rules:
                key_var = _rule_key_var(rule, key_pos_of, carry)
                if key_var is None:
                    positions = set()
                    break
                here = {index for index, arg in enumerate(rule.head.args)
                        if isinstance(arg, Var) and arg.name == key_var}
                positions = here if positions is None \
                    else positions & here
            carry[pred] = min(positions) if positions else None
            del pending[pred]
            progress = True
    for pred in pending:                  # unresolvable (defensive)
        carry[pred] = None
    return carry


def key_aligned(putdelta: Program, get_program: Program | None,
                 view_name: str,
                 key_pos_of: Mapping[str, int]) -> bool:
    """Is every rule of the putback and the view definition routable by
    the shared key — so that per-shard evaluation over shard-local
    state provably equals the single engine's result restricted to the
    shard?"""
    for program in (putdelta, get_program):
        if program is None:
            continue
        carry = _carry_positions(program, key_pos_of)
        for rule in program.rules:
            head = rule.head
            if head is None:              # ⊥-constraint: body only
                if _rule_key_var(rule, key_pos_of, carry) is None:
                    return False
                continue
            if is_delta_pred(head.pred):
                target = delta_base(head.pred)
            elif head.pred in key_pos_of:
                target = head.pred        # the view-definition head
            else:
                continue                  # intermediate: via ``carry``
            key_var = _rule_key_var(rule, key_pos_of, carry)
            if key_var is None:
                return False
            argument = head.args[key_pos_of[target]]
            if not (isinstance(argument, Var)
                    and argument.name == key_var):
                return False
    return True


def resolve_key(schema: RelationSchema, key: str | int) -> tuple[int, str]:
    """Resolve a shard-key declaration (attribute name or position)
    against a relation schema → ``(position, attribute name)``."""
    if isinstance(key, int):
        if not 0 <= key < schema.arity:
            raise SchemaError(
                f'shard key position {key} out of range for '
                f'{schema.name!r} (arity {schema.arity})')
        return key, schema.attributes[key]
    try:
        return schema.attributes.index(key), key
    except ValueError:
        raise SchemaError(
            f'shard key {key!r} is not an attribute of '
            f'{schema.name!r} {schema.attributes}') from None
