"""View update strategies as Datalog putback programs (§3).

:class:`UpdateStrategy` is the central public artifact of the library: a
view name + schema, the source schema, a *putback program* (Datalog rules
defining the delta relations ``+r``/``-r`` of the source, plus optional
⊥-constraints), and optionally the expected view definition.

``put(S, V')`` implements equation (1) of the paper::

    put(S, V') = S ⊕ putdelta(S, V')

raising :class:`ContradictionError` when the computed ΔS is contradictory
and :class:`ConstraintViolation` when ``(S, V')`` violates a constraint.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from functools import cached_property

from repro.datalog.ast import (Program, Rule, delta_base, is_delta_pred)
from repro.datalog.dependency import check_nonrecursive
from repro.datalog.evaluator import execute_deltas
from repro.datalog.parser import parse_program
from repro.datalog.plan import ExecutionPlan, compile_program
from repro.datalog.pretty import pretty
from repro.datalog.safety import check_program_safety
from repro.errors import SchemaError, ViewUpdateError
from repro.relational.database import Database
from repro.relational.delta import Delta, DeltaSet
from repro.relational.schema import DatabaseSchema, RelationSchema

__all__ = ['UpdateStrategy']


def _infer_view_schema(program: Program, get_program: Program | None,
                       view: str, sources: DatabaseSchema
                       ) -> RelationSchema:
    """Infer the view's arity and column types from the programs.

    A view column shares the type of any source column the same variable
    flows through (scanning both the putback rules and the expected get);
    untraceable columns default to ``string``.
    """
    from repro.datalog.ast import Lit, Var

    arities: dict[str, int] = {}
    programs = [program] + ([get_program] if get_program is not None else [])
    for prog in programs:
        arities.update(prog.arities())
    if view not in arities:
        raise SchemaError(
            f'view {view!r} does not occur in the putback program; '
            f'pass a RelationSchema to fix its arity')
    arity = arities[view]
    types: list[str | None] = [None] * arity
    names: list[str | None] = [None] * arity

    def atoms_of(rule):
        heads = [rule.head] if rule.head is not None else []
        return heads + [l.atom for l in rule.body if isinstance(l, Lit)]

    from repro.datalog.ast import BuiltinLit, Const
    from repro.relational.schema import AttributeType

    def _const_type(value) -> str:
        if isinstance(value, int):
            return AttributeType.INT
        if isinstance(value, float):
            return AttributeType.FLOAT
        return AttributeType.STRING

    for prog in programs:
        for rule in prog.rules:
            atoms = atoms_of(rule)
            view_atoms = [a for a in atoms if a.pred == view]
            if not view_atoms:
                continue
            # Map variable -> source column type/name within this rule.
            var_types: dict[str, str] = {}
            var_names: dict[str, str] = {}
            for literal in rule.body:
                if isinstance(literal, BuiltinLit) and literal.op == '=' \
                        and literal.positive:
                    pairs = ((literal.left, literal.right),
                             (literal.right, literal.left))
                    for a, b in pairs:
                        if isinstance(b, Const) and hasattr(a, 'name'):
                            var_types.setdefault(a.name,
                                                 _const_type(b.value))
            for atom in atoms:
                base = delta_base(atom.pred)
                if base not in sources:
                    continue
                declared = sources[base].types
                attrs = sources[base].attributes
                for pos, term in enumerate(atom.args):
                    if isinstance(term, Var) and pos < len(declared):
                        # Arity mismatches are reported by _check_shape;
                        # inference just skips the out-of-range columns.
                        var_types.setdefault(term.name, declared[pos])
                        var_names.setdefault(term.name, attrs[pos])
            for atom in view_atoms:
                for pos, term in enumerate(atom.args):
                    if pos >= arity:
                        break
                    if isinstance(term, Var):
                        if term.name in var_types and types[pos] is None:
                            types[pos] = var_types[term.name]
                        if term.name in var_names and names[pos] is None:
                            names[pos] = var_names[term.name]
                    elif isinstance(term, Const) and types[pos] is None:
                        types[pos] = _const_type(term.value)
    resolved = tuple(t or AttributeType.STRING for t in types)
    # Column names inherit the source attribute the variable flows
    # through; collisions and unknowns fall back to positional names.
    attrs: list[str] = []
    for pos in range(arity):
        candidate = names[pos] or f'col{pos}'
        if candidate in attrs:
            candidate = f'{candidate}_{pos}'
        attrs.append(candidate)
    return RelationSchema(view, tuple(attrs), resolved)


@dataclass(frozen=True)
class UpdateStrategy:
    """A programmable view update strategy (putback transformation)."""

    view: RelationSchema
    sources: DatabaseSchema
    putdelta: Program
    expected_get: Program | None = None

    def __post_init__(self):
        self._check_shape()
        # Compile-once: the putback and expected-get plans are memoized
        # for the lifetime of the strategy, so every `put` after the
        # first pays execution cost only (no re-stratification, no
        # re-scheduling).  The dataclass is frozen; the plans are
        # derived state, set via object.__setattr__ like a cached field.
        object.__setattr__(self, '_putdelta_plan',
                           compile_program(self.putdelta))
        object.__setattr__(
            self, '_get_plan',
            compile_program(self.expected_get)
            if self.expected_get is not None else None)

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, view: RelationSchema | str, sources: DatabaseSchema,
              putdelta: str, expected_get: str | None = None
              ) -> 'UpdateStrategy':
        """Build a strategy from Datalog source text.

        ``view`` may be a full :class:`RelationSchema` or just a name, in
        which case the view arity is inferred from the program text.
        """
        program = parse_program(textwrap.dedent(putdelta))
        get_program = None
        if expected_get is not None:
            get_program = parse_program(textwrap.dedent(expected_get))
        if isinstance(view, str):
            view = _infer_view_schema(program, get_program, view, sources)
        return cls(view, sources, program, get_program)

    # -- well-formedness of the program shape ----------------------------------

    def _check_shape(self) -> None:
        program = self.putdelta
        check_program_safety(program)
        check_nonrecursive(program)
        arities = program.arities()
        if self.view.name in program.idb_preds():
            raise SchemaError(
                f'the view {self.view.name!r} must not be defined by the '
                f'putback program (it is an input)')
        if self.view.name in arities \
                and arities[self.view.name] != self.view.arity:
            raise SchemaError(
                f'view {self.view.name!r} has declared arity '
                f'{self.view.arity} but is used with arity '
                f'{arities[self.view.name]}')
        for pred in program.idb_preds():
            if not is_delta_pred(pred):
                continue
            base = delta_base(pred)
            if base == self.view.name:
                raise SchemaError(
                    f'delta rules must target source relations, not the '
                    f'view itself: {pred}')
            if base not in self.sources and base not in arities:
                raise SchemaError(f'delta predicate {pred} targets unknown '
                                  f'relation {base!r}')
            if base in self.sources \
                    and arities[pred] != self.sources.arity(base):
                raise SchemaError(
                    f'delta predicate {pred} has arity {arities[pred]} but '
                    f'relation {base!r} has arity '
                    f'{self.sources.arity(base)}')
        for rel in self.sources:
            if rel.name in program.idb_preds():
                raise SchemaError(
                    f'source relation {rel.name!r} must not be redefined '
                    f'by the putback program')
        if self.expected_get is not None:
            if self.view.name not in self.expected_get.idb_preds():
                raise SchemaError(
                    f'expected_get must define the view '
                    f'{self.view.name!r}')

    # -- introspection -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.view.name

    @property
    def putdelta_plan(self) -> ExecutionPlan:
        """The compiled putback program (one plan per strategy object)."""
        return self._putdelta_plan

    @property
    def get_plan(self) -> ExecutionPlan | None:
        """The compiled expected view definition, when one was given."""
        return self._get_plan

    @cached_property
    def incremental_putdelta(self) -> Program:
        """The incrementalized putback ``∂put`` (§5: the LVGN shortcut
        of Lemma 5.2, else the Appendix-C construction), derived once
        per strategy: the SQL trigger compiler and the engine (again on
        a re-plan, ``drop_view`` + ``define_view``) read this program,
        and each compiles it with its own statistics.  A strategy that cannot be
        incrementalized raises :class:`TransformationError` on every
        read."""
        from repro.core.incremental import incrementalize
        return incrementalize(self.putdelta, self.view.name)

    def delta_preds(self) -> set[str]:
        return self.putdelta.delta_preds()

    def updated_relations(self) -> frozenset:
        """Source relations this strategy may modify."""
        return self._updated_relations

    @cached_property
    def _updated_relations(self) -> frozenset:
        return frozenset(delta_base(p) for p in self.delta_preds())

    def constraints(self) -> tuple[Rule, ...]:
        return self.putdelta.constraints()

    def intermediate_rules(self) -> tuple[Rule, ...]:
        """Non-delta, non-constraint rules (auxiliary IDB definitions)."""
        return tuple(r for r in self.putdelta.proper_rules()
                     if not is_delta_pred(r.head.pred))

    def program_size(self) -> int:
        """Lines of Datalog code (rule count), the paper's Table 1 metric."""
        return len(self.putdelta.rules)

    # -- semantics --------------------------------------------------------------

    def putback_input(self, source, view_rows) -> dict:
        """``(S, V')`` as the putback plan's input: the relations of
        ``source`` — a :class:`Database`, or the ``{name: rows}``
        mapping a backend evaluates over — and ``view_rows``, checked
        against the view's schema."""
        if not isinstance(view_rows, (frozenset, set)):
            view_rows = set(view_rows)
        self.view.check_rows(view_rows)
        relations = source.relations if isinstance(source, Database) \
            else source
        return {**relations, self.view.name: view_rows}

    def check_constraints(self, source: Database, view_rows) -> None:
        """Raise :class:`ConstraintViolation` when ``(S, V')`` violates a
        declared ⊥-constraint.  The check short-circuits: enumeration
        stops at the first witness of the first violated rule."""
        execute_deltas(self._putdelta_plan,
                       self.putback_input(source, view_rows), ())

    def compute_delta(self, source, view_rows, *,
                      check: bool = False) -> DeltaSet:
        """Evaluate the putback program: ``putdelta(S, V')`` (§3.1) —
        with ``check``, after :meth:`check_constraints`' check, in the
        same plan context (one evaluation of what both read).

        Runs the memoized plan with the delta predicates as goals, so
        auxiliary predicates that are only probed never materialise.
        """
        pairs = execute_deltas(self._putdelta_plan,
                               self.putback_input(source, view_rows),
                               self._updated_relations, check=check)
        return DeltaSet({name: Delta(*pair) for name, pair in pairs.items()})

    def put(self, source: Database, view_rows, *,
            enforce_constraints: bool = True) -> Database:
        """The putback transformation: ``put(S, V') = S ⊕ putdelta(S, V')``.
        """
        return self.compute_delta(source, view_rows,
                                  check=enforce_constraints
                                  ).apply_to(source)

    def get(self, source: Database) -> frozenset:
        """Evaluate the expected view definition over ``source``.

        Only available when ``expected_get`` was supplied; the validation
        layer can *derive* a get for strategies without one.
        """
        if self.expected_get is None:
            raise ViewUpdateError(
                f'strategy for {self.view.name!r} has no expected_get; run '
                f'validation to derive one')
        name = self.view.name
        return self._get_plan.evaluate(source, goals=(name,))[name]

    def __str__(self) -> str:
        lines = [f'-- update strategy for view {self.view}',
                 pretty(self.putdelta)]
        if self.expected_get is not None:
            lines += ['-- expected view definition',
                      pretty(self.expected_get)]
        return '\n'.join(lines)
