"""Deriving the view definition from a putback program (§4.3, Lemma 4.2).

Given an update strategy ``put`` (delta rules + constraints), a view
instance ``V`` is a *steady state* for a source ``S`` when ``(S, V)``
satisfies every constraint and ``S ⊕ putdelta(S, V) = S``, i.e. (eq. 11)::

    Δ⁻Ri ∩ Ri = ∅     and     Δ⁺Ri \\ Ri = ∅      for every source Ri.

Each delta rule and each view-referencing constraint therefore contributes
one *condition* — a conjunction that must be unsatisfiable in a steady
state.  The linear-view restriction makes every condition contain at most
one view literal, so the conditions partition into (Lemma 4.2):

* φ1 — residues of conditions with a **positive** view literal
  (they bound V from above:  V ⊆ ¬φ1);
* φ2 — residues of conditions with a **negative** view literal
  (they bound V from below:  φ2 ⊆ V);
* φ3 — view-free conditions (must be unsatisfiable outright).

A steady state exists for every source iff φ3 is unsatisfiable and
``∃Y. φ1(Y) ∧ φ2(Y)`` is unsatisfiable; choosing ``V_min = φ2`` yields the
derived view definition, materialised as Datalog via Appendix B.

Source-only constraints (no view atom) are treated as *axioms* on the
source database — the paper's "satisfiability under Σ" (Theorem 3.2) —
rather than as φ3 contributions, so that e.g. a foreign key among base
tables does not spuriously invalidate every strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalog.ast import (Atom, BuiltinLit, Lit, Literal, Program, Rule,
                               Var, delta_base, is_delete_pred,
                               is_delta_pred)
from repro.datalog.pretty import pretty_rule
from repro.datalog.safety import bound_variables
from repro.datalog.transform import tidy_program
from repro.errors import FragmentError, TransformationError
from repro.fol.datalog_to_fol import literal_to_fol, term_to_fol
from repro.fol.fol_to_datalog import fol_to_datalog
from repro.fol.formula import (FoEq, FoVar, Formula, free_variables,
                               make_and, make_exists, make_or)
from repro.fol.solver import SatResult, SolverConfig, check_satisfiable

__all__ = ['Condition', 'SteadyStateAnalysis', 'analyze_steady_state',
           'derive_get']


@dataclass(frozen=True)
class Condition:
    """One steady-state condition: ``origin`` explains which rule produced
    it; ``view_literal`` is its unique view literal (None for φ3
    conditions); ``residue`` is everything else."""

    origin: str
    view_literal: Lit | None
    residue: tuple[Literal, ...]


@dataclass
class SteadyStateAnalysis:
    """The φ1/φ2/φ3 decomposition plus everything needed for the checks."""

    view: str
    view_arity: int
    positive_conditions: list[Condition]
    negative_conditions: list[Condition]
    viewfree_conditions: list[Condition]
    intermediates: Program            # auxiliary IDB rules (view-free)
    source_axioms: Program            # source-only ⊥-constraints
    phi2: Formula | None = None       # the V_min formula (lazy)


def _rename_condition(index: int, literals: list[Literal]
                      ) -> list[Literal]:
    """Standardize a condition's variables apart with a ``#cN`` suffix."""
    names: set[str] = set()
    for literal in literals:
        names |= literal.var_names()
    binding = {name: Var(f'{name}#c{index}') for name in names}
    return [l.substitute(binding) for l in literals]


def _split_view(literals: list[Literal], view: str, origin: str
                ) -> tuple[Lit | None, list[Literal]]:
    view_lits = [l for l in literals
                 if isinstance(l, Lit) and l.atom.pred == view]
    if len(view_lits) > 1:
        raise FragmentError(
            f'{origin}: more than one view literal; the steady-state '
            f'construction requires the linear view restriction (Def. 3.2)')
    view_lit = view_lits[0] if view_lits else None
    residue = [l for l in literals if l is not view_lit]
    return view_lit, residue


def analyze_steady_state(putdelta: Program, view: str, view_arity: int,
                         source_relations: set[str]) -> SteadyStateAnalysis:
    """Decompose the strategy into steady-state conditions (Lemma 4.2)."""
    positive: list[Condition] = []
    negative: list[Condition] = []
    viewfree: list[Condition] = []
    index = 0

    def add(origin: str, literals: list[Literal]) -> None:
        nonlocal index
        renamed = _rename_condition(index, literals)
        index += 1
        view_lit, residue = _split_view(renamed, view, origin)
        condition = Condition(origin, view_lit, tuple(residue))
        if view_lit is None:
            viewfree.append(condition)
        elif view_lit.positive:
            positive.append(condition)
        else:
            negative.append(condition)

    for rule in putdelta.proper_rules():
        pred = rule.head.pred
        if not is_delta_pred(pred):
            continue
        base = delta_base(pred)
        base_atom = Atom(base, rule.head.args)
        if is_delete_pred(pred):
            # Δ⁻R ∩ R ≠ ∅  ⇝  body ∧ r(head)
            extra: Literal = Lit(base_atom, True)
        else:
            # Δ⁺R \ R ≠ ∅  ⇝  body ∧ ¬r(head)
            extra = Lit(base_atom, False)
        add(f'delta rule "{pretty_rule(rule)}"',
            list(rule.body) + [extra])

    source_axiom_rules: list[Rule] = []
    for rule in putdelta.constraints():
        has_view = any(isinstance(l, Lit) and l.atom.pred == view
                       for l in rule.body)
        if has_view:
            add(f'constraint "{pretty_rule(rule)}"', list(rule.body))
        else:
            source_axiom_rules.append(rule)

    intermediates = Program(tuple(
        r for r in putdelta.proper_rules()
        if not is_delta_pred(r.head.pred)))

    return SteadyStateAnalysis(
        view=view, view_arity=view_arity,
        positive_conditions=positive, negative_conditions=negative,
        viewfree_conditions=viewfree, intermediates=intermediates,
        source_axioms=Program(tuple(source_axiom_rules)))


# ---------------------------------------------------------------------------
# Satisfiability checks (φ3; ∃Y φ1 ∧ φ2)
# ---------------------------------------------------------------------------

PHI3_GOAL = '__phi3__'
PHI12_GOAL = '__phi12__'


def phi3_check_program(analysis: SteadyStateAnalysis) -> Program:
    """Datalog program whose goal is satisfiable iff φ3 is."""
    rules = [Rule(Atom(PHI3_GOAL, ()), condition.residue)
             for condition in analysis.viewfree_conditions]
    return Program(tuple(rules) + analysis.intermediates.rules +
                   analysis.source_axioms.rules)


def _alignment_equalities(condition: Condition,
                          shared: tuple[Var, ...]) -> list[Literal]:
    """Equalities binding the shared Y-tuple to the condition's view-atom
    arguments."""
    atom = condition.view_literal.atom
    return [BuiltinLit('=', y, term) for y, term in zip(shared, atom.args)]


def phi12_check_program(analysis: SteadyStateAnalysis) -> Program:
    """Datalog program whose goal is satisfiable iff ∃Y φ1(Y) ∧ φ2(Y) is.

    One rule per (positive condition, negative condition) pair, with the
    two view tuples unified through a shared variable vector.
    """
    shared = tuple(Var(f'Y{i}#s') for i in range(analysis.view_arity))
    rules: list[Rule] = []
    for pos in analysis.positive_conditions:
        for neg in analysis.negative_conditions:
            body = (list(pos.residue) + list(neg.residue) +
                    _alignment_equalities(pos, shared) +
                    _alignment_equalities(neg, shared))
            rules.append(Rule(Atom(PHI12_GOAL, ()), tuple(body)))
    return Program(tuple(rules) + analysis.intermediates.rules +
                   analysis.source_axioms.rules)


# ---------------------------------------------------------------------------
# φ2 as an FO formula and the derived get
# ---------------------------------------------------------------------------


def _residue_to_fol(condition: Condition) -> Formula:
    """FO conjunction of the residue (intermediates stay opaque atoms).
    The head equalities bind the view literal's variables as a positive
    atom would."""
    bound = bound_variables(Rule(None, (
        Lit(condition.view_literal.atom), *condition.residue)))
    return make_and(literal_to_fol(l, bound=bound)
                    for l in condition.residue)


def phi2_formula(analysis: SteadyStateAnalysis,
                 head_vars: tuple[FoVar, ...]) -> Formula:
    """φ2(Y) = ∨ over negative conditions of ∃Z (eqs ∧ residue)."""
    disjuncts: list[Formula] = []
    for condition in analysis.negative_conditions:
        atom = condition.view_literal.atom
        equalities = [FoEq(y, term_to_fol(t))
                      for y, t in zip(head_vars, atom.args)]
        conj = make_and(equalities + [_residue_to_fol(condition)])
        head_names = {v.name for v in head_vars}
        bound = sorted(free_variables(conj) - head_names)
        disjuncts.append(make_exists(tuple(FoVar(n) for n in bound), conj))
    return make_or(disjuncts)


@dataclass
class GetDerivation:
    """Outcome of §4.3: either a derived get or the failing check."""

    ok: bool
    get_program: Program | None = None
    phi3_result: SatResult | None = None
    phi12_result: SatResult | None = None
    reason: str | None = None


def derive_get(putdelta: Program, view: str, view_arity: int,
               source_relations: set[str], *,
               schema=None,
               config: SolverConfig | None = None) -> GetDerivation:
    """Construct a view definition satisfying GetPut, or explain failure.

    Implements §4.3: check φ3 and ∃Y φ1∧φ2 unsatisfiable (under the
    source-only axioms), then materialise ``get := φ2`` through the
    safe-range FO → Datalog translation of Appendix B.
    """
    try:
        analysis = analyze_steady_state(putdelta, view, view_arity,
                                        source_relations)
    except FragmentError as exc:
        return GetDerivation(ok=False, reason=str(exc))

    phi3 = check_satisfiable(phi3_check_program(analysis), PHI3_GOAL,
                             schema=schema, config=config)
    if phi3.is_sat:
        return GetDerivation(
            ok=False, phi3_result=phi3,
            reason=('no steady-state view exists: a view-independent '
                    'condition (φ3) is satisfiable — some source database '
                    'is always modified by put'))

    phi12 = check_satisfiable(phi12_check_program(analysis), PHI12_GOAL,
                              schema=schema, config=config)
    if phi12.is_sat:
        return GetDerivation(
            ok=False, phi3_result=phi3, phi12_result=phi12,
            reason=('no steady-state view exists: the lower bound φ2 and '
                    'upper bound ¬φ1 of the view cross (∃Y φ1 ∧ φ2 is '
                    'satisfiable)'))

    head_vars = tuple(FoVar(f'GY{i}') for i in range(view_arity))
    phi2 = phi2_formula(analysis, head_vars)
    analysis.phi2 = phi2
    if not analysis.negative_conditions:
        return GetDerivation(
            ok=False, phi3_result=phi3, phi12_result=phi12,
            reason=('the strategy never deletes view tuples from the '
                    'source (no negative view condition), so V_min is '
                    'empty everywhere; the derived get would be the empty '
                    'view — refusing to construct a degenerate definition'))
    try:
        program, _goal = fol_to_datalog(phi2, view,
                                        tuple(v.name for v in head_vars))
    except TransformationError as exc:
        return GetDerivation(ok=False, phi3_result=phi3,
                             phi12_result=phi12,
                             reason=f'φ2 is not safe range: {exc}')
    full = Program(program.rules + analysis.intermediates.rules)
    get_program = tidy_program(full, {view})
    return GetDerivation(ok=True, get_program=get_program,
                         phi3_result=phi3, phi12_result=phi12)
