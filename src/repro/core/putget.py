"""Datalog compositions for the GetPut and PutGet checks (§4.3–§4.4).

* :func:`getput_check_program` — with the view defined by a candidate
  ``get`` over the source, GetPut holds iff applying the putback program
  leaves every source relation unchanged, i.e. each *effective* delta
  (eq. 11: ``Δ⁻Ri ∩ Ri`` and ``Δ⁺Ri \\ Ri``) is unsatisfiable.  One
  program carries every delta's goal rule.

* :func:`putget_check_program` — builds the paper's ``putget`` program:
  the putback rules, the ``r_new`` rules materialising ``S ⊕ ΔS``, and the
  ``get`` query re-targeted at the new source.  PutGet holds iff both test
  predicates (``v_new \\ v`` and ``v \\ v_new``) are unsatisfiable —
  sentences Φ1/Φ2 of (9)/(10).
"""

from __future__ import annotations

from repro.datalog.ast import (Atom, Lit, Program, Rule, Var, delete_pred,
                               delta_base, insert_pred, is_delta_pred)
from repro.datalog.transform import rename_predicates
from repro.relational.schema import DatabaseSchema

__all__ = ['getput_check_program', 'putget_check_program',
           'new_source_rules', 'NEW_SUFFIX', 'PG_EXTRA', 'PG_MISSING']

NEW_SUFFIX = '_new'
PG_EXTRA = '__pg_extra__'      # tuples produced by get∘put but not in V
PG_MISSING = '__pg_missing__'  # tuples of V lost by get∘put


def _vars(prefix: str, arity: int) -> tuple[Var, ...]:
    return tuple(Var(f'{prefix}{i}') for i in range(arity))


def _source_arities(putdelta: Program, sources: DatabaseSchema
                    ) -> dict[str, int]:
    arities = {rel.name: rel.arity for rel in sources}
    for pred, arity in putdelta.arities().items():
        if is_delta_pred(pred):
            arities.setdefault(delta_base(pred), arity)
    return arities


def new_source_rules(putdelta: Program, sources: DatabaseSchema
                     ) -> tuple[dict[str, str], tuple[Rule, ...]]:
    """Rules defining ``r_new = r ⊕ Δr`` for every updated relation.

    Returns ``(rename_map, rules)`` where the map sends each *updated*
    source relation to its ``_new`` predicate (unchanged relations are
    read directly, no alias indirection needed).
    """
    deltas = putdelta.delta_preds()
    updated = {delta_base(p) for p in deltas}
    arities = _source_arities(putdelta, sources)
    rename: dict[str, str] = {}
    rules: list[Rule] = []
    for name in sorted(updated):
        new_name = name + NEW_SUFFIX
        rename[name] = new_name
        args = _vars('N', arities[name])
        head = Atom(new_name, args)
        body: list = [Lit(Atom(name, args), True)]
        if delete_pred(name) in deltas:
            body.append(Lit(Atom(delete_pred(name), args), False))
        rules.append(Rule(head, tuple(body)))
        if insert_pred(name) in deltas:
            rules.append(Rule(head, (Lit(Atom(insert_pred(name), args),
                                         True),)))
    return rename, tuple(rules)


def _retarget_get(get_program: Program, view: str, prefix: str,
                  view_target: str, source_rename: dict[str, str]
                  ) -> Program:
    """Rename the get query so its IDB predicates cannot clash with the
    putback program's, its view output becomes ``view_target``, and its
    source references follow ``source_rename``."""
    mapping = dict(source_rename)
    for pred in get_program.idb_preds():
        mapping[pred] = view_target if pred == view else prefix + pred
    return rename_predicates(get_program, mapping)


def getput_check_program(putdelta: Program, get_program: Program,
                         view: str, sources: DatabaseSchema
                         ) -> tuple[Program, list[str]]:
    """The GetPut check program and its goals, one per effective delta.

    The program defines the view from the source via ``get``, runs the
    putback rules on top and defines each goal; GetPut holds iff every
    goal is unsatisfiable (over source databases satisfying the
    constraints).
    """
    get_rules = _retarget_get(get_program, view, 'gp__', view, {})
    arities = _source_arities(putdelta, sources)
    goal_rules: list[Rule] = []
    for pred in sorted(putdelta.delta_preds()):
        base = delta_base(pred)
        args = _vars('G', arities[base])
        goal = f'__gp_{pred[0]}{base}__'.replace('+', 'ins_') \
            .replace('-', 'del_')
        if pred.startswith('-'):
            # Effective deletion: Δ⁻R ∩ R
            body = (Lit(Atom(pred, args), True), Lit(Atom(base, args), True))
        else:
            # Effective insertion: Δ⁺R \ R
            body = (Lit(Atom(pred, args), True),
                    Lit(Atom(base, args), False))
        goal_rules.append(Rule(Atom(goal, args), body))
    return (Program(putdelta.rules + get_rules.rules + tuple(goal_rules)),
            [rule.head.pred for rule in goal_rules])


def putget_check_program(putdelta: Program, get_program: Program,
                         view: str, view_arity: int,
                         sources: DatabaseSchema
                         ) -> tuple[Program, list[str]]:
    """The paper's ``putget`` composition plus the Φ1/Φ2 test predicates.

    Returns ``(program, [extra_goal, missing_goal])``; PutGet holds iff
    both goals are unsatisfiable over ``(S, V)`` instances satisfying the
    constraints.
    """
    source_rename, rnew_rules = new_source_rules(putdelta, sources)
    vnew = f'{view}{NEW_SUFFIX}'
    get_rules = _retarget_get(get_program, view, 'pg__', vnew,
                              source_rename)
    args = _vars('Y', view_arity)
    extra_rule = Rule(Atom(PG_EXTRA, args),
                      (Lit(Atom(vnew, args), True),
                       Lit(Atom(view, args), False)))
    missing_rule = Rule(Atom(PG_MISSING, args),
                        (Lit(Atom(view, args), True),
                         Lit(Atom(vnew, args), False)))
    program = Program(putdelta.rules + rnew_rules + get_rules.rules +
                      (extra_rule, missing_rule))
    return program, [PG_EXTRA, PG_MISSING]
