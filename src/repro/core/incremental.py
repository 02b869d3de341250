"""Incrementalization of putback programs (§5, Lemma 5.2, Appendix C).

Two paths are provided:

* :func:`incrementalize_lvgn` — for LVGN-Datalog strategies.  By
  Lemma 5.2, substituting the view-delta predicates for the view literals
  (``v(~t)`` → ``+v(~t)``, ``¬v(~t)`` → ``-v(~t)``) in the delta rules
  yields an equivalent incremental program ``∂put``; delta rules that do
  not mention the view contribute nothing effective in a steady state and
  are dropped.

* :func:`incrementalize_general` — the Appendix-C construction for
  arbitrary nonrecursive programs: the program is *binarized* (Lemma C.1:
  every IDB defined from at most two relations), the Figure-7 rewrite
  rules (join/selection, negation, projection, union) derive insertion and
  deletion deltas for every predicate affected by the view, and finally
  only the insertion sets of the source delta relations are kept
  (Proposition 5.1), under the names ``±r``.  A predicate's pre-update
  value is the predicate itself, as the view's is ``v``: no renamed
  copy of the old state is derived.

Both paths rest on a steady state, one where ``put(S, get(S)) = S``
and the constraints held before the update; both carry the same delta
form of the ⊥-constraints (:func:`_delta_form`).

The resulting ``∂put`` is an ordinary Datalog program over the EDB
``S ∪ {v, +v, -v}`` (the LVGN path reads ``v`` only in the delta form of
a ⊥-rule that mentions the view more than once); the RDBMS layer
evaluates it, ⊥-rules first, instead of the full putback program on
each update.
"""

from __future__ import annotations

import itertools

from repro.datalog.ast import (Atom, BuiltinLit, Lit, Literal, Program,
                               Rule, Var, delete_pred, insert_pred,
                               is_anonymous, is_delta_pred)
from repro.datalog.dependency import stratify
from repro.datalog.transform import tidy_program
from repro.errors import FragmentError, TransformationError

__all__ = ['incrementalize_lvgn', 'incrementalize_general',
           'incrementalize', 'incrementalize_plan', 'binarize']


# ---------------------------------------------------------------------------
# The delta form of a rule (Lemma 5.2), shared by both paths
# ---------------------------------------------------------------------------


def _delta_form(rule: Rule, view: str) -> list[Rule]:
    """Rewrite ``rule`` to read the view delta instead of the view; []
    when the rule has no view literal (its contribution is ineffective
    in a steady state).

    For a rule with one view occurrence this is Lemma 5.2's
    substitution (``v(~t)`` → ``+v(~t)``, ``¬v(~t)`` → ``-v(~t)``).  A
    ⊥-rule may mention the view k times (a key or a functional
    dependency): assuming it held before the update, a new witness over
    the updated view ``v' = (v \\ -v) ∪ +v`` must use an inserted tuple
    in a positive occurrence or a deleted one in a negated occurrence.
    So it becomes one rule per occurrence, in which that occurrence
    reads ``+v`` (positive) or ``-v`` (negated) and every other one
    reads ``v'``, inlined as alternatives and never materialised:
    ``v ∧ ¬-v`` or ``+v`` for a positive occurrence, ``¬+v ∧ ¬v`` or
    ``¬+v ∧ -v`` for a negated one.  This needs ``+v`` and ``-v`` to
    be disjoint, as the engine stages them; a row of ``+v`` already in
    ``v`` or of ``-v`` not in it is still inside (outside) ``v'``, so
    it only re-derives a witness the state already had — none, on a
    steady state.
    """
    occurrences = [i for i, literal in enumerate(rule.body)
                   if isinstance(literal, Lit) and literal.atom.pred == view]
    if len(occurrences) > 1 and not rule.is_constraint:
        raise FragmentError(
            f'rule {rule} uses the view more than once; apply the '
            f'general incrementalization instead')
    bound = set().union(*(literal.var_names() for literal in rule.body
                          if isinstance(literal, Lit) and literal.positive))
    plus, minus = insert_pred(view), delete_pred(view)
    choices: list[list[tuple[Literal, ...]]] = []     # per body literal
    deltas: dict[int, Lit] = {}                       # per occurrence
    for i, literal in enumerate(rule.body):
        if i not in occurrences:
            choices.append([(literal,)])
            continue
        args = literal.atom.args

        def lit(pred: str, positive: bool = True) -> Lit:
            return Lit(Atom(pred, args), positive)
        if literal.positive:
            deltas[i] = lit(plus)
            choices.append([(lit(view), lit(minus, False)), (lit(plus),)])
        elif any(is_anonymous(t) and t.name not in bound for t in args):
            raise FragmentError(
                f'rule {rule} negates the view with a wildcard; its '
                f'delta form is not pointwise')
        else:
            deltas[i] = lit(minus)
            choices.append([(lit(plus, False), lit(view, False)),
                            (lit(plus, False), lit(minus))])
    rules: list[Rule] = []
    for i, delta in deltas.items():
        picks = choices[:i] + [[(delta,)]] + choices[i + 1:]
        rules.extend(Rule(rule.head, tuple(itertools.chain(*body)))
                     for body in itertools.product(*picks))
    return list(dict.fromkeys(rules))     # +v in two occurrences: once


def _refuse_delta_reads(putdelta: Program) -> None:
    """Both paths derive their deltas under the names ``±r``, so a
    putdelta body that reads a delta predicate has no ∂put: raise
    :class:`TransformationError` naming the rule."""
    for rule in putdelta.proper_rules():
        if any(map(is_delta_pred, rule.body_preds())):
            raise TransformationError(
                f'rule {rule} reads a delta predicate, whose name the '
                f'derived delta takes')


def _with_constraints(rules: list[Rule], goals: set[str],
                      constraints: list[Rule]) -> Program:
    """Tidy ``rules`` towards ``goals`` and append ``constraints``,
    keeping every predicate they read."""
    goals = goals.union(*(rule.body_preds() for rule in constraints))
    tidied = tidy_program(Program(tuple(rules)), goals)
    return Program(tidied.rules + tuple(constraints))


# ---------------------------------------------------------------------------
# LVGN shortcut (Lemma 5.2)
# ---------------------------------------------------------------------------


def incrementalize_lvgn(putdelta: Program, view: str) -> Program:
    """Substitute view-delta predicates for view literals (Lemma 5.2).

    Constraint (⊥) rules get the delta form :func:`_delta_form` derives
    for both paths.  Its premise is a steady state: the constraints held
    before the update, so a new violation must involve an inserted
    tuple (positive ``v`` occurrence) or a deleted one (negated
    occurrence), and checking the derived bodies over ``S ∪ ΔV`` is
    equivalent to — and much cheaper than — re-checking the whole view.
    A putdelta body that reads a delta predicate is refused
    (:func:`_refuse_delta_reads`): Lemma 5.2 would drop it as view-free.
    """
    _refuse_delta_reads(putdelta)
    rules: list[Rule] = []
    constraints: list[Rule] = []
    for rule in putdelta.rules:
        if rule.is_constraint:
            # View-free constraints relate only source relations; the
            # sources are only modified through validated strategies, so
            # the check is delegated to their own update path.
            constraints.extend(_delta_form(rule, view))
        elif not is_delta_pred(rule.head.pred):
            rules.append(rule)
        else:
            rules.extend(_delta_form(rule, view))
    goals = {r.head.pred for r in rules if is_delta_pred(r.head.pred)}
    return _with_constraints(rules, goals, constraints)


# ---------------------------------------------------------------------------
# Binarization (Lemma C.1)
# ---------------------------------------------------------------------------


def _schedule_body(rule: Rule) -> list[Literal]:
    """Order body literals for left-to-right evaluability (positive atoms
    bind; builtins and negations follow once bound)."""
    from repro.datalog.plan import schedule_body
    return schedule_body(rule.body)


def binarize(program: Program, *, prefix: str = '__b'
             ) -> Program:
    """Rewrite so every rule is one of the Figure-7 shapes:

    * join: ``h :- p(~Y), q(~Z)`` with ``vars(h) = vars(~Y) ∪ vars(~Z)``
      (``q`` may be replaced by builtins — a selection);
    * negation: ``h :- p(~X), ¬q(~Y)`` with ``vars(~Y) ⊆ vars(~X)``;
    * projection: ``h(~X) :- p(~X, ~Y)``;
    * union: single-atom rules sharing a head.

    Fresh intermediate predicates are named ``{prefix}{n}``.
    """
    counter = itertools.count()
    out: list[Rule] = []

    def fresh(args: tuple[Var, ...], body: tuple[Literal, ...]) -> Atom:
        name = f'{prefix}{next(counter)}'
        head = Atom(name, args)
        out.append(Rule(head, body))
        return head

    for rule in program.rules:
        if rule.is_constraint:
            out.append(rule)
            continue
        ordered = _schedule_body(rule)
        # Accumulate left-to-right: current = positive atom carrying all
        # variables bound so far.
        current: Atom | None = None
        bound: list[Var] = []

        pending: list[Literal] = []

        def flush_step(next_literal: Literal | None) -> None:
            """Combine ``current`` with one more literal (or builtins)."""
            nonlocal current, bound
            if next_literal is None and not pending:
                return
            body: list[Literal] = []
            if current is not None:
                body.append(Lit(current, True))
            new_vars = list(bound)
            if next_literal is not None:
                body.append(next_literal)
                if isinstance(next_literal, Lit) and next_literal.positive:
                    for term in next_literal.atom.args:
                        if isinstance(term, Var) and term not in new_vars:
                            new_vars.append(term)
            body.extend(pending)
            for literal in pending:
                if isinstance(literal, BuiltinLit) and literal.op == '=' \
                        and literal.positive:
                    for term in (literal.left, literal.right):
                        if isinstance(term, Var) and term not in new_vars:
                            new_vars.append(term)
            pending.clear()
            current = fresh(tuple(new_vars), tuple(body))
            bound = new_vars

        for literal in ordered:
            if isinstance(literal, BuiltinLit):
                pending.append(literal)
                continue
            if literal.positive and current is None and not pending:
                current = literal.atom
                bound = [t for t in literal.atom.args
                         if isinstance(t, Var)]
                # Deduplicate while preserving order.
                seen: set[str] = set()
                unique: list[Var] = []
                for v in bound:
                    if v.name not in seen:
                        seen.add(v.name)
                        unique.append(v)
                if len(unique) != len(literal.atom.args) or \
                        any(not isinstance(t, Var)
                            for t in literal.atom.args):
                    # Constants / repeated variables: wrap in a fresh step
                    # so downstream steps see a clean variable tuple.
                    current = fresh(tuple(unique),
                                    (Lit(literal.atom, True),))
                bound = unique
                continue
            flush_step(literal)
        if pending:
            flush_step(None)
        if current is None:
            raise TransformationError(f'cannot binarize rule {rule}')
        # Final projection onto the head.
        out.append(Rule(rule.head, (Lit(current, True),)))
    return Program(tuple(out))


# ---------------------------------------------------------------------------
# Figure-7 delta rules
# ---------------------------------------------------------------------------


def _figure7_rules(rule: Rule, changed: set[str]) -> list[Rule]:
    """Figure 7's rules for one binarized rule of a changed head ``h``:
    its contributions to ``+h``, ``-h`` and the post-state ``h__nu``.
    A predicate's own name is its pre-update value, and ``p__nu`` is
    the post-state of a changed ``p``.  A rule that reads nothing
    changed only copies itself into ``h__nu``.  Union deletions are
    guarded by :func:`_union_deletion_fix`.
    """
    head = rule.head
    rels = [literal for literal in rule.body if isinstance(literal, Lit)]
    builtins = tuple(literal for literal in rule.body
                     if isinstance(literal, BuiltinLit))

    def nu(pred: str) -> str:
        return f'{pred}__nu' if pred in changed else pred

    def derive(name: str, *body: Lit) -> Rule:
        return Rule(Atom(name, head.args), body + builtins)

    def lit(name: str, atom: Atom, positive: bool = True) -> Lit:
        return Lit(Atom(name, atom.args), positive)

    if not rels or not rels[0].positive or len(rels) > 2:
        raise TransformationError(
            f'rule {rule} is not in a Figure-7 shape; binarize first')
    if not rule.body_preds() & changed:
        return [Rule(Atom(nu(head.pred), head.args), rule.body)]
    r1 = rels[0].atom
    plus, minus = insert_pred(head.pred), delete_pred(head.pred)
    if len(rels) == 1:
        # Selection, or projection: a tuple leaves h only when no r1
        # tuple over it is left.
        head_vars = {t.name for t in head.args if isinstance(t, Var)}
        body_vars = {t.name for t in r1.args if isinstance(t, Var)}
        left = [Lit(Atom(nu(r1.pred), tuple(
            t if isinstance(t, Var) and t.name in head_vars
            else Var(f'_anon_pj_{i}') for i, t in enumerate(r1.args))),
            False)] if head_vars < body_vars else []
        return [derive(plus, lit(insert_pred(r1.pred), r1)),
                derive(minus, lit(delete_pred(r1.pred), r1), *left),
                derive(nu(head.pred), lit(nu(r1.pred), r1))]
    # Join, or negation: a negated r2 takes a tuple from h when r2
    # gains one, and gives one back when r2 loses it.
    r2, positive = rels[1].atom, rels[1].positive
    gain, lose = (insert_pred, delete_pred) if positive \
        else (delete_pred, insert_pred)
    out: list[Rule] = []
    if r1.pred in changed:
        out += [derive(minus, lit(delete_pred(r1.pred), r1),
                       lit(r2.pred, r2, positive)),
                derive(plus, lit(insert_pred(r1.pred), r1),
                       lit(nu(r2.pred), r2, positive))]
    if r2.pred in changed:
        out += [derive(minus, lit(r1.pred, r1), lit(lose(r2.pred), r2)),
                derive(plus, lit(nu(r1.pred), r1), lit(gain(r2.pred), r2))]
    return out + [derive(nu(head.pred), lit(nu(r1.pred), r1),
                         lit(nu(r2.pred), r2, positive))]


def _union_deletion_fix(rules: list[Rule],
                        derived: list[Rule]) -> list[Rule]:
    """A tuple leaves a union ``h`` of several ``rules`` only when no
    branch derives it in the post-state (Figure 7, Union): every ``-h``
    rule gains ``not h__nu``."""
    if len(rules) <= 1:
        return derived
    pred = rules[0].head.pred
    return [Rule(d.head, d.body + (Lit(Atom(f'{pred}__nu', d.head.args),
                                       False),))
            if d.head.pred == delete_pred(pred) else d for d in derived]


def incrementalize_general(putdelta: Program, view: str) -> Program:
    """Appendix-C incrementalization for arbitrary NR-Datalog strategies.

    Returns a program computing the source delta relations ``±r_i`` from
    ``S ∪ {v, +v, -v}``.  The putback is binarized (Lemma C.1), and
    every rule reading the view, directly or not, gets Figure 7's
    rules.  A predicate's pre-update value is the predicate itself: the
    EDB holds the old sources and view, and the original rules of every
    auxiliary stay in the program.  Only the delta heads ``±r`` give up
    their names, to their derived insertion sets (Proposition 5.1): the
    insertion set of ``±r`` *is* the new ``±r``, and its deletion set is
    dropped.  So a putdelta rule whose body reads a delta predicate
    would read the new ``±r``; it is refused
    (:func:`_refuse_delta_reads`), and the engine runs the full putback.

    No derived insertion is guarded by a pre-state (Figure 7's
    projection template reads ``not h``, the old ``h``), and on a
    *steady* state (``put(S, get(S)) = S``, the constraints hold) none
    needs to be:

    * every derived ``+p`` lies in the new ``p`` and holds all of
      new ``p`` \\ old ``p``; every derived ``-p`` is disjoint from the
      new ``p`` and holds all of old ``p`` \\ new ``p``.  ``±v`` is
      effective, and each template keeps both bounds, so ``+p`` may
      repeat a tuple already in ``p`` and ``-p`` may name one never in
      it;
    * for a delta head, old ``+r`` ⊆ S and old ``-r`` is disjoint
      from S, or ``put(S, get(S))`` would differ from S.  A tuple of
      new ``±r`` missing from the derived ``±r`` is in old ``±r``, so
      already in (or already out of) S; the new ``+r`` and ``-r`` are
      disjoint by well-definedness.  So applying the derived deltas
      to S gives ``put(S, V')``.

    The ⊥-rules get the delta form :func:`_delta_form` derives for both
    paths, under the same premise; a view-free ⊥-rule is dropped, as in
    :func:`incrementalize_lvgn`.
    """
    _refuse_delta_reads(putdelta)
    binary = binarize(putdelta.without_constraints())
    changed: set[str] = {view}
    order = stratify(binary)
    for pred in order:
        if any(rule.body_preds() & changed
               for rule in binary.rules_for(pred)):
            changed.add(pred)
    derived = [rule for rule in binary.rules
               if not (rule.head.pred in changed
                       and is_delta_pred(rule.head.pred))]
    # ν-rules for the view itself: v__nu = (v \ -v) ∪ +v.
    arity = binary.arities().get(view)
    if arity is not None:
        args = tuple(Var(f'VN{i}') for i in range(arity))
        nu = Atom(f'{view}__nu', args)
        derived += [Rule(nu, (Lit(Atom(view, args), True),
                              Lit(Atom(delete_pred(view), args), False))),
                    Rule(nu, (Lit(Atom(insert_pred(view), args), True),))]
    for pred in order:
        if pred in changed and pred != view:
            rules = list(binary.rules_for(pred))
            derived += _union_deletion_fix(
                rules, [d for rule in rules
                        for d in _figure7_rules(rule, changed)])
    # Proposition 5.1: +(±r) becomes ±r; nothing reads -(±r) or ±r__nu.
    delta_preds = putdelta.delta_preds()
    rename = {insert_pred(dp): dp for dp in delta_preds}
    final = [Rule(Atom(rename.get(rule.head.pred, rule.head.pred),
                       rule.head.args), rule.body) for rule in derived]
    goals = {rule.head.pred for rule in final} & delta_preds
    constraints = [derived_rule for rule in putdelta.constraints()
                   for derived_rule in _delta_form(rule, view)]
    for rule in constraints:
        if rule.body_preds() & (changed - {view}):
            raise TransformationError(
                f'constraint {rule} reads a predicate the view update '
                f'changes; its delta form needs that predicate\'s delta')
    return _with_constraints(final, goals, constraints)


def incrementalize(putdelta: Program, view: str) -> Program:
    """Incrementalize a putback program, choosing the best path: the
    LVGN shortcut (Lemma 5.2) when the program is in the fragment, the
    Appendix-C construction otherwise.
    """
    from repro.core.lvgn import is_lvgn
    if is_lvgn(putdelta, view):
        return incrementalize_lvgn(putdelta, view)
    return incrementalize_general(putdelta, view)


def incrementalize_plan(strategy, *, stats=None):
    """``(∂put, plan)`` of ``strategy``: its incrementalized putback,
    derived once per strategy
    (:attr:`~repro.core.strategy.UpdateStrategy.incremental_putdelta`),
    and that program's compiled
    :class:`~repro.datalog.plan.ExecutionPlan`.  The RDBMS engine
    stores both in its view registry and reuses them for every
    subsequent update, so the per-statement cost is pure execution.
    ``stats`` (a ``{relation: size}`` mapping) seeds the planner's join
    order with observed cardinalities.
    """
    from repro.datalog.plan import compile_program
    program = strategy.incremental_putdelta
    return program, compile_program(program, stats=stats)
