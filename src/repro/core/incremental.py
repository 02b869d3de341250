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
  (Proposition 5.1) and renamed back to ``±r``.

Both paths carry the same delta form of the ⊥-constraints
(:func:`_delta_form`), valid in a steady state: one where the
constraints held before the update.

The resulting ``∂put`` is an ordinary Datalog program over the EDB
``S ∪ {v, +v, -v}`` (the LVGN path reads ``v`` only in the delta form of
a ⊥-rule that mentions the view more than once); the RDBMS layer
evaluates it, ⊥-rules first, instead of the full putback program on
each update.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.datalog.ast import (Atom, BuiltinLit, Lit, Literal, Program,
                               Rule, Var, delete_pred, delta_base,
                               insert_pred, is_anonymous, is_delta_pred)
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
    ``¬+v ∧ -v`` for a negated one.  This needs ``±v`` to be the
    effective delta (``+v ∩ v = ∅``, ``-v ⊆ v``), which the engine
    stages.
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
    """
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


@dataclass
class _NamePool:
    """Naming scheme for the derived predicates of one incrementalization:
    ``+p``/``-p`` for delta sets, ``p__nu`` for post-state relations, and
    ``p__old`` for the pre-update value of affected IDB predicates (the
    view's own pre-state is just the EDB relation ``v``)."""

    changed: set[str]
    view: str

    def nu(self, pred: str) -> str:
        return f'{pred}__nu' if pred in self.changed else pred

    def old(self, pred: str) -> str:
        if pred in self.changed and pred != self.view:
            return f'{pred}__old'
        return pred

    def plus(self, pred: str) -> str:
        return insert_pred(pred)

    def minus(self, pred: str) -> str:
        return delete_pred(pred)


def _figure7_rules(rule: Rule, pool: _NamePool) -> list[Rule]:
    """Apply the matching Figure-7 template to one binarized rule.

    Produces rules for ``+h``, ``-h`` and ``h__nu`` where ``h`` is the rule
    head.  Union is handled by emitting per-rule contributions — for the
    deletion case the "not in the other branch" literal references the
    predicate's *other* defining rules, which the caller assembles.
    """
    head = rule.head
    h = head.pred
    plus_h = Atom(pool.plus(h), head.args)
    minus_h = Atom(pool.minus(h), head.args)
    nu_h = Atom(pool.nu(h), head.args)
    body = list(rule.body)
    rel_lits = [l for l in body if isinstance(l, Lit)]
    builtins = [l for l in body if isinstance(l, BuiltinLit)]
    out: list[Rule] = []

    def lit(atom: Atom, positive=True) -> Lit:
        return Lit(atom, positive)

    def renamed(atom: Atom, name: str) -> Atom:
        return Atom(name, atom.args)

    if len(rel_lits) == 1 and rel_lits[0].positive:
        r1 = rel_lits[0].atom
        changed = r1.pred in pool.changed or \
            delta_base(r1.pred) in pool.changed
        head_vars = {t.name for t in head.args if isinstance(t, Var)}
        body_vars = {t.name for t in r1.args if isinstance(t, Var)}
        is_projection = head_vars < body_vars
        if not changed:
            return []
        if is_projection:
            # Projection template (¬h reads the *pre-update* value).
            anon = Atom(pool.nu(r1.pred), tuple(
                t if isinstance(t, Var) and t.name in head_vars
                else Var(f'_anon_pj_{i}')
                for i, t in enumerate(r1.args)))
            old_head = Atom(pool.old(h), head.args)
            out.append(Rule(plus_h,
                            tuple([lit(renamed(r1, pool.plus(r1.pred)))] +
                                  builtins + [lit(old_head, False)])))
            out.append(Rule(minus_h,
                            tuple([lit(renamed(r1, pool.minus(r1.pred)))] +
                                  builtins + [lit(anon, False)])))
            out.append(Rule(nu_h, tuple([lit(renamed(r1, pool.nu(r1.pred)))]
                                        + builtins)))
        else:
            # Selection / copy (union branches fall out of per-rule calls;
            # the caller patches deletion rules for multi-rule heads).
            out.append(Rule(plus_h,
                            tuple([lit(renamed(r1, pool.plus(r1.pred)))] +
                                  builtins)))
            out.append(Rule(minus_h,
                            tuple([lit(renamed(r1, pool.minus(r1.pred)))] +
                                  builtins)))
            out.append(Rule(nu_h, tuple([lit(renamed(r1, pool.nu(r1.pred)))]
                                        + builtins)))
        return out

    if len(rel_lits) == 2 and rel_lits[0].positive \
            and not rel_lits[1].positive:
        r1, r2 = rel_lits[0].atom, rel_lits[1].atom
        r1_changed = r1.pred in pool.changed
        r2_changed = r2.pred in pool.changed
        if not (r1_changed or r2_changed):
            return []
        # Negation template (plain occurrences read the pre-update state).
        if r1_changed:
            out.append(Rule(minus_h, tuple(
                [lit(renamed(r1, pool.minus(r1.pred))),
                 lit(renamed(r2, pool.old(r2.pred)), False)] + builtins)))
            out.append(Rule(plus_h, tuple(
                [lit(renamed(r1, pool.plus(r1.pred))),
                 lit(renamed(r2, pool.nu(r2.pred)), False)] + builtins)))
        if r2_changed:
            out.append(Rule(minus_h, tuple(
                [lit(renamed(r1, pool.old(r1.pred))),
                 lit(renamed(r2, pool.plus(r2.pred)))] + builtins)))
            out.append(Rule(plus_h, tuple(
                [lit(renamed(r1, pool.nu(r1.pred))),
                 lit(renamed(r2, pool.minus(r2.pred)))] + builtins)))
        out.append(Rule(nu_h, tuple(
            [lit(renamed(r1, pool.nu(r1.pred))),
             lit(renamed(r2, pool.nu(r2.pred)), False)] + builtins)))
        return out

    if len(rel_lits) == 2 and rel_lits[0].positive and rel_lits[1].positive:
        r1, r2 = rel_lits[0].atom, rel_lits[1].atom
        r1_changed = r1.pred in pool.changed
        r2_changed = r2.pred in pool.changed
        if not (r1_changed or r2_changed):
            return []
        # Join template.
        if r1_changed:
            out.append(Rule(minus_h, tuple(
                [lit(renamed(r1, pool.minus(r1.pred))),
                 lit(renamed(r2, pool.old(r2.pred)))] + builtins)))
            out.append(Rule(plus_h, tuple(
                [lit(renamed(r1, pool.plus(r1.pred))),
                 lit(renamed(r2, pool.nu(r2.pred)))] + builtins)))
        if r2_changed:
            out.append(Rule(minus_h, tuple(
                [lit(renamed(r1, pool.old(r1.pred))),
                 lit(renamed(r2, pool.minus(r2.pred)))] + builtins)))
            out.append(Rule(plus_h, tuple(
                [lit(renamed(r1, pool.nu(r1.pred))),
                 lit(renamed(r2, pool.plus(r2.pred)))] + builtins)))
        out.append(Rule(nu_h, tuple(
            [lit(renamed(r1, pool.nu(r1.pred))),
             lit(renamed(r2, pool.nu(r2.pred)))] + builtins)))
        return out

    raise TransformationError(
        f'rule {rule} is not in a Figure-7 shape; binarize first')


def _union_deletion_fix(pred: str, rules: list[Rule], derived: list[Rule],
                        pool: _NamePool) -> list[Rule]:
    """For a predicate with multiple defining rules (union), a deletion
    from one branch only deletes from the union when the tuple is not
    produced by any *other* branch's new state (Figure 7, Union)."""
    if len(rules) <= 1:
        return derived
    minus_name = pool.minus(pred)
    patched: list[Rule] = []
    # Add "not in any other branch's nu" to every -h rule.
    for d in derived:
        if d.head.pred != minus_name:
            patched.append(d)
            continue
        extra: list[Lit] = []
        for other in rules:
            # Guard against deleting a tuple still derivable elsewhere:
            # ¬ other_branch__nu(head args).  Branch bodies with their own
            # variables need projection; binarized unions are single-atom
            # copies, so the head args align with the branch atom args.
            body_lits = [l for l in other.body if isinstance(l, Lit)]
            if len(body_lits) != 1 or not body_lits[0].positive:
                continue
            atom = body_lits[0].atom
            if d.body and isinstance(d.body[0], Lit) and \
                    delta_base(d.body[0].atom.pred).replace('__nu', '') \
                    == atom.pred:
                continue  # same branch
            source = Atom(pool.nu(atom.pred), d.head.args)
            extra.append(Lit(source, False))
        patched.append(Rule(d.head, d.body + tuple(extra)))
    return patched


def incrementalize_general(putdelta: Program, view: str) -> Program:
    """Appendix-C incrementalization for arbitrary NR-Datalog strategies.

    Returns a program computing the source delta relations ``±r_i`` from
    ``S ∪ {v, +v, -v}``; Proposition 5.1 justifies keeping only the
    insertion sets of the delta-of-delta relations.  The ⊥-rules get
    the delta form :func:`_delta_form` derives for both paths, under the
    same steady-state premise (the constraints held before the update);
    a view-free ⊥-rule is dropped, as in :func:`incrementalize_lvgn`.
    """
    binary = binarize(putdelta.without_constraints())
    changed: set[str] = {view}
    # Propagate change through the dependency order.
    order = stratify(binary)
    for pred in order:
        for rule in binary.rules_for(pred):
            if rule.body_preds() & changed:
                changed.add(pred)
                break
    pool = _NamePool(changed=changed, view=view)

    derived: list[Rule] = []
    # Pre-update copies of every affected IDB predicate: the original
    # rules, reading the old view and the old versions of affected
    # auxiliaries.  Projection templates reference these.
    for pred in order:
        if pred not in changed or pred == view:
            continue
        for rule in binary.rules_for(pred):
            body = []
            for literal in rule.body:
                if isinstance(literal, Lit):
                    body.append(Lit(Atom(pool.old(literal.atom.pred),
                                         literal.atom.args),
                                    literal.positive))
                else:
                    body.append(literal)
            derived.append(Rule(Atom(pool.old(pred), rule.head.args),
                                tuple(body)))
    # ν-rules for the view itself: v__nu = (v \ -v) ∪ +v.
    arities = binary.arities()
    if view in arities:
        args = tuple(Var(f'VN{i}') for i in range(arities[view]))
        nu = Atom(pool.nu(view), args)
        derived.append(Rule(nu, (Lit(Atom(view, args), True),
                                 Lit(Atom(delete_pred(view), args),
                                     False))))
        derived.append(Rule(nu, (Lit(Atom(insert_pred(view), args),
                                     True),)))

    for pred in order:
        if pred not in changed or pred == view:
            continue
        rules = list(binary.rules_for(pred))
        pred_rules: list[Rule] = []
        for rule in rules:
            pred_rules.extend(_figure7_rules(rule, pool))
        pred_rules = _union_deletion_fix(pred, rules, pred_rules, pool)
        derived.extend(pred_rules)

    # Keep unchanged auxiliary definitions (they are still referenced).
    for rule in binary.rules:
        if rule.head is not None and rule.head.pred not in changed:
            derived.append(rule)

    # Step 4: the insertion sets of the delta relations become the final
    # deltas (Proposition 5.1): rename +(±r) back to ±r and drop -(±r).
    final: list[Rule] = []
    goals: set[str] = set()
    delta_preds = putdelta.delta_preds()
    rename: dict[str, str] = {}
    drop: set[str] = set()
    for dp in delta_preds:
        rename[insert_pred(dp)] = dp          # '+(+r)' -> '+r', '+(-r)' -> '-r'
        drop.add(delete_pred(dp))             # '-(±r)' is redundant
        drop.add(f'{dp}__nu')
    for rule in derived:
        if rule.head.pred in drop:
            continue
        head_pred = rename.get(rule.head.pred, rule.head.pred)
        body = []
        for literal in rule.body:
            if isinstance(literal, Lit) and literal.atom.pred in rename:
                body.append(Lit(Atom(rename[literal.atom.pred],
                                     literal.atom.args), literal.positive))
            else:
                body.append(literal)
        final.append(Rule(Atom(head_pred, rule.head.args), tuple(body)))
        if head_pred in delta_preds:
            goals.add(head_pred)
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
