"""Program transformations: simplification, renaming, pruning.

These keep machine-derived programs (the constructed ``get`` of §4.3, the
incrementalized ``∂put`` of §5, the ``putget`` composition of §4.4)
readable and free of redundant literals, without changing semantics.
"""

from __future__ import annotations

from repro.datalog.ast import (Atom, BuiltinLit, Const, Lit, Literal,
                               Program, Rule, Term, Var)

__all__ = ['simplify_rule', 'simplify_program', 'prune_unreachable',
           'rename_rule_variables', 'tidy_program', 'rename_predicates']


def eliminate_var_equalities(rule: Rule) -> Rule:
    """Remove positive ``X = Y`` literals by substitution.

    Head variables are preferred as representatives so the head keeps its
    original names.  ``X = c`` equalities are also folded in by replacing
    ``X`` with the constant everywhere.
    """
    head_names = set() if rule.head is None else rule.head.var_names()
    changed = True
    while changed:
        changed = False
        for i, literal in enumerate(rule.body):
            if not isinstance(literal, BuiltinLit) or literal.op != '=' \
                    or not literal.positive:
                continue
            left, right = literal.left, literal.right
            binding: dict[str, Term] | None = None
            if isinstance(left, Var) and isinstance(right, Var):
                if left.name == right.name:
                    binding = {}
                elif right.name in head_names and \
                        left.name not in head_names:
                    binding = {left.name: right}
                else:
                    binding = {right.name: left}
            elif isinstance(left, Var) and isinstance(right, Const):
                if left.name not in head_names:
                    binding = {left.name: right}
            elif isinstance(right, Var) and isinstance(left, Const):
                if right.name not in head_names:
                    binding = {right.name: left}
            elif isinstance(left, Const) and isinstance(right, Const) \
                    and left.value == right.value:
                binding = {}
            if binding is None:
                continue
            rest = rule.body[:i] + rule.body[i + 1:]
            rule = Rule(rule.head, rest).substitute(binding)
            changed = True
            break
    return rule


def dedupe_literals(rule: Rule) -> Rule:
    seen: set = set()
    kept: list[Literal] = []
    for literal in rule.body:
        if literal in seen:
            continue
        seen.add(literal)
        kept.append(literal)
    return Rule(rule.head, tuple(kept))


def drop_trivial_builtins(rule: Rule) -> Rule:
    """Remove tautological builtins (``t = t``, true ground comparisons)."""
    kept: list[Literal] = []
    for literal in rule.body:
        if isinstance(literal, BuiltinLit):
            left, right = literal.left, literal.right
            if literal.op == '=' and literal.positive and left == right:
                continue
            if isinstance(left, Const) and isinstance(right, Const):
                from repro.datalog.evaluator import _compare
                try:
                    value = _compare(literal.op if literal.op != '=' else
                                     '=', left.value, right.value)
                except Exception:  # mixed types: keep literal, fails later
                    kept.append(literal)
                    continue
                if value == literal.positive:
                    continue  # always true: drop
        kept.append(literal)
    return Rule(rule.head, tuple(kept))


def simplify_rule(rule: Rule) -> Rule:
    return dedupe_literals(drop_trivial_builtins(
        eliminate_var_equalities(rule)))


def rename_rule_variables(rule: Rule) -> Rule:
    """Strip machine-generated suffixes (``X#3`` → ``X``) when unambiguous,
    else fall back to ``V0, V1, ...``; anonymity is preserved."""
    names = sorted(rule.variables())
    mapping: dict[str, Term] = {}
    used: set[str] = set()
    counter = 0
    for name in names:
        base = name.split('#', 1)[0]
        candidate = base
        if candidate in used or not candidate:
            prefix = '_V' if name.startswith('_') else 'V'
            while f'{prefix}{counter}' in used or f'{prefix}{counter}' \
                    in names:
                counter += 1
            candidate = f'{prefix}{counter}'
            counter += 1
        used.add(candidate)
        if candidate != name:
            mapping[name] = Var(candidate)
    return rule.substitute(mapping) if mapping else rule


def simplify_program(program: Program) -> Program:
    rules = []
    seen: set[Rule] = set()
    for rule in program.rules:
        simplified = rename_rule_variables(simplify_rule(rule))
        if simplified not in seen:
            seen.add(simplified)
            rules.append(simplified)
    return Program(tuple(rules))


def prune_unreachable(program: Program, goals: set[str]) -> Program:
    """Keep only rules (transitively) needed to compute ``goals``;
    constraint rules are always kept."""
    needed = set(goals)
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            if rule.head is None or rule.head.pred in needed:
                for pred in rule.body_preds():
                    if pred not in needed:
                        needed.add(pred)
                        changed = True
    kept = tuple(r for r in program.rules
                 if r.head is None or r.head.pred in needed)
    return Program(kept)


def rename_predicates(program: Program, mapping: dict[str, str]) -> Program:
    """Rename predicate symbols throughout (heads and bodies)."""
    def rename_atom(atom: Atom) -> Atom:
        return Atom(mapping.get(atom.pred, atom.pred), atom.args)

    rules = []
    for rule in program.rules:
        head = None if rule.head is None else rename_atom(rule.head)
        body = tuple(Lit(rename_atom(l.atom), l.positive)
                     if isinstance(l, Lit) else l for l in rule.body)
        rules.append(Rule(head, body))
    return Program(tuple(rules))


def inline_single_rule_predicates(program: Program,
                                  keep: set[str]) -> Program:
    """Unfold IDB predicates defined by exactly one rule into their
    (positive) uses — a standard Datalog cleanup that removes the
    projection indirections produced by the FO → Datalog translation.

    Predicates in ``keep``, predicates with multiple rules, and predicates
    that occur negated anywhere are left untouched (unfolding under ¬
    would change semantics).
    """
    changed = True
    while changed:
        changed = False
        negated: set[str] = set()
        use_count: dict[str, int] = {}
        for rule in program.rules:
            for literal in rule.body:
                if isinstance(literal, Lit):
                    use_count[literal.atom.pred] = \
                        use_count.get(literal.atom.pred, 0) + 1
                    if not literal.positive:
                        negated.add(literal.atom.pred)
        candidates = [p for p in program.idb_preds()
                      if p not in keep and p not in negated
                      and len(program.rules_for(p)) == 1]
        for pred in candidates:
            definition = program.rules_for(pred)[0]
            if pred in definition.body_preds():
                continue  # self-reference (cannot happen when acyclic)
            new_rules: list[Rule] = []
            for rule in program.rules:
                if rule is definition:
                    continue
                new_rules.append(_inline_into(rule, pred, definition))
            program = Program(tuple(new_rules))
            changed = True
            break
    return program


def _inline_into(rule: Rule, pred: str, definition: Rule) -> Rule:
    """Replace every positive ``pred`` literal in ``rule`` by the body of
    ``definition`` (standardized apart, head unified via equalities)."""
    if pred not in rule.body_preds():
        return rule
    counter = 0
    body: list[Literal] = []
    for literal in rule.body:
        if not isinstance(literal, Lit) or literal.atom.pred != pred \
                or not literal.positive:
            body.append(literal)
            continue
        def fresh_name(name: str) -> str:
            # Preserve the '_' prefix so anonymity survives renaming.
            if name.startswith('_'):
                return f'_I{counter}_{name.lstrip("_")}'
            return f'I{counter}_{name}'

        renamed = definition.substitute(
            {name: Var(fresh_name(name))
             for name in definition.variables()})
        counter += 1
        for head_term, arg in zip(renamed.head.args, literal.atom.args):
            body.append(BuiltinLit('=', head_term, arg))
        body.extend(renamed.body)
    return simplify_rule(Rule(rule.head, tuple(body)))


def tidy_program(program: Program, goals: set[str]) -> Program:
    """The standard cleanup pipeline for machine-derived programs."""
    pruned = prune_unreachable(program, goals)
    inlined = inline_single_rule_predicates(pruned, goals)
    return simplify_program(prune_unreachable(inlined, goals))
