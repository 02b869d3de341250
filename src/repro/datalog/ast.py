"""Abstract syntax for nonrecursive Datalog with negation and builtins.

The surface language follows the paper (§2.1, §3): a program is a set of
rules ``H :- L1, ..., Ln.`` where each ``Li`` is a possibly negated
relational atom, an equality, or a comparison.  Three syntactic conventions
from the paper are encoded directly in the data model:

* Delta predicates ``+r`` / ``-r`` denote insertions into / deletions from
  the base relation ``r`` (§3.1).  They are represented as ordinary predicate
  symbols whose name carries the ``+``/``-`` prefix; the helpers
  :func:`is_insert_pred`, :func:`is_delete_pred`, :func:`is_delta_pred` and
  :func:`delta_base` interpret the prefix.
* Constraint rules have the truth constant ``⊥`` as their head (§3.2.3);
  they are represented with ``head=None`` (see :attr:`Rule.is_constraint`).
* Anonymous variables ``_`` are expanded by the parser into fresh variables
  whose name starts with ``'_'``; :func:`is_anonymous` recognises them
  (needed by the linear-view check, Def. 3.2).

All AST nodes are immutable (frozen dataclasses) so they can be used as
dictionary keys and set members, shared freely, and safely cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    'Term', 'Var', 'Const', 'Atom', 'Literal', 'BuiltinLit', 'Lit', 'Rule',
    'Program', 'COMPARISON_OPS', 'BUILTIN_OPS', 'insert_pred', 'delete_pred',
    'is_insert_pred', 'is_delete_pred', 'is_delta_pred', 'delta_base',
    'is_anonymous', 'substitute_term',
]

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    """A Datalog variable.  Names conventionally start with an uppercase
    letter; anonymous variables expand to names starting with ``'_'``."""

    name: str

    def __repr__(self) -> str:
        return f'Var({self.name!r})'

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    """A typed constant: ``int``, ``float`` or ``str``.

    Dates are modelled as ISO-8601 strings (``'1962-01-01'``), which makes
    lexicographic string comparison coincide with chronological order — the
    same trick the paper's case study relies on for ``residents1962``.
    """

    value: Union[int, float, str]

    def __repr__(self) -> str:
        return f'Const({self.value!r})'

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


Term = Union[Var, Const]


def is_anonymous(term: Term) -> bool:
    """True for variables produced from the anonymous ``_`` marker."""
    return isinstance(term, Var) and term.name.startswith('_')


def substitute_term(term: Term, binding: Mapping[str, Term]) -> Term:
    """Apply a variable binding to a term (identity for constants)."""
    if isinstance(term, Var):
        return binding.get(term.name, term)
    return term


# ---------------------------------------------------------------------------
# Delta predicate naming (§3.1)
# ---------------------------------------------------------------------------


def insert_pred(name: str) -> str:
    """Predicate symbol for insertions into relation ``name`` (``+name``)."""
    return '+' + name


def delete_pred(name: str) -> str:
    """Predicate symbol for deletions from relation ``name`` (``-name``)."""
    return '-' + name


def is_insert_pred(pred: str) -> bool:
    return pred.startswith('+')


def is_delete_pred(pred: str) -> bool:
    return pred.startswith('-')


def is_delta_pred(pred: str) -> bool:
    return pred[:1] in '+-'


def delta_base(pred: str) -> str:
    """The base relation of a delta predicate (``'+r' -> 'r'``); identity
    for ordinary predicates."""
    if is_delta_pred(pred):
        return pred[1:]
    return pred


# ---------------------------------------------------------------------------
# Atoms and literals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Atom:
    """A relational atom ``pred(t1, ..., tk)``."""

    pred: str
    args: tuple[Term, ...]

    def __post_init__(self):
        # Defensive: accept any sequence but store a tuple.
        if not isinstance(self.args, tuple):
            object.__setattr__(self, 'args', tuple(self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> tuple[Var, ...]:
        """The variables of the atom, in order of occurrence (with repeats)."""
        return tuple(t for t in self.args if isinstance(t, Var))

    def var_names(self) -> set[str]:
        return {t.name for t in self.args if isinstance(t, Var)}

    def substitute(self, binding: Mapping[str, Term]) -> 'Atom':
        return Atom(self.pred, tuple(substitute_term(t, binding)
                                     for t in self.args))

    def __str__(self) -> str:
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"


# Comparison operators supported in rule bodies.  ``=`` and ``<>`` are the
# equality builtins; the four order comparisons require a totally ordered
# domain (§3.2.1).
COMPARISON_OPS = ('<', '>', '<=', '>=')
BUILTIN_OPS = ('=', '<>') + COMPARISON_OPS

_NEGATED_OP = {'=': '<>', '<>': '=', '<': '>=', '>': '<=',
               '<=': '>', '>=': '<'}


@dataclass(frozen=True, slots=True)
class Lit:
    """A possibly negated relational atom occurring in a rule body."""

    atom: Atom
    positive: bool = True

    def negate(self) -> 'Lit':
        return Lit(self.atom, not self.positive)

    def variables(self) -> tuple[Var, ...]:
        return self.atom.variables()

    def var_names(self) -> set[str]:
        return self.atom.var_names()

    def substitute(self, binding: Mapping[str, Term]) -> 'Lit':
        return Lit(self.atom.substitute(binding), self.positive)

    def __str__(self) -> str:
        prefix = '' if self.positive else 'not '
        return prefix + str(self.atom)


@dataclass(frozen=True, slots=True)
class BuiltinLit:
    """A builtin literal ``t1 op t2`` (possibly negated, e.g. ``not Z = 1``).

    ``op`` is one of :data:`BUILTIN_OPS`.  The paper restricts comparisons in
    LVGN-Datalog to the forms ``X < c`` / ``X > c`` (§3.2.1); the general
    language — and this AST — permits arbitrary term operands, and the LVGN
    fragment checker enforces the restriction separately.
    """

    op: str
    left: Term
    right: Term
    positive: bool = True

    def __post_init__(self):
        if self.op not in BUILTIN_OPS:
            raise ValueError(f'unknown builtin operator {self.op!r}')

    def negate(self) -> 'BuiltinLit':
        return BuiltinLit(self.op, self.left, self.right, not self.positive)

    def normalized(self) -> 'BuiltinLit':
        """Push negation into the operator: ``not X = 1`` becomes
        ``X <> 1``.  The result is always positive."""
        if self.positive:
            return self
        return BuiltinLit(_NEGATED_OP[self.op], self.left, self.right, True)

    def variables(self) -> tuple[Var, ...]:
        return tuple(t for t in (self.left, self.right)
                     if isinstance(t, Var))

    def var_names(self) -> set[str]:
        return {t.name for t in (self.left, self.right)
                if isinstance(t, Var)}

    def substitute(self, binding: Mapping[str, Term]) -> 'BuiltinLit':
        return BuiltinLit(self.op, substitute_term(self.left, binding),
                          substitute_term(self.right, binding), self.positive)

    def __str__(self) -> str:
        body = f'{self.left} {self.op} {self.right}'
        return body if self.positive else f'not {body}'


Literal = Union[Lit, BuiltinLit]


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rule:
    """A Datalog rule ``head :- body.``

    Constraint rules (⊥ head, §3.2.3) are represented with ``head=None``.
    """

    head: Atom | None
    body: tuple[Literal, ...]

    def __post_init__(self):
        if not isinstance(self.body, tuple):
            object.__setattr__(self, 'body', tuple(self.body))

    @property
    def is_constraint(self) -> bool:
        return self.head is None

    def positive_atoms(self) -> tuple[Atom, ...]:
        return tuple(l.atom for l in self.body
                     if isinstance(l, Lit) and l.positive)

    def builtins(self) -> tuple[BuiltinLit, ...]:
        return tuple(l for l in self.body if isinstance(l, BuiltinLit))

    def body_preds(self) -> set[str]:
        return {l.atom.pred for l in self.body if isinstance(l, Lit)}

    def variables(self) -> set[str]:
        names: set[str] = set()
        if self.head is not None:
            names |= self.head.var_names()
        for literal in self.body:
            names |= literal.var_names()
        return names

    def substitute(self, binding: Mapping[str, Term]) -> 'Rule':
        head = None if self.head is None else self.head.substitute(binding)
        return Rule(head, tuple(l.substitute(binding) for l in self.body))

    def __str__(self) -> str:
        head = '⊥' if self.head is None else str(self.head)
        if not self.body:
            return f'{head}.'
        return f"{head} :- {', '.join(str(l) for l in self.body)}."


@dataclass(frozen=True)
class Program:
    """An ordered, immutable collection of Datalog rules.

    The program does not assume a schema: EDB/IDB classification is derived
    (a predicate is IDB iff it heads a rule).  Constraint rules are carried
    alongside ordinary rules, as in the paper's extended LVGN-Datalog.
    """

    rules: tuple[Rule, ...]
    _rules_by_head: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, 'rules', tuple(self.rules))
        by_head: dict[str, list[Rule]] = {}
        for rule in self.rules:
            if rule.head is not None:
                by_head.setdefault(rule.head.pred, []).append(rule)
        object.__setattr__(self, '_rules_by_head', by_head)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def idb_preds(self) -> set[str]:
        """Predicates defined by at least one rule."""
        return set(self._rules_by_head)

    def edb_preds(self) -> set[str]:
        """Predicates used in bodies but never defined."""
        used: set[str] = set()
        for rule in self.rules:
            used |= rule.body_preds()
        return used - self.idb_preds()

    def all_preds(self) -> set[str]:
        preds = self.idb_preds()
        for rule in self.rules:
            preds |= rule.body_preds()
        return preds

    def rules_for(self, pred: str) -> tuple[Rule, ...]:
        return tuple(self._rules_by_head.get(pred, ()))

    def constraints(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.is_constraint)

    def proper_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if not r.is_constraint)

    def delta_preds(self) -> set[str]:
        """IDB delta predicates (``+r``/``-r``) defined by this program."""
        return {p for p in self.idb_preds() if is_delta_pred(p)}

    def constants(self) -> set[Const]:
        """All constants mentioned anywhere in the program."""
        consts: set[Const] = set()
        for rule in self.rules:
            atoms: list[Atom] = []
            if rule.head is not None:
                atoms.append(rule.head)
            for literal in rule.body:
                if isinstance(literal, Lit):
                    atoms.append(literal.atom)
                else:
                    for t in (literal.left, literal.right):
                        if isinstance(t, Const):
                            consts.add(t)
            for atom in atoms:
                for t in atom.args:
                    if isinstance(t, Const):
                        consts.add(t)
        return consts

    def arities(self) -> dict[str, int]:
        """Observed arity of every predicate; raises on inconsistency."""
        from repro.errors import SchemaError
        seen: dict[str, int] = {}
        for rule in self.rules:
            atoms = [rule.head] if rule.head is not None else []
            atoms += [l.atom for l in rule.body if isinstance(l, Lit)]
            for atom in atoms:
                prior = seen.setdefault(atom.pred, atom.arity)
                if prior != atom.arity:
                    raise SchemaError(
                        f'predicate {atom.pred!r} used with arities '
                        f'{prior} and {atom.arity}')
        return seen

    def extend(self, more: Iterable[Rule]) -> 'Program':
        return Program(self.rules + tuple(more))

    def without_constraints(self) -> 'Program':
        return Program(self.proper_rules())

    def __str__(self) -> str:
        return '\n'.join(str(r) for r in self.rules)
