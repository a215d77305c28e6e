"""First-order deformation calculus: def-modes, the rule registry, and the evaluator.

A def-mode a^def(m) is the m-th mode of the deformation field attached to the
weight-1 generator a.  Irreducible applications a^def(m).(word)|0> are atoms;
the registry holds one rule per atom: a known or ansatz value (a state with
symbolic coefficients) or an authoritative rewrite into further def-terms.  The
evaluator pushes def-modes rightward with the master commutator identity

    a^def(m) b(n) = b(n) a^def(m) - a(m) b^def(n) + b^def(n) a(m)
                    + [a,b]^def(m+n) + m * c * <a,b> * delta_{m+n,0}

until every atom hits a terminal rule (vacuum target, generator pairing) or a
registered value.  Atoms with negative mode depth are never pushed; they must
be registered, which keeps the reduction terminating.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .liealg import LieAlgebra
from .pbw import (
    Kernel,
    Mode,
    State,
    basis_enum,
    charge,
    d_operator,
    is_creation_word,
    render_word,
    weight,
    word_charge,
    word_weight,
)
from .scalar import LinForm, add_scaled, exact, signed_sum, signed_term


class DefAtom(NamedTuple):
    """The irreducible application gen^def(depth).(word)|0>."""

    gen: int
    depth: int
    word: tuple


def atom_grading(g: LieAlgebra, atom: DefAtom) -> tuple:
    """The (weight, charge) of the atom's value.

    The weight of a^def(m) v is wt(a) - m - 1 + wt(v) = wt(v) - m for weight-1
    a, and charges add.
    """
    return (
        word_weight(atom.word) - atom.depth,
        g.charge(atom.gen) + word_charge(g, atom.word),
    )


class UnresolvedAtom(Exception):
    def __init__(self, atom: DefAtom, rendered: str):
        self.atom = atom
        super().__init__(f"no rule for def-atom {rendered}")


class DuplicateAtom(Exception):
    pass


class RegistryFrozen(Exception):
    pass


class Rule(NamedTuple):
    atom: DefAtom
    value: DefExpression  # a registered state is the tail of a term-free expression
    provenance: str


class DefTerm(NamedTuple):
    coeff: object  # under scalar.exact: a LinForm only when it carries an unknown
    prefix: tuple  # ordinary modes applied after the def-mode, leftmost outermost
    atom: DefAtom  # the def-mode and the word it acts on (need not be canonical)


class DefExpression:
    """Sum of def-carrying terms plus a def-free state tail."""

    __slots__ = ("terms", "tail")

    def __init__(self, terms=(), tail=None):
        self.terms = _merge_terms(terms)
        self.tail = tail if tail is not None else State.zero()

    @classmethod
    def _merged(cls, terms: tuple, tail: State) -> "DefExpression":
        """An expression over terms that ``_merge_terms`` would keep as they are:
        distinct ``(prefix, atom)`` keys, each with a nonzero coefficient under ``exact``."""
        expr = cls.__new__(cls)
        expr.terms, expr.tail = terms, tail
        return expr

    @classmethod
    def atom(cls, atom: DefAtom, coeff=1) -> "DefExpression":
        # one term needs no merge: ``_merge_terms`` drops a zero and takes ``exact``
        return cls._merged((DefTerm(exact(coeff), (), atom),) if coeff else (), State.zero())

    def __add__(self, other: "DefExpression") -> "DefExpression":
        return DefExpression(list(self.terms) + list(other.terms), self.tail + other.tail)

    def scale(self, factor) -> "DefExpression":
        factor = exact(factor)
        return DefExpression(
            [DefTerm(t.coeff * factor, t.prefix, t.atom) for t in self.terms],
            self.tail.scale(factor),
        )

    def render(self, g: LieAlgebra) -> str:
        pieces = [
            signed_term(
                t.coeff,
                "".join(f"{g.label(m.gen)}({m.depth})" for m in t.prefix)
                + def_label(g, t.atom.gen, t.atom.depth)
                + render_word(g, t.atom.word).replace("*", ""),
            )
            for t in self.terms
        ]
        if self.tail:
            pieces.append(self.tail.render(g))
        return signed_sum(pieces)


def def_label(g: LieAlgebra, gen: int, depth: int) -> str:
    """The def-mode gen^def(depth) as text: ``h^def(-1)``."""
    return f"{g.label(gen)}^def({depth})"


def _merge_terms(terms):
    merged = {}
    order = []
    for t in terms:
        key = (t.prefix, t.atom)
        if key in merged:
            merged[key] = merged[key] + t.coeff
        else:
            merged[key] = t.coeff
            order.append(key)
    return tuple(DefTerm(exact(merged[key]), *key) for key in order if merged[key])


class RuleRegistry:
    """One rule per atom at level ``k``, values and rewrites alike; frozen after setup.

    ``kernel`` is the mode action at level ``k`` that evaluations share; it
    holds no rule, so sharing it is exact before ``freeze`` too.  Once frozen,
    ``memo`` keeps the value ``evaluate`` computes for each atom.
    """

    def __init__(self, g: LieAlgebra, k):
        self.g = g
        self.kernel = Kernel(g, k)
        self._rules = {}
        self.memo = None  # evaluate's atom values, kept once frozen

    def register_value(self, atom: DefAtom, value, provenance: str) -> Rule:
        """Register a ``State`` value or a ``DefExpression`` rewrite for the atom."""
        if self.memo is not None:
            raise RegistryFrozen("registry is frozen")
        if atom in self._rules:
            raise DuplicateAtom(f"atom already registered: {self.render_atom(atom)}")
        if isinstance(value, State):
            value = DefExpression((), value)
        self._check_grading(atom, value.tail)
        rule = Rule(atom, value, provenance)
        self._rules[atom] = rule
        return rule

    def _check_grading(self, atom: DefAtom, value: State):
        if value.is_zero:
            return
        want_weight, want_charge = atom_grading(self.g, atom)
        if weight(value) != want_weight:
            raise ValueError(
                f"rule breaks the weight law: {self.render_atom(atom)} has weight "
                f"{want_weight}, value has {weight(value)}"
            )
        if charge(self.g, value) != want_charge:
            raise ValueError(
                f"rule breaks charge additivity: {self.render_atom(atom)} has charge "
                f"{want_charge}, value has {charge(self.g, value)}"
            )

    def lookup_value(self, atom: DefAtom) -> Optional[Rule]:
        return self._rules.get(atom)

    def freeze(self):
        self.memo = {}

    def render_atom(self, atom: DefAtom) -> str:
        return f"{def_label(self.g, atom.gen, atom.depth)} {render_word(self.g, atom.word)}"

    def dump(self) -> str:
        return "\n".join(
            f"{self.render_atom(atom)} := {rule.value.render(self.g)} ; {rule.provenance}"
            for atom, rule in sorted(self._rules.items())
        )


def generator_value(g: LieAlgebra, a: int, m: int, b: int) -> State:
    """a^def(m) b(-1)|0> for m >= 0: c*<a,b>|0> at m = 1, zero otherwise."""
    if m < 0:
        raise ValueError("generator_value covers non-negative mode depths only")
    if m != 1:
        return State.zero()
    pairing = g.form(a, b)
    if not pairing:
        return State.zero()
    return State.vacuum(LinForm.symbol("c", pairing))


class ModeIdentity(NamedTuple):
    """Operator identity [a^def(m), b(n)] + [a(m), b^def(n)] = sum of the terms.

    Each term is (coefficient, def-mode) with ``None`` for the identity operator.
    """

    terms: tuple

    def render(self, g: LieAlgebra) -> str:
        return signed_sum(
            str(coeff) if dm is None else signed_term(coeff, def_label(g, *dm))
            for coeff, dm in self.terms
        )


def mode_identity(g: LieAlgebra, a: int, m: int, b: int, n: int) -> ModeIdentity:
    """The commutator condition specialized to weight-1 generators, as operators.

    The bracket and central terms of ``master_commute`` are read from here.
    """
    terms = []
    for g2, coeff in g.bracket(a, b).items():
        terms.append((coeff, Mode(g2, m + n)))
    if m + n == 0:
        pairing = g.form(a, b)
        if m and pairing:
            terms.append((LinForm.symbol("c", m * pairing), None))
    return ModeIdentity(tuple(terms))


def master_commute(kernel: Kernel, a: int, m: int, b: int, n: int, w) -> DefExpression:
    """Rewrite a^def(m).(b(n) w|0>) by commuting the def-mode one step rightward.

    ``kernel`` is the ``pbw.Kernel`` at the level to act with.
    """
    g = kernel.g
    w = tuple(w)
    # the vector the target word spells, which the moved-past action and the
    # central term share: a canonical creation word is its own vector, and
    # only another spelling (a table's h(-1)e(-1)) takes a kernel pass of its own
    target = {w: 1} if is_creation_word(w) else kernel.chain(w, {(): 1})
    # the terms keyed (prefix, atom) and merged as they are built: the two
    # moved terms cancel when (a, m) == (b, n), and a prefix-free key recurs
    # only when a^def(0) meets [a,b] proportional to b
    terms = {}
    if (a, m) != (b, n):
        terms[(Mode(b, n),), DefAtom(a, m, w)] = 1
        terms[(Mode(a, m),), DefAtom(b, n, w)] = -1
    for w2, coeff in kernel.chain(((a, m),), target).items():
        terms[(), DefAtom(b, n, w2)] = coeff
    tail = State.zero()
    for coeff, dm in mode_identity(g, a, m, b, n).terms:
        if dm is None:
            tail = State._unchecked({w2: c * coeff for w2, c in target.items()})
        else:
            key = ((), DefAtom(*dm, w))
            terms[key] = terms.get(key, 0) + coeff
    return DefExpression._merged(
        tuple(DefTerm(exact(c), *key) for key, c in terms.items() if c), tail
    )


def evaluate(expr: DefExpression, registry: RuleRegistry, collect_residual: bool = False):
    """Reduce a def-expression to a pure state at the registry's level.

    Each atom is reduced once, on an explicit stack, by the first of: the vacuum
    rule, its rule, ``generator_value``, one ``master_commute`` step, or else it
    is unresolved.  Its value, a state plus the unresolved terms it reaches, is
    kept for the call, or in ``registry.memo`` once frozen; an atom whose
    rewrite holds no def-terms gets its value where it is met.  The net residual
    comes back with ``collect_residual``; else a nonempty one raises ``UnresolvedAtom``.
    """
    g, kernel = registry.g, registry.kernel
    memo = {} if registry.memo is None else registry.memo
    stack, waiting = [t.atom for t in expr.terms], {}  # waiting: atom -> its rewrite
    while stack:
        atom = stack.pop()
        if atom in waiting:  # every atom of its rewrite has a value now
            memo[atom] = _combine(kernel, waiting.pop(atom), memo)
        if atom in memo:
            continue
        rule = registry.lookup_value(atom)
        if not atom.word:
            sub = DefExpression()  # vacuum rule
        elif rule is not None:
            sub = rule.value
        elif atom.depth < 0:
            memo[atom] = ({}, (DefTerm(1, (), atom),))  # unresolved
            continue
        elif len(atom.word) == 1 and atom.word[0].depth == -1:
            sub = DefExpression((), generator_value(g, atom.gen, atom.depth, atom.word[0].gen))
        else:
            sub = master_commute(kernel, atom.gen, atom.depth, *atom.word[0], atom.word[1:])
        if not sub.terms:  # nothing to wait for: the value is the tail
            memo[atom] = (dict(sub.tail.items()), ())
            continue
        waiting[atom] = sub
        stack += [atom] + [t.atom for t in sub.terms]
        for t in sub.terms:
            if t.atom in waiting:
                raise RuntimeError(f"def-mode reduction cycles at {registry.render_atom(t.atom)}")
    tail, residual = _combine(kernel, expr, memo)
    if residual:
        residual = _normalize_residual(g, residual)
    if residual and not collect_residual:
        raise UnresolvedAtom(residual[0].atom, registry.render_atom(residual[0].atom))
    # every word of the tail was spelled by the kernel or held by a State
    tail = State._unchecked(tail)
    return (tail, residual) if collect_residual else tail


def _combine(kernel: Kernel, expr: DefExpression, memo: dict):
    """The expression's state and net unresolved terms, from its atoms' values."""
    tail, residual = dict(expr.tail.items()), []
    for t in expr.terms:
        state, unresolved = memo[t.atom]
        if state:
            add_scaled(tail, kernel.chain(t.prefix, state), t.coeff)
        if unresolved:
            residual += [DefTerm(t.coeff * r.coeff, t.prefix + r.prefix, r.atom) for r in unresolved]
    return tail, _merge_terms(residual) if residual else ()


def _normalize_residual(g: LieAlgebra, terms):
    h = g.theta[1]
    out = []
    for t in terms:
        coeff, prefix = t.coeff, t.prefix
        # a Cartan zero-mode adjacent to the atom acts by the atom's charge
        while prefix and prefix[-1] == Mode(h, 0):
            coeff = coeff * atom_grading(g, t.atom)[1]
            prefix = prefix[:-1]
        if coeff:
            out.append(DefTerm(coeff, prefix, t.atom))
    return tuple(sorted(_merge_terms(out), key=lambda t: (t.atom, t.prefix)))


def d_shift(registry: RuleRegistry, a: int, m: int, v: State) -> State:
    """a^def(m-1) v for m != 0, from the translation identity.

    a^def(m)(Dv) = D(a^def(m) v) + m a^def(m-1) v, so
    a^def(m-1) v = (a^def(m)(Dv) - D(a^def(m) v)) / m; both def-mode actions
    are evaluated against the registry.
    """
    if not m:
        raise ValueError("the translation identity gives a^def(m-1) only for m != 0")

    def act(state):
        terms = [DefTerm(coeff, (), DefAtom(a, m, word)) for word, coeff in state.items()]
        return evaluate(DefExpression(terms), registry)

    return (act(d_operator(v)) - d_operator(act(v))).scale(Fraction(1, m))


def register_ansatz(registry: RuleRegistry, atom: DefAtom, symbol_prefix: str) -> Rule:
    """Expand an unknown atom over the graded basis with fresh symbols.

    The value's weight and charge are forced by the rule laws; the basis order
    fixes which symbol lands on which monomial.
    """
    basis = basis_enum(registry.g, *atom_grading(registry.g, atom))
    # the basis words are distinct, so one dict keeps State.__add__ order
    value = {
        word: LinForm.symbol(f"{symbol_prefix}{idx}") for idx, word in enumerate(basis, start=1)
    }
    return registry.register_value(atom, State(value), "ansatz")
