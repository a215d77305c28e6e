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
    atom: DefAtom  # or its (gen, depth, word id) key, as registered
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
        self.terms = _merge_terms(terms) if terms else ()
        self.tail = tail if tail is not None else State.zero()

    @classmethod
    def atom(cls, atom: DefAtom, coeff=1) -> "DefExpression":
        # one term needs no merge: ``_merge_terms`` drops a zero and takes ``exact``
        expr = cls.__new__(cls)
        expr.terms, expr.tail = (DefTerm(exact(coeff), (), atom),) if coeff else (), State.zero()
        return expr

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
    """``(coeff, prefix, atom)`` triples summed per ``(prefix, atom)``, in the
    order each key first comes, as ``DefTerm``s under ``exact``, zeros dropped."""
    merged = {}
    for coeff, prefix, atom in terms:
        key = (prefix, atom)
        merged[key] = merged[key] + coeff if key in merged else coeff
    return tuple(DefTerm(exact(c), *key) for key, c in merged.items() if c)


class RuleRegistry:
    """One rule per atom at level ``k``, values and rewrites alike; frozen after setup.

    ``kernel`` is the mode action at level ``k`` that evaluations share; it
    holds no rule, so sharing it is exact before ``freeze`` too.  Its word
    table keys the evaluator and the rules: an atom is entered there as it is
    registered, unless it comes as its id key already, and once frozen,
    ``memo`` keeps the value ``evaluate`` computes for each atom, both keyed
    ``(gen, depth, word id)``.
    """

    def __init__(self, g: LieAlgebra, k):
        self.g = g
        self.kernel = Kernel(g, k)
        self._rules = {}
        self._id_values = {}  # each rule's value as evaluate reads it, by atom key
        self.memo = None  # evaluate's atom values, kept once frozen

    def register_value(self, atom, value, provenance: str) -> Rule:
        """Register a ``State`` value or a ``DefExpression`` rewrite for the atom.

        The atom is a ``DefAtom``, entered in the kernel here, or its id key
        ``(gen, depth, word id)``, as a caller that built the word's id passes
        it; either spelling names the same atom, so registering one after the
        other is a duplicate.  The returned ``Rule`` carries the atom as passed
        and a ``State`` as the tail of a term-free expression.  A zero value
        needs no grading check and enters no word: over ids it is ``((), {})``.
        """
        if self.memo is not None:
            raise RegistryFrozen("registry is frozen")
        key = self._key(atom)
        if key in self._rules:
            raise DuplicateAtom(f"atom already registered: {self.render_atom(atom)}")
        if isinstance(value, State):
            value = DefExpression((), value)
        if value.terms or value.tail:
            self._check_grading(atom, value.tail)
            ids = _over_ids(self.kernel, value)
        else:
            ids = ((), {})
        rule = self._rules[key] = Rule(atom, value, provenance)
        self._id_values[key] = ids
        return rule

    def _key(self, atom) -> tuple:
        """The id key ``(gen, depth, word id)`` of a ``DefAtom`` or of an id key."""
        if isinstance(atom, DefAtom):
            return atom.gen, atom.depth, self.kernel.enter(atom.word)
        return atom

    def _atom(self, atom) -> DefAtom:
        """The ``DefAtom`` of a ``DefAtom`` or of an id key, spelled by the kernel."""
        if isinstance(atom, DefAtom):
            return atom
        gen, depth, wid = atom
        return DefAtom(gen, depth, self.kernel.spell(wid))

    def _check_grading(self, atom, value: State):
        if value.is_zero:
            return
        atom = self._atom(atom)
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

    def lookup_value(self, atom) -> Optional[Rule]:
        return self._rules.get(self._key(atom))

    def freeze(self):
        self.memo = {}

    def render_atom(self, atom) -> str:
        """A ``DefAtom`` or an id key as text: ``h^def(-1) e(-1)|0>``."""
        atom = self._atom(atom)
        return f"{def_label(self.g, atom.gen, atom.depth)} {render_word(self.g, atom.word)}"

    def dump(self) -> str:
        atoms = {self._atom(key): rule for key, rule in self._rules.items()}
        return "\n".join(
            f"{self.render_atom(atom)} := {rule.value.render(self.g)} ; {rule.provenance}"
            for atom, rule in sorted(atoms.items())
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


def master_commute(kernel: Kernel, a: int, m: int, b: int, n: int, w):
    """Rewrite a^def(m).(b(n) w|0>) by commuting the def-mode one step rightward.

    ``kernel`` is the ``pbw.Kernel`` at the level to act with.  The evaluator
    passes ``w`` as a word id and takes the rewrite over ids, as ``_over_ids``
    builds one; a word ``w`` is entered here and its rewrite comes back spelled.
    What depends on ``(a, m, b, n)`` only, the moved terms, the bracket terms
    and the central coefficient of ``mode_identity``, is a template built once
    in ``kernel.steps``; a step fills in the word id and runs one kernel pass.
    """
    spelled = not isinstance(w, int)
    if spelled:
        w = kernel.enter(tuple(w))
    step = kernel.steps.get((a, m, b, n))
    if step is None:
        step = kernel.steps[a, m, b, n] = _step_template(kernel.g, a, m, b, n)
    moved, bracket, central = step
    # the vector the target word spells, which the moved-past action and the
    # central term share: a canonical creation word is its own vector, and
    # only a raw spelling (a table's h(-1)e(-1)) takes a kernel pass of its own
    target = kernel.chain_ids(kernel.spell(w), {0: 1}) if w in kernel.raw else {w: 1}
    # the prefix-free terms keyed by atom and merged as they are built: a key
    # recurs only when a^def(0) meets [a,b] proportional to b
    merged = {(b, n, w2): c for w2, c in kernel.chain_ids(((a, m),), target).items()}
    for gen, depth, coeff in bracket:
        merged[gen, depth, w] = merged.get((gen, depth, w), 0) + coeff
    terms = [(sign, prefix, (gen, depth, w)) for sign, prefix, gen, depth in moved]
    terms += [(exact(c), (), atom) for atom, c in merged.items() if c]
    tail = {} if central is None else {
        w2: x for w2, c in target.items() if (x := exact(c * central))
    }
    return DefExpression(*_spelled(kernel, (terms, tail))) if spelled else (tuple(terms), tail)


def _step_template(g: LieAlgebra, a: int, m: int, b: int, n: int) -> tuple:
    """The part of a master-commute step that depends on ``(a, m, b, n)`` only:
    the moved terms ``(sign, prefix, gen, depth)``, none when the two modes
    agree, since they cancel; the bracket terms ``(gen, m+n, coeff)`` and the
    central coefficient, or ``None``, as ``mode_identity`` states them."""
    moved = () if (a, m) == (b, n) else ((1, (Mode(b, n),), a, m), (-1, (Mode(a, m),), b, n))
    bracket, central = [], None
    for coeff, dm in mode_identity(g, a, m, b, n).terms:
        if dm is None:
            central = coeff
        else:
            bracket.append((*dm, coeff))
    return moved, tuple(bracket), central


def _over_ids(kernel: Kernel, expr: DefExpression) -> tuple:
    """The expression over the kernel's word ids, as the evaluator reads it:
    ``(coeff, prefix, (gen, depth, word id))`` terms and an ``id -> coeff`` tail."""
    return (
        tuple((c, p, (a.gen, a.depth, kernel.enter(a.word))) for c, p, a in expr.terms),
        {kernel.intern(word): c for word, c in expr.tail.items()},
    )


def _spelled(kernel: Kernel, expr: tuple) -> tuple:
    """The terms and tail of an expression over word ids, spelled as ``DefTerm``s
    and a ``State``; its tail ids are canonical."""
    terms, tail = expr
    spell = kernel.spell
    return (
        [DefTerm(c, p, DefAtom(gen, depth, spell(w))) for c, p, (gen, depth, w) in terms],
        State._unchecked({spell(w): c for w, c in tail.items()}),
    )


def evaluate(expr, registry: RuleRegistry, collect_residual: bool = False):
    """Reduce a def-expression to a pure state at the registry's level.

    Each atom is reduced once, on an explicit stack, by the first of: the vacuum
    rule, its rule, ``generator_value``, one ``master_commute`` step, or else it
    is unresolved.  Atoms are keyed ``(gen, depth, word id)`` in the registry
    kernel's word table, where a step reads the head and rest of its word.  A
    ``DefExpression`` is entered once and its value comes back as a ``State``;
    an expression over ids, as ``_over_ids`` builds one, comes back as its
    ``id -> coeff`` tail, so a caller that builds its word ids never has a
    word spelled.  Words are spelled only in a spelled result and the errors.
    An atom's value, its unresolved terms and its state, is kept for the call,
    or in ``registry.memo`` once frozen; an atom whose rewrite holds no
    def-terms gets its value where it is met.  The net residual, spelled, comes
    back with ``collect_residual``; else a nonempty one raises ``UnresolvedAtom``.
    """
    g, kernel, rules = registry.g, registry.kernel, registry._id_values
    heads, tails = kernel.heads, kernel.tails
    memo = {} if registry.memo is None else registry.memo
    spelled = isinstance(expr, DefExpression)
    root = _over_ids(kernel, expr) if spelled else expr
    stack, waiting = [key for _, _, key in root[0]], {}  # waiting: key -> its rewrite
    while stack:
        key = stack.pop()
        if key in waiting:  # every atom of its rewrite has a value now
            memo[key] = _combine(kernel, waiting.pop(key), memo)
        if key in memo:
            continue
        gen, depth, wid = key
        sub = rules.get(key) if wid else ((), {})  # its rule, or the vacuum rule
        if sub is None:
            if depth < 0:
                memo[key] = (((1, (), key),), {})  # unresolved
                continue
            head, rest = heads[wid], tails[wid]
            if rest or head.depth != -1:
                sub = master_commute(kernel, gen, depth, *head, rest)
            else:  # the generator pairing, whose one word is the vacuum
                sub = (), {0: c for _, c in generator_value(g, gen, depth, head.gen).items()}
        if not sub[0]:  # nothing to wait for: the value is the tail
            memo[key] = sub
            continue
        waiting[key] = sub
        stack.append(key)
        for _, _, atom in sub[0]:
            if atom in waiting:
                raise RuntimeError(f"def-mode reduction cycles at {registry.render_atom(atom)}")
            stack.append(atom)
    residual, tail = _combine(kernel, root, memo)
    residual = _normalize_residual(g, _spelled(kernel, (residual, {}))[0]) if residual else ()
    if residual and not collect_residual:
        raise UnresolvedAtom(residual[0].atom, registry.render_atom(residual[0].atom))
    if spelled:
        tail = _spelled(kernel, ((), tail))[1]
    return (tail, residual) if collect_residual else tail


def _combine(kernel: Kernel, expr: tuple, memo: dict) -> tuple:
    """An expression's value, over ids: its net unresolved terms and its state,
    from its atoms' values."""
    terms, tail = expr
    residual, tail = [], dict(tail)
    for coeff, prefix, key in terms:
        unresolved, state = memo[key]
        if state:
            add_scaled(tail, kernel.chain_ids(prefix, state), coeff)
        if unresolved:
            residual += [(coeff * c, prefix + p, atom) for c, p, atom in unresolved]
    return _merge_terms(residual) if residual else (), tail


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
