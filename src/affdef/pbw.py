"""The vacuum module of the affine algebra at level k, in exact arithmetic.

States are finite sums of canonical PBW monomials: words of creation modes
a(-m), m >= 1, applied to the vacuum ``|0>``.  The canonical word order sorts
primarily by generator index (e before h before f for sl2), secondarily by
depth, deeper modes first within a generator.  All mode actions are computed
from the commutation relation

    [a(m), b(n)] = [a,b](m+n) + m * delta_{m+n,0} * k * <a,b> * Id.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from math import gcd
from typing import NamedTuple

from .liealg import LieAlgebra
from .scalar import LinForm, add_scaled, as_linform, exact, signed_sum, signed_term


class Mode(NamedTuple):
    gen: int
    depth: int


Word = tuple  # tuple[Mode, ...]

VACUUM_WORD: Word = ()


class NotHomogeneous(Exception):
    pass


def is_canonical(word: Word) -> bool:
    # a Mode compares as (gen, depth): depth ascending = deeper first
    return all(a <= b for a, b in zip(word, word[1:]))


def is_creation_word(word: Word) -> bool:
    """Whether every mode of the word creates and the word is canonical: the
    check ``State`` makes of each word, so such a word is its own state."""
    return all(m.depth < 0 for m in word) and is_canonical(word)


def word_weight(word: Word) -> int:
    return sum(-m.depth for m in word)


def word_charge(g: LieAlgebra, word: Word) -> int:
    return sum(g.charge(m.gen) for m in word)


class State:
    """Finite sum of canonical PBW monomials with exact coefficients (``scalar.exact``).

    The constructor checks every word: each mode a creation mode, in canonical
    order.  Words a ``Kernel`` spells were checked where they entered it, at
    ``Kernel.intern``, so the states built from them take ``_unchecked``, as do
    sums, scalings and ``d_operator`` images of states, whose words are checked.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                if not is_creation_word(word):
                    raise ValueError(f"monomial word is not a canonical creation word: {word}")
                coeff = exact(coeff)
                if coeff:
                    data[word] = coeff
        self._terms = data

    @classmethod
    def _unchecked(cls, terms) -> "State":
        """A state over words known to be canonical creation words, such as the
        words a ``Kernel`` spells: ``scalar.exact`` on each coefficient, and no
        word walk.  Words from outside the engine go through the constructor."""
        state = cls.__new__(cls)
        state._terms = {word: c for word, coeff in terms.items() if (c := exact(coeff))}
        return state

    @classmethod
    def zero(cls) -> "State":
        return cls()

    @classmethod
    def vacuum(cls, coeff=1) -> "State":
        return cls({VACUUM_WORD: coeff})

    @classmethod
    def monomial(cls, word: Word, coeff=1) -> "State":
        return cls({tuple(word): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return self._terms.items()

    def words(self):
        return self._terms.keys()

    def coefficient(self, word: Word) -> LinForm:
        return as_linform(self._terms.get(tuple(word), 0))

    def __add__(self, other: "State") -> "State":
        out = dict(self._terms)
        add_scaled(out, other._terms, 1)
        return State._unchecked(out)

    def __sub__(self, other: "State") -> "State":
        return self + other.scale(-1)

    def scale(self, factor) -> "State":
        """Scale by a rational or a LinForm (guarded: no nonlinear products)."""
        factor = exact(factor)
        if not factor:
            return State.zero()
        return State._unchecked({w: coeff * factor for w, coeff in self._terms.items()})

    def __eq__(self, other):
        return isinstance(other, State) and self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def render(self, g: LieAlgebra) -> str:
        items = sorted(self._terms.items(), key=lambda t: (word_weight(t[0]), t[0]))
        return signed_sum(
            signed_term(coeff, render_word(g, word), _is_single_symbol(coeff))
            for word, coeff in items
        )

    def __repr__(self):
        return f"State({dict(self._terms)!r})"


def _is_single_symbol(coeff) -> bool:
    if not isinstance(coeff, LinForm) or coeff.constant or len(coeff.terms) != 1:
        return False
    value = next(iter(coeff.terms.values()))
    return value in (1, -1)


def render_word(g: LieAlgebra, word: Word) -> str:
    """Text of a word applied to ``|0>``, canonical or not; equal adjacent modes
    collapse: ``e(-1)^2*f(-1)|0>``."""
    factors = []
    for (gen, depth), run in groupby(word):
        count = len(list(run))
        factors.append(f"{g.label(gen)}({depth})" + (f"^{count}" if count > 1 else ""))
    return "*".join(factors) + "|0>"


def apply_mode(g: LieAlgebra, a: int, m: int, v: State, k) -> State:
    """a(m) . v in canonical form, for the basis index a."""
    return State._unchecked(Kernel(g, k).chain(((a, m),), v))


def normal_order(g: LieAlgebra, word, k) -> State:
    """The state equal to the (possibly unordered) word of ``Mode``s applied to the vacuum."""
    word = tuple(word)
    for mode in word:
        if mode.depth >= 0:
            raise ValueError(f"normal_order expects creation modes, got depth {mode.depth}")
    return State._unchecked(Kernel(g, k).chain(word, {VACUUM_WORD: 1}))


class Kernel:
    """The mode action at one level, on hash-consed words.

    A word is an int id: 0 is the vacuum, and id ``i > 0`` is the mode
    ``heads[i]`` in front of the word ``tails[i]``.  ``ids`` maps
    ``(gen, depth, rest_id)`` to its id, so each word has exactly one id and a
    memo key ``(gen, m, word_id)`` hashes three ints, however deep the word.
    ``modes`` holds one ``Mode`` per ``(gen, depth)``, and every head is that
    object, so the words a kernel spells share their modes.
    Words are checked once, where they enter: ``intern`` takes canonical
    creation words only, and ``_act`` makes an id only by a prepend, so every
    word ``_act`` meets or makes is canonical by construction.  ``enter``
    also conses any other spelling, as a def-atom may carry (the -4/3 table's
    ``h(-1)e(-1)``), and records its id in ``raw``: such a word is
    normal-ordered, by ``chain_ids`` from the vacuum, before any mode acts on it.
    ``steps`` holds ``deform.master_commute``'s step templates, one per
    ``(a, m, b, n)``, which depend on the algebra only, so they live exactly
    as long as the kernel.
    A kernel lives for one ``apply_mode`` or ``normal_order`` call, or for one
    ``deform.RuleRegistry``, whose evaluations share it, or for one
    ``master_commute`` call made with a kernel of its own; nothing is kept on
    the algebra.
    """

    __slots__ = ("g", "k", "ids", "heads", "tails", "modes", "memo", "raw", "steps")

    def __init__(self, g: LieAlgebra, k):
        self.g, self.k = g, exact(k)
        self.ids, self.heads, self.tails, self.modes = {}, [None], [0], {}
        self.memo, self.raw, self.steps = {}, set(), {}

    def cons(self, key) -> int:
        """The id of the word ``Mode(gen, depth)`` followed by ``rest_id``, for
        ``key = (gen, depth, rest_id)``; ``_act`` prepends through it too."""
        wid = self.ids.get(key)
        if wid is None:
            gen, depth, rest = key
            mode = self.modes.get((gen, depth))
            if mode is None:
                mode = self.modes[gen, depth] = Mode(gen, depth)
            wid = self.ids[key] = len(self.heads)
            self.heads.append(mode)
            self.tails.append(rest)
        return wid

    def intern(self, word: Word) -> int:
        """The id of a canonical word of creation modes; any other word raises
        ``ValueError``.  Each mode is checked against the head it is consed in
        front of, so the check costs one comparison a mode."""
        wid, heads, ids, cons = 0, self.heads, self.ids, self.cons
        for mode in reversed(word):
            gen, depth = mode
            if depth >= 0:
                raise ValueError(f"monomial word has a non-creation mode: {word}")
            # a Mode compares as the pair (gen, depth)
            if wid and mode > heads[wid]:
                raise ValueError(f"monomial word is not canonical: {word}")
            key = (gen, depth, wid)
            wid = ids.get(key) or cons(key)  # every id past the vacuum's is nonzero
        return wid

    def enter(self, word: Word) -> int:
        """The id of a word as spelled: a canonical creation word is interned,
        and any other spelling is consed as it stands, the id of each of its
        suffixes that is not a canonical creation word going into ``raw``.  No
        such key ``(gen, depth, rest_id)`` is a prepend, so ``_act`` never
        makes a raw id, and callers normal-order one before a mode acts on it."""
        try:
            return self.intern(word)
        except ValueError:  # not a canonical creation word
            pass
        wid, heads, raw, cons = 0, self.heads, self.raw, self.cons
        for mode in reversed(word):
            gen, depth = mode
            bad = depth >= 0 or wid in raw or (wid and mode > heads[wid])
            wid = cons((gen, depth, wid))
            if bad:
                raw.add(wid)
        return wid

    def spell(self, wid: int) -> Word:
        """The word of an id, walked along ``tails``; spelled words are not kept,
        since keeping every suffix of a deep word would be quadratic again."""
        heads, tails = self.heads, self.tails
        word = []
        while wid:
            word.append(heads[wid])
            wid = tails[wid]
        return tuple(word)

    def chain(self, modes, terms):
        """The ``(gen, depth)`` modes, rightmost first, applied to ``terms``.

        ``terms`` maps canonical words to coefficients (a ``State`` will do);
        the result is a ``word -> coefficient`` dict in the order repeated
        ``apply_mode`` would give.  Words are interned once and spelled once.
        With no modes, ``terms`` itself comes back: do not mutate it.
        """
        if not modes:
            return terms
        intern, spell = self.intern, self.spell
        ids = self.chain_ids(modes, {intern(word): coeff for word, coeff in terms.items()})
        return {spell(wid): coeff for wid, coeff in ids.items()}

    def chain_ids(self, modes, ids: dict) -> dict:
        """``chain`` on canonical word ids: an ``id -> coefficient`` dict in, one
        out.  With no modes, ``ids`` itself comes back: do not mutate it."""
        act = self._act
        for gen, m in reversed(modes):
            out = {}
            for wid, coeff in ids.items():
                add_scaled(out, act(gen, m, wid), coeff)
            ids = out
        return ids

    def _act(self, gen: int, m: int, wid: int) -> dict:
        """gen(m) applied to the canonical word ``wid``, as an ``id -> rational`` dict.

        The relation ``a(m) b(n) w = b(n) a(m) w + [a,b](m+n) w + m*k*<a,b>*[m+n=0] w``
        is unfolded with an explicit stack: a key ``(gen, m, wid)`` is resolved
        once every key its value is built from is in the memo, and its terms
        are added in the same order as the recursive definition would add them.
        A creation mode already in canonical position (``m <= -1``, and ``wid``
        the vacuum or ``(gen, m) <= heads[wid]``) is a prepend, worth
        ``{cons(key): 1}``: it takes a memo entry only as a root or an inner
        key, and where a value is summed its one word is added in place.  A
        prepend is the only way ``_act`` makes an id, so its words stay canonical.
        """
        memo = self.memo
        root = (gen, m, wid)
        value = memo.get(root)
        if value is not None:
            return value
        g, k, bracket = self.g, self.k, self.g.bracket
        heads, tails, cons = self.heads, self.tails, self.cons
        stack = [root]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            gen, m, wid = key
            # a Mode compares as the pair (gen, depth)
            if m <= -1 and (not wid or (gen, m) <= heads[wid]):
                # the memo key is also the word's cons key
                memo[key] = {cons(key): 1}
            elif not wid:
                memo[key] = {}  # m >= 0 annihilates the vacuum
            else:
                head, rest = heads[wid], tails[wid]
                inner = memo.get((gen, m, rest))
                if inner is None:
                    stack.append((gen, m, rest))
                    continue
                bg, bd = head
                row = bracket(gen, bg)
                depth = m + bd
                # only keys that are not prepends wait on the stack: head is a
                # creation mode, so (bg, bd, w2) is one unless w2's head sorts
                # first, and (g2, depth, rest) is one when depth <= -1 unless
                # rest's head sorts first
                waiting = len(stack)
                for w2 in inner:
                    if w2 and heads[w2] < head and (bg, bd, w2) not in memo:
                        stack.append((bg, bd, w2))
                for g2 in row:
                    if (depth >= 0 or rest and heads[rest] < (g2, depth)) and (g2, depth, rest) not in memo:
                        stack.append((g2, depth, rest))
                if len(stack) > waiting:
                    continue
                # so a key missing from the memo here is a prepend, whose one
                # word is added in place by add_scaled's rule: dropped when it
                # cancels, and placed last when it comes back
                out = {}
                for w2, c in inner.items():
                    t = (bg, bd, w2)
                    value = memo.get(t)
                    if value is not None:
                        add_scaled(out, value, c)
                        continue
                    p = cons(t)
                    if p in out:
                        c = out[p] + c
                        if not c:
                            del out[p]
                            continue
                    out[p] = c
                for g2, c in row.items():
                    t = (g2, depth, rest)
                    value = memo.get(t)
                    if value is not None:
                        add_scaled(out, value, c)
                        continue
                    p = cons(t)
                    if p in out:
                        c = out[p] + c
                        if not c:
                            del out[p]
                            continue
                    out[p] = c
                central = m * k * g.form(gen, bg) if not depth else 0
                if central:
                    add_scaled(out, {rest: 1}, exact(central))
                memo[key] = out
            stack.pop()
        return memo[root]


def weight(v: State) -> int:
    """Conformal weight of a homogeneous state."""
    return _homogeneous(v, "weight", word_weight)


def charge(g: LieAlgebra, v: State) -> int:
    """Cartan charge (h(0)-eigenvalue) of a homogeneous state."""
    return _homogeneous(v, "charge", lambda word: word_charge(g, word))


def _homogeneous(v: State, name: str, grade) -> int:
    """The one value of ``grade`` over the words of ``v``."""
    values = {grade(w) for w in v.words()}
    if not values:
        raise NotHomogeneous(f"{name} of the zero state is undefined")
    if len(values) > 1:
        raise NotHomogeneous(f"mixed {name}s {sorted(values)}")
    return values.pop()


def basis_enum(g: LieAlgebra, w: int, q=None) -> list:
    """All canonical words of conformal weight w (and Cartan charge q if given).

    Words grow mode by mode in canonical order, on an explicit stack.  A prefix
    is kept only while q stays reachable: in weight r, the modes that may still
    follow, from the generators at or after the last one placed, carry a
    multiple of their charges' gcd between ``min(bottom, r * bottom)`` and
    ``max(top, r * top)``, for their least and greatest charge.
    Deterministic order: shorter words first, then by the modes nearest the
    vacuum; this reproduces the listing order used by the rigidity ansatz.
    """
    if w < 0:
        raise ValueError("weight must be >= 0")
    if q is None:
        charges, q = [0] * g.dim, 0
    else:
        charges = [g.charge(x) for x in range(g.dim)]
    # the least and greatest charge, and their gcd, from generator x on
    suffixes = [charges[x:] for x in range(g.dim)]
    bottoms, tops = [min(c) for c in suffixes], [max(c) for c in suffixes]
    steps = [gcd(*c) for c in suffixes]
    words = []
    # a prefix is a (last mode, prefix) pair; with it the weight and charge left,
    # the generator of its last mode, and the weight that mode has
    stack = [((), w, q, 0, w)]
    while stack:
        prefix, left, need, first, cap = stack.pop()
        if not left:
            word = []
            while prefix:
                mode, prefix = prefix
                word.append(mode)
            if not need:  # only the empty word of weight 0 can miss q here
                words.append(tuple(reversed(word)))
            continue
        for x in range(first, g.dim):
            rest = need - charges[x]
            if steps[x] and rest % steps[x]:
                continue
            bottom, top = bottoms[x], tops[x]
            # the least weight, past 0, of modes that can carry the rest
            if bottom <= rest <= top:
                least = 1
            elif rest > top > 0:
                least = -(-rest // top)
            elif rest < bottom < 0:
                least = -(rest // -bottom)
            else:
                least = left + 1
            heaviest = cap if x == first else left
            for d in range(1, min(heaviest, left - least) + 1):
                stack.append(((Mode(x, -d), prefix), left - d, rest, x, d))
            if not rest and left <= heaviest:
                stack.append(((Mode(x, -left), prefix), 0, 0, x, left))
    words.sort(key=lambda wd: (len(wd), tuple((m.gen, -m.depth) for m in reversed(wd))))
    return words


def stratum_size(g: LieAlgebra, w: int, q, limit: int) -> int:
    """The number of canonical words of weight w (and charge q unless None), or
    ``limit + 1`` once it is known to be larger.  Nothing is enumerated.

    ``A_w``, the words of weight w by charge, follow from the generating function
    ``prod over basis x, d >= 1 of 1/(1 - t^d y^charge(x))`` through its logarithmic
    derivative: ``w A_w = sum_k B_k A_(w-k)``, where ``B_k`` holds ``d`` at charge
    ``charge(x) * k/d`` for each basis x and divisor d of k.  Only charges from
    which q is still reachable are kept.  Adding a mode to a word is injective,
    so the count at any ``(v, x)`` from which ``e(-1)``, ``h(-1)`` and ``f(-1)``
    modes of the theta triple reach ``(w, q)`` bounds the answer from below: the
    count stops at the first such one past ``limit``.  A unique top (or bottom)
    charge ``c`` makes the count stable in w: a word of slack
    ``s = |c| w - sign(c) q`` is ``x(-1)^j`` for that x times modes of total
    slack s and weight at most ``s + s // |c|``, so w is first lowered to that
    weight, with q along.
    """
    if q is None:
        charges, q = [0] * g.dim, 0
    else:
        charges = [g.charge(x) for x in range(g.dim)]
    if w < 0 or q % (gcd(*charges) or 1):
        return 0
    top, bottom = max(charges), min(charges)
    for c in (top, bottom):
        if c and charges.count(c) == 1:
            slack = abs(c) * w - (q if c > 0 else -q)
            if slack < 0:
                return 0
            stable = slack + slack // abs(c)
            if w > stable:
                w, q = stable, q - c * (w - stable)
    e, _, f = g.theta
    step = charges[e] if charges[e] == -charges[f] else 0
    mult = Counter(charges)
    rows, b = [{0: 1}], [None]
    for v in range(1, w + 1):
        bk = {}
        for d in range(1, v + 1):
            if v % d == 0:
                for c, n in mult.items():
                    bk[c * (v // d)] = bk.get(c * (v // d), 0) + n * d
        b.append(bk)
        lo, hi = max(bottom * v, q - top * (w - v)), min(top * v, q - bottom * (w - v))
        row = {}
        for k in range(1, v + 1):
            for c, n in b[k].items():
                for q0, a in rows[v - k].items():
                    if lo <= q0 + c <= hi:
                        row[q0 + c] = row.get(q0 + c, 0) + n * a
        rows.append({x: a // v for x, a in row.items() if a})
        for x, a in rows[v].items():
            if a > limit and (
                x == q if not step else (q - x) % step == 0 and abs(q - x) <= step * (w - v)
            ):
                return limit + 1
    return min(rows[w].get(q, 0), limit + 1)


def d_operator(v: State) -> State:
    """Translation operator: D(a(-m) w) = m a(-m-1) w + a(-m) D(w), D|0> = 0."""
    out = {}
    for word, coeff in v.items():
        for i, mode in enumerate(word):
            shifted = word[:i] + (Mode(mode.gen, mode.depth - 1),) + word[i + 1 :]
            # same-generator modes commute freely, so resorting is exact
            add_scaled(out, {tuple(sorted(shifted)): coeff}, -mode.depth)
    return State._unchecked(out)
