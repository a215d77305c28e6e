import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affdef.cli import ExprAST
from affdef.deform import (
    DefAtom,
    DefExpression,
    DefTerm,
    RuleRegistry,
    UnresolvedAtom,
    _merge_terms,
    _normalize_residual,
    evaluate,
    generator_value,
    register_ansatz,
)
from affdef.liealg import LieAlgebra, sl2, sln, validate
from affdef.pbw import (
    Kernel,
    Mode,
    NotHomogeneous,
    State,
    Word,
    apply_mode,
    basis_enum,
    charge,
    d_operator,
    is_canonical,
    is_creation_word,
    normal_order,
    render_word,
    stratum_size,
    weight,
    word_charge,
)
from affdef.rigidity import admissible_sl2_rule_table, integral_pipeline
from affdef.scalar import LinForm, add_scaled, exact
from affdef.singular import ADMISSIBLE_LEVEL, WEIGHT3_WORDS
from test_liealg import _rescaled_sl3

G = sl2()
E, H, F = G.theta


def mono(*pairs, coeff=1):
    return State.monomial(tuple(Mode(g, d) for g, d in pairs), coeff)


def e_pow(n, coeff=1):
    return mono(*[(E, -1)] * n, coeff=coeff)


# --- affine commutator datum ---

def affine_commutator(g, a, m, b, n, k) -> tuple:
    """[a(m), b(n)] as the pair ([a,b], m+n) plus the central scalar m*k*<a,b>.

    ``a`` and ``b`` are basis indices; the scalar is nonzero only when m + n = 0.
    The kernel reads the same relation from the tables; this copy serves the
    reference kernel and the representation sweep below.
    """
    central = m * Fraction(k) * g.form(a, b) if m + n == 0 else 0
    return g.bracket(a, b), m + n, central


def test_commutator_f1_e_minus1():
    k = Fraction(3)
    elt, depth, central = affine_commutator(G, F, 1, E, -1, k)
    assert elt == {H: -1}  # [f,e] = -h
    assert depth == 0
    assert central == k  # 1 * k * <f,e>


def test_commutator_h_minus1_e_minus2():
    elt, depth, central = affine_commutator(G, H, -1, E, -2, Fraction(2))
    assert elt == {E: 2}
    assert depth == -3
    assert central == 0


def test_commutator_cartan_zero_modes():
    elt, depth, central = affine_commutator(G, H, 0, H, 0, Fraction(2))
    assert not elt
    assert central == 0  # <h,h> term needs m + n = 0 with m nonzero


# --- mode application ---

def test_f1_on_square_at_k2():
    # (i-1)(k-i+2) with i = 3, k = 2
    got = apply_mode(G, F, 1, e_pow(2), Fraction(2))
    assert got == e_pow(1, coeff=2)


@pytest.mark.parametrize("k", [Fraction(1), Fraction(2), Fraction(3), Fraction(-4, 3)])
@pytest.mark.parametrize("i", [2, 3, 4, 5, 6])
def test_f1_power_law(k, i):
    got = apply_mode(G, F, 1, e_pow(i - 1), k)
    factor = Fraction(i - 1) * (k - i + 2)
    assert got == e_pow(i - 2, coeff=factor)


def test_h0_acts_by_charge():
    v = mono((E, -1), (E, -1), (F, -1))
    assert apply_mode(G, H, 0, v, Fraction(2)) == v.scale(2)


def test_positive_mode_kills_vacuum():
    assert apply_mode(G, E, 0, State.vacuum(), Fraction(1)).is_zero


def test_f1_on_deep_word():
    # 1200 modes is past the interpreter's default recursion limit
    n, k = 1200, Fraction(2)
    got = apply_mode(G, F, 1, e_pow(n), k)
    assert got == e_pow(n - 1, coeff=n * (k - n + 1))


# --- the recursive kernel the iterative one replaced, kept as a reference ---

def reference_apply_to_word(g, gen, m, word, k):
    if m <= -1 and (not word or Mode(gen, m) <= word[0]):
        return State.monomial((Mode(gen, m),) + word)
    if not word:
        return State.zero()
    b, rest = word[0], word[1:]
    out = State.zero()
    inner = reference_apply_to_word(g, gen, m, rest, k)
    for w2, c2 in inner.items():
        out = out + reference_apply_to_word(g, b.gen, b.depth, w2, k).scale(c2)
    elt, depth, central = affine_commutator(g, gen, m, b.gen, b.depth, k)
    for g2, c in elt.items():
        out = out + reference_apply_to_word(g, g2, depth, rest, k).scale(c)
    if central:
        out = out + State.monomial(rest).scale(central)
    return out


def reference_apply_mode(g, a, m, v, k):
    k = Fraction(k)
    out = State.zero()
    for word, coeff in v.items():
        out = out + reference_apply_to_word(g, a, m, word, k).scale(coeff)
    return out


def reference_normal_order(g, word, k):
    state = State.vacuum()
    for mode in reversed(word):
        state = reference_apply_mode(g, mode.gen, mode.depth, state, k)
    return state


@pytest.mark.parametrize("k", [Fraction(2), Fraction(-4, 3), Fraction(7, 2)])
@pytest.mark.parametrize("rank, max_modes", [(2, 8), (3, 7), ("rescaled-sl3", 7)])
def test_kernel_matches_recursive_reference(rank, max_modes, k):
    # equal states are not enough: the term order reaches rendered expressions;
    # the rescaled sl3 carries denominators in its bracket and form tables
    g = _rescaled_sl3() if rank == "rescaled-sl3" else sln(rank)
    rng = random.Random(f"{rank}:{k}")
    for trial in range(30):
        word = [
            Mode(rng.randrange(g.dim), -rng.randint(1, 2))
            for _ in range(rng.randint(0, max_modes))
        ]
        v = normal_order(g, word, k)
        want = reference_normal_order(g, word, k)
        assert v == want and list(v.items()) == list(want.items()), word
        if trial % 3 == 0:
            # symbolic coefficients go through the LinForm boundary
            v = v.scale(LinForm(1, {"c": 2})) + State.monomial(
                tuple(sorted(word)), LinForm.symbol("a1", -1)
            )
        a, m = rng.randrange(g.dim), rng.randint(-2, 2)
        got, want = apply_mode(g, a, m, v, k), reference_apply_mode(g, a, m, v, k)
        assert got == want and list(got.items()) == list(want.items()), (word, a, m)


def test_mode_action_leaves_the_algebra_untouched():
    # a cache hidden on the algebra would show here; validate keeps its report there
    g = sl2()
    validate(g)
    before = dict(vars(g))
    snapshot = {name: repr(value) for name, value in before.items()}
    v = normal_order(g, [Mode(F, -1), Mode(E, -1), Mode(H, -2), Mode(E, -1)], Fraction(3))
    apply_mode(g, F, 1, v, Fraction(3))
    evaluate(
        DefExpression.atom(DefAtom(F, 1, (Mode(E, -1), Mode(H, -1)))),
        RuleRegistry(g, 3),
        collect_residual=True,
    )
    integral_pipeline(g, 3)
    assert vars(g).keys() == before.keys()
    assert all(vars(g)[name] is value for name, value in before.items())
    assert {name: repr(value) for name, value in vars(g).items()} == snapshot


# --- the suffix-tuple kernel the hash-consed one replaced, kept as an oracle ---
# Verbatim but for its two names: words are Mode tuples and the memo is keyed
# on (gen, depth, suffix tuple).

def suffix_apply_chain(g: LieAlgebra, modes, terms, k):
    """The modes applied to ``terms``, rightmost first, as a ``word -> coefficient`` dict.

    ``modes`` holds ``(gen, depth)`` pairs, leftmost outermost; ``terms`` maps
    canonical words to coefficients under ``scalar.exact`` (a ``State`` will
    do).  Each step adds the kernel's results into one dict in the order that
    repeated ``apply_mode`` would give.
    The kernel's memo and the bracket table it reads live for this one call.
    With no modes, ``terms`` itself comes back: the caller must not mutate it.
    """
    k = exact(k)
    memo, brackets = {}, {}
    for gen, m in reversed(modes):
        out = {}
        for word, coeff in terms.items():
            add_scaled(out, suffix_act(g, gen, m, word, k, memo, brackets), coeff)
        terms = out
    return terms


def suffix_act(g: LieAlgebra, gen: int, m: int, word: Word, k, memo: dict, brackets: dict) -> dict:
    """gen(m) applied to a canonical word, as a ``word -> rational`` dict.

    The relation ``a(m) b(n) w = b(n) a(m) w + [a,b](m+n) w + m*k*<a,b>*[m+n=0] w``
    is unfolded with an explicit stack: a key ``(gen, m, word)`` is resolved
    once every key its value is built from is in ``memo``, and its terms are
    added in the same order as the recursive definition would add them.
    ``brackets`` holds each pair's exact ``(index, coeff)`` pairs and form value.
    """
    root = (gen, m, word)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        gen, m, word = key
        # a Mode compares as the pair (gen, depth)
        if m <= -1 and (not word or (gen, m) <= word[0]):
            # creation mode already in canonical position: prepend
            memo[key] = {(Mode(gen, m),) + word: 1}
        elif not word:
            memo[key] = {}  # m >= 0 annihilates the vacuum
        else:
            (bg, bd), rest = word[0], word[1:]
            inner = memo.get((gen, m, rest))
            if inner is None:
                stack.append((gen, m, rest))
                continue
            table = brackets.get((gen, bg))
            if table is None:
                pairs = tuple((g2, exact(c)) for g2, c in g.bracket(gen, bg).items())
                table = brackets[(gen, bg)] = (pairs, exact(g.form(gen, bg)))
            pairs, pairing = table
            depth = m + bd
            waiting = len(stack)
            for w2 in inner:
                if (bg, bd, w2) not in memo:
                    stack.append((bg, bd, w2))
            for g2, _ in pairs:
                if (g2, depth, rest) not in memo:
                    stack.append((g2, depth, rest))
            if len(stack) > waiting:
                continue
            out = {}
            for w2, c2 in inner.items():
                add_scaled(out, memo[(bg, bd, w2)], c2)
            for g2, c in pairs:
                add_scaled(out, memo[(g2, depth, rest)], c)
            central = m * k * pairing if not depth else 0
            if central:
                add_scaled(out, {rest: 1}, exact(central))
            memo[key] = out
        stack.pop()
    return memo[root]


def random_terms(rng, g, k, max_modes, symbolic):
    """A multi-term input: normal-ordered random words with rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(0, max_modes)
        word = [Mode(rng.randrange(g.dim), -rng.randint(1, 2)) for _ in range(n)]
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) or 1
        if symbolic:
            coeff = LinForm(coeff, {"c": rng.randint(1, 3)})
        add_scaled(terms, normal_order(g, word, k), coeff)
    return terms


def random_chain(rng, g):
    """One to three modes, zero and positive depths included."""
    return tuple(Mode(rng.randrange(g.dim), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3)))


def typed_items(terms):
    # equal values are not enough: the order reaches rendered expressions, and
    # the type is scalar.exact's
    return [(word, type(coeff), coeff) for word, coeff in terms.items()]


def oracle_cases(g, max_modes, k):
    """Forty seeded (terms, chain) inputs: multi-term, some symbolic."""
    rng = random.Random(f"oracle:{g.dim}:{k}")
    for trial in range(40):
        terms = random_terms(rng, g, k, max_modes, symbolic=trial % 4 == 0)
        yield terms, random_chain(rng, g)


ORACLE_ALGEBRAS = pytest.mark.parametrize("g, max_modes", [(G, 6), (sln(3), 5)], ids=["sl2", "sl3"])
ORACLE_LEVELS = pytest.mark.parametrize("k", [2, Fraction(-4, 3), Fraction(-1, 2)], ids=str)


@ORACLE_LEVELS
@ORACLE_ALGEBRAS
def test_kernel_matches_suffix_tuple_oracle(g, max_modes, k):
    for terms, chain in oracle_cases(g, max_modes, k):
        got, want = Kernel(g, k).chain(chain, terms), suffix_apply_chain(g, chain, terms, k)
        assert typed_items(got) == typed_items(want), (chain, terms)


@pytest.mark.parametrize("g", [G, sln(3)], ids=["sl2", "sl3"])
def test_shared_kernel_matches_suffix_tuple_oracle(g):
    # a registry keeps one kernel for all its evaluations: its memo and word table carry over
    k = Fraction(-4, 3)
    kernel = Kernel(g, k)
    rng = random.Random(f"shared:{g.dim}")
    for trial in range(60):
        word = [Mode(rng.randrange(g.dim), -rng.randint(1, 2)) for _ in range(rng.randint(0, 5))]
        want = suffix_apply_chain(g, word, {(): 1}, k)
        assert typed_items(kernel.chain(word, {(): 1})) == typed_items(want), word
        terms = random_terms(rng, g, k, 4, symbolic=trial % 3 == 0)
        chain = random_chain(rng, g)
        got, want = kernel.chain(chain, terms), suffix_apply_chain(g, chain, terms, k)
        assert typed_items(got) == typed_items(want), (chain, terms)


def long_chains(g, k):
    """Four seeded unordered words of 8-10 modes, each under one positive mode."""
    rng = random.Random(f"long:{g.dim}:{k}")
    for _ in range(4):
        word = [Mode(rng.randrange(g.dim), -rng.randint(1, 2)) for _ in range(rng.randint(8, 10))]
        yield (Mode(rng.randrange(g.dim), rng.randint(1, 2)),) + tuple(word)


LONG_CHAIN_LEVELS = pytest.mark.parametrize("k", [2, Fraction(-4, 3)], ids=str)
LONG_CHAIN_ALGEBRAS = pytest.mark.parametrize("g", [G, sln(3)], ids=["sl2", "sl3"])


@LONG_CHAIN_LEVELS
@LONG_CHAIN_ALGEBRAS
def test_long_chains_match_suffix_tuple_oracle(g, k):
    # one chain from the vacuum: prepends nest deep inside every value the kernel sums
    for chain in long_chains(g, k):
        got, want = Kernel(g, k).chain(chain, {(): 1}), suffix_apply_chain(g, chain, {(): 1}, k)
        assert got and typed_items(got) == typed_items(want), chain


def test_every_memo_value_matches_suffix_tuple_oracle():
    # at k = -2 (of the levels tried, only there) a prepend in _act's first sum
    # lands on a word that an earlier inner value put there, and cancels it: the
    # word must leave the memo value, not stay in it as a zero
    g, k = sln(3), -2
    text = "E13(1) D2(2) E31(-1) E23(-1) E31(-1) E32(-2) E32(-2) E32(-2)"
    chain = tuple(
        Mode(g.index(label), int(depth.rstrip(")")))
        for label, depth in (token.split("(") for token in text.split())
    )
    kernel = Kernel(g, k)
    kernel.chain(chain, {(): 1})
    memo, brackets = {}, {}
    for (gen, m, wid), value in kernel.memo.items():
        want = suffix_act(g, gen, m, kernel.spell(wid), exact(k), memo, brackets)
        got = {kernel.spell(w): c for w, c in value.items()}
        assert typed_items(got) == typed_items(want), (gen, m, kernel.spell(wid))


def assert_passes_the_full_check(state):
    # the kernel's words skip the State constructor's walk: it must accept them
    # all, and keep every coefficient as it is
    checked = State(dict(state.items()))
    assert typed_items(checked) == typed_items(state)


@ORACLE_LEVELS
@ORACLE_ALGEBRAS
def test_kernel_states_pass_the_full_check_on_oracle_inputs(g, max_modes, k):
    for terms, chain in oracle_cases(g, max_modes, k):
        state = State(terms)
        for gen, m in reversed(chain):
            state = apply_mode(g, gen, m, state, k)
            assert_passes_the_full_check(state)


@LONG_CHAIN_LEVELS
@LONG_CHAIN_ALGEBRAS
def test_kernel_states_pass_the_full_check_on_long_chains(g, k):
    for (gen, m), *word in long_chains(g, k):
        ordered = normal_order(g, word, k)
        assert_passes_the_full_check(ordered)
        assert_passes_the_full_check(apply_mode(g, gen, m, ordered, k))


@pytest.mark.parametrize("word", [
    (Mode(H, -1), Mode(E, -1)),  # out of canonical order
    (Mode(E, -1), Mode(F, -2), Mode(F, -3)),  # deeper after shallower
    (Mode(E, 0),),
    (Mode(E, -1), Mode(F, 1)),
])
def test_kernel_rejects_a_raw_word_at_entry(word):
    kernel = Kernel(G, 2)
    with pytest.raises(ValueError, match="monomial word"):
        kernel.chain(((F, 1),), {word: 1})
    with pytest.raises(ValueError, match="monomial word"):
        kernel.intern(word)
    # a word that does pass is still taken
    assert kernel.chain(((E, -1),), {(Mode(F, -1),): 1}) == {(Mode(E, -1), Mode(F, -1)): 1}


def distinct_mode_objects(words) -> bool:
    """Whether the words hold exactly one ``Mode`` object per ``(gen, depth)``."""
    return len({id(m) for w in words for m in w}) == len({m for w in words for m in w})


@pytest.mark.parametrize("g", [G, sln(3)], ids=["sl2", "sl3"])
def test_kernel_words_share_one_mode_per_gen_depth(g):
    rng = random.Random(f"heads:{g.dim}")
    k = Fraction(-4, 3)
    kernel = Kernel(g, k)
    words = []
    for _ in range(6):
        word = [Mode(rng.randrange(g.dim), -rng.randint(1, 2)) for _ in range(rng.randint(4, 7))]
        ordered = normal_order(g, word, k)
        assert len(ordered) > 1 and distinct_mode_objects(ordered.words())
        chain = (Mode(rng.randrange(g.dim), rng.randint(1, 2)),) + tuple(word)
        words += kernel.chain(chain, {(): 1})
    # one kernel, many chains: the heads are shared across all of them
    assert distinct_mode_objects(words)


def test_kernel_spells_deep_words_back():
    # a word is its id in the table; the id spells it back, however deep
    kernel = Kernel(G, 2)
    word = (Mode(E, -2),) + (Mode(E, -1),) * 3000 + (Mode(F, -1),)
    wid = kernel.intern(word)
    assert kernel.spell(wid) == word
    assert kernel.intern(word) == wid and kernel.intern(word[1:]) == kernel.tails[wid]
    assert kernel.heads[wid] == Mode(E, -2) and kernel.spell(0) == ()


def entry_words(g: LieAlgebra):
    """Words of modes at depths -3..1 in any order, half of them sorted into
    canonical creation words, so both kinds of spelling and shared suffixes come up."""
    modes = st.builds(Mode, st.integers(0, g.dim - 1), st.integers(-3, 1))
    word = st.lists(modes, max_size=6).map(tuple)
    canonical = word.map(lambda w: tuple(sorted(m for m in w if m.depth < 0)))
    return st.lists(st.one_of(word, canonical), min_size=1, max_size=8)


@pytest.mark.parametrize("g", [G, sln(3)], ids=["sl2", "sl3"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_enter_conses_any_spelling_in_one_walk(g, data):
    kernel = Kernel(g, 2)
    for word in data.draw(entry_words(g)):
        raw = set(kernel.raw)
        wid = kernel.enter(word)
        assert kernel.spell(wid) == word
        if is_creation_word(word):
            assert kernel.intern(word) == wid and kernel.raw == raw
        # entering the word again finds its id and adds nothing
        size, raw = len(kernel.heads), set(kernel.raw)
        assert kernel.enter(word) == wid and len(kernel.heads) == size and kernel.raw == raw
    # every id is a suffix of an entered word; raw holds exactly the spellings
    # that are not canonical creation words
    ids = range(1, len(kernel.heads))
    assert kernel.raw == {wid for wid in ids if not is_creation_word(kernel.spell(wid))}


# --- the per-mode chains that Kernel.chain replaced, kept as references ---

def per_mode_normal_order(g, word, k):
    state = State.vacuum()
    for mode in reversed(word):
        state = apply_mode(g, mode.gen, mode.depth, state, k)
    return state


def per_mode_apply_prefix(g, prefix, state, k):
    for mode in reversed(prefix):
        state = apply_mode(g, mode.gen, mode.depth, state, k)
    return state


def per_mode_master_commute(g, a, m, b, n, w, k):
    w = tuple(w)
    terms = [
        DefTerm(LinForm(1), (Mode(b, n),), DefAtom(a, m, w)),
        DefTerm(LinForm(-1), (Mode(a, m),), DefAtom(b, n, w)),
    ]
    spelled = per_mode_normal_order(g, w, k)
    for w2, coeff in apply_mode(g, a, m, spelled, k).items():
        terms.append(DefTerm(coeff, (), DefAtom(b, n, w2)))
    for g2, coeff in g.bracket(a, b).items():
        terms.append(DefTerm(LinForm(coeff), (), DefAtom(g2, m + n, w)))
    tail = State.zero()
    if m + n == 0:
        pairing = g.form(a, b)
        if m and pairing:
            tail = spelled.scale(LinForm.symbol("c", Fraction(m) * pairing))
    return DefExpression(terms, tail)


def per_mode_evaluate(expr, registry, collect_residual=False):
    """The evaluator with a per-mode prefix and a tail summed by State.__add__."""
    g = registry.g
    k = registry.kernel.k
    terms = list(expr.terms)
    tail = expr.tail
    residual = []
    while terms:
        next_terms = []
        for t in terms:
            atom = t.atom
            if not t.coeff or not atom.word:
                continue
            # a term-free value, then a rewrite, then the pairing
            rule = registry.lookup_value(atom)
            if rule is not None and not rule.value.terms:
                tail = tail + per_mode_apply_prefix(g, t.prefix, rule.value.tail, k).scale(t.coeff)
                continue
            if rule is not None:
                sub = rule.value
            elif atom.depth >= 0:
                if len(atom.word) == 1 and atom.word[0].depth == -1:
                    value = generator_value(g, atom.gen, atom.depth, atom.word[0].gen)
                    tail = tail + per_mode_apply_prefix(g, t.prefix, value, k).scale(t.coeff)
                    continue
                head = atom.word[0]
                sub = per_mode_master_commute(
                    g, atom.gen, atom.depth, head.gen, head.depth, atom.word[1:], k
                )
            elif collect_residual:
                residual.append(t)
                continue
            else:
                raise UnresolvedAtom(atom, registry.render_atom(atom))
            for s in sub.terms:
                next_terms.append(DefTerm(t.coeff * s.coeff, t.prefix + s.prefix, s.atom))
            tail = tail + per_mode_apply_prefix(g, t.prefix, sub.tail, k).scale(t.coeff)
        terms = _merge_terms(next_terms)
    if not collect_residual:
        return tail
    return tail, _normalize_residual(g, residual)


def assert_same_state(got, want, context):
    # equal states are not enough: the term order reaches rendered expressions
    assert got == want and list(got.items()) == list(want.items()), context


def assert_same_evaluation(expr, registry, collect_residual):
    want, want_residual = per_mode_evaluate(expr, registry, collect_residual=True)
    if collect_residual:
        got, got_residual = evaluate(expr, registry, collect_residual=True)
        assert got_residual == want_residual
    elif want_residual:
        # strict raises exactly when the net residual is nonempty, on its first atom
        with pytest.raises(UnresolvedAtom) as err:
            evaluate(expr, registry)
        assert err.value.atom == want_residual[0].atom
        return
    else:
        got = evaluate(expr, registry)
    assert_same_state(got, want, expr.render(registry.g))


@pytest.mark.parametrize("k", [Fraction(2), Fraction(-4, 3), Fraction(7, 2)])
@pytest.mark.parametrize("rank, max_modes", [(2, 8), (3, 7)])
def test_chain_matches_per_mode_steps(rank, max_modes, k):
    g = sln(rank)
    rng = random.Random(f"chain:{rank}:{k}")

    def random_word(low, high, n):
        return tuple(Mode(rng.randrange(g.dim), -rng.randint(low, high)) for _ in range(n))

    for _ in range(20):
        word = random_word(1, 2, rng.randint(0, max_modes))
        assert_same_state(normal_order(g, word, k), per_mode_normal_order(g, word, k), word)
        v = per_mode_normal_order(g, word, k).scale(LinForm(1, {"c": 2}))
        prefix = random_word(-2, 2, rng.randint(0, 3))
        assert_same_state(
            State(Kernel(g, k).chain(prefix, v)), per_mode_apply_prefix(g, prefix, v, k), prefix
        )
        # the parser's terms, summed the way State.__add__ sums them
        terms = [(Fraction(rng.randint(-3, 3), 2), random_word(1, 2, rng.randint(0, 4)))
                 for _ in range(3)]
        ast = ExprAST(tuple(terms))
        want = State.zero()
        for coeff, w in terms:
            want = want + per_mode_normal_order(g, w, k).scale(coeff)
        assert_same_state(ast.to_state(g, k), want, terms)


def test_chain_matches_per_mode_prefixes_on_ansatz_values():
    registry = RuleRegistry(G, ADMISSIBLE_LEVEL)
    rules = [
        register_ansatz(registry, DefAtom(H, -1, (Mode(E, -2),)), "a"),
        register_ansatz(registry, DefAtom(H, -1, (Mode(H, -1), Mode(E, -1))), "b"),
        register_ansatz(registry, DefAtom(E, -1, (Mode(E, -1), Mode(F, -1))), "c"),
    ]
    rng = random.Random("chain:ansatz")
    for k in (Fraction(2), Fraction(-4, 3), Fraction(7, 2)):
        for rule in rules:
            for _ in range(10):
                prefix = tuple(
                    Mode(rng.randrange(3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 4))
                )
                value = rule.value.tail
                got = State(Kernel(G, k).chain(prefix, value))
                assert_same_state(got, per_mode_apply_prefix(G, prefix, value, k), prefix)


@pytest.mark.parametrize("collect_residual", [False, True])
def test_evaluate_matches_per_mode_evaluator(collect_residual):
    table = admissible_sl2_rule_table(G)
    # the admissible pipeline's registry: the stated table, the input rule,
    # the three ansatz values and the translation constraint
    full = admissible_sl2_rule_table(G)
    full.register_value(DefAtom(H, -1, (Mode(E, -1),)), State.zero(), "stated")
    a_rule = register_ansatz(full, DefAtom(H, -1, (Mode(E, -2),)), "a")
    register_ansatz(full, DefAtom(H, -1, (Mode(H, -1), Mode(E, -1))), "b")
    register_ansatz(full, DefAtom(E, -1, (Mode(E, -1), Mode(F, -1))), "c")
    full.register_value(DefAtom(H, -2, (Mode(E, -1),)), a_rule.value.tail.scale(-1), "translation")
    # the cross-check's base registry
    base = RuleRegistry(G, ADMISSIBLE_LEVEL)
    base.register_value(DefAtom(H, -1, (Mode(E, -1),)), State.zero(), "stated")
    for gen in (F, H):
        for word in WEIGHT3_WORDS:
            atom = DefAtom(gen, 1, word)
            assert_same_evaluation(DefExpression.atom(atom), full, collect_residual)
            assert_same_evaluation(DefExpression.atom(atom), base, collect_residual)
            expected = table.lookup_value(atom).value
            assert_same_evaluation(expected, base, collect_residual)


# --- normal ordering ---

def test_normal_order_single_swap():
    got = normal_order(G, [Mode(H, -1), Mode(E, -2)], Fraction(2))
    assert got == mono((E, -2), (H, -1)) + mono((E, -3), coeff=2)


def test_normal_order_already_ordered():
    got = normal_order(G, [Mode(E, -1), Mode(E, -1)], Fraction(2))
    assert got == e_pow(2)


def test_normal_order_fe_swap():
    got = normal_order(G, [Mode(F, -1), Mode(E, -1)], Fraction(2))
    assert got == mono((E, -1), (F, -1)) + mono((H, -2), coeff=-1)


def test_normal_order_idempotent():
    rng = random.Random(7)
    for _ in range(30):
        word = [
            Mode(rng.randrange(3), -rng.randint(1, 3))
            for _ in range(rng.randint(0, 4))
        ]
        once = normal_order(G, word, Fraction(-4, 3))
        again = State.zero()
        for w, coeff in once.items():
            assert is_canonical(w)
            again = again + normal_order(G, w, Fraction(-4, 3)).scale(coeff)
        assert once == again


def test_normal_order_rejects_annihilation_modes():
    with pytest.raises(ValueError):
        normal_order(G, [Mode(E, 0)], Fraction(1))


# --- grading ---

def test_weight_charge_of_named_state():
    v = mono((E, -1), (E, -1), (F, -1))
    assert weight(v) == 3
    assert charge(G, v) == 2


def test_weight_charge_vacuum():
    assert weight(State.vacuum()) == 0
    assert charge(G, State.vacuum()) == 0


def test_charge_of_cartan_mode():
    assert charge(G, mono((H, -2))) == 0


def test_not_homogeneous():
    v = mono((E, -1)) + State.vacuum()
    with pytest.raises(NotHomogeneous):
        weight(v)
    v2 = mono((E, -1)) + mono((H, -1))
    with pytest.raises(NotHomogeneous):
        charge(G, v2)


# --- graded bases ---

def test_basis_weight3_charge2():
    words = basis_enum(G, 3, 2)
    rendered = [render_word(G, w) for w in words]
    assert rendered == [
        "e(-3)|0>",
        "e(-2)*h(-1)|0>",
        "e(-1)*h(-2)|0>",
        "e(-1)*h(-1)^2|0>",
        "e(-1)^2*f(-1)|0>",
    ]


def test_basis_weight0():
    assert basis_enum(G, 0, 0) == [()]


def test_basis_weight2_charge0():
    rendered = [render_word(G, w) for w in basis_enum(G, 2, 0)]
    assert rendered == ["h(-2)|0>", "h(-1)^2|0>", "e(-1)*f(-1)|0>"]


def partition_counts_three_colors(max_weight):
    """Coefficients of prod_{m>=1} (1 - q^m)^(-3), an independent series oracle."""
    coeffs = [0] * (max_weight + 1)
    coeffs[0] = 1
    for m in range(1, max_weight + 1):
        for _ in range(3):  # three generators of each depth
            for w in range(m, max_weight + 1):
                coeffs[w] += coeffs[w - m]
    return coeffs


def test_pbw_character_matches_partition_oracle():
    oracle = partition_counts_three_colors(6)
    assert oracle == [1, 3, 9, 22, 51, 108, 221]
    for w in range(7):
        assert len(basis_enum(G, w)) == oracle[w]


def test_basis_words_canonical_and_unique():
    for w in range(5):
        words = basis_enum(G, w)
        assert len(set(words)) == len(words)
        assert all(is_canonical(word) for word in words)


@pytest.mark.parametrize("g, max_weight", [(G, 8), (sln(3), 4)], ids=["sl2", "sl3"])
def test_charge_pruned_basis_is_the_filtered_weight_basis(g, max_weight):
    for w in range(max_weight + 1):
        words = basis_enum(g, w)
        for q in range(-2 * w - 3, 2 * w + 4):
            assert basis_enum(g, w, q) == [wd for wd in words if word_charge(g, wd) == q], (w, q)


def test_basis_enum_walks_deep_words_without_recursion():
    # past the recursion limit, and found without walking the weight-3000 stratum
    assert basis_enum(G, 3000, 6000) == [(Mode(E, -1),) * 3000]
    assert basis_enum(G, 3000, 5998) == [
        (Mode(E, -2),) + (Mode(E, -1),) * 2998,
        (Mode(E, -1),) * 2999 + (Mode(H, -1),),
    ]
    # sl2 charges are even, so an odd charge stops every prefix at once
    assert basis_enum(G, 3000, 1) == []


@pytest.mark.parametrize("g, max_weight", [(G, 8), (sln(3), 4)], ids=["sl2", "sl3"])
def test_stratum_size_counts_basis_enum(g, max_weight):
    for w in range(max_weight + 1):
        words = basis_enum(g, w)
        assert stratum_size(g, w, None, 10**9) == len(words)
        by_charge = {}
        for word in words:
            q = word_charge(g, word)
            by_charge[q] = by_charge.get(q, 0) + 1
        for q in range(-2 * w - 3, 2 * w + 4):
            assert stratum_size(g, w, q, 10**9) == by_charge.get(q, 0), (w, q)


def test_stratum_size_stops_past_its_limit():
    assert stratum_size(G, 8, 0, limit=150) == 150
    assert stratum_size(G, 8, 0, limit=149) == 150
    assert stratum_size(G, 30, 0, limit=10**4) == 10**4 + 1
    assert stratum_size(G, 30, None, limit=10**4) == 10**4 + 1
    # a weight past any table: low points of its cone pass the limit first
    assert stratum_size(G, 10**1000, 2, limit=10**4) == 10**4 + 1


def test_stratum_size_near_the_top_charge():
    # e(-1)^5000 alone; then e(-2)e(-1)^4999 and e(-1)^5000 h(-1)
    big = 10**9
    assert stratum_size(G, 5000, 10000, big) == 1
    assert stratum_size(G, 5001, 10000, big) == 2
    assert stratum_size(G, 5001, -10000, big) == 2
    assert stratum_size(G, 5000, 10002, big) == 0
    assert stratum_size(G, 5000, 9999, big) == 0  # sl2 charges are even
    # the count is the same at every weight past the stable one
    g = sln(3)
    assert stratum_size(g, 6, 8, big) == len(basis_enum(g, 6, 8))
    assert stratum_size(g, 600, 1196, big) == len(basis_enum(g, 6, 8))


# --- translation operator ---

def test_d_on_generator():
    assert d_operator(mono((E, -1))) == mono((E, -2))


def test_d_on_vacuum():
    assert d_operator(State.vacuum()).is_zero


def test_d_via_leibniz_pair():
    k = Fraction(-4, 3)
    v = normal_order(G, [Mode(H, -1), Mode(E, -1)], k)
    expected = normal_order(G, [Mode(H, -2), Mode(E, -1)], k) + normal_order(
        G, [Mode(H, -1), Mode(E, -2)], k
    )
    assert d_operator(v) == expected


def test_d_raises_weight_by_one():
    for word in basis_enum(G, 3):
        image = d_operator(State.monomial(word))
        if image:
            assert weight(image) == 4


def per_position_d(v):
    """D summed one shifted word at a time with State.__add__."""
    out = State.zero()
    for word, coeff in v.items():
        for i, mode in enumerate(word):
            shifted = word[:i] + (Mode(mode.gen, mode.depth - 1),) + word[i + 1 :]
            out = out + State.monomial(tuple(sorted(shifted))).scale(coeff * -mode.depth)
    return out


def test_d_keeps_the_state_sum_order():
    # e(-2)h(-2) cancels between the first two words
    c = LinForm.symbol("c")
    cancel = mono((E, -1), (H, -2)) - mono((E, -2), (H, -1)) + mono((E, -1), (H, -1), coeff=c)
    rng = random.Random("d-order")
    states = [cancel] + [random_state(rng, 4).scale(LinForm(1, {"c": 1})) for _ in range(10)]
    for v in states:
        assert_same_state(d_operator(v), per_position_d(v), v)


# --- the representation property, exhaustive small sweep ---

def random_state(rng, max_weight):
    total = State.zero()
    for _ in range(rng.randint(1, 3)):
        w = rng.randint(0, max_weight)
        word = []
        while w > 0:
            d = rng.randint(1, w)
            word.append(Mode(rng.randrange(3), -d))
            w -= d
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        total = total + normal_order(G, word, Fraction(2)).scale(coeff)
    return total


@functools.lru_cache(maxsize=None)
def representation_sweep(k):
    """Both sides of [a(m), b(n)] v = [a,b](m+n) v + m*k*<a,b>*delta_{m+n,0} v, per case.

    Computed once per level: the acceptance suite asserts on the same sweep.
    """
    rng = random.Random(2024)
    states = [random_state(rng, 5) for _ in range(6)] + [State.vacuum()]
    pairs = [(a, b) for a in range(3) for b in range(3)]
    cases = []
    for v in states:
        for a, b in pairs:
            for m in range(-3, 4):
                for n in range(-3, 4):
                    lhs = apply_mode(G, a, m, apply_mode(G, b, n, v, k), k) - apply_mode(
                        G, b, n, apply_mode(G, a, m, v, k), k
                    )
                    elt, depth, central = affine_commutator(G, a, m, b, n, k)
                    rhs = State.zero()
                    for idx, coeff in elt.items():
                        rhs = rhs + apply_mode(G, idx, depth, v, k).scale(coeff)
                    if central:
                        rhs = rhs + v.scale(central)
                    cases.append(((a, b, m, n), lhs, rhs))
    return tuple(cases)


@pytest.mark.parametrize("k", [Fraction(2), Fraction(-4, 3)])
def test_representation_property_sweep(k):
    for case, lhs, rhs in representation_sweep(k):
        assert lhs == rhs, case


def test_mode_application_shifts_grading():
    k = Fraction(2)
    for word in basis_enum(G, 3):
        v = State.monomial(word)
        for a in range(3):
            for m in range(-2, 3):
                image = apply_mode(G, a, m, v, k)
                if image:
                    assert weight(image) == 3 - m
                    assert charge(G, image) == charge(G, v) + G.charge(a)


# --- rendering ---

def test_render_word_exponents():
    word = (Mode(E, -1), Mode(E, -1), Mode(F, -1))
    assert render_word(G, word) == "e(-1)^2*f(-1)|0>"
    assert render_word(G, ()) == "|0>"


def test_state_render():
    v = mono((E, -3), coeff=8) + mono((E, -2), (H, -1), coeff=-12)
    assert v.render(G) == "8*e(-3)|0> - 12*e(-2)*h(-1)|0>"
    assert State.zero().render(G) == "0"
    sym = State.vacuum(LinForm.symbol("c", 2))
    assert sym.render(G) == "(2*c)*|0>"


def test_state_rejects_non_canonical_words():
    with pytest.raises(ValueError):
        State.monomial((Mode(H, -1), Mode(E, -1)))


def test_state_rejects_annihilation_modes():
    with pytest.raises(ValueError):
        State.monomial((Mode(E, 0),))
    with pytest.raises(ValueError):
        State.monomial((Mode(F, 2), Mode(E, -1)))


# --- the sparse-sum rule: exact coefficients, cancelled words dropped ---

def is_plain_exact(coeff) -> bool:
    """An int, or a Fraction that is not integral: scalar.exact's form of a rational."""
    return type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1)


def test_state_sum_keeps_exact_coefficients():
    x, y = mono((E, -1)), mono((F, -1))
    half = x.scale(Fraction(1, 2))
    for s in (x + y, x - x + x, (x + y) + (x + y), half + half, x.scale(LinForm(2))):
        assert all(type(coeff) is int for _, coeff in s.items())
        assert s.scale(LinForm.symbol("a")).scale(2) == s.scale(LinForm.symbol("a", 2))
    assert [type(coeff) for _, coeff in half.items()] == [Fraction]
    symbolic = (x + y).scale(LinForm.symbol("a"))
    assert all(type(coeff) is LinForm for _, coeff in symbolic.items())
    assert all(type(coeff) is int for _, coeff in (symbolic - symbolic + x).items())


@pytest.mark.parametrize("k", [2, Fraction(-4, 3)], ids=["k=2", "k=-4/3"])
@pytest.mark.parametrize("g", [G, sln(3), _rescaled_sl3()], ids=["sl2", "sl3", "rescaled-sl3"])
def test_kernel_coefficients_are_plain_rationals(g, k):
    rng = random.Random(f"plain:{g.dim}:{k}")
    for _ in range(10):
        v = normal_order(g, [Mode(rng.randrange(g.dim), -rng.randint(1, 2)) for _ in range(4)], k)
        images = [apply_mode(g, a, m, v, k) for a in range(g.dim) for m in (0, 1, 2)]
        for state in [v] + images:
            assert all(is_plain_exact(coeff) for _, coeff in state.items()), state


def test_constant_kernel_builds_no_linform(monkeypatch):
    made = []
    init = LinForm.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinForm, "__init__", counted)
    for g, k in ((G, 2), (G, Fraction(-4, 3)), (sln(3), Fraction(-3, 2))):
        word = [Mode(a, -1) for a in reversed(range(g.dim))] + [Mode(0, -2)]
        v = normal_order(g, word, k)
        for a in range(g.dim):
            apply_mode(g, a, 1, v, k)
    assert made == []
    LinForm.symbol("c")
    assert len(made) == 1  # the count sees a construction


def test_other_coefficient_inputs_go_through_fraction():
    w = (Mode(E, -1),)
    assert State({w: 0.5}) == State({w: Fraction(1, 2)})
    assert State({w: 0.1}).coefficient(w) == Fraction(0.1)
    assert State({w: "1/3"}).coefficient(w) == LinForm(Fraction(1, 3))
    assert State.monomial(w).scale(0.5) == State.monomial(w, Fraction(1, 2))
    assert [type(c) for _, c in State({w: "4/2"}).items()] == [int]
    # coefficient() keeps answering with a LinForm, for eliminate and the JSON
    assert type(State({w: 3}).coefficient(w)) is LinForm
    assert type(State.zero().coefficient(w)) is LinForm
    with pytest.raises(ValueError):
        State({w: "x"})


def test_cancelled_word_comes_back_last():
    x, y = mono((E, -1)), mono((F, -1))
    assert list((x + y - x + x).words()) == [(Mode(F, -1),), (Mode(E, -1),)]
    # e(1) sends the first two words to 2*h(-2)|0> and -2*h(-2)|0> - 2*e(-1)f(-1)|0>,
    # whose h(-2)|0> terms cancel; the third word brings h(-2)|0> back
    k = Fraction(2)
    terms = {
        (Mode(F, -3),): 2,
        (Mode(H, -2), Mode(F, -1)): -1,
        (Mode(H, -1), Mode(F, -2)): 1,
    }
    got = Kernel(G, k).chain(((E, 1),), terms)
    assert list(got) == [(Mode(E, -1), Mode(F, -1)), (Mode(H, -1),) * 2, (Mode(H, -2),)]
    summed = State.zero()
    for word, coeff in terms.items():
        summed = summed + apply_mode(G, E, 1, State.monomial(word), k).scale(coeff)
    assert list(summed.words()) == list(got)
    assert summed == State(got)


def test_state_arithmetic_matches_the_checked_constructor():
    # sums, scalings and D build through State._unchecked: the result must equal,
    # in order and coefficient type, the checked constructor's on the same terms
    def checked_sum(a, b):
        out = dict(a.items())
        add_scaled(out, dict(b.items()), 1)
        return State(out)

    def checked_scale(a, factor):
        factor = exact(factor)
        return State({w: c * factor for w, c in a.items()} if factor else None)

    c = LinForm.symbol("c")
    half = mono((E, -1), coeff=Fraction(1, 2))
    rng = random.Random("unchecked-arithmetic")
    states = [half, mono((F, -1), (F, -1), coeff=c), State.zero()]
    states += [random_state(rng, 4).scale(rng.choice([1, Fraction(2, 3), c])) for _ in range(8)]
    factors = [0, 1, -3, Fraction(1, 2), Fraction(4, 2), c, LinForm(Fraction(3, 5)), 2 * c]
    for a in states:
        for b in states + [half, a.scale(-1)]:
            assert typed_items(a + b) == typed_items(checked_sum(a, b))
            assert typed_items(a - b) == typed_items(checked_sum(a, checked_scale(b, -1)))
        # a LinForm times a LinForm is refused: symbolic states take constant factors
        constant = not any(isinstance(coeff, LinForm) for _, coeff in a.items())
        for factor in factors if constant else factors[:5]:
            assert typed_items(a.scale(factor)) == typed_items(checked_scale(a, factor))
        assert typed_items(d_operator(a)) == typed_items(State(dict(d_operator(a).items())))
    # Fraction(1, 2) + Fraction(1, 2) is stored as the int 1
    assert typed_items(half + half) == [((Mode(E, -1),), int, 1)]
