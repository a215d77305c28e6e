import hashlib
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affdef import deform
from affdef.deform import (
    DefAtom,
    DefExpression,
    DefTerm,
    DuplicateAtom,
    RegistryFrozen,
    RuleRegistry,
    UnresolvedAtom,
    d_shift,
    evaluate,
    generator_value,
    master_commute,
    mode_identity,
    register_ansatz,
)
from affdef.liealg import LieAlgebra, load_structure_file, sl2, sln
from affdef.pbw import Kernel, Mode, State, basis_enum
from affdef.rigidity import (
    admissible_sl2_rule_table,
    check_power_rule_ingredients,
    integral_pipeline,
)
from affdef.scalar import LinForm, NonlinearProduct, is_constant, signed_term
from affdef.singular import WEIGHT3_WORDS

G = sl2()
E, H, F = G.theta
K43 = Fraction(-4, 3)
C = LinForm.symbol("c")


def atom_expr(gen, depth, word):
    return DefExpression.atom(DefAtom(gen, depth, word))


def empty_registry(k=K43):
    return RuleRegistry(G, k)


def spelled_commute(kernel, a, m, b, n, w) -> DefExpression:
    """``master_commute`` on a spelled word: the word entered in the kernel, and
    the rewrite over ids spelled as a ``DefExpression``."""
    rewrite = master_commute(kernel, a, m, b, n, kernel.enter(tuple(w)))
    return DefExpression(*deform._spelled(kernel, rewrite))


# --- terminal rules ---

def test_vacuum_rule_everywhere():
    for gen, m in [(H, 0), (F, 1), (E, -5)]:
        assert evaluate(atom_expr(gen, m, ()), empty_registry()).is_zero


def test_generator_value_pairings():
    assert generator_value(G, F, 1, E) == State.vacuum(C)
    assert generator_value(G, F, 0, E).is_zero
    assert generator_value(G, H, 1, H) == State.vacuum(C.scale(2))
    assert generator_value(G, E, 1, E).is_zero
    with pytest.raises(ValueError):
        generator_value(G, F, -1, E)


# --- master commutator identity ---

def test_mode_identity_f1_e():
    ident = mode_identity(G, F, 1, E, -1)
    assert ident.terms == ((LinForm(-1), Mode(H, 0)), (C, None))
    assert ident.render(G) == "-h^def(0) + c"


def test_mode_identity_h0_e():
    ident = mode_identity(G, H, 0, E, -1)
    assert ident.terms == ((LinForm(2), Mode(E, -1)),)
    assert ident.render(G) == "2*e^def(-1)"


def test_mode_identity_nilpotent_direction():
    ident = mode_identity(G, E, 1, E, -1)
    assert ident.terms == ()
    assert ident.render(G) == "0"


def test_master_commute_structure():
    expr = spelled_commute(Kernel(G, 2), F, 1, E, -1, ())
    # pushes past one mode: b(n) a^def(m) - a(m) b^def(n) (+ moved + bracket + central)
    assert DefTerm(LinForm(1), (Mode(E, -1),), DefAtom(F, 1, ())) in expr.terms
    assert DefTerm(LinForm(-1), (Mode(F, 1),), DefAtom(E, -1, ())) in expr.terms
    assert DefTerm(LinForm(-1), (), DefAtom(H, 0, ())) in expr.terms
    assert expr.tail == State.vacuum(C)


def test_generator_value_agrees_with_master_route():
    """Dual route: the pairing rule is re-derivable from the master rewrite alone."""
    for a in (E, H, F):
        for b in (E, H, F):
            for m in (0, 1, 2):
                direct = generator_value(G, a, m, b)
                expr = spelled_commute(Kernel(G, K43), a, m, b, -1, ())
                assert evaluate(expr, empty_registry()) == direct


def reference_master_commute(kernel, a, m, b, n, w):
    """The rewrite as it was built before one kernel pass a step: the moved-past
    mode and the target word in one chain from the vacuum, the central term from
    a second chain of the word, and the constructor's merge."""
    w = tuple(w)
    terms = [
        DefTerm(1, (Mode(b, n),), DefAtom(a, m, w)),
        DefTerm(-1, (Mode(a, m),), DefAtom(b, n, w)),
    ]
    for w2, coeff in kernel.chain(((a, m),) + w, {(): 1}).items():
        terms.append(DefTerm(coeff, (), DefAtom(b, n, w2)))
    tail = State.zero()
    for coeff, dm in mode_identity(kernel.g, a, m, b, n).terms:
        if dm is None:
            tail = State(kernel.chain(w, {(): 1})).scale(coeff)
        else:
            terms.append(DefTerm(coeff, (), DefAtom(*dm, w)))
    return DefExpression(terms, tail)


def assert_same_rewrite(got, want, context):
    # term for term: order and coefficient types reach the evaluator's sums
    assert got.terms == want.terms, context
    assert [type(t.coeff) for t in got.terms] == [type(t.coeff) for t in want.terms], context
    assert list(got.tail.items()) == list(want.tail.items()), context
    assert [type(c) for _, c in got.tail.items()] == [type(c) for _, c in want.tail.items()], context


def assert_rewrites_match_the_reference(g, k, cases):
    # each side acts with its own kernel, so neither reads the other's memo
    kernel, reference = Kernel(g, k), Kernel(g, k)
    for a, m, b, n, w in cases:
        context = (k, a, m, b, n, w)
        assert_same_rewrite(
            spelled_commute(kernel, a, m, b, n, w),
            reference_master_commute(reference, a, m, b, n, w),
            context,
        )


@pytest.mark.parametrize("k", [2, K43, Fraction(-1, 2)])
def test_master_commute_matches_the_reference_on_sl2(k):
    # every a^def(m) b(n) w with wt(w) <= 3: the vacuum target, the m = 0
    # coincidence of h^def(0) with [h,e] = 2e, and (a, m) == (b, n) among them
    targets = [w for wt in range(4) for w in basis_enum(G, wt)]
    assert_rewrites_match_the_reference(G, k, [
        (a, m, b, n, w)
        for a in (E, H, F) for m in range(-2, 3)
        for b in (E, H, F) for n in (-1, -2)
        for w in targets
    ])


def test_master_commute_matches_the_reference_on_sl3():
    g = sln(3)
    rng = random.Random(2029)
    targets = [w for wt in range(3) for w in basis_enum(g, wt)]
    cases = [
        (rng.randrange(g.dim), rng.randint(-1, 2), rng.randrange(g.dim), rng.randint(-2, -1),
         rng.choice(targets))
        for _ in range(300)
    ]
    cases += [(1, -1, 1, -1, ()), (3, 0, 0, -1, targets[1])]  # (a, m) == (b, n); a zero mode
    for k in (2, Fraction(-3, 2)):
        assert_rewrites_match_the_reference(g, k, cases)


# the -4/3 table's mixed spellings, and targets with a mode that does not create
RAW_TARGETS = [word[1:] for word in WEIGHT3_WORDS] + [
    (Mode(H, -1), Mode(E, -1)),
    (Mode(F, -1), Mode(E, -1)),
    (Mode(H, -1), Mode(E, -2)),
    (Mode(F, -1), Mode(H, -1), Mode(E, -1)),
    (Mode(E, -1), Mode(F, -1), Mode(E, -1)),
    (Mode(E, 0), Mode(F, -1)),
    (Mode(F, 1), Mode(E, -1), Mode(E, -1)),
]


def test_master_commute_matches_the_reference_on_raw_targets():
    assert any(len(w) > 1 and w[0] > w[1] for w in RAW_TARGETS[: len(WEIGHT3_WORDS)])
    assert_rewrites_match_the_reference(G, K43, [
        (a, m, b, n, w)
        for a in (E, H, F) for m in range(-1, 3)
        for b in (E, H, F) for n in (-1, -2)
        for w in RAW_TARGETS
    ])


def rescaled_structure_file(g, factors: dict) -> str:
    """The structure file of ``g`` with each basis vector ``i`` in ``factors``
    replaced by ``factors[i]`` times itself: the same algebra, with other
    structure constants."""
    scale = [factors.get(i, 1) for i in range(g.dim)]

    def term(q, w):
        return f"{'-' if q < 0 else '+'}{abs(q)}*{g.label(w)}"

    lines = [f"basis {' '.join(g.basis)}", f"triple {' '.join(g.label(i) for i in g.theta)}"]
    for i in range(g.dim):
        for j in range(i, g.dim):
            row = g.bracket(i, j)
            if row:
                rhs = "".join(
                    term(Fraction(scale[i] * scale[j] * c, scale[w]), w) for w, c in row.items()
                )
                lines.append(f"[{g.label(i)},{g.label(j)}] = {rhs.lstrip('+')}")
            if g.form(i, j):
                lines.append(f"<{g.label(i)},{g.label(j)}> = {scale[i] * scale[j] * g.form(i, j)}")
    return "\n".join(lines) + "\n"


def rescaled_sl3():
    """sl3 with E12 replaced by 2*E12 and D2 by D2/2, loaded from its structure
    file.  Neither is in the theta-triple (E13, D1, E31), so the file loads,
    and its table holds non-integral constants: [E13,E32] = 1/2*E12, and
    [D2,E12] = -1/2*E12, so d2^def(0) e12(-1) e12(-1)|0> merges -1/2 from
    d2(0) acting on the word with -1/2 from the bracket into the integer -1."""
    g = sln(3)
    e12, e13, d2, e32 = (g.index(label) for label in ("E12", "E13", "D2", "E32"))
    loaded = load_structure_file(rescaled_structure_file(g, {e12: 2, d2: Fraction(1, 2)}))
    assert loaded.bracket(e13, e32) == {e12: Fraction(1, 2)}
    assert loaded.bracket(d2, e12) == {e12: Fraction(-1, 2)}
    return loaded


def test_master_commute_matches_the_reference_on_a_fraction_table():
    # each step shape is met with several targets on one kernel, so most
    # steps read a template built earlier; the a^def(0) cases with [a,b]
    # proportional to b merge a bracket term into a moved-past one
    g = rescaled_sl3()
    rng = random.Random(2032)
    targets = [w for wt in range(3) for w in basis_enum(g, wt)]
    shapes = [
        (rng.randrange(g.dim), rng.randint(-1, 2), rng.randrange(g.dim), rng.randint(-2, -1))
        for _ in range(60)
    ]
    d1, d2, e12, e13, e32 = (g.index(label) for label in ("D1", "D2", "E12", "E13", "E32"))
    shapes += [(d1, 0, e12, -1), (d2, 0, e12, -1), (e13, 1, e32, -1), (e12, -1, e12, -1)]
    cases = [(*shape, rng.choice(targets)) for shape in shapes for _ in range(5)]
    cases.append((d2, 0, e12, -1, (Mode(e12, -1),)))
    for k in (2, Fraction(-3, 2)):
        assert_rewrites_match_the_reference(g, k, cases)
        # the evaluator's form, over one kernel's word ids, which no
        # DefExpression constructor normalises after the step
        kernel, reference = Kernel(g, k), Kernel(g, k)
        for a, m, b, n, w in cases:
            got = master_commute(kernel, a, m, b, n, kernel.enter(w))
            want = deform._over_ids(kernel, reference_master_commute(reference, a, m, b, n, w))
            assert got[0] == want[0], (k, a, m, b, n, w)
            assert [type(c) for c, _, _ in got[0]] == [type(c) for c, _, _ in want[0]]
            assert list(got[1].items()) == list(want[1].items())
            assert [type(c) for c in got[1].values()] == [type(c) for c in want[1].values()]


def test_kernels_of_two_algebras_share_no_template():
    # sl3 and its rescaled table agree on every label, and the step
    # e13^def(1) e32(-1)|0> meets [E13,E32], which they state differently
    g, rescaled = sln(3), rescaled_sl3()
    step = (g.index("E13"), 1, g.index("E32"), -1)
    kernels = [Kernel(g, 2), Kernel(rescaled, 2)]
    for kernel in kernels + kernels:
        assert_same_rewrite(
            spelled_commute(kernel, *step, ()),
            reference_master_commute(Kernel(kernel.g, 2), *step, ()),
            kernel.g.basis,
        )
    first, second = (kernel.steps[step] for kernel in kernels)
    assert first is not second and first != second


def test_master_commute_drops_the_moved_terms_when_the_modes_agree():
    # e^def(-1) e(-1) f(-1): the moved terms cancel, and only the moved-past
    # action is left, the atom itself
    word = (Mode(E, -1), Mode(F, -1))
    expr = spelled_commute(Kernel(G, 2), E, -1, E, -1, word[1:])
    assert expr.terms == (DefTerm(1, (), DefAtom(E, -1, word)),)
    assert expr.tail.is_zero


def test_master_commute_merges_the_zero_mode_coincidence():
    # h^def(0) e(-1) e(-1): h(0) acts on e(-1) by 2, and [h,e] = 2e, so the
    # two prefix-free e^def(-1)e(-1) terms are one term with coefficient 4
    word = (Mode(E, -1),)
    expr = spelled_commute(Kernel(G, 2), H, 0, E, -1, word)
    assert expr.terms == (
        DefTerm(1, (Mode(E, -1),), DefAtom(H, 0, word)),
        DefTerm(-1, (Mode(H, 0),), DefAtom(E, -1, word)),
        DefTerm(4, (), DefAtom(E, -1, word)),
    )


def count_kernel_calls(monkeypatch, name: str) -> list:
    """Route the ``Kernel`` method through a wrapper; the list grows by its arguments per call."""
    calls = []
    method = getattr(Kernel, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(Kernel, name, counted)
    return calls


@pytest.mark.parametrize("w, passes", [
    ((), 1),
    ((Mode(E, -1),) * 3, 1),
    ((Mode(E, -2), Mode(H, -1), Mode(F, -1)), 1),
    ((Mode(H, -1), Mode(E, -1)), 2),
    ((Mode(E, 0), Mode(F, -1)), 2),
])
def test_master_commute_spells_only_a_raw_target(monkeypatch, w, passes):
    # a canonical creation word is its own vector; any other spelling is spelled
    # once, and the moved-past mode acts on that vector in one more pass; every
    # pass of modes over the kernel's word ids goes through chain_ids
    kernel = Kernel(G, K43)
    calls = count_kernel_calls(monkeypatch, "chain_ids")
    master_commute(kernel, F, 1, E, -1, kernel.enter(w))
    assert len(calls) == passes
    assert calls[-1][0] == ((F, 1),)


# --- translation identity ---

def test_single_generator_deep_targets_vanish():
    # f^def(1) e(-2)|0> = D(c|0>) + f^def(0) e(-1)|0> = 0
    assert evaluate(atom_expr(F, 1, (Mode(E, -2),)), empty_registry()).is_zero
    assert evaluate(atom_expr(F, 1, (Mode(E, -3),)), empty_registry()).is_zero
    assert evaluate(atom_expr(H, 0, (Mode(E, -2),)), empty_registry()).is_zero
    assert evaluate(atom_expr(F, 1, (Mode(E, -1),)), empty_registry()) == State.vacuum(C)


def test_d_shift_produces_depth_constraint():
    # with h^def(-1)e(-1)|0> = 0:  h^def(-2)e(-1)|0> = -h^def(-1)e(-2)|0>
    placeholder = State.monomial((Mode(E, -3),), LinForm.symbol("a1"))
    registry = empty_registry()
    registry.register_value(DefAtom(H, -1, (Mode(E, -1),)), State.zero(), "test")
    registry.register_value(DefAtom(H, -1, (Mode(E, -2),)), placeholder, "test")
    got = d_shift(registry, H, -1, State.monomial((Mode(E, -1),)))
    assert got == placeholder.scale(-1)


def test_d_shift_on_vacuum():
    # a^def(m-1)|0> = 0, and D|0> = 0
    got = d_shift(empty_registry(), E, 1, State.vacuum())
    assert got.is_zero
    with pytest.raises(ValueError):
        d_shift(empty_registry(), E, 0, State.vacuum())


# --- the integral lemmas, computed ---

def power_rule_registry(k):
    """The stated power rule e^def(-1)e(-1)^j|0> := 0 for 1 <= j <= k, at level k."""
    registry = empty_registry(k)
    for j in range(1, k + 1):
        registry.register_value(
            DefAtom(E, -1, (Mode(E, -1),) * j), State.zero(), "derived:power-rule"
        )
    return registry


@pytest.mark.parametrize("k", range(1, 6))
def test_power_rule_ingredients_vanish(k):
    check_power_rule_ingredients(Kernel(G, Fraction(k)))


def test_power_rule_ingredients_act_on_word_ids(monkeypatch):
    # the ingredients act on the id of e(-1)|0>, one pass a mode, and no
    # word is interned, entered or spelled
    kernel = Kernel(G, 2)
    passes = count_kernel_calls(monkeypatch, "chain_ids")
    words = [count_kernel_calls(monkeypatch, name) for name in ("intern", "enter", "spell")]
    check_power_rule_ingredients(kernel)
    assert [modes for modes, _ in passes] == [((E, alpha),) for alpha in range(4)]
    assert words == [[], [], []]


def test_power_rule_ingredients_refuse_a_pairing_of_e_with_itself():
    # with <e,e> = 1, e(1) e(-1)|0> = k|0> and e^def(1) e(-1)|0> = c|0>
    g = LieAlgebra(G.basis, G._bracket, {**G._form, (E, E): 1}, G.theta)
    with pytest.raises(ArithmeticError, match="nonzero ingredient at alpha=1"):
        check_power_rule_ingredients(Kernel(g, 2))


@pytest.mark.parametrize("k", range(1, 6))
def test_cartan_value_computed(k):
    registry = power_rule_registry(k)
    for i in range(1, k + 2):
        got = evaluate(atom_expr(H, 0, (Mode(E, -1),) * (i - 1)), registry)
        assert got.is_zero, (i, k)


def test_cartan_value_blind_to_power_ansatz():
    # negative control: with e^def(-1)e(-1)|0> free, the Cartan value still
    # vanishes (by charge), but the f^def(1) reduction sees the free symbol
    registry = empty_registry(2)
    register_ansatz(registry, DefAtom(E, -1, (Mode(E, -1),)), "x")
    assert evaluate(atom_expr(H, 0, (Mode(E, -1),) * 2), registry).is_zero
    got = evaluate(atom_expr(F, 1, (Mode(E, -1),) * 2), registry)
    assert got != State.monomial((Mode(E, -1),), C.scale(2))
    assert got == State.monomial((Mode(E, -1),), C.scale(2) + LinForm.symbol("x1", -2))


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("g", [sl2(), sln(3)], ids=["sl2", "sl3"])
def test_relation_blind_to_power_rule(g, k):
    # with every power atom e^def(-1)e(-1)^j|0> free and no Cartan rules, each
    # step's x term carries the factor (k+1-i), which vanishes at i = k+1: the
    # image of e(-1)^(k+1)|0> is (k+1)*c e(-1)^k|0> whatever the power rule says
    e, _, f = g.theta
    registry = RuleRegistry(g, k)
    for j in range(1, k + 1):
        register_ansatz(registry, DefAtom(e, -1, (Mode(e, -1),) * j), f"x{j}_")
    for i in range(1, k + 2):
        got = evaluate(DefExpression.atom(DefAtom(f, 1, (Mode(e, -1),) * i)), registry)
        coeff = C.scale(i)
        if i > 1:
            coeff = coeff + LinForm.symbol(f"x{i - 1}_1", -i * (k + 1 - i))
        assert got == State.monomial((Mode(e, -1),) * (i - 1), coeff), (i, got.render(g))


# --- registry ---

def test_register_ansatz_expansions():
    registry = empty_registry()
    rule = register_ansatz(registry, DefAtom(H, -1, (Mode(E, -2),)), "a")
    expected = State.zero()
    for idx, word in enumerate(basis_enum(G, 3, 2), start=1):
        expected = expected + State.monomial(word, LinForm.symbol(f"a{idx}"))
    assert rule.value.tail == expected and not rule.value.terms
    # the other two families expand over the same five monomials
    rule_b = register_ansatz(registry, DefAtom(E, -1, (Mode(E, -1), Mode(F, -1))), "b")
    rule_c = register_ansatz(registry, DefAtom(H, -1, (Mode(H, -1), Mode(E, -1))), "c")
    assert sorted(rule_b.value.tail.words()) == sorted(expected.words())
    assert sorted(rule_c.value.tail.words()) == sorted(expected.words())
    assert rule_b.value.tail.coefficient((Mode(E, -3),)) == LinForm.symbol("b1")
    assert rule_c.value.tail.coefficient((Mode(E, -3),)) == LinForm.symbol("c1")


def test_register_duplicate_atom():
    registry = empty_registry()
    register_ansatz(registry, DefAtom(H, -1, (Mode(E, -2),)), "a")
    with pytest.raises(DuplicateAtom):
        register_ansatz(registry, DefAtom(H, -1, (Mode(E, -2),)), "x")


def test_registry_rejects_weight_law_violation():
    registry = empty_registry()
    # h^def(-1)e(-2)|0> has weight 3 and charge 2; a weight-2 value must be rejected
    with pytest.raises(ValueError, match="weight"):
        registry.register_value(
            DefAtom(H, -1, (Mode(E, -2),)), State.monomial((Mode(E, -2),)), "bad"
        )
    with pytest.raises(ValueError, match="charge"):
        registry.register_value(
            DefAtom(H, -1, (Mode(E, -2),)),
            State.monomial((Mode(E, -1), Mode(H, -1), Mode(F, -1))),
            "bad",
        )


def test_registry_freeze():
    registry = empty_registry()
    registry.freeze()
    with pytest.raises(RegistryFrozen):
        registry.register_value(DefAtom(H, -1, (Mode(E, -1),)), State.zero(), "late")


def test_registry_rule_grading_holds_for_pipeline_rules():
    registry = empty_registry()
    rules = [
        register_ansatz(registry, DefAtom(H, -1, (Mode(E, -2),)), "a"),
        register_ansatz(registry, DefAtom(H, -1, (Mode(H, -1), Mode(E, -1))), "b"),
        register_ansatz(registry, DefAtom(E, -1, (Mode(E, -1), Mode(F, -1))), "c"),
    ]
    for rule in rules:
        registry._check_grading(rule.atom, rule.value.tail)  # re-check, exact


def test_registry_dump():
    registry = empty_registry()
    register_ansatz(registry, DefAtom(H, -1, (Mode(E, -2),)), "a")
    dump = registry.dump()
    assert "h^def(-1) e(-2)|0> :=" in dump
    assert "; ansatz" in dump


def rewrite_of_h_minus2_e():
    # -h(1)h^def(-2)e(-1)|0>: the stated rewrite of h^def(1)h(-2)e(-1)|0>
    return DefExpression([DefTerm(LinForm(-1), (Mode(H, 1),), DefAtom(H, -2, (Mode(E, -1),)))])


def test_value_and_rewrite_share_one_atom_table():
    atom = DefAtom(H, 1, (Mode(H, -2), Mode(E, -1)))
    registry = empty_registry()
    registry.register_value(atom, State.zero(), "value")
    with pytest.raises(DuplicateAtom):
        registry.register_value(atom, rewrite_of_h_minus2_e(), "rewrite")
    registry = empty_registry()
    registry.register_value(atom, rewrite_of_h_minus2_e(), "rewrite")
    with pytest.raises(DuplicateAtom):
        registry.register_value(atom, State.zero(), "value")
    assert registry.lookup_value(atom).provenance == "rewrite"


def test_rewrite_tail_is_graded():
    # h^def(1)h(-1)e(-2)|0> has weight 2 and charge 2
    atom = DefAtom(H, 1, (Mode(H, -1), Mode(E, -2)))
    term = DefTerm(LinForm(-1), (Mode(H, 1),), DefAtom(H, -1, (Mode(E, -2),)))
    with pytest.raises(ValueError, match="weight"):
        empty_registry().register_value(
            atom, DefExpression([term], State.monomial((Mode(E, -3),), C)), "bad"
        )
    with pytest.raises(ValueError, match="charge"):
        empty_registry().register_value(
            atom, DefExpression([term], State.monomial((Mode(H, -2),), C)), "bad"
        )
    rule = empty_registry().register_value(
        atom, DefExpression([term], State.monomial((Mode(E, -2),), C.scale(2))), "good"
    )
    assert rule.value.terms == (term,)


def test_registry_dump_lists_values_and_rewrites_in_atom_order():
    registry = empty_registry()
    registry.register_value(
        DefAtom(H, 1, (Mode(H, -2), Mode(E, -1))), rewrite_of_h_minus2_e(), "stated"
    )
    registry.register_value(DefAtom(F, -1, (Mode(E, -1),)), State.zero(), "input")
    register_ansatz(registry, DefAtom(H, 0, (Mode(E, -1),)), "x")
    # atoms sort by generator index (e, h, f), so the f^def value comes last
    assert registry.dump().splitlines() == [
        "h^def(0) e(-1)|0> := x1*e(-1)|0> ; ansatz",
        "h^def(1) h(-2)*e(-1)|0> := -h(1)h^def(-2)e(-1)|0> ; stated",
        "f^def(-1) e(-1)|0> := 0 ; input",
    ]


# --- an atom and its id key are one atom ---

def id_key(registry, atom):
    """The ``(gen, depth, word id)`` key of the atom in the registry's kernel."""
    return atom.gen, atom.depth, registry.kernel.enter(atom.word)


def rule_fields(rule) -> tuple:
    """A rule as comparable parts: its atom, its value's terms and tail items,
    and its provenance (a ``DefExpression`` compares by identity)."""
    return rule.atom, rule.value.terms, list(rule.value.tail.items()), rule.provenance


@pytest.mark.parametrize("key_first", [False, True])
def test_an_atom_and_its_id_key_are_one_atom(key_first):
    registry = empty_registry()
    atom = DefAtom(H, 1, (Mode(H, -2), Mode(E, -1)))  # a raw spelling
    first, second = atom, id_key(registry, atom)
    if key_first:
        first, second = second, first
    rule = registry.register_value(first, rewrite_of_h_minus2_e(), "first")
    assert rule.atom == first
    with pytest.raises(DuplicateAtom, match=re.escape("h^def(1) h(-2)*e(-1)|0>")):
        registry.register_value(second, State.zero(), "second")
    # a looked-up rule is spelled from the table, whichever spelling was registered
    want = (atom, rule.value.terms, [], "first")
    assert rule_fields(registry.lookup_value(atom)) == rule_fields(registry.lookup_value(second)) == want


def test_a_zero_value_is_the_empty_value_over_ids(monkeypatch):
    # a zero value is stored over ids as it stands, with no conversion; its
    # rule still carries the term-free expression, and the frozen and
    # duplicate checks still come first; the one table holds the value over
    # ids and the provenance
    converted = []
    over_ids = deform._over_ids
    monkeypatch.setattr(deform, "_over_ids", lambda *args: converted.append(args) or over_ids(*args))
    registry = empty_registry()
    atom = DefAtom(H, -1, (Mode(E, -1),))
    key = id_key(registry, atom)
    rule = registry.register_value(key, State.zero(), "zero")
    assert converted == []
    assert registry._rules[key] == (((), {}), "zero")
    assert rule.value.terms == () and rule.value.tail.is_zero
    assert rule_fields(registry.lookup_value(atom)) == (atom, (), [], "zero")
    assert registry.dump() == "h^def(-1) e(-1)|0> := 0 ; zero"
    with pytest.raises(DuplicateAtom):
        registry.register_value(atom, State.zero(), "again")
    registry.register_value(DefAtom(H, -1, (Mode(E, -2),)), State.monomial((Mode(E, -3),)), "one")
    assert len(converted) == 1
    registry.freeze()
    with pytest.raises(RegistryFrozen):
        registry.register_value(DefAtom(H, -1, (Mode(H, -1),)), State.zero(), "late")


def test_a_frozen_registry_refuses_both_spellings():
    registry = empty_registry()
    atom = DefAtom(H, -1, (Mode(E, -1),))
    key = id_key(registry, atom)
    registry.freeze()
    for spelling in (atom, key):
        with pytest.raises(RegistryFrozen):
            registry.register_value(spelling, State.zero(), "late")


def test_an_id_key_value_is_graded():
    registry = empty_registry()
    key = id_key(registry, DefAtom(H, -1, (Mode(E, -2),)))
    with pytest.raises(ValueError, match=re.escape("h^def(-1) e(-2)|0> has weight 3")):
        registry.register_value(key, State.monomial((Mode(E, -2),)), "bad")
    with pytest.raises(ValueError, match="charge"):
        registry.register_value(
            key, State.monomial((Mode(E, -1), Mode(H, -1), Mode(F, -1))), "bad"
        )


@pytest.mark.parametrize("by_key", [False, True])
def test_dump_is_blind_to_the_spelling_registered(by_key):
    registry = empty_registry()

    def spelling(atom):
        return id_key(registry, atom) if by_key else atom

    registry.register_value(
        spelling(DefAtom(H, 1, (Mode(H, -2), Mode(E, -1)))), rewrite_of_h_minus2_e(), "stated"
    )
    registry.register_value(spelling(DefAtom(F, -1, (Mode(E, -1),))), State.zero(), "input")
    registry.register_value(
        spelling(DefAtom(H, 0, (Mode(E, -1),))),
        State.monomial((Mode(E, -1),), LinForm.symbol("x1")),
        "ansatz",
    )
    assert registry.dump().splitlines() == [
        "h^def(0) e(-1)|0> := x1*e(-1)|0> ; ansatz",
        "h^def(1) h(-2)*e(-1)|0> := -h(1)h^def(-2)e(-1)|0> ; stated",
        "f^def(-1) e(-1)|0> := 0 ; input",
    ]


def assert_ids_evaluate_as_spelled(registry, expr):
    """``evaluate`` on the expression over ids gives the spelled value's tail over
    ids, the same residual, and the same ``UnresolvedAtom`` text when strict."""
    kernel = registry.kernel
    root = deform._over_ids(kernel, expr)
    got = evaluate(root, registry, collect_residual=True)
    tail, residual = evaluate(expr, registry, collect_residual=True)
    assert got == (deform._over_ids(kernel, DefExpression((), tail))[1], residual)
    if not residual:
        assert evaluate(root, registry) == got[0]
        return
    with pytest.raises(UnresolvedAtom) as spelled_err:
        evaluate(expr, registry)
    with pytest.raises(UnresolvedAtom) as ids_err:
        evaluate(root, registry)
    assert str(ids_err.value) == str(spelled_err.value)
    assert ids_err.value.atom == spelled_err.value.atom


@pytest.mark.parametrize("frozen", [False, True])
def test_evaluate_over_ids_on_the_rule_table_atoms(frozen):
    table = admissible_sl2_rule_table(G)
    if frozen:
        table.freeze()
    for gen in (F, H):
        for word in WEIGHT3_WORDS:
            assert_ids_evaluate_as_spelled(table, atom_expr(gen, 1, word))


@pytest.mark.parametrize("g, k", [(G, k) for k in range(1, 7)] + [(sln(3), k) for k in (1, 2, 3)])
def test_evaluate_over_ids_on_the_integral_atoms(g, k):
    e, h, f = g.theta
    registry = RuleRegistry(g, k)

    def power(gen, depth, n):
        return DefAtom(gen, depth, (Mode(e, -1),) * n)

    for j in range(1, k + 1):
        registry.register_value(power(e, -1, j), State.zero(), "power")
    for p in range(1, k + 1):
        assert_ids_evaluate_as_spelled(registry, DefExpression.atom(power(h, 0, p)))
        registry.register_value(power(h, 0, p), State.zero(), "cartan")
    registry.freeze()
    for i in range(1, k + 2):
        top = DefExpression.atom(power(f, 1, i))
        assert_ids_evaluate_as_spelled(registry, top)
        assert_ids_evaluate_as_spelled(registry, top.scale(-3) + DefExpression.atom(power(h, 0, i)))


# --- the stated rule table ---

def test_rule_table_lookups():
    table = admissible_sl2_rule_table(G)
    w1, w2, w3, w4, w5 = WEIGHT3_WORDS
    expr = table.lookup_value(DefAtom(F, 1, w5)).value
    assert not expr.terms and expr.tail.is_zero  # f^def(1)e(-3)|0> = 0
    expr = table.lookup_value(DefAtom(H, 1, w3)).value
    assert expr.tail.is_zero
    assert expr.terms == (DefTerm(LinForm(-1), (Mode(H, 1),), DefAtom(H, -2, (Mode(E, -1),))),)
    expr = table.lookup_value(DefAtom(F, 1, w3)).value
    assert expr.tail == State.monomial((Mode(H, -2),), C)
    assert expr.terms == (DefTerm(LinForm(-1), (Mode(F, 1),), DefAtom(H, -2, (Mode(E, -1),))),)


# --- expressions ---

@pytest.mark.parametrize("coeff", [1, 0, Fraction(4, 2), Fraction(1, 3), C, LinForm(0)])
def test_atom_expression_matches_the_merged_one(coeff):
    # DefExpression.atom builds its one term directly; the merge is the reference
    atom = DefAtom(F, 1, (Mode(E, -1),) * 2)
    got, want = DefExpression.atom(atom, coeff), DefExpression([DefTerm(coeff, (), atom)])
    assert got.terms == want.terms
    assert [type(t.coeff) for t in got.terms] == [type(t.coeff) for t in want.terms]
    assert got.tail == want.tail and list(got.tail.items()) == list(want.tail.items())


# --- the evaluator ---

def test_evaluate_generator_pairing():
    got = evaluate(atom_expr(F, 1, (Mode(E, -1),)), empty_registry(1))
    assert got == State.vacuum(C)


def test_evaluate_telescoped_power_at_k1():
    registry = power_rule_registry(1)
    value = evaluate(atom_expr(H, 0, (Mode(E, -1),)), registry)
    registry.register_value(DefAtom(H, 0, (Mode(E, -1),)), value, "derived:cartan-induction")
    got = evaluate(atom_expr(F, 1, (Mode(E, -1), Mode(E, -1))), registry)
    assert got == State.monomial((Mode(E, -1),), C.scale(2))


def test_evaluate_tail_is_linform_exactly_where_an_unknown_is():
    registry = empty_registry()
    atom = DefAtom(H, -1, (Mode(E, -2),))
    ansatz = list(register_ansatz(registry, atom, "a").value.tail.words())
    outside = (Mode(H, -3),)
    # on the first ansatz word the tail cancels a1, leaving the constant 3
    tail = State({ansatz[0]: LinForm(3, {"a1": -1}), ansatz[1]: 5, outside: 7})
    expr = DefExpression.atom(atom) + DefExpression((), tail) + atom_expr(F, 1, (Mode(E, -1),))
    got = evaluate(expr, registry)
    symbolic = set(ansatz[1:]) | {()}  # the rest of the ansatz, and c*|0>
    assert set(got.words()) == set(ansatz) | {outside, ()}
    for word, coeff in got.items():
        assert isinstance(coeff, LinForm) == (word in symbolic), (word, coeff)
    assert got.coefficient(ansatz[0]) == 3 and got.coefficient(outside) == 7


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@given(rationals, rationals)
def test_render_is_blind_to_the_linform_spelling(q, r):
    word = (Mode(E, -1), Mode(H, -2))
    renders = set()
    for coeff in (q, LinForm(q)):
        tail = State({word: coeff, (Mode(F, -3),): r + coeff * C})
        expr = DefExpression([DefTerm(coeff, (Mode(H, -1),), DefAtom(F, 1, word))], tail)
        renders.add((tail.render(G), expr.render(G)))
        # the one question the renderers ask of a coefficient
        assert is_constant(coeff) and signed_term(coeff, "x") == signed_term(q, "x")
    assert len(renders) == 1


def test_evaluate_is_linear():
    registry = empty_registry(3)
    for j in range(1, 4):
        registry.register_value(
            DefAtom(E, -1, (Mode(E, -1),) * j), State.zero(), "derived:power-rule"
        )
        registry.register_value(
            DefAtom(H, 0, (Mode(E, -1),) * j), State.zero(), "derived:cartan"
        )
    registry.freeze()
    rng = random.Random(11)
    for _ in range(10):
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        x = atom_expr(F, 1, (Mode(E, -1),) * rng.randint(1, 4))
        y = atom_expr(F, 1, (Mode(E, -1),) * rng.randint(1, 4))
        combined = x.scale(alpha) + y.scale(beta)
        lhs = evaluate(combined, registry)
        rhs = evaluate(x, registry).scale(alpha) + evaluate(y, registry).scale(beta)
        assert lhs == rhs


def test_evaluate_unresolved_atom():
    with pytest.raises(UnresolvedAtom) as err:
        evaluate(atom_expr(H, -1, (Mode(E, -2),)), empty_registry())
    assert err.value.atom == DefAtom(H, -1, (Mode(E, -2),))


def test_unresolved_atom_message_renders_the_atom():
    with pytest.raises(UnresolvedAtom) as err:
        evaluate(atom_expr(H, -1, (Mode(E, -2),)), empty_registry())
    assert str(err.value) == "no rule for def-atom h^def(-1) e(-2)|0>"


def test_evaluate_nonlinear_guard_fires():
    registry = empty_registry()
    register_ansatz(registry, DefAtom(H, -1, (Mode(E, -2),)), "a")
    expr = DefExpression.atom(DefAtom(H, -1, (Mode(E, -2),)), coeff=C)
    with pytest.raises(NonlinearProduct):
        evaluate(expr, registry)


def test_evaluate_collect_residual():
    tail, residual = evaluate(
        atom_expr(F, 1, WEIGHT3_WORDS[0]), empty_registry(), collect_residual=True
    )
    assert DefAtom(H, -1, (Mode(E, -2),)) in {t.atom for t in residual}


# --- reuse on a frozen registry ---

def count_master_commute(monkeypatch) -> list:
    """Route ``deform.master_commute`` through a wrapper; the list grows by one per call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return master_commute(*args)

    monkeypatch.setattr(deform, "master_commute", counted)
    return calls


@pytest.mark.parametrize("k", [4, 8, 16, 32])
def test_integral_pipeline_commutes_each_power_once(monkeypatch, k):
    # each Cartan power past the first and each f^def(1) power past the first
    # takes one master-commute step; every earlier power comes from the memo
    calls = count_master_commute(monkeypatch)
    assert integral_pipeline(sl2(), k).final_relation == C.scale(k + 1)
    assert len(calls) == 2 * k - 1


def test_a_step_template_is_built_once_per_step_shape(monkeypatch):
    # the Cartan steps h^def(0) e(-1) and the reduction steps f^def(1) e(-1)
    # each read mode_identity once, for the registry's kernel, at any level
    built = []

    def counted(*args):
        built.append(args[1:])
        return mode_identity(*args)

    monkeypatch.setattr(deform, "mode_identity", counted)
    counts = []
    for k in (5, 60):
        built.clear()
        integral_pipeline(sl2(), k)
        assert len(set(built)) == len(built)
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("n", [5, 60])
def test_a_memoised_step_enters_and_spells_its_word_once(monkeypatch, n):
    # f^def(1)e(-1)^n over a memo that holds f^def(1)e(-1)^(n-1): the step reads
    # its word's head and rest from the kernel's word table, so however long the
    # word, it is entered once, at the root, and spelled once in the result
    registry = power_rule_registry(n)
    for p in range(1, n + 1):
        registry.register_value(DefAtom(H, 0, (Mode(E, -1),) * p), State.zero(), "cartan")
    registry.freeze()
    word = (Mode(E, -1),) * n
    evaluate(atom_expr(F, 1, word[1:]), registry)
    entered = count_kernel_calls(monkeypatch, "enter")
    spelled = count_kernel_calls(monkeypatch, "spell")
    got = evaluate(atom_expr(F, 1, word), registry)
    assert len(entered) == len(spelled) == 1
    assert got == State.monomial(word[1:], C.scale(n))


def test_unfrozen_registry_never_memoises():
    registry = power_rule_registry(2)
    word = (Mode(E, -1),) * 2
    before = registry.dump()
    assert evaluate(atom_expr(F, 1, word), registry) == State.monomial(word[:1], C.scale(2))
    assert registry.dump() == before
    # a rule for an atom the reduction reaches changes the value
    registry.register_value(DefAtom(H, 0, word[:1]), State.monomial(word[:1]), "late")
    assert evaluate(atom_expr(F, 1, word), registry) == State.monomial(
        word[:1], C.scale(2) - 1
    )


def test_evaluations_share_the_registry_kernel(monkeypatch):
    # the registry builds the one mode action at its level; evaluate, its
    # master-commute steps and d_shift act with it and build none of their own
    built = []
    init = Kernel.__init__

    def counted(self, g, k):
        built.append(self)
        init(self, g, k)

    monkeypatch.setattr(Kernel, "__init__", counted)
    registry = power_rule_registry(2)
    own = list(built)
    word = (Mode(E, -1),) * 2
    assert evaluate(atom_expr(F, 1, word), registry) == State.monomial(word[:1], C.scale(2))
    assert evaluate(atom_expr(H, 0, word), registry).is_zero
    evaluate(atom_expr(F, 1, WEIGHT3_WORDS[0]), registry, collect_residual=True)
    assert d_shift(registry, F, 1, State.monomial(word[:1])).is_zero
    assert built == own == [registry.kernel]


def test_frozen_registry_reuses_values_without_adding_rules(monkeypatch):
    registry = power_rule_registry(3)
    registry.register_value(
        DefAtom(H, 0, (Mode(E, -1),)), State.zero(), "derived:cartan-induction"
    )
    registry.freeze()
    dump = registry.dump()
    # f^def(1)e(-1)^3 reaches f^def(1)e(-1)^2 only under the prefix e(-1)
    top = DefAtom(F, 1, (Mode(E, -1),) * 3)
    assert evaluate(DefExpression.atom(top), registry) == State.monomial(
        top.word[1:], C.scale(3)
    )
    evaluate(atom_expr(H, 0, (Mode(E, -1),) * 3), registry, collect_residual=True)
    assert registry.dump() == dump
    calls = count_master_commute(monkeypatch)
    inner = DefAtom(F, 1, (Mode(E, -1),) * 2)
    assert evaluate(DefExpression.atom(inner), registry) == State.monomial(
        inner.word[1:], C.scale(2)
    )
    assert not calls
    assert registry.dump() == dump
    with pytest.raises(RegistryFrozen):
        registry.register_value(DefAtom(H, -1, (Mode(E, -1),)), State.zero(), "late")


def test_frozen_reduction_combines_only_atoms_that_wait(monkeypatch):
    # the vacuum, a registered zero and a generator pairing are settled where
    # they are met; only the root and the master-commute rewrites that hold
    # def-terms go through _combine
    combined = []
    combine = deform._combine

    def counted(kernel, expr, memo):
        combined.append(expr)
        return combine(kernel, expr, memo)

    monkeypatch.setattr(deform, "_combine", counted)
    rewrites = []

    def recorded(*args):
        rewrites.append(master_commute(*args))
        return rewrites[-1]

    monkeypatch.setattr(deform, "master_commute", recorded)
    registry = power_rule_registry(3)
    registry.freeze()
    top = DefExpression.atom(DefAtom(F, 1, (Mode(E, -1),) * 3))
    assert evaluate(top, registry) == State.monomial((Mode(E, -1),) * 2, C.scale(3))
    # f^def(1) on e(-1)^3 and e(-1)^2, and h^def(0)e(-1)^2, each take one step;
    # the evaluator reads each rewrite over word ids, as (terms, tail)
    assert len(rewrites) == 3 and all(terms for terms, _ in rewrites)
    # the root is the top expression over ids: its one term, keyed by the word's id
    root_key = (F, 1, registry.kernel.intern(top.terms[0].atom.word))
    assert len(combined) == 4 and combined[-1] == (((1, (), root_key),), {})
    assert {id(e) for e in combined[:-1]} == {id(r) for r in rewrites}
    # the five settled atoms: e^def(-1) on |0>, e(-1) and e(-1)^2, and
    # h^def(0)e(-1) and f^def(1)e(-1) by the generator pairing
    assert len(registry.memo) == 8


# --- strictness is the net residual ---

def test_strict_evaluation_takes_the_net_residual():
    # e^def(-1)e(-1)|0> is reached twice, with coefficients that cancel
    got = evaluate(atom_expr(H, 0, (Mode(E, -1),) * 2), empty_registry(Fraction(-1, 2)))
    assert got.is_zero


@pytest.mark.parametrize("k", [Fraction(-1, 2), K43, Fraction(2)])
def test_strict_raises_exactly_when_a_residual_is_left(k):
    registry = empty_registry(k)
    for weight in range(1, 4):
        for word in basis_enum(G, weight):
            for m in range(weight + 1):
                for gen in (E, H, F):
                    expr = atom_expr(gen, m, word)
                    tail, residual = evaluate(expr, registry, collect_residual=True)
                    if residual:
                        with pytest.raises(UnresolvedAtom) as err:
                            evaluate(expr, registry)
                        assert err.value.atom == residual[0].atom
                    else:
                        got = evaluate(expr, registry)
                        assert got == tail and list(got.items()) == list(tail.items())


# --- the explicit stack ---

def frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_evaluate_deep_word_needs_no_recursion():
    # a cold h^def(0)e(-1)^120|0> reaches a chain of 120 atoms
    n = 120
    registry = power_rule_registry(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        got = evaluate(atom_expr(H, 0, (Mode(E, -1),) * n), registry)
    finally:
        sys.setrecursionlimit(limit)
    assert got.is_zero


def test_evaluate_names_the_atom_a_cycle_returns_to():
    registry = empty_registry()
    x = DefAtom(H, -1, (Mode(E, -2),))
    registry.register_value(x, DefExpression.atom(x), "loop")
    with pytest.raises(RuntimeError, match=re.escape(registry.render_atom(x))):
        evaluate(DefExpression.atom(x).scale(2), registry)
    # through a second atom and a prefix
    y, z = DefAtom(H, -1, (Mode(H, -1), Mode(E, -1))), DefAtom(E, -1, (Mode(E, -1), Mode(F, -1)))
    registry.register_value(y, DefExpression([DefTerm(1, (Mode(H, 0),), z)]), "loop")
    registry.register_value(z, DefExpression.atom(y, coeff=3), "loop")
    with pytest.raises(RuntimeError, match=re.escape(registry.render_atom(y))):
        evaluate(DefExpression.atom(y), registry)


def test_integral_pipeline_deep_level():
    assert integral_pipeline(sl2(), 100).final_relation == C.scale(101)


# --- the cold residual sweep ---

# sha256 of the sweep's outputs as first computed, before step templates;
# every tail and residual must stay the same, item order and types included
COLD_SWEEP_SHA256 = "fb5364c842fd37fe18caee31beaf637a57080de59248314831c0485312b4faff"


def test_cold_residual_sweep_is_unchanged():
    # every a^def(m) w with 1 <= wt(w) <= 4 and 0 <= m <= wt(w), at three
    # levels, each evaluated on a fresh registry with nothing registered: the
    # cold path of a step, template built and read once or a few times
    digest, count = hashlib.sha256(), 0
    for k in (Fraction(-1, 2), K43, 2):
        for wt in range(1, 5):
            for w in basis_enum(G, wt):
                for m in range(wt + 1):
                    for a in range(G.dim):
                        atom = DefAtom(a, m, w)
                        tail, residual = evaluate(
                            DefExpression.atom(atom), RuleRegistry(G, k), collect_residual=True
                        )
                        digest.update(repr((k, atom, list(tail.items()), residual)).encode())
                        count += 1
    assert count == 3384
    assert digest.hexdigest() == COLD_SWEEP_SHA256
