from fractions import Fraction

import pytest
import sympy

from affdef.liealg import sl2
from affdef.pbw import Mode, State, apply_mode, basis_enum, charge, weight
from affdef.singular import (
    ADMISSIBLE_LEVEL,
    NonPositiveLevel,
    admissible_sl2,
    integral_relation,
    is_singular,
)

G = sl2()
E, H, F = G.theta


def test_integral_relation_k1():
    sv = integral_relation(G, 1)
    assert sv.vector == State.monomial((Mode(E, -1),) * 2)
    assert sv.level == 1
    assert sv.label == "integral:k=1"


def test_integral_relation_k3():
    assert integral_relation(G, 3).vector == State.monomial((Mode(E, -1),) * 4)


def test_integral_relation_guard():
    with pytest.raises(NonPositiveLevel):
        integral_relation(G, 0)
    with pytest.raises(NonPositiveLevel):
        integral_relation(G, -2)
    # a bool is an int to isinstance, but True is no level one
    for k in (True, False):
        with pytest.raises(NonPositiveLevel, match=f"got {k}"):
            integral_relation(G, k)


def test_admissible_grading():
    sv = admissible_sl2(G)
    assert weight(sv.vector) == 3
    assert charge(G, sv.vector) == 2
    assert sv.level == Fraction(-4, 3)


def test_admissible_canonical_coefficients():
    # full normal ordering of all three mixed-order words, not just the first:
    # -48*h(-1)e(-2) and -6*h(-2)e(-1) each shed 2*e(-3), 9*h(-1)^2 e(-1) sheds
    # 4*e(-2)h(-1) + 4*e(-3)
    vec = admissible_sl2(G).vector
    assert vec.coefficient((Mode(E, -3),)).constant == 8
    assert vec.coefficient((Mode(E, -2), Mode(H, -1))).constant == -12
    assert vec.coefficient((Mode(E, -1), Mode(H, -2))).constant == -6
    assert vec.coefficient((Mode(E, -1), Mode(H, -1), Mode(H, -1))).constant == 9
    assert vec.coefficient((Mode(E, -1), Mode(E, -1), Mode(F, -1))).constant == 36


@pytest.mark.parametrize("k", [1, 2, 3])
def test_integral_vectors_are_singular(k):
    sv = integral_relation(G, k)
    ok, witness = is_singular(sv.vector, sv.level, G)
    assert ok and witness is None


def test_admissible_vector_is_singular():
    sv = admissible_sl2(G)
    ok, witness = is_singular(sv.vector, sv.level, G)
    assert ok and witness is None


def test_singularity_is_level_specific():
    vec = admissible_sl2(G).vector
    for bad_level in [ADMISSIBLE_LEVEL + 1, Fraction(0), Fraction(1)]:
        ok, witness = is_singular(vec, bad_level, G)
        assert not ok
        assert witness is not None


def test_non_singular_witness():
    vec = State.monomial((Mode(E, -1),) * 2)
    ok, witness = is_singular(vec, Fraction(3), G)
    assert not ok
    label, depth, image, _ = witness
    assert (label, depth) == ("f", 1)
    assert image == State.monomial((Mode(E, -1),), 4)  # (i-1)(k-i+2) = 2*2


def test_weight3_vector_unique():
    """Independent oracle: the annihilator on the 5-dim stratum has a 1-dim kernel."""
    words = basis_enum(G, 3, 2)
    rows = []
    for a, m in [(E, 0), (F, 1), (H, 1), (E, 1), (F, 2), (H, 2), (E, 2), (F, 3)]:
        images = [apply_mode(G, a, m, State.monomial(w), ADMISSIBLE_LEVEL) for w in words]
        targets = sorted({w for img in images for w in img.words()})
        for t in targets:
            rows.append([sympy.Rational(img.coefficient(t).constant) for img in images])
    null = sympy.Matrix(rows).nullspace()
    assert len(null) == 1
    direction = list(null[0])
    vec = admissible_sl2(G).vector
    coeffs = [sympy.Rational(vec.coefficient(w).constant) for w in words]
    ratio = next(c / d for c, d in zip(coeffs, direction) if d != 0)
    assert ratio != 0
    assert all(c == ratio * d for c, d in zip(coeffs, direction))
