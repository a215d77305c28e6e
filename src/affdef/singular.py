"""The singular vectors generating the maximal ideals, and their verification.

A homogeneous vector of weight w is singular iff e(0) and every positive mode
a(m), 1 <= m <= w, annihilate it; modes deeper than w land below weight zero
and vanish automatically, so the check is finite and complete.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .liealg import LieAlgebra
from .pbw import Kernel, Mode, State, normal_order, weight

ADMISSIBLE_LEVEL = Fraction(-4, 3)

# Weight-3, charge-2 words of the level -4/3 story, in their traditional
# mixed-order spelling (h-modes written first).
WEIGHT3_WORDS = (
    (Mode(1, -1), Mode(0, -2)),               # h(-1)e(-2)|0>
    (Mode(0, -1), Mode(0, -1), Mode(2, -1)),  # e(-1)^2 f(-1)|0>
    (Mode(1, -2), Mode(0, -1)),               # h(-2)e(-1)|0>
    (Mode(1, -1), Mode(1, -1), Mode(0, -1)),  # h(-1)^2 e(-1)|0>
    (Mode(0, -3),),                           # e(-3)|0>
)

# Coefficients of the weight-3 singular vector at level -4/3 over WEIGHT3_WORDS.
# The e(-1)^2 f(-1)|0> coefficient must be 36: it is forced by the annihilation
# conditions, which also pin every other coefficient (the annihilator of the
# five-dimensional stratum has a one-dimensional kernel; see the uniqueness test).
SINGULAR_COEFFS = (Fraction(-48), Fraction(36), Fraction(-6), Fraction(9), Fraction(80))


class NonPositiveLevel(Exception):
    pass


class SingularVector(NamedTuple):
    level: Fraction
    vector: State
    label: str


def integral_relation(g: LieAlgebra, k: int) -> SingularVector:
    """e_theta(-1)^(k+1)|0> at positive integral level k."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise NonPositiveLevel(f"integral level must be a positive integer, got {k!r}")
    word = (Mode(g.theta[0], -1),) * (k + 1)
    return SingularVector(Fraction(k), State.monomial(word), f"integral:k={k}")


def admissible_sl2(g: LieAlgebra) -> SingularVector:
    """The weight-3 singular vector of the level -4/3 sl2 vacuum module, in canonical form."""
    vec = State.zero()
    for coeff, word in zip(SINGULAR_COEFFS, WEIGHT3_WORDS):
        vec = vec + normal_order(g, word, ADMISSIBLE_LEVEL).scale(coeff)
    return SingularVector(ADMISSIBLE_LEVEL, vec, "sl2:-4/3")


def is_singular(v: State, k, g: LieAlgebra) -> tuple:
    """True iff e(0) v = 0 and a(m) v = 0 for every basis a and 1 <= m <= weight(v).

    Returns ``(ok, witness)``; the witness names the first nonvanishing
    application and carries the offending state.
    """
    w = weight(v)
    checks = [(g.theta[0], 0)]
    checks += [(a, m) for m in range(1, w + 1) for a in range(g.dim)]
    # one kernel serves every check, so its memo carries from one to the next
    kernel = Kernel(g, k)
    for a, m in checks:
        image = kernel.chain(((a, m),), v)
        if image:
            image = State(image)
            witness = f"{g.label(a)}({m}) leaves {image.render(g)}"
            return False, (g.label(a), m, image, witness)
    return True, None
