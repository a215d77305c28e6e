"""Exact scalars: arbitrary-precision rationals and affine-linear forms over named unknowns.

A coefficient in the engine is exact, by the one rule of ``exact``: an ``int``
when it is integral, otherwise a ``Fraction``, and a ``LinForm`` only when it
carries an unknown.  A ``LinForm`` is an exact rational constant plus a sparse
rational combination of unknown symbols (``c``, ``a1`` .. ``a5``, ...).  The
unknowns only ever occur linearly, so the product of two non-constant forms is a
pipeline bug and raises ``NonlinearProduct`` instead of silently extending the ring.
"""

from __future__ import annotations

import re
from fractions import Fraction

# p/q with q nonzero, or an integer, with an optional sign, in ASCII digits
RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")


class NonlinearProduct(Exception):
    """Product of two non-constant linear forms (forbidden: unknowns are first order)."""


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or an integer literal, with optional sign, in ASCII digits."""
    if not RATIONAL_LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


def exact(value):
    """The one coefficient rule: an int when integral, otherwise a Fraction, and a
    LinForm only when it carries an unknown.  Other inputs go through ``Fraction()``."""
    if isinstance(value, LinForm):
        # a form keeps its constant under the rule already
        return value if value.terms else value.constant
    return exact_rational(value)


def exact_rational(value):
    """``exact``'s rational branch: an int when integral, otherwise a Fraction.

    Other inputs go through ``Fraction()``, which refuses a ``LinForm``.
    """
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def is_constant(coeff) -> bool:
    """Whether a coefficient carries no unknown: the one question rendering asks."""
    return not isinstance(coeff, LinForm) or not coeff.terms


def signed_term(coeff, body: str, bare: bool = False) -> str:
    """``coeff*body``, with a unit coefficient dropped; a coefficient with an
    unknown is written ``(coeff)*body`` unless ``bare``."""
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}" if bare or is_constant(coeff) else f"({coeff})*{body}"


def signed_sum(pieces) -> str:
    """Join signed pieces as ``a + b - c``: a piece starting with ``-`` is subtracted.

    The empty sum is ``0``.
    """
    out = ""
    for piece in pieces:
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out or "0"


def add_scaled(out: dict, terms, factor) -> None:
    """out += factor * terms, for a sparse sum ``key -> nonzero coefficient``, factor nonzero.

    The one rule for sparse sums: a key is dropped as soon as its coefficient
    cancels, so a key that comes back is placed last.  A unit coefficient in
    ``terms`` stores ``factor`` itself, and a sum that is kept is stored as the
    ``+`` gave it, not through ``exact``: ``Fraction(1, 2) + Fraction(1, 2)``
    stays ``Fraction(1, 1)`` until a caller such as the ``State`` constructor
    normalises it.
    """
    for key, c in terms.items():
        term = factor if c == 1 else c * factor
        if key in out:
            term = out[key] + term
            if not term:
                del out[key]
                continue
        out[key] = term


def symbol_sort_key(name: str):
    """Deterministic symbol order: alphabetical, with the constant ``c`` last."""
    return (name == "c", name)


class LinForm:
    """Affine-linear expression ``constant + sum(coeff * symbol)`` with exact coefficients.

    The constant and every coefficient are stored under ``exact``'s rational
    branch, an int when integral, and zero coefficients are never stored; two
    forms are equal iff constant and term maps are equal.  Instances are immutable
    and shared (``scale(1)`` is the form itself), so no code mutates ``terms`` in place.
    """

    __slots__ = ("constant", "terms")

    def __init__(self, constant=0, terms=None):
        object.__setattr__(self, "constant", exact_rational(constant))
        pruned = {}
        if terms:
            for name, coeff in terms.items():
                coeff = exact_rational(coeff)
                if coeff:
                    pruned[name] = coeff
        object.__setattr__(self, "terms", pruned)

    def __setattr__(self, name, value):
        raise AttributeError("LinForm is immutable")

    @classmethod
    def symbol(cls, name: str, coeff=1) -> "LinForm":
        return cls(0, {name: coeff})

    def coefficient(self, name: str):
        return self.terms.get(name, 0)

    def symbols(self):
        return sorted(self.terms, key=symbol_sort_key)

    def __add__(self, other) -> "LinForm":
        other = as_linform(other)
        merged = dict(self.terms)
        add_scaled(merged, other.terms, 1)
        return LinForm(self.constant + other.constant, merged)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_linform(other))

    def __rsub__(self, other):
        return as_linform(other) + (-self)

    def __neg__(self) -> "LinForm":
        return self.scale(-1)

    def scale(self, r) -> "LinForm":
        r = exact_rational(r)
        if r == 1:  # the form is immutable, so the unit scaling is the form itself
            return self
        if not r:
            return LinForm(0)
        return LinForm(self.constant * r, {n: c * r for n, c in self.terms.items()})

    def __mul__(self, other) -> "LinForm":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = as_linform(other)
        if not self.terms:
            return other.scale(self.constant)
        if not other.terms:
            return self.scale(other.constant)
        raise NonlinearProduct(f"({self}) * ({other})")

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.terms and self.constant == other
        if not isinstance(other, LinForm):
            return NotImplemented
        return self.constant == other.constant and self.terms == other.terms

    def __hash__(self):
        # a constant form equals its Fraction, so it must hash like one
        if not self.terms:
            return hash(self.constant)
        return hash((self.constant, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.constant or self.terms)

    def __str__(self):
        pieces = [format_rational(self.constant)] if self.constant else []
        pieces += [signed_term(self.terms[name], name) for name in self.symbols()]
        return signed_sum(pieces)

    def __repr__(self):
        return f"LinForm({self})"


def as_linform(value) -> LinForm:
    """A coefficient as a LinForm: the form itself, or a constant form of a rational."""
    if isinstance(value, LinForm):
        return value
    if isinstance(value, (int, Fraction)):
        return LinForm(value)
    raise TypeError(f"cannot treat {value!r} as a linear form")

