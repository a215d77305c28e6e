"""Facts established apart from affdef, used to check the program's outputs.

Nothing here imports ``affdef``: the Lie algebra data is rebuilt from n x n
matrices, the PBW counts come from a generating function, row spaces from a
plain Fraction elimination, and mode actions from closed forms.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction


def sl_matrices(n: int) -> dict:
    """Matrices of affdef's basis labels for sl_n.

    sl2 is labelled (e, h, f); sl_n for n >= 3 by matrix units ``Eij`` and
    the diagonals ``Di = E_ii - E_nn``.
    """
    def unit(i, j):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][j] = Fraction(1)
        return m

    if n == 2:
        h = unit(0, 0)
        h[1][1] = Fraction(-1)
        return {"e": unit(0, 1), "h": h, "f": unit(1, 0)}
    out = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                out[f"E{i + 1}{j + 1}"] = unit(i, j)
    for i in range(n - 1):
        d = unit(i, i)
        d[n - 1][n - 1] = Fraction(-1)
        out[f"D{i + 1}"] = d
    return out


def _commutator(a, b):
    n = len(a)
    ab = [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(b[i][t] * a[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def _decompose(m, n: int) -> dict:
    """Coordinates of a traceless matrix in the labelled basis."""
    out = {}
    if n == 2:
        for label, value in (("e", m[0][1]), ("f", m[1][0]), ("h", m[0][0])):
            if value:
                out[label] = value
        return out
    for i in range(n):
        for j in range(n):
            if i != j and m[i][j]:
                out[f"E{i + 1}{j + 1}"] = m[i][j]
    for i in range(n - 1):
        if m[i][i]:
            out[f"D{i + 1}"] = m[i][i]
    return out


@functools.cache
def bracket(n: int, x: str, y: str) -> dict:
    """[x, y] in sl_n as ``{label: Fraction}``."""
    mats = sl_matrices(n)
    return _decompose(_commutator(mats[x], mats[y]), n)


@functools.cache
def charges(n: int) -> dict:
    """Eigenvalue of ad(h_theta), h_theta = E_11 - E_nn, on each basis label."""
    mats = sl_matrices(n)
    h = [[Fraction(0)] * n for _ in range(n)]
    h[0][0], h[n - 1][n - 1] = Fraction(1), Fraction(-1)
    out = {}
    for label, m in mats.items():
        image = _decompose(_commutator(h, m), n)
        out[label] = int(image.get(label, 0))
    return out


def pbw_count(n: int, weight: int, charge=None) -> int:
    """Coefficient of q^weight (z^charge) in prod over generators and m >= 1 of 1/(1 - z^chi q^m)."""
    table = [dict() for _ in range(weight + 1)]
    table[0][0] = 1
    for chi in charges(n).values():
        for m in range(1, weight + 1):
            for w in range(m, weight + 1):
                for z, count in list(table[w - m].items()):
                    table[w][z + chi] = table[w].get(z + chi, 0) + count
    row = table[weight]
    return sum(row.values()) if charge is None else row.get(charge, 0)


def act_f1_on_e_power(n: int, k: Fraction) -> tuple:
    """f(1) e(-1)^n |0> = n (k - n + 1) e(-1)^(n-1) |0>, as (coefficient, power)."""
    return Fraction(n) * (k - n + 1), n - 1


_E_POWER = re.compile(r"^(-)?(?:(\d+(?:/\d+)?)\*)?(e\(-1\)(?:\^(\d+))?)?\|0>$")


def parse_e_power(text: str):
    """Read ``[-][q*]e(-1)^p|0>`` (or ``0``) back into (coefficient, power)."""
    if text == "0":
        return Fraction(0), None
    m = _E_POWER.match(text)
    if m is None:
        raise ValueError(f"not a multiple of a power of e(-1): {text!r}")
    sign, coeff, e_part, power = m.groups()
    value = Fraction(coeff) if coeff else Fraction(1)
    return (-value if sign else value), (int(power or 1) if e_part else 0)


def unit_in_row_space(rows: list, symbol: str) -> bool:
    """True iff the unit vector on ``symbol`` lies in the span of the rows.

    Each row is ``{name: rational}`` (an equation ``sum = 0``; a ``const``
    entry must be absent).  Decided by comparing ranks with and without the
    unit vector, by Gaussian elimination over the rationals.
    """
    names = sorted({name for row in rows for name in row} | {symbol})
    matrix = [[Fraction(row.get(name, 0)) for name in names] for row in rows]
    unit = [[Fraction(int(name == symbol)) for name in names]]
    return _rank(matrix) == _rank(matrix + unit)


def _rank(matrix: list) -> int:
    rows = [list(r) for r in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank
