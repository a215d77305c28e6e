"""Finite-dimensional simple Lie algebra data with structural validation.

An algebra is a basis with exact structure-constant tables: the bracket, a
normalized symmetric invariant form, and the distinguished sl2-triple (e, h, f)
of the highest root, satisfying [h,e] = 2e, [h,f] = -2f, [e,f] = h, <e,f> = 1,
<h,h> = 2.  Validation is exhaustive over basis triples, never sampled, and
sums Jacobi and invariance by joins over the nonzero table entries, so it pays
for the triples that can be nonzero only.  Once the bracket is antisymmetric the
Jacobiator is alternating, so the triples i < j < l decide Jacobi, summed from
the rows [b_y,b_z] with y < z alone, and each that fails is reported in all six
orders; a table that is not antisymmetric is joined over every ordered triple.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from .scalar import add_scaled, exact, parse_rational


# Highest n of sln (past it the matrix-unit labels collide: E(1,11) and E(11,1)
# are both E111).
MAX_RANK = 10
# Most basis labels of a structure file, the dimension of sl(MAX_RANK), checked
# before any table is built: a file may store a row of up to that many terms for
# each pair, and validate's Jacobi join meets each term with a column of rows.
MAX_DIM = MAX_RANK**2 - 1
# Most terms of the ordered Jacobi join over a structure file's bracket table
# (``join_cost``), checked before the algebra is built; validate sums at most
# half of them on an antisymmetric table.  A term costs under a tenth of a
# microsecond, and a change of basis can make a file of MAX_DIM labels cost far
# more than its matrix-unit form: sl(MAX_RANK) counts 50,220 terms on matrix
# units and 21,835,930 on the dense basis b_i + b_next, and both load.
MAX_JOIN = 25_000_000


class InvalidRank(Exception):
    pass


class LieAlgebra:
    """Basis labels plus bracket/form tables and the theta-triple indices."""

    def __init__(self, basis, bracket, form, theta_triple):
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self._index = {label: i for i, label in enumerate(self.basis)}
        if len(self._index) != self.dim:
            raise ValueError("duplicate basis labels")
        span = range(self.dim)  # validate reads every stored key, so each must name a basis vector
        if any(a not in span for key, vec in bracket.items() for a in (*key, *vec)) or any(
                a not in span for key in form for a in key):
            raise ValueError("bracket or form index outside the basis")
        # complete the bracket table antisymmetrically
        table = {}
        for (i, j), vec in bracket.items():
            table[(i, j)] = {a: exact(c) for a, c in vec.items() if c}
        for (i, j) in list(table):
            if (j, i) not in table:
                table[(j, i)] = {a: -c for a, c in table[(i, j)].items()}
        self._bracket = table
        # complete the form's missing mirrors; a given entry, zero included, stays
        full = {key: exact(q) for key, q in form.items()}
        for (i, j) in list(full):
            full.setdefault((j, i), full[(i, j)])
        self._form = {key: q for key, q in full.items() if q}
        self.theta = tuple(theta_triple)
        self.charges = self._compute_charges()
        self.report = None  # the ValidationReport, once validate has run

    def index(self, label: str) -> int:
        if label not in self._index:
            raise KeyError(f"unknown generator {label!r}")
        return self._index[label]

    def label(self, idx: int) -> str:
        return self.basis[idx]

    def bracket(self, i: int, j: int) -> dict:
        """[b_i, b_j] as the stored ``{index: coefficient}`` row, each coefficient under
        ``scalar.exact``; callers must not mutate it."""
        return self._bracket.get((i, j), {})

    def bracket_elt(self, x: dict, y: dict) -> dict:
        """[x, y] for sparse elements ``{index: nonzero coefficient}``."""
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                add_scaled(out, self.bracket(i, j), ci * cj)
        return out

    def form(self, i: int, j: int) -> int | Fraction:
        return self._form.get((i, j), 0)

    def charge(self, idx: int) -> int:
        """Eigenvalue of ad(h_theta) on the basis vector (the Cartan charge)."""
        return self.charges[idx]

    def _compute_charges(self):
        h = self.theta[1]
        charges = []
        for i in range(self.dim):
            img = self.bracket(h, i)
            if set(img) - {i}:
                raise ValueError(
                    f"ad(h_theta) is not diagonal on basis vector {self.basis[i]!r}"
                )
            lam = img.get(i, 0)
            if lam.denominator != 1:
                raise ValueError(f"non-integral charge {lam} on {self.basis[i]!r}")
            charges.append(int(lam))
        return tuple(charges)


class ValidationReport(NamedTuple):
    ok: bool
    failures: list

    def __str__(self):
        if self.ok:
            return "pass"
        return "fail: " + "; ".join(self.failures[:5])


def sl2() -> LieAlgebra:
    """The rank-1 algebra: ``sln(2)`` relabelled (e, h, f) from (E12, D1, E21)."""
    g = sln(2)
    return LieAlgebra(("e", "h", "f"), g._bracket, g._form, g.theta)


def sln(n: int) -> LieAlgebra:
    """sl_n on the matrix-unit basis, trace form, theta-triple (E_1n, E_11-E_nn, E_n1).

    Diagonal basis D_i = E_ii - E_nn (i < n), so D_1 is the theta coroot itself.
    """
    if n < 2:
        raise InvalidRank(f"sln needs n >= 2, got {n}")
    if n > MAX_RANK:
        raise InvalidRank(f"sln needs n <= {MAX_RANK} for distinct basis labels, got {n}")
    # matrix units above the diagonal row by row, then the D_i, then those below
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lower = [(i, j) for i in range(n) for j in range(i)]
    labels = [f"E{i + 1}{j + 1}" for i, j in upper] + [f"D{i + 1}" for i in range(n - 1)]
    labels += [f"E{i + 1}{j + 1}" for i, j in lower]
    mats = [{ij: 1} for ij in upper] + [{(i, i): 1, (n - 1, n - 1): -1} for i in range(n - 1)]
    mats += [{ij: 1} for ij in lower]  # sparse matrices: (row, column) -> entry
    index = {label: a for a, label in enumerate(labels)}

    def matmul(x, y):
        out = {}
        for (i, t), p in x.items():
            add_scaled(out, {(i, j): q for (t2, j), q in y.items() if t2 == t}, p)
        return out

    def decompose(m):
        # off-diagonal entries sit on matrix units, row by row; the traceless
        # diagonal sits on the D_i
        out = {}
        for (i, j) in sorted(m):
            if i != j:
                out[index[f"E{i + 1}{j + 1}"]] = m[(i, j)]
        for i in range(n - 1):
            if (i, i) in m:
                out[index[f"D{i + 1}"]] = m[(i, i)]
        return out

    bracket = {}
    form = {}
    for a in range(len(mats)):
        for b in range(a, len(mats)):
            ab = matmul(mats[a], mats[b])
            comm = dict(ab)
            add_scaled(comm, matmul(mats[b], mats[a]), -1)
            bracket[(a, b)] = decompose(comm)
            tr = sum(q for (i, j), q in ab.items() if i == j)
            if tr:
                form[(a, b)] = tr
    theta = (index[f"E1{n}"], index["D1"], index[f"E{n}1"])
    return LieAlgebra(labels, bracket, form, theta)


def validate(g: LieAlgebra) -> ValidationReport:
    """Exhaustively check antisymmetry, Jacobi, form symmetry/invariance, and the triple.

    The check runs once per algebra object; its report is kept on ``g.report``.
    """
    if g.report is None:
        g.report = _check(g)
    return g.report


def _check(g: LieAlgebra) -> ValidationReport:
    name = g.basis.__getitem__
    # the first pass walks the stored entries: a pair that fails does so in
    # both orders, and one of its two entries is nonzero, so stored; it is
    # compared once, from (i, j) with i <= j unless only (j, i) holds a row
    table, form = g._bracket, g._form
    selfs = sorted(i for (i, j), row in table.items() if i == j and row)
    failures = [f"[{name(i)},{name(i)}] != 0" for i in selfs]
    pairs = set()
    for (i, j), row in table.items():
        mirror = table.get((j, i), {})
        if row and (i <= j or not mirror):
            if len(row) == len(mirror):
                for a, c in row.items():
                    if mirror.get(a) != -c:
                        break
                else:
                    continue  # the mirror negates the row entry by entry
            pairs.update(((i, j, 0), (j, i, 0)))
    pairs.update((u, v, 1) for (i, j), q in form.items() if q != form.get((j, i), 0)
                 for u, v in ((i, j), (j, i)))
    for i, j, kind in sorted(pairs):
        what = "<{},{}> not symmetric" if kind else "[{},{}] not antisymmetric"
        failures.append(what.format(name(i), name(j)))

    # once the first pass is clean the Jacobiator is alternating, so the triples
    # i < j < l decide it: one that fails does so in all six orders, and a
    # triple with a repeated index cannot fail
    alternating = not failures
    found = _join(g, alternating)
    if alternating:
        found = [key for key in found if key[3]] + [
            ijl + (0,) for key in found if not key[3] for ijl in permutations(key[:3])]
    failures += _render(g, found)
    e, h, f = g.theta
    triple_checks = [
        (g.bracket(h, e), {e: 2}, "[h,e] = 2e"),
        (g.bracket(h, f), {f: -2}, "[h,f] = -2f"),
        (g.bracket(e, f), {h: 1}, "[e,f] = h"),
    ]
    for got, want, what in triple_checks:
        if got != want:
            failures.append(f"triple relation {what} fails")
    form_checks = [
        (g.form(e, f), 1, "<e,f> = 1"),
        (g.form(h, h), 2, "<h,h> = 2"),
        (g.form(e, e), 0, "<e,e> = 0"),
        (g.form(f, f), 0, "<f,f> = 0"),
        (g.form(h, e), 0, "<h,e> = 0"),
        (g.form(h, f), 0, "<h,f> = 0"),
    ]
    for got, want, what in form_checks:
        if got != want:
            failures.append(f"triple form normalization {what} fails (got {got})")
    return ValidationReport(not failures, failures)


def _render(g: LieAlgebra, found: list) -> list:
    name = g.basis.__getitem__
    return [f"{'form not invariant' if kind else 'Jacobi fails'} on ({name(i)},{name(j)},{name(l)})"
            for i, j, l, kind in sorted(found)]


def _join(g: LieAlgebra, alternating: bool) -> list:
    """Jacobi (degree 2 in the bracket) and invariance (bilinear in bracket x form)
    failures as ``(i, j, l, kind)``, kind 0 for Jacobi and 1 for invariance, from
    joins over the nonzero entries of each table, as ints: a table with a
    denominator is first scaled by the lcm of its denominators.

    Each stored ``[b_y,b_z]_w`` meets each stored row ``[b_x,b_w]`` to sum
    ``T(x,y,z) = [b_x,[b_y,b_z]]``, and the Jacobiator ``J(i,j,l)`` is ``T`` summed
    over the three rotations of ``(i,j,l)``.  Ordered, each ``T`` is added under
    all three rotation keys, so every ordered triple is decided.  With
    ``alternating`` the table must have ``[b_i,b_i] = 0`` and be antisymmetric;
    then ``T(x,z,y) = -T(x,y,z)`` and ``J`` is alternating (trilinear, cyclic and
    odd under a swap), so it vanishes on all basis triples once it does on the
    increasing ones.  Only the rows ``[b_y,b_z]`` with ``y < z`` are joined, and
    each ``T(x,y,z)`` with ``x`` not in ``{y, z}`` is added under its increasing
    key: ``+`` as ``(x,y,z)`` when ``x < y`` and as ``(y,z,x)`` when ``x > z``,
    ``-`` as ``(y,x,z)`` when ``y < x < z``.  That sums the same ``J(i,j,l)`` on
    ``i < j < l`` from half the terms.  Invariance compares
    ``<[b_i,b_j],b_l>`` (rows times form rows) with ``<b_i,[b_j,b_l]>`` (form
    columns times rows) on every ordered triple.
    """
    table, form = g._bracket, g._form
    scale = math.lcm(*(c.denominator for row in table.values() for c in row.values()))
    fscale = math.lcm(*(q.denominator for q in form.values()))
    # the nonzero [b_y,b_z] as ints; w -> the (x, [b_x,b_w]) and the (i, <b_i,b_w>)
    rows = [(y, z, list(row.items()) if scale == 1 else [(w, int(c * scale)) for w, c in row.items()])
            for (y, z), row in table.items() if row]
    cols, frows, fcols = {}, {}, {}
    for x, w, row in rows:
        cols.setdefault(w, []).append((x, row))
    for (a, b), q in form.items():
        if fscale != 1:
            q = int(q * fscale)
        frows.setdefault(a, []).append((b, q))
        fcols.setdefault(b, []).append((a, q))
    jac, inv = {}, {}  # (i, j, l) -> J(i,j,l); -> <[b_i,b_j],b_l> - <b_i,[b_j,b_l]>
    for y, z, yz in rows:
        for w, c in yz:
            if not alternating:
                for x, xw in cols.get(w, ()):
                    for key in ((x, y, z), (y, z, x), (z, x, y)):
                        acc = jac.setdefault(key, {})
                        for a, d in xw:
                            acc[a] = acc.get(a, 0) + c * d
            elif y < z:
                for x, xw in cols.get(w, ()):
                    if x < y:
                        key, s = (x, y, z), c
                    elif x > z:
                        key, s = (y, z, x), c
                    elif x != y and x != z:
                        key, s = (y, x, z), -c
                    else:
                        continue
                    acc = jac.get(key)
                    if acc is None:  # not setdefault, which builds a dict for every term
                        acc = jac[key] = {}
                    for a, d in xw:
                        acc[a] = acc.get(a, 0) + s * d
            for l, q in frows.get(w, ()):
                inv[(y, z, l)] = inv.get((y, z, l), 0) + c * q
            for i, q in fcols.get(w, ()):
                inv[(i, y, z)] = inv.get((i, y, z), 0) - q * c
    found = [key + (0,) for key, acc in jac.items() if any(acc.values())]
    return found + [key + (1,) for key, d in inv.items() if d]


def join_cost(bracket: dict) -> int:
    """The number of terms of the ordered Jacobi join over a bracket table
    ``(i, j) -> {w: coefficient}``: over each nonzero ``[b_y,b_z]_w``, the total
    length of the rows ``[b_x,b_w]``, zero coefficients not counted.  That sums
    ``T(x,y,z)`` once for each ordered ``(x, y, z)``; ``_join`` adds each of those
    terms under three keys when ordered, and sums at most half of them when
    alternating, since it then joins only the rows ``[b_y,b_z]`` with ``y < z``."""
    column = {}  # w -> the total length of the rows [b_x,b_w]
    for (x, w), row in bracket.items():
        column[w] = column.get(w, 0) + sum(1 for c in row.values() if c)
    return sum(column.get(w, 0) for row in bracket.values() for w, c in row.items() if c)


def load_structure_file(text: str) -> LieAlgebra:
    """Parse the line-oriented structure-constant format and validate the result.

    Lines: ``basis x y z``, ``[x,y] = q1*z1 + q2*z2``, ``<x,y> = q``,
    ``triple e h f``, each of the ``basis`` and ``triple`` lines once.  Blank lines
    and ``#`` comments are ignored.  A basis of more than ``MAX_DIM`` labels is
    refused before any table is built, and a bracket table whose ``join_cost``
    is past ``MAX_JOIN`` before the algebra is built or validated.
    """
    import re

    labels = None
    bracket_lines = []
    form_lines = []
    triple = None
    triple_lineno = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("basis "):
            if labels is not None:
                raise ValueError(f"line {lineno}: second 'basis' line")
            labels = line.split()[1:]
        elif line.startswith("triple "):
            if triple is not None:
                raise ValueError(f"line {lineno}: second 'triple' line")
            parts = line.split()[1:]
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: triple needs three labels")
            triple = parts
            triple_lineno = lineno
        elif line.startswith("["):
            m = re.match(r"\[\s*(\w+)\s*,\s*(\w+)\s*\]\s*=\s*(.*)$", line)
            if not m:
                raise ValueError(f"line {lineno}: bad bracket line {line!r}")
            bracket_lines.append((lineno, m.group(1), m.group(2), m.group(3)))
        elif line.startswith("<"):
            m = re.match(r"<\s*(\w+)\s*,\s*(\w+)\s*>\s*=\s*(\S+)$", line)
            if not m:
                raise ValueError(f"line {lineno}: bad form line {line!r}")
            form_lines.append((lineno, m.group(1), m.group(2), m.group(3)))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if not labels:
        raise ValueError("missing 'basis' line")
    if len(labels) > MAX_DIM:
        raise ValueError(f"basis has {len(labels)} labels, above the budget of {MAX_DIM}")
    if triple is None:
        raise ValueError("missing 'triple' line")
    index = {lab: i for i, lab in enumerate(labels)}

    def idx(lab, lineno):
        if lab not in index:
            raise ValueError(f"line {lineno}: unknown label {lab!r}")
        return index[lab]

    bracket = {}
    for lineno, x, y, rhs in bracket_lines:
        vec = {}
        rhs = rhs.strip()
        if rhs != "0":
            for piece in re.split(r"(?=[+-])", rhs.replace(" ", "")):
                if not piece:
                    continue
                m = re.match(r"([+-]?[0-9/]*)\*?(\w+)$", piece)
                if not m:
                    raise ValueError(f"line {lineno}: bad term {piece!r}")
                coeff_text = m.group(1)
                if coeff_text in ("", "+", "-"):
                    coeff_text += "1"
                coeff = parse_fraction(coeff_text, lineno)
                vec[idx(m.group(2), lineno)] = vec.get(idx(m.group(2), lineno), Fraction(0)) + coeff
        key = (idx(x, lineno), idx(y, lineno))
        if key in bracket and bracket[key] != vec:
            raise ValueError(f"line {lineno}: conflicting bracket for [{x},{y}]")
        bracket[key] = vec
        mirror = (key[1], key[0])
        neg = {a: -c for a, c in vec.items()}
        if mirror in bracket and bracket[mirror] != neg:
            raise ValueError(f"line {lineno}: bracket for [{y},{x}] breaks antisymmetry")
        bracket[mirror] = neg
    cost = join_cost(bracket)
    if cost > MAX_JOIN:
        raise ValueError(
            f"validate's Jacobi join would sum {cost} terms, above the budget of {MAX_JOIN}"
        )
    form = {}
    for lineno, x, y, q in form_lines:
        key = (idx(x, lineno), idx(y, lineno))
        val = parse_fraction(q, lineno)
        for k2 in (key, (key[1], key[0])):
            if k2 in form and form[k2] != val:
                raise ValueError(f"line {lineno}: conflicting form value for <{x},{y}>")
            form[k2] = val
    g = LieAlgebra(labels, bracket, form, tuple(idx(t, triple_lineno) for t in triple))
    report = validate(g)
    if not report.ok:
        raise ValueError(f"structure file invalid: {report}")
    return g


def parse_fraction(text: str, lineno: int) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        raise ValueError(f"line {lineno}: bad rational {text!r}") from None
