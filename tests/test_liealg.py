import random
from fractions import Fraction

import pytest

from affdef import liealg
from affdef.liealg import (
    MAX_DIM,
    MAX_JOIN,
    MAX_RANK,
    InvalidRank,
    LieAlgebra,
    _check,
    _join,
    _render,
    join_cost,
    load_structure_file,
    sl2,
    sln,
    validate,
)
from affdef.scalar import add_scaled


def test_sl2_triple_relations():
    g = sl2()
    e, h, f = g.theta
    assert g.bracket(h, e) == {e: 2}
    assert g.bracket(h, f) == {f: -2}
    assert g.bracket(e, f) == {h: 1}


def _rescaled_sl3(label="E12", factor=Fraction(1, 3)):
    """sl3 on the basis with b -> factor*b for one b, so both tables carry denominators."""
    g = sln(3)
    s = [Fraction(1)] * g.dim
    s[g.index(label)] = factor
    bracket = {
        (i, j): {a: c * s[i] * s[j] / s[a] for a, c in vec.items()}
        for (i, j), vec in g._bracket.items()
    }
    form = {(i, j): q * s[i] * s[j] for (i, j), q in g._form.items()}
    return LieAlgebra(g.basis, bracket, form, g.theta)


@pytest.mark.parametrize(
    "g, kinds",
    [(sl2(), {int}), (sln(3), {int}), (_rescaled_sl3(), {int, Fraction})],
    ids=["sl2", "sl3", "rescaled-sl3"],
)
def test_bracket_rows_are_index_exact_dicts(g, kinds):
    # each stored constant follows scalar.exact: an int when integral, else a Fraction
    def follows_exact(c):
        return type(c) is (int if c.denominator == 1 else Fraction)

    seen = set()
    for i in range(g.dim):
        for j in range(g.dim):
            row = g.bracket(i, j)
            assert type(row) is dict
            assert all(type(a) is int and c and follows_exact(c) for a, c in row.items())
            assert follows_exact(g.form(i, j))
            seen.update(type(c) for c in row.values())
            seen.add(type(g.form(i, j)))
            # a dict-in, dict-out bracket of basis elements reads the same row
            assert g.bracket_elt({i: Fraction(1)}, {j: Fraction(1)}) == row
    assert seen == kinds


def test_bracket_elt_is_bilinear():
    g = sl2()
    e, h, f = g.theta
    # [2e + h, f - e] = 2[e,f] + [h,f] - [h,e] = 2h - 2f - 2e
    x, y = {e: Fraction(2), h: Fraction(1)}, {f: Fraction(1), e: Fraction(-1)}
    assert g.bracket_elt(x, y) == {h: 2, f: -2, e: -2}
    # [e + f, e + f] = 0: the [e,f] and [f,e] terms cancel and drop
    assert g.bracket_elt({e: 1, f: 1}, {e: 1, f: 1}) == {}


def test_sl2_form_normalization():
    g = sl2()
    e, h, f = g.theta
    assert g.form(e, f) == 1
    assert g.form(h, h) == 2
    assert g.form(e, e) == 0
    assert g.form(e, h) == 0


def test_sl2_charges():
    g = sl2()
    assert [g.charge(i) for i in range(3)] == [2, 0, -2]


def test_sl2_validates():
    assert validate(sl2()).ok


def test_bracket_self_vanishes():
    g = sl2()
    for i in range(g.dim):
        assert not g.bracket(i, i)


# sl2 on (e, h, f) = (0, 1, 2), written out apart from the sl_n builder: each
# stored row in the order its coefficients are kept, and the form with its mirrors.
SL2_BRACKET = {(1, 0): [(0, 2)], (0, 1): [(0, -2)], (1, 2): [(2, -2)], (2, 1): [(2, 2)],
               (0, 2): [(1, 1)], (2, 0): [(1, -1)]}
SL2_FORM = {(0, 2): 1, (2, 0): 1, (1, 1): 2}


def test_sln2_matches_sl2_tables():
    for g, basis in ((sl2(), ("e", "h", "f")), (sln(2), ("E12", "D1", "E21"))):
        assert g.basis == basis
        assert g.theta == (0, 1, 2)
        assert g.charges == (2, 0, -2)
        for i in range(3):
            for j in range(3):
                assert list(g.bracket(i, j).items()) == SL2_BRACKET.get((i, j), [])
                assert g.form(i, j) == SL2_FORM.get((i, j), 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sln_validates(n):
    report = validate(sln(n))
    assert report.ok, report.failures[:3]


def test_sln3_theta_form():
    g = sln(3)
    e, h, f = g.theta
    assert g.form(e, f) == 1  # trace(E13 E31) = 1
    assert g.form(h, h) == 2


def test_sln_rank_guard():
    with pytest.raises(InvalidRank):
        sln(1)
    # past rank 10 the matrix-unit labels collide: E(1,11) and E(11,1) are both E111
    assert MAX_RANK == 10
    with pytest.raises(InvalidRank, match=r"^sln needs n <= 10 for distinct basis labels, got 11$"):
        sln(MAX_RANK + 1)


def _explicit_matrices(labels, n):
    """E_ij as the matrix unit, D_i as E_ii - E_nn, as dense integer matrices."""
    mats = []
    for label in labels:
        m = [[0] * n for _ in range(n)]
        if label[0] == "E":
            m[int(label[1]) - 1][int(label[2]) - 1] = 1
        else:
            i = int(label[1:]) - 1
            m[i][i], m[n - 1][n - 1] = 1, -1
        mats.append(m)
    return mats


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sln_tables_match_explicit_matrices(n):
    g = sln(n)
    mats = _explicit_matrices(g.basis, n)
    index = {label: a for a, label in enumerate(g.basis)}

    def mul(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    for a in range(g.dim):
        for b in range(g.dim):
            xy, yx = mul(mats[a], mats[b]), mul(mats[b], mats[a])
            comm = [[xy[i][j] - yx[i][j] for j in range(n)] for i in range(n)]
            # expected coefficients in table order: matrix units row by row, then D_1..D_(n-1)
            want = [
                (index[f"E{i + 1}{j + 1}"], comm[i][j])
                for i in range(n)
                for j in range(n)
                if i != j and comm[i][j]
            ]
            want += [(index[f"D{i + 1}"], comm[i][i]) for i in range(n - 1) if comm[i][i]]
            assert list(g.bracket(a, b).items()) == want, (g.basis[a], g.basis[b])
            assert g.form(a, b) == sum(xy[i][i] for i in range(n))
    assert g.theta == (index[f"E1{n}"], index["D1"], index[f"E{n}1"])


def _edited_sl2(edit):
    g = sl2()
    bracket = {key: dict(vec) for key, vec in g._bracket.items()}
    form = {}
    seen = set()
    for (i, j), q in g._form.items():
        if (j, i) not in seen:
            form[(i, j)] = q
            seen.add((i, j))
    edit(bracket, form)
    return LieAlgebra(g.basis, bracket, form, g.theta)


@pytest.mark.parametrize("bracket, form", [
    ({(0, 3): {1: 1}}, {}), ({(0, 2): {3: 1}}, {}), ({}, {(3, 3): 1}), ({(-1, 0): {0: 1}}, {}),
], ids=["bracket-key", "bracket-row", "form-key", "negative"])
def test_algebra_refuses_an_index_outside_the_basis(bracket, form):
    g = sl2()
    with pytest.raises(ValueError, match=r"^bracket or form index outside the basis$"):
        LieAlgebra(g.basis, {**g._bracket, **bracket}, {**g._form, **form}, g.theta)


def test_validate_catches_form_defect():
    def edit(bracket, form):
        form[(0, 2)] = Fraction(2)  # <e,f> = 2

    report = validate(_edited_sl2(edit))
    assert not report.ok
    assert any("<e,f>" in msg for msg in report.failures)


@pytest.mark.parametrize(
    "form",
    [{(2, 0): 5, (0, 2): 1, (1, 1): 2}, {(0, 2): 1, (2, 0): 5, (1, 1): 2},
     {(0, 2): 1, (2, 0): 0, (1, 1): 2}],
    ids=["f-e-first", "e-f-first", "explicit-zero"],
)
def test_validate_sees_an_asymmetric_form(form):
    # a given entry is never overwritten by its mirror, zero included
    g = sl2()
    report = validate(LieAlgebra(g.basis, g._bracket, form, g.theta))
    assert "<e,f> not symmetric" in report.failures


def test_validate_catches_bracket_defect():
    def edit(bracket, form):
        bracket[(0, 2)] = {1: Fraction(2)}  # [e,f] = 2h
        bracket[(2, 0)] = {1: Fraction(-2)}

    report = validate(_edited_sl2(edit))
    assert not report.ok
    assert report.failures[0]


SL2_FILE = """
# rank one, standard normalization
basis e h f
[h,e] = 2*e
[h,f] = -2*f
[e,f] = h
<e,f> = 1
<h,h> = 2
triple e h f
"""


def test_structure_file_roundtrip():
    g = load_structure_file(SL2_FILE)
    ref = sl2()
    assert g.basis == ref.basis
    for i in range(3):
        for j in range(3):
            assert g.bracket(i, j) == ref.bracket(i, j)
            assert g.form(i, j) == ref.form(i, j)


def inert_structure_file(dim):
    """SL2_FILE plus ``dim - 3`` labels that bracket and pair to zero: valid, of dimension dim."""
    labels = " ".join(f"x{i}" for i in range(dim - 3))
    return SL2_FILE.replace("basis e h f", f"basis e h f {labels}")


def test_structure_file_dimension_budget(monkeypatch):
    assert MAX_DIM == MAX_RANK**2 - 1 == 99
    assert load_structure_file(inert_structure_file(MAX_DIM)).dim == MAX_DIM

    def refuse(*args):
        raise AssertionError("a table was built past the dimension budget")

    # refused on the basis line, before any table is built or validated
    monkeypatch.setattr(liealg, "LieAlgebra", refuse)
    monkeypatch.setattr(liealg, "validate", refuse)
    with pytest.raises(ValueError, match=r"^basis has 100 labels, above the budget of 99$"):
        load_structure_file(inert_structure_file(MAX_DIM + 1))


def joined_structure_file(width):
    """SL2_FILE plus 96 labels x_i with ``[x_i,x_j] = x_0 + ... + x_{width-1}``,
    i < j: each of the 96*95*width stored terms meets a column of 95 rows of
    ``width`` terms, so the join sums ``12 + 866,400 * width**2`` terms, 12 of
    them sl2's.  Validate need not pass it."""
    labels = [f"x{i}" for i in range(MAX_DIM - 3)]
    rhs = " + ".join(labels[:width])
    lines = [f"[{x},{y}] = {rhs}\n" for i, x in enumerate(labels) for y in labels[i + 1:]]
    text = SL2_FILE.replace("basis e h f", "basis e h f " + " ".join(labels))
    return text + "".join(lines)


class Reached(Exception):
    pass


def test_structure_file_join_budget(monkeypatch):
    assert MAX_JOIN == 25_000_000

    def reached(*args):
        raise Reached

    def refuse(*args):
        raise AssertionError("an algebra was built past the join budget")

    # 21,660,012 terms: within the budget, so the file reaches validate
    monkeypatch.setattr(liealg, "validate", reached)
    with pytest.raises(Reached):
        load_structure_file(joined_structure_file(5))
    # 31,190,412 terms: refused before the algebra is built or validated
    monkeypatch.setattr(liealg, "LieAlgebra", refuse)
    monkeypatch.setattr(liealg, "validate", refuse)
    with pytest.raises(ValueError, match=(
            r"^validate's Jacobi join would sum 31190412 terms, above the budget of 25000000$")):
        load_structure_file(joined_structure_file(6))


def test_structure_file_join_budget_boundary(monkeypatch):
    def refuse(*args):
        raise AssertionError("an algebra was built past the join budget")

    # SL2_FILE's join sums 12 terms: two rows [b_x,b_w] of one term for each of its 6
    monkeypatch.setattr(liealg, "MAX_JOIN", 12)
    assert load_structure_file(SL2_FILE).dim == 3
    monkeypatch.setattr(liealg, "MAX_JOIN", 11)
    monkeypatch.setattr(liealg, "LieAlgebra", refuse)
    monkeypatch.setattr(liealg, "validate", refuse)
    with pytest.raises(ValueError, match=r"^validate's Jacobi join would sum 12 terms, above the budget of 11$"):
        load_structure_file(SL2_FILE)


@pytest.mark.parametrize(
    "text, head",
    [
        (SL2_FILE + "basis e h f\n", "basis"),
        (SL2_FILE + "triple e h f\n", "triple"),
        # a second line used to replace the first: f h e, then e h f, loaded as e h f
        (SL2_FILE.replace("triple e h f", "triple f h e") + "triple e h f\n", "triple"),
    ],
    ids=["basis", "triple", "swapped-triple"],
)
def test_structure_file_refuses_a_second_line(text, head):
    with pytest.raises(ValueError, match=rf"^line 10: second '{head}' line$"):
        load_structure_file(text)


def test_structure_file_rejects_invalid():
    bad = SL2_FILE.replace("<e,f> = 1", "<e,f> = 2")
    with pytest.raises(ValueError, match="invalid"):
        load_structure_file(bad)


def test_structure_file_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        load_structure_file("what is this")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[h,e] = 2*e", "[h,e] = \u0662*e", "line 4: bad term"),
        ("[e,f] = h", "[e,f] = 1_0*h", "line 6: bad term"),
        ("<h,h> = 2", "<h,h> = \u0662", "line 8: bad rational"),
        ("<h,h> = 2", "<h,h> = 2.0", "line 8: bad rational"),
        ("<e,f> = 1", "<e,f> = 1_0", "line 7: bad rational"),
    ],
)
def test_structure_file_numbers_take_ascii_digits_only(old, new, message):
    with pytest.raises(ValueError, match=message):
        load_structure_file(SL2_FILE.replace(old, new))


def test_structure_file_rejects_inconsistent_antisymmetry():
    bad = SL2_FILE + "[e,h] = 2*e\n"
    with pytest.raises(ValueError, match="conflicting bracket|antisymmetry"):
        load_structure_file(bad)


def test_validate_runs_once_per_algebra():
    g = sl2()
    assert g.report is None
    report = validate(g)
    assert report.ok
    assert g.report is report
    assert validate(g) is report


def test_structure_file_keeps_its_load_report():
    g = load_structure_file(SL2_FILE)
    assert g.report is not None and g.report.ok
    assert validate(g) is g.report


def _corrupted_sl3():
    g = sln(3)
    bracket = {key: dict(vec) for key, vec in g._bracket.items()}
    form = dict(g._form)
    i, j, t = g.index("E12"), g.index("E23"), g.index("E13")
    bracket[(i, j)] = {t: Fraction(2)}  # [E12,E23] = 2*E13, mirror left at -E13
    d1, d2 = g.index("D1"), g.index("D2")
    form[(d1, d2)] = form[(d2, d1)] = Fraction(2)  # <D1,D2> = 2 instead of 1
    return LieAlgebra(g.basis, bracket, form, g.theta)


# the report of the exhaustive check on _corrupted_sl3, in the order it is found
CORRUPTED_SL3_FAILURES = [
    "[E12,E23] not antisymmetric",
    "[E23,E12] not antisymmetric",
    "Jacobi fails on (E12,E13,E21)",
    "Jacobi fails on (E12,E23,D1)",
    "Jacobi fails on (E12,E23,D2)",
    "Jacobi fails on (E12,E23,E21)",
    "Jacobi fails on (E12,E23,E31)",
    "form not invariant on (E12,E23,E31)",
    "Jacobi fails on (E12,E23,E32)",
    "Jacobi fails on (E12,D1,E23)",
    "Jacobi fails on (E12,D2,E23)",
    "Jacobi fails on (E12,E21,E13)",
    "form not invariant on (E12,E21,D1)",
    "form not invariant on (E12,E21,D2)",
    "Jacobi fails on (E13,E12,E21)",
    "Jacobi fails on (E13,E21,E12)",
    "form not invariant on (E13,E31,D2)",
    "Jacobi fails on (E23,E12,D1)",
    "Jacobi fails on (E23,E12,D2)",
    "Jacobi fails on (E23,D1,E12)",
    "Jacobi fails on (E23,D2,E12)",
    "Jacobi fails on (E23,E21,E12)",
    "Jacobi fails on (E23,E31,E12)",
    "Jacobi fails on (E23,E32,E12)",
    "form not invariant on (E23,E32,D1)",
    "Jacobi fails on (D1,E12,E23)",
    "form not invariant on (D1,E12,E21)",
    "Jacobi fails on (D1,E23,E12)",
    "form not invariant on (D1,E23,E32)",
    "form not invariant on (D1,E21,E12)",
    "form not invariant on (D1,E32,E23)",
    "Jacobi fails on (D2,E12,E23)",
    "form not invariant on (D2,E12,E21)",
    "form not invariant on (D2,E13,E31)",
    "Jacobi fails on (D2,E23,E12)",
    "form not invariant on (D2,E21,E12)",
    "form not invariant on (D2,E31,E13)",
    "Jacobi fails on (E21,E12,E13)",
    "Jacobi fails on (E21,E12,E23)",
    "form not invariant on (E21,E12,D1)",
    "form not invariant on (E21,E12,D2)",
    "Jacobi fails on (E21,E13,E12)",
    "Jacobi fails on (E31,E12,E23)",
    "form not invariant on (E31,E12,E23)",
    "form not invariant on (E31,E13,D2)",
    "Jacobi fails on (E32,E12,E23)",
    "form not invariant on (E32,E23,D1)",
]


def test_validate_failures_on_corrupted_sl3():
    report = validate(_corrupted_sl3())
    assert not report.ok
    assert report.failures == CORRUPTED_SL3_FAILURES


# --- the exhaustive check against the Fraction reference it replaced ---

def _reference_check(g):
    """The failure list of the one-pass-per-triple Fraction check, kept as an oracle."""
    failures = []
    dim = g.dim

    def name(i):
        return g.basis[i]

    table, form = g._bracket, g._form
    for i in range(dim):
        if table.get((i, i)):
            failures.append(f"[{name(i)},{name(i)}] != 0")
    for i in range(dim):
        for j in range(dim):
            both = dict(table.get((i, j), {}))
            add_scaled(both, table.get((j, i), {}), 1)
            if both:
                failures.append(f"[{name(i)},{name(j)}] not antisymmetric")
            if g.form(i, j) != g.form(j, i):
                failures.append(f"<{name(i)},{name(j)}> not symmetric")

    def add_bracket(acc, x, elt):
        for y, c in elt.items():
            add_scaled(acc, table.get((x, y), {}), c)

    for i in range(dim):
        for j in range(dim):
            ij = table.get((i, j), {})
            for l in range(dim):
                jl = table.get((j, l), {})
                jac = {}
                add_bracket(jac, i, jl)
                add_bracket(jac, j, table.get((l, i), {}))
                add_bracket(jac, l, ij)
                if jac:
                    failures.append(f"Jacobi fails on ({name(i)},{name(j)},{name(l)})")
                lhs = sum(c * form.get((x, l), 0) for x, c in ij.items())
                rhs = sum(form.get((i, x), 0) * c for x, c in jl.items())
                if lhs != rhs:
                    failures.append(
                        f"form not invariant on ({name(i)},{name(j)},{name(l)})"
                    )
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
        (g.form(e, f), Fraction(1), "<e,f> = 1"),
        (g.form(h, h), Fraction(2), "<h,h> = 2"),
        (g.form(e, e), Fraction(0), "<e,e> = 0"),
        (g.form(f, f), Fraction(0), "<f,f> = 0"),
        (g.form(h, e), Fraction(0), "<h,e> = 0"),
        (g.form(h, f), Fraction(0), "<h,f> = 0"),
    ]
    for got, want, what in form_checks:
        if got != want:
            failures.append(f"triple form normalization {what} fails (got {got})")
    try:
        g._compute_charges()
    except ValueError as exc:
        failures.append(str(exc))
    return failures


def _tables(g):
    """Editable copies of the bracket table (mirrors included) and the form."""
    return {key: dict(vec) for key, vec in g._bracket.items()}, dict(g._form)


def _corrupted(g, kind, seed):
    """g with a seeded edit, none of which touches ad(h_theta) (the charges)."""
    rng = random.Random(seed)
    bracket, form = _tables(g)
    h = g.theta[1]
    others = [i for i in range(g.dim) if i != h]

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4]))

    if kind == "bracket":
        # one or two entries replaced, each mirror left stale
        for _ in range(rng.choice([1, 2])):
            i, j = rng.choice(others), rng.randrange(g.dim)
            bracket[(i, j)] = {a: coeff() for a in rng.sample(range(g.dim), rng.choice([1, 2]))}
    elif kind == "form":
        i, j = rng.randrange(g.dim), rng.randrange(g.dim)
        form[(i, j)] = form[(j, i)] = form.get((i, j), Fraction(0)) + coeff()
    elif kind == "row":
        # ad(b_i) scaled, the column [b_j, b_i] left as it was
        i, factor = rng.choice(others), coeff()
        while factor == 1:
            factor = coeff()
        for j in range(g.dim):
            if bracket.get((i, j)):
                bracket[(i, j)] = {a: c * factor for a, c in bracket[(i, j)].items()}
    elif kind == "self-bracket":
        # a nonzero [b_i, b_i]: the ordered scan then meets (i,i,l), (i,j,i) and (i,i,i)
        i = rng.choice(others)
        bracket[(i, i)] = {rng.randrange(g.dim): coeff()}
    elif kind == "self-form":
        i = rng.randrange(g.dim)
        form[(i, i)] = form.get((i, i), Fraction(0)) + coeff()
    elif kind == "asymmetric-form":
        # the mirror given as it was, zero included, so LieAlgebra keeps it
        i, j = rng.sample(range(g.dim), 2)
        form[(j, i)] = form.get((j, i), Fraction(0))
        form[(i, j)] = form[(j, i)] + coeff()
    elif kind == "empty-mirror":
        # a nonzero [b_i, b_j], i > j, beside an explicitly empty [b_j, b_i]: the
        # first pass compares the pair from (i, j) only
        i, j = rng.choice([(i, j) for (i, j), vec in bracket.items() if vec and i > j and h not in (i, j)])
        bracket[(j, i)] = {}
    else:
        # one nonzero [b_i, b_j] and its mirror scaled alike: still antisymmetric,
        # so the check decides Jacobi on i < j < l and lists each failure in every order
        i, j = rng.choice([key for key, vec in bracket.items() if vec and h not in key])
        factor = coeff()
        while factor == 1:
            factor = coeff()
        for key in ((i, j), (j, i)):
            bracket[key] = {a: c * factor for a, c in bracket[key].items()}
    return LieAlgebra(g.basis, bracket, form, g.theta)


KINDS = ["bracket", "form", "row", "pair", "self-bracket", "self-form", "asymmetric-form", "empty-mirror"]


@pytest.mark.parametrize("n, kind, seed", [
    (n, kind, seed)
    for n, seeds in ((2, 6), (3, 6), (4, 6), (5, 2))
    for kind in KINDS
    for seed in range(seeds)
])
def test_check_matches_fraction_reference_on_corruptions(n, kind, seed):
    g = _corrupted(sl2() if n == 2 else sln(n), kind, 1000 * n + seed)
    want = _reference_check(g)
    assert want and _check(g).failures == want


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [3, 4])
def test_check_joins_once_on_a_jacobi_failure(monkeypatch, n, seed):
    # an antisymmetric table that fails Jacobi: the i < j < l join decides it,
    # and its failures are expanded to every order without a second join
    g = _corrupted(sln(n), "pair", 1000 * n + seed)
    calls, join = [], liealg._join

    def counted(*args):
        calls.append(args[1:])
        return join(*args)

    monkeypatch.setattr(liealg, "_join", counted)
    failures = _check(g).failures
    assert calls == [(True,)]
    assert any(f.startswith("Jacobi") for f in failures)
    assert failures == _reference_check(g)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ordered_scan_passes_sln(n):
    # every ordered triple, (i,i,l), (i,j,i) and (i,i,i) among them
    g = sln(n)
    assert _render(g, _join(g, False)) == []


def _dense(g):
    """g on the basis b'_i = b_i + b_next, next the following index of the same
    ad(h_theta) charge, where each theta index comes last in its charge: a
    unimodular integral change of basis that keeps the theta triple and the
    charges, and mixes every other basis vector into the next of its charge."""
    classes = {}
    for i in sorted(range(g.dim), key=lambda i: i in g.theta):
        classes.setdefault(g.charge(i), []).append(i)
    new, old = {}, {}  # b'_i on the b; b_i on the b'
    for members in classes.values():
        for k, i in enumerate(members):
            new[i] = {i: 1, members[k + 1]: 1} if k + 1 < len(members) else {i: 1}
            old[i] = {members[t]: (-1) ** (t - k) for t in range(k, len(members))}

    def coords(v):
        out = {}
        for a, c in v.items():
            add_scaled(out, old[a], c)
        return out

    span = range(g.dim)
    bracket = {(i, j): coords(g.bracket_elt(new[i], new[j])) for i in span for j in span}
    form = {(i, j): sum(c * d * g.form(a, b) for a, c in new[i].items() for b, d in new[j].items())
            for i in span for j in span}
    return LieAlgebra(g.basis, bracket, form, g.theta)


def _widest(g):
    """The longest bracket row, and the most rows one basis index appears in."""
    columns = {}
    for row in g._bracket.values():
        for w in row:
            columns[w] = columns.get(w, 0) + 1
    return max(len(row) for row in g._bracket.values()), max(columns.values())


def _reference_join_cost(g):
    """join_cost by basis triples: each nonzero [b_y,b_z]_w times the length of [b_x,b_w]."""
    span = range(g.dim)
    return sum(len(g.bracket(x, w)) for y in span for z in span for w in g.bracket(y, z)
               for x in span)


@pytest.mark.parametrize("g", [sl2(), sln(3), _dense(sln(3)), _dense(sln(4))])
def test_join_cost_matches_the_triple_count(g):
    assert join_cost(g._bracket) == _reference_join_cost(g)


def _alternating_join_terms(g):
    """The terms the alternating join sums: each nonzero [b_y,b_z]_w with y < z
    times the length of [b_x,b_w], x not y or z."""
    span = range(g.dim)
    return sum(len(g.bracket(x, w)) for y in span for z in span[y + 1:] for w in g.bracket(y, z)
               for x in span if x not in (y, z))


@pytest.mark.parametrize("g", [sl2(), sln(3), _dense(sln(3)), _dense(sln(4))])
def test_join_cost_bounds_twice_the_alternating_join(g):
    assert 0 < 2 * _alternating_join_terms(g) <= join_cost(g._bracket)


@pytest.mark.parametrize("n, dense, cost", [
    (10, False, 50_220), (8, True, 3_858_556), (10, True, 21_835_930),
])
def test_join_budget_admits_the_dense_sln(n, dense, cost):
    g = _dense(sln(n)) if dense else sln(n)
    assert join_cost(g._bracket) == cost <= MAX_JOIN


@pytest.mark.parametrize("n, sparse, dense", [(3, (2, 6), (2, 10)), (4, (2, 10), (5, 32))])
def test_dense_basis_validates(n, sparse, dense):
    g = _dense(sln(n))
    # sl3's charge spaces are at most 2-dimensional, so only its columns grow
    assert (_widest(sln(n)), _widest(g)) == (sparse, dense)
    assert _reference_check(g) == []
    assert validate(g).ok, g.report.failures[:3]
    assert _render(g, _join(g, False)) == []


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [3, 4])
def test_check_matches_fraction_reference_on_dense_corruptions(n, kind, seed):
    g = _corrupted(_dense(sln(n)), kind, 1000 * n + seed)
    want = _reference_check(g)
    assert want and _check(g).failures == want


def test_reference_check_reproduces_corrupted_sl3_failures():
    # the oracle is a faithful copy: it gives the pinned report of the check it replaced
    assert _reference_check(_corrupted_sl3()) == CORRUPTED_SL3_FAILURES


def _structure_text(g):
    def term(a, c):
        return f"{'+' if c > 0 else '-'}{abs(c)}*{g.basis[a]}"

    lines = ["basis " + " ".join(g.basis), "triple " + " ".join(g.basis[t] for t in g.theta)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            vec = g.bracket(i, j)
            rhs = "".join(term(a, c) for a, c in vec.items()) if vec else "0"
            lines.append(f"[{g.basis[i]},{g.basis[j]}] = {rhs}")
            if g.form(i, j):
                lines.append(f"<{g.basis[i]},{g.basis[j]}> = {g.form(i, j)}")
        if g.form(i, i):
            lines.append(f"<{g.basis[i]},{g.basis[i]}> = {g.form(i, i)}")
    return "\n".join(lines) + "\n"


def test_rescaled_sl3_with_denominators_validates():
    g = _rescaled_sl3()
    e12, e21, e13, e23 = (g.index(x) for x in ("E12", "E21", "E13", "E23"))
    assert g.bracket(e12, e23) == {e13: Fraction(1, 3)}
    assert g.form(e12, e21) == Fraction(1, 3)
    assert _reference_check(g) == []
    assert validate(g).ok, g.report.failures[:3]
    text = _structure_text(g)
    assert "1/3*E13" in text and "<E12,E21> = 1/3" in text
    loaded = load_structure_file(text)
    assert loaded.report.ok
    assert loaded.bracket(e12, e23) == {e13: Fraction(1, 3)}


@pytest.mark.parametrize("seed", range(4))
def test_check_matches_fraction_reference_on_corrupted_rescaled_sl3(seed):
    rng = random.Random(seed)
    g = _rescaled_sl3()
    bracket, form = _tables(g)
    i, j = rng.choice([g.index("E12"), g.index("E21")]), rng.randrange(g.dim)
    bracket[(i, j)] = {rng.randrange(g.dim): Fraction(rng.choice([1, 2, 5]), 3)}
    g = LieAlgebra(g.basis, bracket, form, g.theta)
    want = _reference_check(g)
    assert want and _check(g).failures == want


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [3, 4])
def test_unordered_scan_sees_every_increasing_jacobi_failure(n, seed):
    # on an antisymmetric table the i < j < l scan is a proof, not a sample: it
    # reports the ordered scan's Jacobi failures on increasing triples, and every
    # invariance failure
    g = _corrupted(sln(n), "pair", 1000 * n + seed)

    def kept(failure):
        i, j, l = (g.index(x) for x in failure[failure.index("(") + 1:-1].split(","))
        return not failure.startswith("Jacobi") or i < j < l

    fast = _render(g, _join(g, True))
    assert any(f.startswith("Jacobi") for f in fast)
    assert fast == [f for f in _render(g, _join(g, False)) if kept(f)]
