from fractions import Fraction

import pytest

from affdef.liealg import (
    InvalidRank,
    LieAlgebra,
    load_structure_file,
    sl2,
    sln,
    validate,
)


def test_sl2_triple_relations():
    g = sl2()
    e, h, f = g.theta
    assert g.bracket(h, e) == {e: 2}
    assert g.bracket(h, f) == {f: -2}
    assert g.bracket(e, f) == {h: 1}


@pytest.mark.parametrize("g", [sl2(), sln(3)], ids=["sl2", "sl3"])
def test_bracket_rows_are_index_fraction_dicts(g):
    for i in range(g.dim):
        for j in range(g.dim):
            row = g.bracket(i, j)
            assert type(row) is dict
            assert all(type(a) is int and type(c) is Fraction and c for a, c in row.items())
            # a dict-in, dict-out bracket of basis elements reads the same row
            assert g.bracket_elt({i: Fraction(1)}, {j: Fraction(1)}) == row


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


def test_sln2_matches_sl2_tables():
    a, b = sln(2), sl2()
    assert a.dim == b.dim
    assert a.theta == b.theta
    for i in range(3):
        for j in range(3):
            assert a.bracket(i, j) == b.bracket(i, j)
            assert a.form(i, j) == b.form(i, j)


def test_sln3_validates():
    report = validate(sln(3))
    assert report.ok, report.failures[:3]


def test_sln3_theta_form():
    g = sln(3)
    e, h, f = g.theta
    assert g.form(e, f) == 1  # trace(E13 E31) = 1
    assert g.form(h, h) == 2


def test_sln4_validates():
    assert validate(sln(4)).ok


def test_sln_rank_guard():
    with pytest.raises(InvalidRank):
        sln(1)


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


def test_validate_catches_form_defect():
    def edit(bracket, form):
        form[(0, 2)] = Fraction(2)  # <e,f> = 2

    report = validate(_edited_sl2(edit))
    assert not report.ok
    assert any("<e,f>" in msg for msg in report.failures)


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


def test_structure_file_rejects_invalid():
    bad = SL2_FILE.replace("<e,f> = 1", "<e,f> = 2")
    with pytest.raises(ValueError, match="invalid"):
        load_structure_file(bad)


def test_structure_file_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        load_structure_file("what is this")


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
