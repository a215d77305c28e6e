from fractions import Fraction

import pytest

from affdef.liealg import (
    InvalidRank,
    LieAlgebra,
    LieElt,
    load_structure_file,
    sl2,
    sln,
    validate,
)


def test_sl2_triple_relations():
    g = sl2()
    e, h, f = g.theta
    assert g.bracket(h, e) == LieElt({e: 2})
    assert g.bracket(h, f) == LieElt({f: -2})
    assert g.bracket(e, f) == LieElt({h: 1})


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
            assert a.bracket(i, j).coeffs == b.bracket(i, j).coeffs
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
    assert report.first_counterexample


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
            assert g.bracket(i, j).coeffs == ref.bracket(i, j).coeffs
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


def test_lie_elt_arithmetic():
    x = LieElt({0: Fraction(2)}) + LieElt({0: Fraction(-2), 1: Fraction(1)})
    assert x == LieElt({1: 1})
    assert x.scale(0) == LieElt()
    assert not LieElt()


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
