import json
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from affdef.liealg import sl2, sln
from affdef.pbw import Kernel, Mode, render_word
from affdef.rigidity import (
    ADMISSIBLE_EQUATIONS,
    ELIMINATED_ROW_4,
    ELIMINATED_ROW_5,
    _proportionality,
    admissible_pipeline,
    cross_check,
    eliminate,
    ProofTranscript,
    Step,
    Verdict,
    integral_pipeline,
)
from affdef.scalar import LinForm
from affdef.singular import SINGULAR_COEFFS


def lf(**terms):
    return LinForm(0, terms)


# --- exact elimination ---

def test_eliminate_forced_singleton():
    assert eliminate([lf(c=2)]) == lf(c=1)


def test_eliminate_underdetermined():
    assert eliminate([lf(a1=1, c=1)]) is None


def test_eliminate_rejects_constant_term():
    with pytest.raises(ValueError, match="constant term"):
        eliminate([LinForm(5)])
    with pytest.raises(ValueError, match="constant term"):
        eliminate([lf(a1=1), lf(c=1) + 3])


SYMBOLS = [f"{fam}{i}" for fam in "abc" for i in range(1, 6)] + ["c"]


def random_row(rng, include_c=True):
    row = {}
    for name in SYMBOLS[:-1]:
        if rng.random() < 0.4:
            row[name] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    if include_c and rng.random() < 0.7:
        row["c"] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return LinForm(0, row)


def test_eliminate_soundness_against_rank_oracle():
    """c is forced exactly when adjoining the c-column raises the rank."""
    rng = random.Random(424242)
    forced_seen = free_seen = 0
    for trial in range(200):
        rows = [random_row(rng) for _ in range(4)]
        if trial % 2 == 0:
            # plant the c-unit vector in the row space:
            # sum(m_i r_i) - planted = -lam * c
            mults = [Fraction(rng.randint(-3, 3)) for _ in rows]
            planted = LinForm(0)
            for m, r in zip(mults, rows):
                planted = planted + r.scale(m)
            lam = Fraction(rng.randint(1, 5))
            planted = planted + lf(c=lam)
            rows.append(planted)
        else:
            rows.append(random_row(rng))
        got = eliminate(rows)
        assert (got is not None) == c_forced_by_rank(rows, SYMBOLS), f"trial {trial}"
        assert got in (None, lf(c=1))
        forced_seen += got is not None
        free_seen += got is None
    assert forced_seen > 20 and free_seen > 20


def c_forced_by_rank(rows, symbols):
    """The rank oracle: adjoining the c-column (last in ``symbols``) raises the rank."""
    matrix = sympy.Matrix(
        [[sympy.Rational(eq.coefficient(s)) for s in symbols] for eq in rows]
    )
    return matrix.rank() > matrix[:, :-1].rank()


WIDE_SYMBOLS = [f"x{i:02d}" for i in range(1, 30)] + ["c"]


def sparse_row(rng, nonzeros=5):
    names = rng.sample(WIDE_SYMBOLS, nonzeros)
    return LinForm(0, {n: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))
                       for n in names})


def test_eliminate_wide_sparse_systems_against_rank_oracle():
    """Thirty symbols, five nonzeros a row: about 40% of the pivots exist only after fill-in."""
    rng = random.Random(20261018)
    forced_seen = free_seen = 0
    for trial in range(24):
        rows = [sparse_row(rng) for _ in range(18)]
        if trial % 2 == 0:
            planted = lf(c=rng.randint(1, 5))
            for row in rng.sample(rows, 6):
                planted = planted + row.scale(rng.randint(1, 4))
            rows.insert(rng.randrange(len(rows) + 1), planted)
        got = eliminate(rows)
        assert (got is not None) == c_forced_by_rank(rows, WIDE_SYMBOLS), f"trial {trial}"
        assert got in (None, lf(c=1))
        forced_seen += got is not None
        free_seen += got is None
    assert forced_seen >= 12 and free_seen >= 6


def c_unit_in_row_space(rows, symbols):
    """The row-space oracle: adjoining the c-unit row leaves the rank as it is."""
    matrix = sympy.Matrix(
        [[sympy.Rational(eq.coefficient(s)) for s in symbols] for eq in rows]
    )
    unit = sympy.Matrix([[int(s == "c") for s in symbols]])
    return matrix.col_join(unit).rank() == matrix.rank()


def test_eliminate_rank_deficient_sparse_systems_against_row_space_oracle():
    """More rows than rank: every row past the first few is a sparse combination of them."""
    rng = random.Random(2029)
    forced_seen = free_seen = 0
    for trial in range(30):
        basis = [sparse_row(rng, nonzeros=rng.randint(2, 5)) for _ in range(rng.randint(3, 10))]
        if trial % 3 == 0:
            basis.append(lf(c=rng.randint(1, 5)))  # the c-unit row, hidden below
        rows = []
        for _ in range(len(basis) + rng.randint(2, 8)):
            row = LinForm(0)
            for b in rng.sample(basis, rng.randint(1, 3)):
                row = row + b.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
            rows.append(row)
        rows = [row for row in rows if row]
        got = eliminate(rows)
        assert (got is not None) == c_unit_in_row_space(rows, WIDE_SYMBOLS), f"trial {trial}"
        assert got in (None, lf(c=1))
        forced_seen += got is not None
        free_seen += got is None
    assert forced_seen >= 5 and free_seen >= 10


def test_eliminate_pivots_on_the_shortest_row(monkeypatch):
    # a1 is held by a four-entry row and two two-entry rows: the first of the
    # two short rows is the pivot, and each row it clears gets one entry at most
    from affdef import rigidity

    pivots = []
    add_scaled = rigidity.add_scaled

    def recorded(row, pivot, factor):
        pivots.append(dict(pivot))
        add_scaled(row, pivot, factor)

    monkeypatch.setattr(rigidity, "add_scaled", recorded)
    rows = [lf(a1=1, a2=1, a3=1, a4=1), lf(a1=2, a2=1), lf(a1=1, c=1)]
    assert eliminate(rows) is None
    assert pivots[:2] == [{"a1": 2, "a2": 1}] * 2
    # with a2, a3 and a4 pinned to zero, so is a1, and then c
    assert eliminate(rows + [lf(a2=1), lf(a3=1), lf(a4=1)]) == lf(c=1)


# --- integral pipeline ---

@pytest.mark.parametrize("k", list(range(1, 9)))
def test_integral_final_factor(k):
    verdict = integral_pipeline(sl2(), k)
    assert verdict.c_forced_zero
    assert verdict.final_relation == lf(c=k + 1)
    assert verdict.transcript.conclusion == lf(c=k + 1)


def test_integral_intermediate_telescope_step():
    verdict = integral_pipeline(sl2(), 3)
    details = [s.detail for s in verdict.transcript.steps if s.rule == "telescope"]
    # after two substitutions the accumulated coefficient is 2c
    assert "0 = e(-1)^2*f^def(1)e(-1)^2|0> + 2*c*e(-1)^3|0>" in details


def test_integral_rejects_bad_level():
    with pytest.raises(ValueError):
        integral_pipeline(sl2(), 0)
    with pytest.raises(ValueError):
        integral_pipeline(sl2(), Fraction(3, 2))
    # a bool is an int to isinstance, but True is no level one
    for k in (True, False):
        with pytest.raises(ValueError, match=f"level must be a positive integer, got {k}"):
            integral_pipeline(sl2(), k)


def kernel_word_calls(monkeypatch, k):
    """Calls of the kernel's word entry points during ``integral_pipeline(sl2(), k)``."""
    calls = Counter()
    for name in ("intern", "enter", "spell"):
        method = getattr(Kernel, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(Kernel, name, counted)
    integral_pipeline(sl2(), k)
    monkeypatch.undo()
    return calls


def test_integral_pipeline_enters_and_spells_no_power(monkeypatch):
    # the powers are built once as word ids and every rule and atom goes by
    # its id key, so no word is walked per power: the counts do not grow with k
    small, large = kernel_word_calls(monkeypatch, 5), kernel_word_calls(monkeypatch, 60)
    assert small == large


def test_integral_power_texts_spell_as_render_word():
    # the reduce and extract steps spell e(-1)^n|0> from n, as render_word
    # spells the word: |0> at n = 0 and e(-1)|0> at n = 1
    g = sl2()
    e = g.theta[0]

    def power(n):
        return render_word(g, (Mode(e, -1),) * n)

    for k in range(1, 41):
        steps = integral_pipeline(g, k).transcript.steps
        assert [s.output for s in steps if s.rule == "reduce"] == [
            f"{i}*c*{power(i - 1)}" for i in range(1, k + 2)
        ]
        (extract,) = [s.detail for s in steps if s.rule == "extract"]
        assert extract == f"coefficient of {power(k)} at weight {k}, below the ideal's weight {k + 1}"


def test_integral_deterministic():
    a = integral_pipeline(sl2(), 4)
    b = integral_pipeline(sl2(), 4)
    assert a == b
    assert a.transcript.steps == b.transcript.steps
    assert json.dumps(a.to_jsonable(True), sort_keys=True) == json.dumps(
        b.to_jsonable(True), sort_keys=True
    )


# --- records ---

def transcript(conclusion=None, output="2*c"):
    t = ProofTranscript()
    t.add("solve", "row reduction")
    t.add("telescope", "substitute", output)
    t.conclusion = conclusion
    return t


def test_transcript_equality_covers_steps_and_conclusion():
    assert transcript(lf(c=2)) == transcript(lf(c=2))
    assert transcript(lf(c=2)) != transcript(lf(c=3))
    assert transcript(lf(c=2)) != transcript(None)
    assert transcript(lf(c=2), output="2*c") != transcript(lf(c=2), output="3*c")
    assert ProofTranscript() == ProofTranscript([], None)
    assert repr(transcript(None)) == (
        "ProofTranscript(steps=[Step(rule='solve', detail='row reduction', output=''), "
        "Step(rule='telescope', detail='substitute', output='2*c')], conclusion=None)"
    )


def test_verdict_equality_compares_the_transcript():
    a = integral_pipeline(sl2(), 3)
    assert a == integral_pipeline(sl2(), 3)
    assert a != integral_pipeline(sl2(), 4)
    other = transcript(a.transcript.conclusion)
    assert a._replace(transcript=other) != a
    steps = list(a.transcript.steps)
    steps[-1] = steps[-1]._replace(output="")
    assert a._replace(transcript=ProofTranscript(steps, a.transcript.conclusion)) != a


def test_verdict_quarantine_defaults_to_empty():
    verdict = Verdict("p", Fraction(1), True, lf(c=1), [], ProofTranscript())
    assert verdict.quarantine == ()
    assert verdict.to_jsonable()["quarantine"] == []
    assert Step("r", "d") == Step("r", "d", "")


# --- admissible pipeline ---

def expected_equations():
    return [LinForm(0, row) for row in ADMISSIBLE_EQUATIONS]


def test_admissible_equations_exact():
    verdict = admissible_pipeline()
    assert verdict.equations == expected_equations()
    assert [eq.coefficient("c") for eq in verdict.equations] == [12, 9, -6, 36, -96]


def test_admissible_final_relation():
    verdict = admissible_pipeline()
    assert verdict.final_relation == lf(c=10)
    assert verdict.c_forced_zero
    assert not verdict.quarantine


def test_admissible_row_operation_contents():
    """Replaying the stated row operations on the collected equations."""
    eq1, eq2, eq3, eq4, eq5 = admissible_pipeline().equations
    row4 = eq4 + eq2.scale(2)
    assert _proportionality(row4, ELIMINATED_ROW_4) == Fraction(-6)
    row5 = eq5 + eq3.scale(2) + eq2.scale(Fraction(-20, 3)) + eq1.scale(Fraction(10, 3))
    assert _proportionality(row5, ELIMINATED_ROW_5) == Fraction(4, 3)
    final = row5 + row4.scale(Fraction(23, 9))
    assert final == lf(c=10)


def test_admissible_replay_and_determinism():
    a = admissible_pipeline()
    b = admissible_pipeline()
    assert a == b
    assert a.transcript.steps == b.transcript.steps


def test_admissible_json_schema():
    verdict = admissible_pipeline()
    payload = verdict.to_jsonable(include_steps=False)
    assert payload["pipeline"] == "admissible-sl2"
    assert payload["level"] == "-4/3"
    assert payload["final_relation"] == {"c": 10}
    assert payload["c_forced_zero"] is True
    assert len(payload["equations"]) == 5
    # schema-stable and deterministic
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        admissible_pipeline().to_jsonable(include_steps=False), sort_keys=True
    )


def test_admissible_with_singular_coefficients_still_rigid():
    """Running the same derivation with the annihilator-verified combination."""
    verdict = admissible_pipeline(combination=SINGULAR_COEFFS)
    assert verdict.c_forced_zero
    assert verdict.final_relation == lf(c=210)
    assert not verdict.quarantine


def test_admissible_quarantine_on_degenerate_combination():
    # only the e(-3)|0> term: both def-mode actions vanish, so no relation on c
    verdict = admissible_pipeline(combination=(0, 0, 0, 0, 1))
    assert verdict.quarantine
    assert any("not supported on c" in note for note in verdict.quarantine)
    assert not verdict.c_forced_zero


def test_proportionality_helper():
    assert _proportionality(lf(a1=2, c=4), {"a1": 1, "c": 2}) == 2
    assert _proportionality(lf(a1=2, c=4), {"a1": 1, "c": 3}) is None
    assert _proportionality(lf(a1=2), {"a1": 1, "c": 3}) is None


# --- general-algebra integral run ---

def test_integral_pipeline_on_sl3():
    verdict = integral_pipeline(sln(3), 2)
    assert verdict.c_forced_zero
    assert verdict.final_relation == lf(c=3)


# --- cross-check diagnostic ---

def test_cross_check_statuses():
    entries = {e.label: e for e in cross_check()}
    assert len(entries) == 10
    matches = {label for label, e in entries.items() if e.status == "match"}
    assert matches == {
        "f^def(1) e(-3)|0>",
        "h^def(1) h(-1)*e(-2)|0>",
        "h^def(1) h(-2)*e(-1)|0>",
        "h^def(1) h(-1)^2*e(-1)|0>",
        "h^def(1) e(-3)|0>",
    }
    assert not any(e.status == "mismatch" for e in entries.values())


def test_cross_check_residual_atoms():
    entries = {e.label: e for e in cross_check()}
    assert entries["f^def(1) h(-1)*e(-2)|0>"].residual_atoms == ["h^def(-1) h(-1)|0>"]
    assert entries["f^def(1) e(-1)^2*f(-1)|0>"].residual_atoms == ["e^def(-1) f(-1)|0>"]
    assert entries["f^def(1) h(-2)*e(-1)|0>"].residual_atoms == ["f^def(-1) e(-1)|0>"]
    assert entries["f^def(1) h(-1)^2*e(-1)|0>"].residual_atoms == [
        "f^def(-1) e(-1)|0>",
        "h^def(-1) h(-1)|0>",
    ]
    assert entries["h^def(1) e(-1)^2*f(-1)|0>"].residual_atoms == [
        "e^def(-1) f(-1)|0>",
        "e^def(-1) h(-1)|0>",
    ]
