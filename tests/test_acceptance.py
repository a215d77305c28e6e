"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic; no tolerances anywhere.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import time
from fractions import Fraction

from click.testing import CliRunner

import test_cli
import test_deform
import test_pbw
import test_rigidity
import test_scalar
from affdef.cli import main
from affdef.deform import mode_identity
from affdef.liealg import sl2
from affdef.pbw import Mode, State, apply_mode
from affdef.rigidity import (
    ELIMINATED_ROW_4,
    ELIMINATED_ROW_5,
    _proportionality,
    admissible_pipeline,
)
from affdef.scalar import LinForm
from affdef.singular import admissible_sl2, integral_relation, is_singular

G = sl2()
E, H, F = G.theta
runner = CliRunner()


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_integral_rigidity():
    for k in range(1, 9):
        start = time.monotonic()
        result = runner.invoke(
            main,
            ["rigidity", "integral", "--algebra", "sl2", "--k", str(k),
             "--format", "json"],
        )
        elapsed = time.monotonic() - start
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["c_forced_zero"] is True
        assert payload["final_relation"] == {"c": k + 1}
        assert elapsed < 5.0, f"k={k} took {elapsed:.2f}s"
    report(1, "integral rigidity concludes (K+1)*c = 0 for K in 1..8, each under 5 s")


def test_criterion_2_admissible_rigidity():
    start = time.monotonic()
    result = runner.invoke(main, ["rigidity", "admissible-sl2", "--format", "json"])
    elapsed = time.monotonic() - start
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["c_forced_zero"] is True
    assert payload["final_relation"] == {"c": 10}
    assert len(payload["equations"]) == 5
    expected = [
        {"a3": 84, "a4": 168, "a5": -28, "b3": -18, "b4": -36, "b5": 6,
         "c3": -12, "c4": -24, "c5": 4, "c": 12},
        {"a2": -42, "a4": -56, "b2": 9, "b4": 12, "c2": 6, "c4": 8, "c": 9},
        {"a1": -42, "a3": -56, "b1": 9, "b3": 12, "c1": 6, "c3": 8, "c": -6},
        {"a2": 84, "a4": -560, "a5": 168, "b2": -18, "b4": 120, "b5": -36,
         "c2": -12, "c4": 80, "c5": -24, "c": 36},
        {"a1": 84, "a2": -280, "a3": -168, "a4": 784, "a5": -336, "b1": -18,
         "b2": 60, "b3": 36, "b4": -168, "b5": 72, "c1": -12, "c2": 40,
         "c3": 24, "c4": -112, "c5": 48, "c": -96},
    ]
    assert payload["equations"] == expected
    assert [eq["c"] for eq in payload["equations"]] == [12, 9, -6, 36, -96]
    assert elapsed < 5.0
    report(2, "admissible rigidity collects the five equations exactly and concludes 10*c = 0 under 5 s")


def test_criterion_3_elimination_replay():
    verdict = admissible_pipeline()
    assert not verdict.quarantine, verdict.quarantine
    eq1, eq2, eq3, eq4, eq5 = verdict.equations
    row4 = eq4 + eq2.scale(2)
    row5 = eq5 + eq3.scale(2) + eq2.scale(Fraction(-20, 3)) + eq1.scale(Fraction(10, 3))
    assert _proportionality(row4, ELIMINATED_ROW_4) == Fraction(-6)
    assert _proportionality(row5, ELIMINATED_ROW_5) == Fraction(4, 3)
    assert row5 + row4.scale(Fraction(23, 9)) == LinForm(0, {"c": 10})
    # a degenerate input is reported, never absorbed
    degenerate = admissible_pipeline(combination=(0, 0, 0, 0, 1))
    assert degenerate.quarantine
    report(3, "the stated row operations reproduce both eliminated rows exactly up to scaling")


def test_criterion_4_singularity():
    sv = admissible_sl2(G)
    ok, witness = is_singular(sv.vector, sv.level, G)
    assert ok and witness is None
    for k in (1, 2, 3):
        sv = integral_relation(G, k)
        ok, witness = is_singular(sv.vector, sv.level, G)
        assert ok and witness is None
    report(4, "the weight-3 vector at -4/3 and e(-1)^(k+1)|0> for k in {1,2,3} pass every annihilator exactly")


def test_criterion_5_f1_power_law():
    for k in (Fraction(1), Fraction(2), Fraction(3), Fraction(-4, 3)):
        for i in range(2, 7):
            got = apply_mode(G, F, 1, State.monomial((Mode(E, -1),) * (i - 1)), k)
            want = State.monomial(
                (Mode(E, -1),) * (i - 2), Fraction(i - 1) * (k - i + 2)
            )
            assert got == want, (k, i)
    report(5, "f(1)e(-1)^(i-1)|0> = (i-1)(k-i+2)e(-1)^(i-2)|0> for 2 <= i <= 6 and k in {1,2,3,-4/3}")


def test_criterion_6_vanishing_lemmas():
    for k in range(1, 6):
        test_deform.test_power_rule_ingredients_vanish(k)
        test_deform.test_cartan_value_computed(k)
    test_deform.test_cartan_value_blind_to_power_ansatz()
    report(6, "the power rule's ingredients vanish and h^def(0)e(-1)^(i-1)|0> evaluates to 0 "
              "for 1 <= i <= k+1 <= 6; a free power atom leaves the Cartan value 0 but "
              "changes f^def(1)e(-1)^2|0>")


def test_criterion_7_property_suites():
    test_pbw.test_representation_property_sweep(Fraction(2))
    test_pbw.test_representation_property_sweep(Fraction(-4, 3))
    test_pbw.test_pbw_character_matches_partition_oracle()
    test_rigidity.test_eliminate_soundness_against_rank_oracle()
    test_cli.test_parse_print_roundtrip_1000()
    test_scalar.test_add_associative_commutative()
    test_scalar.test_scale_distributes()
    # weight/charge conservation is enforced at registration; re-check the
    # pipeline registries rule by rule
    from affdef.deform import DefAtom, RuleRegistry, register_ansatz

    registry = RuleRegistry(G, Fraction(-4, 3))
    rules = [
        register_ansatz(registry, DefAtom(H, -1, (Mode(E, -2),)), "a"),
        register_ansatz(registry, DefAtom(H, -1, (Mode(H, -1), Mode(E, -1))), "b"),
        register_ansatz(registry, DefAtom(E, -1, (Mode(E, -1), Mode(F, -1))), "c"),
    ]
    for rule in rules:
        registry._check_grading(rule.atom, rule.value.tail)
    report(7, "representation sweep, PBW character, rule grading, ring laws, elimination soundness, parser round-trip")


def test_criterion_8_master_relation_goldens():
    ident = mode_identity(G, F, 1, E, -1)
    assert ident.render(G) == "-h^def(0) + c"
    assert ident.terms == ((LinForm(-1), Mode(H, 0)), (LinForm.symbol("c"), None))
    ident = mode_identity(G, H, 0, E, -1)
    assert ident.render(G) == "2*e^def(-1)"
    report(8, "the master rewrite reproduces both stated operator identities exactly")
