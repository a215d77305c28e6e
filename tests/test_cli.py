import json
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from affdef import liealg
from affdef.cli import (
    MAX_DIM,
    MAX_LEVEL,
    MAX_LISTED_MODES,
    MAX_LITERAL_DIGITS,
    MAX_RANK,
    MAX_STRATUM,
    MAX_WORD_LENGTH,
    ExprAST,
    StateSyntaxError,
    main,
    parse_mode,
    parse_state,
)
from affdef.liealg import sl2
from affdef.pbw import Mode, State, render_word
from affdef.scalar import signed_sum, signed_term

G = sl2()
E, H, F = G.theta


# --- parser ---

def test_parse_two_term_state():
    ast = parse_state("-48*h(-1)e(-2)|0> + 80*e(-3)|0>", G)
    assert ast.terms == (
        (Fraction(-48), (Mode(H, -1), Mode(E, -2))),
        (Fraction(80), (Mode(E, -3),)),
    )


def test_parse_vacuum():
    assert parse_state("|0>", G).terms == ((Fraction(1), ()),)
    assert parse_state("-|0>", G).terms == ((Fraction(-1), ()),)


def test_parse_exponent_expansion():
    ast = parse_state("e(-1)^2*f(-1)|0>", G)
    assert ast.terms == ((Fraction(1), (Mode(E, -1), Mode(E, -1), Mode(F, -1))),)


def test_parse_rational_coefficient():
    ast = parse_state("3/2*h(-2)|0>", G)
    assert ast.terms == ((Fraction(3, 2), (Mode(H, -2),)),)


def test_parse_star_optional():
    with_star = parse_state("2*e(-1)*f(-1)|0>", G)
    without = parse_state("2e(-1)f(-1)|0>", G)
    assert with_star == without


def test_parse_whitespace_insensitive():
    assert parse_state(" e( -1 ) |0> ", G) == parse_state("e(-1)|0>", G)


def test_parse_syntax_error_offset():
    with pytest.raises(StateSyntaxError) as err:
        parse_state("e(-1", G)
    assert err.value.offset == 4
    with pytest.raises(StateSyntaxError):
        parse_state("e(-1)|0> e(-2)|0>", G)


def test_parse_unknown_generator():
    with pytest.raises(StateSyntaxError, match="unknown generator 'q'") as err:
        parse_state("q(-1)|0>", G)
    assert err.value.offset == 0


def test_parse_non_negative_depth():
    with pytest.raises(StateSyntaxError, match="depth 0 is not a creation depth") as err:
        parse_state("e(0)|0>", G)
    assert err.value.offset == 0
    with pytest.raises(StateSyntaxError, match="depth 2 is not a creation depth"):
        parse_state("e(2)|0>", G)
    with pytest.raises(StateSyntaxError, match="depth 2 is not a creation depth") as err:
        parse_state("e(-1)|0> + e(2)|0>", G)
    assert err.value.offset == 11


def test_ast_to_state_normal_orders():
    ast = parse_state("h(-1)e(-2)|0>", G)
    got = ast.to_state(G, Fraction(-4, 3))
    expected = State.monomial((Mode(E, -2), Mode(H, -1))) + State.monomial(
        (Mode(E, -3),), 2
    )
    assert got == expected


def random_ast(rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        num = rng.randint(-20, 20) or 1
        den = rng.randint(1, 6)
        coeff = Fraction(num, den)
        word = tuple(
            Mode(rng.randrange(3), -rng.randint(1, 5))
            for _ in range(rng.randint(0, 4))
        )
        terms.append((coeff, word))
    return ExprAST(tuple(terms))


def render_ast(ast, g):
    """The text of an ``ExprAST``, written with the package's renderers."""
    return signed_sum(signed_term(coeff, render_word(g, word)) for coeff, word in ast.terms)


def test_parse_print_roundtrip_1000():
    rng = random.Random(99)
    for _ in range(1000):
        ast = random_ast(rng)
        assert parse_state(render_ast(ast, G), G) == ast


def test_parse_mode():
    assert parse_mode("f(1)", G) == Mode(F, 1)
    assert parse_mode(" h(0) ", G) == Mode(H, 0)
    assert parse_mode("e(-2)", G) == Mode(E, -2)
    with pytest.raises(StateSyntaxError):
        parse_mode("f(1)e(2)", G)
    # a malformed mode is reported at the first byte no mode can continue with
    for text, offset in [("f(1)e(2)", 4), ("f(1", 3), ("f(x)", 2), ("f (1)", 1), ("  (1)", 2)]:
        with pytest.raises(StateSyntaxError) as err:
            parse_mode(text, G)
        assert str(err.value) == f"bad mode {text!r} (at byte {offset})"
        assert err.value.offset == offset
    # the same message as the state parser's, at the label's offset
    with pytest.raises(StateSyntaxError) as err:
        parse_mode("  q(1)", G)
    assert str(err.value) == "unknown generator 'q' (at byte 2)"
    assert err.value.offset == 2


def test_act_malformed_mode_exits_2():
    result = runner.invoke(
        main, ["act", "--mode", "f(1)e(2)", "--state", "e(-1)|0>", "--level", "1"]
    )
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: bad mode 'f(1)e(2)' (at byte 4)"


def test_act_unknown_mode_generator_exits_2():
    result = runner.invoke(
        main, ["act", "--mode", "q(1)", "--state", "e(-1)|0>", "--level", "1"]
    )
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: unknown generator 'q' (at byte 0)"


# --- commands ---

runner = CliRunner()


def test_pbw_basis_command():
    result = runner.invoke(main, ["pbw-basis", "--algebra", "sl2", "--weight", "3", "--charge", "2"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines == [
        "e(-3)|0>",
        "e(-2)*h(-1)|0>",
        "e(-1)*h(-2)|0>",
        "e(-1)*h(-1)^2|0>",
        "e(-1)^2*f(-1)|0>",
    ]


def test_pbw_basis_json():
    result = runner.invoke(
        main, ["pbw-basis", "--weight", "2", "--charge", "0", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["count"] == 3
    assert payload["basis"][0] == "h(-2)|0>"


def test_act_command():
    result = runner.invoke(
        main,
        ["act", "--mode", "f(1)", "--state", "e(-1)^2|0>", "--level", "2"],
    )
    assert result.exit_code == 0
    assert result.output.strip() == "2*e(-1)|0>"


def test_act_level_rational():
    result = runner.invoke(
        main,
        ["act", "--mode", "f(1)", "--state", "e(-1)|0>", "--level", "-4/3",
         "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"] == "-4/3*|0>"


def test_act_bad_state_exits_2():
    result = runner.invoke(
        main, ["act", "--mode", "f(1)", "--state", "e(0)|0>", "--level", "1"]
    )
    assert result.exit_code == 2


def test_unknown_flag_exits_2():
    result = runner.invoke(main, ["pbw-basis", "--weight", "2", "--bogus"])
    assert result.exit_code == 2


def test_singular_check_pass():
    result = runner.invoke(main, ["singular-check", "--label", "sl2:-4/3"])
    assert result.exit_code == 0
    assert "singular: True" in result.output


def test_singular_check_integral():
    result = runner.invoke(main, ["singular-check", "--label", "integral:k=2"])
    assert result.exit_code == 0
    assert result.output.splitlines()[:3] == ["label: integral:k=2", "level: 2", "vector: e(-1)^3|0>"]


def test_singular_check_unknown_label():
    result = runner.invoke(main, ["singular-check", "--label", "integral:k=zebra"])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: bad catalog label 'integral:k=zebra'"


@pytest.mark.parametrize(
    "label, message",
    [
        # int() alone would read the first three as 10, 2 and 3, and refuses the fourth
        ("integral:k=1_0", "bad catalog label 'integral:k=1_0'"),
        ("integral:k=+2", "bad catalog label 'integral:k=+2'"),
        ("integral:k= 3", "bad catalog label 'integral:k= 3'"),
        ("integral:k=" + "9" * 5000, "bad catalog label 'integral:k=" + "9" * 5000 + "'"),
        ("integral:k=0", "integral level must be a positive integer, got 0"),
        ("integral:k=-1", "integral level must be a positive integer, got -1"),
        ("nonsense", "unknown catalog label 'nonsense'"),
    ],
    ids=["underscore", "plus", "space", "5000-digits", "zero", "negative", "unknown"],
)
def test_singular_check_label_errors_exit_2(label, message):
    result = runner.invoke(main, ["singular-check", "--label", label])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == f"Error: {message}"


def test_rigidity_integral_command():
    result = runner.invoke(main, ["rigidity", "integral", "--algebra", "sl2", "--k", "3"])
    assert result.exit_code == 0
    assert "final relation: 4*c = 0" in result.output
    assert "c forced to zero: True" in result.output


def test_rigidity_integral_json_with_transcript():
    result = runner.invoke(
        main,
        ["rigidity", "integral", "--k", "1", "--format", "json", "--transcript"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["final_relation"] == {"c": 2}
    assert payload["steps"]


def test_rigidity_admissible_json():
    result = runner.invoke(main, ["rigidity", "admissible-sl2", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["final_relation"] == {"c": 10}
    assert payload["c_forced_zero"] is True


def test_rigidity_bad_k_exits_2():
    result = runner.invoke(main, ["rigidity", "integral", "--k", "0"])
    assert result.exit_code == 2


def test_cross_check_command():
    result = runner.invoke(main, ["cross-check"])
    assert result.exit_code == 0
    assert "MATCH" in result.output
    assert "RESIDUAL" in result.output


def test_cross_check_json():
    result = runner.invoke(main, ["cross-check", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload) == 10


def test_algebra_file_loading(tmp_path):
    algebra_file = tmp_path / "alg.txt"
    algebra_file.write_text(
        "basis e h f\n[h,e] = 2*e\n[h,f] = -2*f\n[e,f] = h\n"
        "<e,f> = 1\n<h,h> = 2\ntriple e h f\n"
    )
    result = runner.invoke(
        main, ["pbw-basis", "--algebra", str(algebra_file), "--weight", "2", "--charge", "0"]
    )
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 3


def assert_usage_error(result, message):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert message in result.output


@pytest.mark.parametrize(
    "argv",
    [["rigidity", "integral", "--k", v] for v in ("\u0663", "1_0", " 3", "9" * 1001)]
    + [["pbw-basis", "--weight", v] for v in ("\u0661", "1_0", "9" * 1001)]
    + [["pbw-basis", "--weight", "1", "--charge", v] for v in ("\u0662", "1_0", "9" * 1001)],
)
def test_integer_options_take_ascii_digits_only(argv):
    result = runner.invoke(main, argv)
    assert_usage_error(result, f"Invalid value for '{argv[-2]}'")


def test_integer_options_take_a_sign():
    result = runner.invoke(main, ["pbw-basis", "--weight", "+1", "--charge", "-2"])
    assert result.exit_code == 0, result.output
    assert result.output == "f(-1)|0>\n"


def test_parse_zero_denominator():
    with pytest.raises(StateSyntaxError):
        parse_state("2/0*e(-1)|0>", G)


def test_act_zero_denominator_exits_2():
    result = runner.invoke(
        main, ["act", "--mode", "f(1)", "--state", "2/0*e(-1)|0>", "--level", "1"]
    )
    assert_usage_error(result, "zero denominator")


def test_invalid_rank_exits_2():
    result = runner.invoke(main, ["pbw-basis", "--algebra", "sl1", "--weight", "2"])
    assert_usage_error(result, "sln needs n >= 2")


def test_missing_algebra_file_exits_2(tmp_path):
    missing = tmp_path / "missing.txt"
    result = runner.invoke(main, ["pbw-basis", "--algebra", str(missing), "--weight", "2"])
    assert_usage_error(result, "No such file")


def test_invalid_algebra_file_exits_2(tmp_path):
    algebra_file = tmp_path / "alg.txt"
    algebra_file.write_text("basis e h f\n[h,e] = 2*e\n<e,f> = 1\n")
    result = runner.invoke(main, ["pbw-basis", "--algebra", str(algebra_file), "--weight", "2"])
    assert_usage_error(result, "missing 'triple' line")


def test_act_on_deep_word():
    # f(1) e(-1)^n|0> = n(k-n+1) e(-1)^(n-1)|0>; n = 1200 is past the
    # interpreter's default recursion limit
    result = runner.invoke(
        main,
        ["act", "--mode", "f(1)", "--state", "e(-1)^1200|0>", "--level", "2",
         "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["result"] == "-1436400*e(-1)^1199|0>"


def test_act_on_deep_word_at_word_budget():
    # n(k-n+1) with n = 5000 and k = 2; a memo keyed on suffix tuples made this
    # word quadratic in time and memory
    result = runner.invoke(
        main, ["act", "--mode", "f(1)", "--state", f"e(-1)^{MAX_WORD_LENGTH}|0>", "--level", "2"]
    )
    assert result.exit_code == 0, result.output
    assert result.output == "-24985000*e(-1)^4999|0>\n"


# --- the stratum budget: counted before anything is expanded ---

@pytest.mark.parametrize("state, weight, charge", [
    ("f(-1)^20*e(-1)^20|0>", 40, 0),
    ("f(-1)^9*e(-1)^9|0>", 18, 0),
    # the second word is past the budget, the first is canonical
    ("h(-1)^30|0> + h(-1)*e(-99999)|0>", 100000, 2),
])
def test_act_past_stratum_budget_exits_2(state, weight, charge):
    result = runner.invoke(main, ["act", "--mode", "f(1)", "--state", state, "--level", "2"])
    word = state.count("+") + 1
    assert_usage_error(
        result,
        f"--state word {word} has weight {weight} and charge {charge}: "
        f"its stratum holds more than {MAX_STRATUM} words",
    )


def test_act_at_stratum_budget():
    # the (16, 0) stratum holds 7634 words, within the budget; h(0) acts by the charge 0
    result = runner.invoke(
        main, ["act", "--mode", "h(0)", "--state", "f(-1)^8*e(-1)^8|0>", "--level", "2"]
    )
    assert result.exit_code == 0, result.output
    assert result.output == "0\n"


# the charge-0 strata hold 11,766 and 18,480 words
@pytest.mark.parametrize("algebra, weight", [("sl2", 30), ("sl2", 17), ("sl3", 9)])
def test_pbw_basis_past_stratum_budget_exits_2(algebra, weight):
    result = runner.invoke(
        main, ["pbw-basis", "--algebra", algebra, "--weight", str(weight), "--charge", "0"]
    )
    assert_usage_error(result, f"weight {weight}: its stratum holds more than {MAX_STRATUM} words")


def test_pbw_basis_at_stratum_budget():
    # with no --charge the stratum is the whole weight: 7868 words at weight 12
    result = runner.invoke(main, ["pbw-basis", "--weight", "12", "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["count"] == 7868 <= MAX_STRATUM


@pytest.mark.parametrize("weight, charge, count", [(16, 0, 7634), (13, 1, 0)])
def test_pbw_basis_budgets_the_charge_stratum(weight, charge, count):
    # each whole weight stratum is past the budget; these charge strata are not
    argv = ["pbw-basis", "--weight", str(weight), "--charge", str(charge), "--format", "json"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["count"] == count <= MAX_STRATUM


def test_pbw_basis_top_charge_stratum():
    result = runner.invoke(main, ["pbw-basis", "--weight", "13", "--charge", "26"])
    assert result.exit_code == 0, result.output
    assert result.output == "e(-1)^13|0>\n"


def test_pbw_basis_deep_one_word_stratum():
    # one word each, e(-1)^w|0>: the mode budget bounds its length
    weight = MAX_WORD_LENGTH
    result = runner.invoke(main, ["pbw-basis", "--weight", str(weight), "--charge", str(2 * weight)])
    assert result.exit_code == 0, result.output
    assert result.output == f"e(-1)^{weight}|0>\n"
    for weight in (MAX_WORD_LENGTH + 1, 10**999):
        result = runner.invoke(
            main, ["pbw-basis", "--weight", str(weight), "--charge", str(2 * weight)]
        )
        assert_usage_error(result, f"weight {weight} is above the budget of {MAX_WORD_LENGTH} modes")


# sl2 at weight 5000, charges 10000 - 10 and 10000 - 28: 57 and 8634 words, within
# the word budget, but of up to 5000 modes each
@pytest.mark.parametrize("charge, count", [(9990, 57), (9972, 8634)])
def test_pbw_basis_past_listing_budget_exits_2(charge, count):
    result = runner.invoke(main, ["pbw-basis", "--weight", "5000", "--charge", str(charge)])
    assert_usage_error(
        result,
        f"weight 5000: its {count} words may spell more than the budget of {MAX_LISTED_MODES} modes",
    )


def test_pbw_basis_at_listing_budget():
    # slack 8 holds 29 words, 145,000 modes at most
    result = runner.invoke(
        main, ["pbw-basis", "--weight", "5000", "--charge", "9992", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["count"] == 29
    assert 29 * 5000 <= MAX_LISTED_MODES < 57 * 5000


# --- the word-length budget: no test here lets the parser expand past it ---

def test_act_overflowing_exponent_exits_2():
    result = runner.invoke(
        main,
        ["act", "--mode", "f(1)", "--state", "e(-1)^99999999999999999999999|0>",
         "--level", "2"],
    )
    assert_usage_error(result, f"budget of {MAX_WORD_LENGTH} modes (at byte 6)")


HALF = MAX_WORD_LENGTH // 2


@pytest.mark.parametrize("head,power", [
    ("", MAX_WORD_LENGTH + 1),
    # the budget counts the whole term, not one exponent
    (f"h(-1)^{HALF}f(-1)^{MAX_WORD_LENGTH - HALF}", 1),
])
def test_parse_exponent_one_past_budget(head, power):
    with pytest.raises(StateSyntaxError) as err:
        parse_state(f"{head}e(-1)^{power}|0>", G)
    assert err.value.offset == len(head) + 6


def test_parse_exponent_at_budget():
    ast = parse_state(f"e(-1)^{MAX_WORD_LENGTH}|0>", G)
    assert ast.terms == ((Fraction(1), (Mode(E, -1),) * MAX_WORD_LENGTH),)


def test_budget_counts_the_whole_state():
    # two terms that reach the budget exactly parse
    rest = MAX_WORD_LENGTH - HALF
    ast = parse_state(f"e(-1)^{HALF}|0> - f(-1)^{rest}|0>", G)
    assert [len(word) for _, word in ast.terms] == [HALF, rest]
    # of three full terms the second crosses it, at its exponent's byte offset
    term = f"e(-1)^{MAX_WORD_LENGTH}|0>"
    text = " + ".join([term] * 3)
    result = runner.invoke(
        main, ["act", "--mode", "f(1)", "--state", text, "--level", "2"]
    )
    assert_usage_error(result, f"budget of {MAX_WORD_LENGTH} modes (at byte {len(term) + 9})")


# --- the level budget of the integral commands ---

def test_rigidity_integral_at_level_budget():
    result = runner.invoke(main, ["rigidity", "integral", "--k", str(MAX_LEVEL)])
    assert result.exit_code == 0, result.output
    assert f"final relation: {MAX_LEVEL + 1}*c = 0" in result.output


def test_singular_check_at_level_budget():
    result = runner.invoke(main, ["singular-check", "--label", f"integral:k={MAX_LEVEL}"])
    assert result.exit_code == 0, result.output
    assert "singular: True" in result.output


@pytest.mark.parametrize("k", [MAX_LEVEL + 1, 10**9])
@pytest.mark.parametrize(
    "argv",
    [["rigidity", "integral", "--k", "{k}"], ["singular-check", "--label", "integral:k={k}"]],
    ids=["rigidity-integral", "singular-check"],
)
def test_level_past_budget_exits_2(argv, k):
    # refused before any computation: a level of 10**9 would not finish
    result = runner.invoke(main, [arg.format(k=k) for arg in argv])
    assert_usage_error(result, f"level {k} is above the budget of {MAX_LEVEL}")
    assert result.output.splitlines()[-1] == (
        f"Error: level {k} is above the budget of {MAX_LEVEL}"
    )


# --- the rank budget of --algebra slN ---

def test_rigidity_integral_at_rank_budget():
    result = runner.invoke(main, ["rigidity", "integral", "--algebra", f"sl{MAX_RANK}", "--k", "1"])
    assert result.exit_code == 0, result.output
    assert "final relation: 2*c = 0" in result.output


@pytest.mark.parametrize(
    "rank", [f"{MAX_RANK + 1}", "50", "9" * 5000, f"00{MAX_RANK + 1}"], ids=["11", "50", "5000-digits", "011"]
)
def test_rank_past_budget_exits_2(rank):
    # refused on the digits, before int() or sln run: past 10 the labels collide
    result = runner.invoke(main, ["pbw-basis", "--algebra", f"sl{rank}", "--weight", "1"])
    assert_usage_error(result, f"rank {rank.lstrip('0')} is above the budget of {MAX_RANK}")
    assert result.output.splitlines()[-1] == (
        f"Error: rank {rank.lstrip('0')} is above the budget of {MAX_RANK}"
    )


# --- the dimension budget of a structure file ---

def inert_algebra_file(path, dim):
    """sl2 plus ``dim - 3`` labels that bracket and pair to zero: valid, of dimension dim."""
    labels = " ".join(f"x{i}" for i in range(dim - 3))
    path.write_text(
        f"basis e h f {labels}\n[h,e] = 2*e\n[h,f] = -2*f\n[e,f] = h\n"
        "<e,f> = 1\n<h,h> = 2\ntriple e h f\n"
    )
    return str(path)


def test_structure_file_at_dimension_budget_loads(tmp_path):
    assert MAX_DIM == MAX_RANK**2 - 1 == 99
    algebra = inert_algebra_file(tmp_path / "alg.txt", MAX_DIM)
    result = runner.invoke(main, ["pbw-basis", "--algebra", algebra, "--weight", "1"])
    assert result.exit_code == 0, result.output
    assert len(result.output.splitlines()) == MAX_DIM


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 1503])
def test_structure_file_past_dimension_budget_exits_2(tmp_path, monkeypatch, dim):
    def refuse(*args):
        raise AssertionError("a table was built past the dimension budget")

    # refused on the basis line, before any table is built or validated
    monkeypatch.setattr(liealg, "LieAlgebra", refuse)
    monkeypatch.setattr(liealg, "validate", refuse)
    algebra = inert_algebra_file(tmp_path / "alg.txt", dim)
    result = runner.invoke(main, ["pbw-basis", "--algebra", algebra, "--weight", "1"])
    assert_usage_error(result, f"basis has {dim} labels, above the budget of {MAX_DIM}")


def test_structure_file_past_join_budget_exits_2(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("an algebra was built past the join budget")

    monkeypatch.setattr(liealg, "LieAlgebra", refuse)
    monkeypatch.setattr(liealg, "validate", refuse)
    # 96 labels with [x_i,x_j] = x_0 + ... + x_5 for i < j: each of the 96*95*6
    # stored terms meets 95 rows of 6 terms, and sl2 adds 12
    labels = [f"x{i}" for i in range(96)]
    rhs = " + ".join(labels[:6])
    path = tmp_path / "alg.txt"
    path.write_text(
        f"basis e h f {' '.join(labels)}\n[h,e] = 2*e\n[h,f] = -2*f\n[e,f] = h\n"
        "<e,f> = 1\n<h,h> = 2\ntriple e h f\n"
        + "".join(f"[{x},{y}] = {rhs}\n" for i, x in enumerate(labels) for y in labels[i + 1:])
    )
    result = runner.invoke(main, ["pbw-basis", "--algebra", str(path), "--weight", "1"])
    assert_usage_error(
        result,
        f"cannot load algebra {str(path)!r}: validate's Jacobi join would sum 31190412 terms, "
        f"above the budget of {liealg.MAX_JOIN}",
    )


@pytest.mark.parametrize("head", ["basis", "triple"])
def test_structure_file_second_line_exits_2(tmp_path, head):
    path = tmp_path / "alg.txt"
    path.write_text(
        "basis e h f\n[h,e] = 2*e\n[h,f] = -2*f\n[e,f] = h\n<e,f> = 1\n<h,h> = 2\n"
        f"triple f h e\n{head} e h f\n"
    )
    result = runner.invoke(main, ["pbw-basis", "--algebra", str(path), "--weight", "1"])
    assert_usage_error(result, f"cannot load algebra {str(path)!r}: line 8: second '{head}' line")


# --- numbers: ASCII digits, and a digit budget per option value ---

NINES = "9" * 4300
PAST_LITERAL_BUDGET = [
    # each of these once reached int-to-str conversion past its 4300-digit limit
    (["--mode", "f(1)", "--state", "e(-1)|0>", "--level", "1e5000"], "not a rational literal"),
    (["--mode", "f(1)", "--state", f"{NINES}*e(-1)^3|0>", "--level", "5"],
     f"--state has 4302 digits, above the budget of {MAX_LITERAL_DIGITS}"),
    (["--mode", f"f({NINES})", "--state", f"e(-{NINES})|0>", "--level", "5"],
     f"--mode has 4300 digits, above the budget of {MAX_LITERAL_DIGITS}"),
    # terms on one word add up, so the budget counts every number of the value
    (["--mode", "h(-1)", "--state", " + ".join(f"1/{10**999 + i}*|0>" for i in range(7)),
      "--level", "1"], "--state has 7007 digits, above the budget"),
]


@pytest.mark.parametrize("argv,message", PAST_LITERAL_BUDGET, ids=range(len(PAST_LITERAL_BUDGET)))
def test_act_numbers_past_budget_exit_2(argv, message):
    assert_usage_error(runner.invoke(main, ["act", *argv]), message)


def test_act_at_literal_budget():
    # a depth and a level at the budget: the central term m*k*<h,h> has 2000 digits
    n = "9" * MAX_LITERAL_DIGITS
    result = runner.invoke(
        main, ["act", "--mode", f"h({n})", "--state", f"h(-{n})|0>", "--level", f"-{n[1:]}/7"]
    )
    assert result.exit_code == 0, result.output
    assert result.output == f"{Fraction(-2 * int(n) * int(n[1:]), 7)}*|0>\n"


@pytest.mark.parametrize("level", ["1e3", "1.5", "1_0", "\u0663/\u0664", " 2", "2/0"])
def test_level_takes_only_ascii_p_over_q(level):
    result = runner.invoke(main, ["act", "--mode", "f(1)", "--state", "e(-1)|0>", "--level", level])
    assert_usage_error(result, "not a rational literal")


@pytest.mark.parametrize("argv", [
    ["pbw-basis", "--algebra", "sl\u0663", "--weight", "1"],
    ["act", "--mode", "f(\u0661)", "--state", "e(-1)|0>", "--level", "2"],
    ["act", "--mode", "f(1)", "--state", "e(-1)^\u0663|0>", "--level", "2"],
    ["act", "--mode", "f(1)", "--state", "\u0663*e(-1)|0>", "--level", "2"],
])
def test_non_ascii_digits_exit_2(argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


# --- the exit-code contract on generated argv ---

# Exponents stay <= 2 and weights <= 3 so that every example runs in
# milliseconds and the test fits the tier-1 time budget: deep words such as
# e(-1)^5000 and large weights are known slow inputs (ROADMAP item 7), not
# contract breaks.
GENERATORS = st.sampled_from(["e", "h", "f"])
FACTORS = st.builds("{}({}){}".format, GENERATORS, st.integers(-3, -1), st.sampled_from(["", "^2"]))
TERMS = st.builds(
    "{}{}|0>".format,
    st.sampled_from(["", "2*", "-1/2*"]),
    st.lists(FACTORS, max_size=3).map("".join),
)
VALID_ARGVS = st.one_of(
    st.builds(
        lambda m, s, k: ["act", "--algebra", "sl2", "--mode", m, "--state", s, "--level", k],
        st.builds("{}({})".format, GENERATORS, st.integers(-2, 3)),
        st.lists(TERMS, min_size=1, max_size=2).map(" + ".join),
        st.integers(-3, 4).map(str) | st.sampled_from(["-4/3", "7/2"]),
    ),
    st.builds(
        lambda a, w, q: ["pbw-basis", "--algebra", a, "--weight", str(w), "--charge", str(q)],
        st.sampled_from(["sl2", "sl3"]), st.integers(0, 3), st.integers(-4, 4),
    ),
    st.builds(
        lambda label: ["singular-check", "--label", label],
        st.integers(1, 6).map("integral:k={}".format) | st.just("sl2:-4/3"),
    ),
    st.builds(
        lambda a, k: ["rigidity", "integral", "--algebra", a, "--k", str(k)],
        st.sampled_from(["sl2", "sl3"]), st.integers(1, 4),
    ),
)
# option -> values that must each end in exit 2 with a message
BAD_VALUES = {
    "--algebra": ["sl1", "sl0", "slx", "missing/x.txt", "sl11", "sl50", "sl" + "9" * 5000,
                  "sl\u0663"],
    "--mode": ["q(1)", "f(1", "f(1)e(2)", "h(1/2)", "", f"f({NINES})", "f(\u0661)"],
    "--state": ["", "e(-1)", "2/0*e(-1)|0>", "e(0)|0>", "q(-1)|0>", "e(-1)^0|0>",
                f"{NINES}*e(-1)^3|0>", f"e(-{NINES})|0>", "e(-1)^\u0663|0>"],
    "--level": ["1/0", "abc", "1_0", "", "1e5000", "1.5", "\u0663/\u0664"],
    "--weight": ["x", "-1", "\u0661", "1_0", " 2", NINES],
    "--charge": ["x", "", "\u0662", "1_0", NINES],
    "--k": ["abc", "1/0", "0", "-1", f"{MAX_LEVEL + 1}", "\u0663", "1_0", " 3", NINES],
    "--label": ["integral:k=1_0", "integral:k=+2", "integral:k= 3", "integral:k=0",
                "integral:k=-1", f"integral:k={MAX_LEVEL + 1}", "integral:k=zebra", "nonsense"],
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_exit_contract_on_generated_argv(data):
    argv = data.draw(VALID_ARGVS)
    if data.draw(st.booleans()):
        at = data.draw(st.sampled_from([i for i, arg in enumerate(argv) if arg in BAD_VALUES]))
        argv[at + 1] = data.draw(st.sampled_from(BAD_VALUES[argv[at]]))
    argv += data.draw(st.sampled_from([[], ["--format", "json"], ["--transcript"]]))
    result = runner.invoke(main, argv)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv,
        repr(result.exception),
    )
