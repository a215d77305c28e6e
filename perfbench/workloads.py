"""The four workloads: their seeded inputs, how each op runs, and how outputs are checked.

Inputs are plain data made from the seed, so the same seed gives the same
inputs.  Each seed only reorders a fixed multiset of operations or picks among
inputs of the same cost (levels, parameters of cheap commands), so the work a
round does is the same for every seed and the seed-to-seed spread of a metric
is the program's, not the generator's.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import facts

WORKLOADS = ("integral_sl2", "integral_sln", "normal_order_mixed", "cli_mix")
DEFAULT_SEED = 1

# Levels for normal_order_mixed: integral, and admissible sl2 levels -2 + p/q.
INTEGRAL_LEVELS = ("1", "2", "3", "4", "5", "6")
ADMISSIBLE_LEVELS = ("-4/3", "-1/2", "-8/5", "7/2", "-2/3", "-5/4")

# Unordered words for normal_order_mixed, drawn once at random (8-10 modes,
# depths 1-2) and then fixed, each with the positive mode applied after it.
# Normal-ordering cost varies over 100x between random words of one length,
# so drawing fresh words per seed would make run_s a property of the seed.
MIXED_WORDS = (
    ("sl2", "f(-1) f(-2) f(-2) e(-2) e(-2) e(-2) f(-1) e(-1)", "f(1)"),
    ("sl2", "h(-1) f(-1) f(-2) e(-1) e(-2) h(-1) f(-1) f(-2) h(-1)", "f(1)"),
    ("sl2", "f(-2) h(-1) e(-2) e(-2) h(-1) f(-1) h(-1) f(-1) e(-1)", "h(1)"),
    ("sl2", "f(-1) h(-1) f(-1) h(-2) e(-2) e(-2) e(-1) f(-1)", "e(2)"),
    ("sl3", "D1(-1) E31(-1) E21(-1) E32(-1) E32(-1) E12(-1) D1(-2) E12(-1) E21(-2)", "E32(1)"),
    ("sl3", "E23(-1) E31(-1) D2(-1) E32(-1) D2(-1) E21(-1) D1(-1) E31(-2) D1(-1) E21(-2)", "E31(1)"),
    ("sl3", "E31(-1) D2(-1) E13(-2) E32(-1) D2(-1) E13(-1) E32(-1) E32(-1) E12(-1)", "E13(1)"),
    ("sl3", "D2(-2) E23(-1) E31(-1) E12(-2) E32(-2) E13(-2) E31(-1) D2(-2)", "E31(1)"),
)
SWAP_CHECKS = 6  # seeded adjacent swaps checked per plain round


def parse_modes(text: str) -> tuple:
    out = []
    for token in text.split():
        label, depth = token.rstrip(")").split("(")
        out.append((label, int(depth)))
    return tuple(out)


# -- seeded plans (pure data) ------------------------------------------------

def plan(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "integral_sl2":
        ops = [("sl2", k) for k in range(2, 15)]
    elif workload == "integral_sln":
        # sln(3) at levels where its cost is flat and sln(4) in the middle, so the
        # median op is an sln(4) call rather than a boundary between level costs
        ops = [(3, k) for k in range(1, 5)] + [(4, k) for k in range(1, 6)] + [(5, 2)]
    elif workload == "normal_order_mixed":
        ops = []
        for idx in range(len(MIXED_WORDS)):
            levels = rng.sample(INTEGRAL_LEVELS, 2) + rng.sample(ADMISSIBLE_LEVELS, 3)
            ops += [(idx, level) for level in levels]
    elif workload == "cli_mix":
        ops = cli_plan(rng)
    else:
        raise KeyError(workload)
    rng.shuffle(ops)
    return ops


# Two invocations that exit 1 with a traceback, where exit 2 with a message is
# promised; they stay in every round and count as failed until the program is fixed.
KNOWN_FAULTS = (
    ("act", "--mode", "f(1)", "--state", "2/0*e(-1)|0>", "--level", "2"),
    ("pbw-basis", "--algebra", "sl1", "--weight", "2"),
)


def cli_plan(rng: random.Random) -> list:
    ops = [("rigidity", "admissible-sl2", "--format", "json", "--transcript")] * 4
    ops += [("cross-check", "--format", "json")] * 4
    ops += [("singular-check", "--label", "sl2:-4/3", "--format", "json")] * 3
    ops += [
        ("singular-check", "--label", f"integral:k={n}", "--format", "json")
        for n in rng.sample(range(1, 7), 4)
    ]
    ops += [
        ("rigidity", "integral", "--algebra", "sl2", "--k", str(k), "--format", "json")
        for k in rng.sample(range(1, 9), 6)
    ]
    ops += [
        ("rigidity", "integral", "--algebra", "sl3", "--k", str(k), "--format", "json")
        for k in rng.sample(range(1, 5), 3)
    ]
    strata = [("sl2", 6, None), ("sl2", 8, 0), ("sl2", 7, 2), ("sl2", 5, -2),
              ("sl3", 4, 0), ("sl3", 3, None), ("sl3", 4, 2), ("sl3", 3, 1)]
    for algebra, weight, charge in strata:
        argv = ("pbw-basis", "--algebra", algebra, "--weight", str(weight))
        if charge is not None:
            argv += ("--charge", str(charge))
        ops.append(argv + ("--format", "json"))
    levels = rng.sample(("1", "2", "3", "5", "7/2", "-4/3", "-1/2", "-8/5"), 8)
    for n, level in zip((2, 3, 4, 5, 6, 8, 10, 12), levels):
        ops.append(("act", "--mode", "f(1)", "--state", f"e(-1)^{n}|0>",
                    "--level", level, "--format", "json"))
    ops += list(KNOWN_FAULTS)
    return ops


# -- in-process execution ---------------------------------------------------

class Context:
    """The imported package and the workload's algebras, built during set-up."""

    def __init__(self, workload: str):
        import affdef

        self.affdef = affdef
        self.algebras = {}
        if workload == "integral_sl2":
            self.algebras["sl2"] = affdef.sl2()
        elif workload == "integral_sln":
            for n in (3, 4, 5):
                self.algebras[n] = affdef.sln(n)
        else:
            self.algebras["sl2"] = affdef.sl2()
            self.algebras["sl3"] = affdef.sln(3)
        if workload == "cli_mix":
            import affdef.cli

            self.cli = affdef.cli


def run_op(ctx: Context, workload: str, spec):
    """Run one op in process and return its output."""
    A = ctx.affdef
    if workload == "integral_sl2" or workload == "integral_sln":
        algebra, k = spec
        return A.integral_pipeline(ctx.algebras[algebra], k)
    if workload == "normal_order_mixed":
        idx, level = spec
        algebra, word_text, mode_text = MIXED_WORDS[idx]
        g = ctx.algebras[algebra]
        k = Fraction(level)
        word = [A.Mode(g.index(label), depth) for label, depth in parse_modes(word_text)]
        (label, depth), = parse_modes(mode_text)
        state = A.normal_order(g, word, k)
        return state, A.apply_mode(g, g.index(label), depth, state, k)
    if workload == "cli_mix":
        return run_cli_in_process(ctx.cli, spec)
    raise KeyError(workload)


def run_cli_in_process(cli, argv):
    """``main(argv, standalone_mode=False)`` with stdout captured: (exit, stdout, error)."""
    import click

    out = io.StringIO()
    code, error = 0, ""
    with contextlib.redirect_stdout(out):
        try:
            cli.main(list(argv), standalone_mode=False)
        except click.ClickException as exc:
            code, error = exc.exit_code, exc.format_message()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is a traceback at the command line
            code, error = 1, f"Traceback: {type(exc).__name__}: {exc}"
    return code, out.getvalue(), error


# -- checks -----------------------------------------------------------------

def check_op(workload: str, spec, output, ctx: Context) -> str:
    """Return ``"ok"``, ``"failed"`` (the op itself failed) or ``"wrong: ..."``."""
    if isinstance(output, Exception):
        return "failed"
    if workload in ("integral_sl2", "integral_sln"):
        _, k = spec
        data = output.to_jsonable()
        if data["c_forced_zero"] is not True:
            return f"wrong: c not forced at k={k}"
        if data["final_relation"] != {"c": k + 1}:
            return f"wrong: final relation {data['final_relation']} at k={k}"
        return "ok"
    if workload == "normal_order_mixed":
        return check_mixed(ctx, spec, output)
    if workload == "cli_mix":
        code, stdout, stderr = output
        return check_cli(spec, code, stdout, stderr)
    raise KeyError(workload)


def _rank_of(algebra: str) -> int:
    return 2 if algebra == "sl2" else int(algebra[2:])


def _grading(n: int, word) -> tuple:
    chi = facts.charges(n)
    return sum(-d for _, d in word), sum(chi[label] for label, _ in word)


def _labelled_terms(state, labels) -> dict:
    """State as ``{((label, depth), ...): Fraction}``, read from the printed coefficients.

    A normal-ordered state has rational coefficients; a symbolic one raises ValueError.
    """
    return {tuple((labels[gen], depth) for gen, depth in word): Fraction(str(coeff))
            for word, coeff in state.items()}


def check_mixed(ctx: Context, spec, output) -> str:
    idx, level = spec
    algebra, word_text, mode_text = MIXED_WORDS[idx]
    n = _rank_of(algebra)
    labels = ctx.algebras[algebra].basis
    state, image = output
    want = _grading(n, parse_modes(word_text))
    (mode_label, mode_depth), = parse_modes(mode_text)
    shifted = (want[0] - mode_depth, want[1] + facts.charges(n)[mode_label])
    if not state:
        return f"wrong: normal_order of word {idx} vanished"
    for what, st, grading in (("normal_order", state, want), ("positive mode", image, shifted)):
        for w in st.words():
            got = _grading(n, [(labels[gen], depth) for gen, depth in w])
            if got != grading:
                return (f"wrong: {what} term of (weight, charge) {got}, want {grading} "
                        f"({algebra} word {idx} at {level})")
    return "ok"


def swap_checks(ctx: Context, specs: list, seed: int) -> list:
    """Seeded adjacent swaps: w - swap(w) must equal the normal-ordered [a,b](m+n) term."""
    A = ctx.affdef
    rng = random.Random(f"swap:{seed}")
    errors = []
    for idx, level in rng.sample(specs, SWAP_CHECKS):
        algebra, word_text, _ = MIXED_WORDS[idx]
        n = _rank_of(algebra)
        g = ctx.algebras[algebra]
        labels = g.basis
        k = Fraction(level)
        word = list(parse_modes(word_text))
        spots = [i for i in range(len(word) - 1)
                 if facts.bracket(n, word[i][0], word[i + 1][0])]
        i = rng.choice(spots)
        (a, m), (b, p) = word[i], word[i + 1]
        swapped = word[:i] + [(b, p), (a, m)] + word[i + 2:]

        def no(w):
            modes = [A.Mode(g.index(lab), d) for lab, d in w]
            return _labelled_terms(A.normal_order(g, modes, k), labels)

        try:
            lhs = _subtract(no(word), no(swapped))
            rhs = {}
            for x, c in facts.bracket(n, a, b).items():
                for w, v in no(word[:i] + [(x, m + p)] + word[i + 2:]).items():
                    rhs[w] = rhs.get(w, 0) + c * v
        except Exception as exc:  # a symbolic coefficient, or normal_order itself raised
            errors.append(f"wrong: {algebra} word {idx} at {level}: {type(exc).__name__}: {exc}")
            continue
        rhs = {w: v for w, v in rhs.items() if v}
        if lhs != rhs:
            errors.append(f"wrong: swapping {a}({m}) {b}({p}) in {algebra} word {idx} at {level}")
    return errors


def _subtract(x: dict, y: dict) -> dict:
    out = dict(x)
    for w, v in y.items():
        out[w] = out.get(w, 0) - v
    return {w: v for w, v in out.items() if v}


def check_cli(argv, code: int, stdout: str, stderr: str) -> str:
    if "Traceback" in stderr:
        return "failed"
    if tuple(argv) in KNOWN_FAULTS:
        # the README promises exit 2 with a usage message for these inputs
        return "ok" if code == 2 and stderr.strip() else "failed"
    if code != 0:
        return "failed"
    try:
        data = json.loads(stdout)
    except ValueError:
        return f"wrong: output of {' '.join(argv)} is not JSON"
    command = argv[0]
    if command == "rigidity" and argv[1] == "admissible-sl2":
        if data["final_relation"] != {"c": 10} or data["c_forced_zero"] is not True:
            return f"wrong: admissible verdict {data['final_relation']}"
        if len(data["equations"]) != 5 or not data["steps"]:
            return "wrong: admissible verdict lacks its five equations or its transcript"
        if not facts.unit_in_row_space(data["equations"], "c"):
            return "wrong: c is not in the row space of the admissible equations"
        return "ok"
    if command == "rigidity":
        k = int(argv[argv.index("--k") + 1])
        if data["final_relation"] != {"c": k + 1} or data["c_forced_zero"] is not True:
            return f"wrong: integral verdict {data['final_relation']} at k={k}"
        return "ok"
    if command == "cross-check":
        if len(data) != 10 or any(e["status"] not in ("match", "residual", "mismatch") for e in data):
            return "wrong: cross-check entries"
        return "ok"
    if command == "singular-check":
        return "ok" if data["singular"] is True else f"wrong: {data['label']} not singular"
    if command == "pbw-basis":
        n = _rank_of(argv[argv.index("--algebra") + 1])
        weight = int(argv[argv.index("--weight") + 1])
        charge = int(argv[argv.index("--charge") + 1]) if "--charge" in argv else None
        want = facts.pbw_count(n, weight, charge)
        if data["count"] != want or len(data["basis"]) != want:
            return f"wrong: pbw-basis count {data['count']}, generating function gives {want}"
        return "ok"
    if command == "act":
        n = int(argv[argv.index("--state") + 1].split("^")[1].split("|")[0])
        k = Fraction(argv[argv.index("--level") + 1])
        coeff, power = facts.act_f1_on_e_power(n, k)
        got = facts.parse_e_power(data["result"])
        if got != ((coeff, power) if coeff else (Fraction(0), None)):
            return f"wrong: f(1) e(-1)^{n} at {k} gave {data['result']}"
        return "ok"
    return f"wrong: unchecked command {command}"
