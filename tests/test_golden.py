"""Byte-exact outputs of the CLI and of the library renderers, checked against tests/golden/.

Every case renders to text; the text must match the stored file byte for byte.
The corpus pins the spellings that differ on purpose (``h^def(1) e(-3)|0>`` in
atom labels, ``h(1)h^def(-1)e(-2)|0>`` in def-terms, ``c*...`` in states
against ``(c)*...`` in def-expressions).  After an intended output change,
rewrite the corpus with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from affdef.cli import main
from affdef.deform import DefAtom, DefExpression, mode_identity
from affdef.liealg import sl2, sln
from affdef.pbw import Kernel, Mode
from affdef.rigidity import (
    admissible_pipeline,
    admissible_sl2_rule_table,
    cross_check,
    integral_pipeline,
)
from affdef.scalar import LinForm
from affdef.singular import SINGULAR_COEFFS
from test_deform import spelled_commute

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "admissible-sl2": ["rigidity", "admissible-sl2"],
    "integral-sl2-k3": ["rigidity", "integral", "--algebra", "sl2", "--k", "3"],
    "integral-sl3-k2": ["rigidity", "integral", "--algebra", "sl3", "--k", "2"],
    "cross-check": ["cross-check"],
    "singular-sl2-admissible": ["singular-check", "--label", "sl2:-4/3"],
    "singular-integral-k3": ["singular-check", "--label", "integral:k=3"],
    "pbw-basis-sl3-w3": ["pbw-basis", "--algebra", "sl3", "--weight", "3"],
    "act-h1": ["act", "--mode", "h(1)", "--state", "-48*h(-1)e(-2)|0> + 80*e(-3)|0>",
               "--level", "-4/3"],
}

CLI_CASES = {
    f"cli/{name}.{fmt}{'.transcript' if transcript else ''}.txt":
        argv + ["--format", fmt] + (["--transcript"] if transcript else [])
    for name, argv in COMMANDS.items()
    for fmt in ("text", "json")
    for transcript in (False, True)
}


def run_cli(argv) -> str:
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code == 0, result.output
    return result.output


def registry_dump() -> str:
    return admissible_sl2_rule_table(sl2()).dump() + "\n"


def mode_identities() -> str:
    g = sl2()
    lines = []
    for m, n in ((1, -1), (0, -1), (2, -2)):
        for a in range(g.dim):
            for b in range(g.dim):
                a_, b_ = g.label(a), g.label(b)
                lines.append(
                    f"[{a_}^def({m}), {b_}({n})] + [{a_}({m}), {b_}^def({n})] = "
                    f"{mode_identity(g, a, m, b, n).render(g)}"
                )
    return "\n".join(lines) + "\n"


def def_expressions() -> str:
    g = sl2()
    e, h, f = g.theta
    kernel = Kernel(g, Fraction(-4, 3))
    c = LinForm.symbol("c")
    lines = []
    for a, m, b, n, w in (
        (f, 1, e, -1, ()),
        (h, 1, h, -1, (Mode(e, -1),)),
        (f, 1, h, -1, (Mode(e, -2),)),
        (h, 2, f, -2, (Mode(e, -1), Mode(e, -1))),
        (e, 0, f, -1, (Mode(h, -1),)),
    ):
        lines.append(spelled_commute(kernel, a, m, b, n, w).render(g))
    lines.append(DefExpression.atom(DefAtom(h, -1, (Mode(e, -2),)), c).render(g))
    lines.append(DefExpression.atom(DefAtom(f, 1, (Mode(e, -1),)), c + 1).render(g))
    lines.append(DefExpression.atom(DefAtom(e, -1, ()), Fraction(-3, 2)).render(g))
    lines.append(DefExpression().render(g))
    return "\n".join(lines) + "\n"


# integral levels per rank N of sl_N, and the admissible combinations
INTEGRAL_LEVELS = {2: range(1, 15), 3: range(1, 5), 4: range(1, 6), 5: (2,)}
ADMISSIBLE_COMBINATIONS = {
    "display": None,
    "singular": SINGULAR_COEFFS,
    "degenerate": (0, 0, 0, 0, 1),
}


def pipelines() -> str:
    """Verdict JSON with steps and the rendered transcript of every pipeline run."""
    runs = []
    for n, levels in INTEGRAL_LEVELS.items():
        g = sl2() if n == 2 else sln(n)
        runs += [(f"integral sl{n} k={k}", integral_pipeline(g, k)) for k in levels]
    runs += [
        (f"admissible-sl2 {name}", admissible_pipeline(combination))
        for name, combination in ADMISSIBLE_COMBINATIONS.items()
    ]
    lines = []
    for label, verdict in runs:
        lines.append(f"# {label}")
        lines.append(json.dumps(verdict.to_jsonable(include_steps=True), sort_keys=True))
        lines.append(verdict.transcript.render())
    lines.append("# cross-check")
    lines += [json.dumps(e._asdict(), sort_keys=True) for e in cross_check()]
    return "\n".join(lines) + "\n"


LIBRARY_CASES = {
    "library/admissible-rule-table.txt": registry_dump,
    "library/mode-identities.txt": mode_identities,
    "library/def-expressions.txt": def_expressions,
    "library/pipelines.txt": pipelines,
}


def render_case(name: str) -> str:
    if name in CLI_CASES:
        return run_cli(CLI_CASES[name])
    return LIBRARY_CASES[name]()


@pytest.mark.parametrize("name", list(CLI_CASES) + list(LIBRARY_CASES))
def test_golden(name):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert render_case(name) == want


if __name__ == "__main__":
    for case in list(CLI_CASES) + list(LIBRARY_CASES):
        path = GOLDEN / case
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_case(case), encoding="utf-8")
        print(f"wrote {path}")
