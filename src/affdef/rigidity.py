"""The two rigidity pipelines with their stated inputs, the exact solver, and verdicts.

Both pipelines extract linear relations on the deformation constant ``c`` by
evaluating def-modes against a singular relation of the quotient module.  Every
extracted relation lives in a weight stratum strictly below the lowest weight
of the ideal, where universal and simple-quotient coordinates agree, so the
coefficient equations are valid verbatim.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .deform import (
    DefAtom,
    DefExpression,
    DefTerm,
    RuleRegistry,
    UnresolvedAtom,
    d_shift,
    def_label,
    evaluate,
    generator_value,
    register_ansatz,
)
from .liealg import LieAlgebra, sl2, validate
from .pbw import Kernel, Mode, State, normal_order, render_word
from .scalar import LinForm, add_scaled, as_linform, format_rational, signed_sum, symbol_sort_key
from .singular import ADMISSIBLE_LEVEL, WEIGHT3_WORDS


class PipelineStuck(Exception):
    pass


class SystemMismatch(Exception):
    pass


class Step(NamedTuple):
    rule: str
    detail: str
    output: str = ""


class ProofTranscript:
    """The numbered steps of a pipeline run and the relation it concludes.

    The one mutable record: a pipeline appends steps and then sets ``conclusion``.
    """

    __slots__ = ("steps", "conclusion")

    def __init__(self, steps=None, conclusion: LinForm = None):
        self.steps = [] if steps is None else steps
        self.conclusion = conclusion

    def __eq__(self, other):
        if not isinstance(other, ProofTranscript):
            return NotImplemented
        return self.steps == other.steps and self.conclusion == other.conclusion

    def __repr__(self):
        return f"ProofTranscript(steps={self.steps!r}, conclusion={self.conclusion!r})"

    def add(self, rule: str, detail: str, output: str = ""):
        self.steps.append(Step(rule, detail, output))

    def render(self) -> str:
        lines = []
        for i, step in enumerate(self.steps, 1):
            line = f"{i:3d}. [{step.rule}] {step.detail}"
            if step.output:
                line += f" => {step.output}"
            lines.append(line)
        if self.conclusion is not None:
            lines.append(f"conclusion: {self.conclusion} = 0")
        return "\n".join(lines)

    def to_jsonable(self) -> list:
        return [
            {"rule": s.rule, "detail": s.detail, "output": s.output} for s in self.steps
        ]


def eliminate(equations) -> LinForm | None:
    """Decide whether the homogeneous equations force c = 0.

    Forward elimination over the rationals on sparse ``symbol -> coefficient``
    rows, pivoting on the symbols in ``symbol_sort_key`` order, which puts
    ``c`` last.  So the c-unit vector lies in the row space exactly when a row
    still holds ``c`` once every other pivot has been eliminated, and such a
    row holds nothing else.  Returns that row scaled to ``1*c``, or ``None``.
    The pivot row for a symbol is the shortest row holding it, the first of
    those on a tie, so that little fills in; it cannot change the verdict,
    which only the column order decides.
    Deformation equations are linear in the unknowns, so a constant term is a
    pipeline bug and raises ``ValueError``.
    """
    rows = []
    for eq in equations:
        if eq.constant:
            raise ValueError(f"equation has a constant term: {eq} = 0")
        rows.append(dict(eq.terms))
    for name in sorted({name for row in rows for name in row}, key=symbol_sort_key):
        at = min(
            (i for i, row in enumerate(rows) if name in row),
            key=lambda i: len(rows[i]),
            default=None,
        )
        if at is None:
            continue
        if name == "c":
            return LinForm.symbol("c")
        pivot = rows.pop(at)
        for row in rows:
            if name in row:
                add_scaled(row, pivot, Fraction(-row[name], pivot[name]))
    return None


class Verdict(NamedTuple):
    pipeline: str
    level: Fraction
    c_forced_zero: bool
    final_relation: LinForm
    equations: list
    transcript: ProofTranscript
    quarantine: tuple = ()

    def to_jsonable(self, include_steps: bool = False) -> dict:
        return {
            "pipeline": self.pipeline,
            "level": format_rational(self.level),
            "equations": [linform_jsonable(eq) for eq in self.equations],
            "final_relation": linform_jsonable(self.final_relation),
            "c_forced_zero": self.c_forced_zero,
            "quarantine": list(self.quarantine),
            "steps": self.transcript.to_jsonable() if include_steps else [],
        }


def linform_jsonable(lin: LinForm) -> dict:
    out = {}
    if lin.constant:
        out["const"] = rational_jsonable(lin.constant)
    for name in lin.symbols():
        out[name] = rational_jsonable(lin.terms[name])
    return out


def rational_jsonable(q: Fraction):
    return int(q) if q.denominator == 1 else format_rational(q)


def check_power_rule_ingredients(kernel: Kernel) -> None:
    """Check the vanishing ingredients of e^def(-1) e(-1)^j |0>, the same for every j.

    The double-sum expansion of this mode only involves e(alpha) e(-1)|0> and
    e^def(alpha) e(-1)|0> for alpha >= 0; both vanish (nilpotent direction, and
    modes with alpha >= 2 land below weight zero), so every summand is zero.
    The modes act with ``kernel``, the mode action at the level checked, on
    the id of e(-1)|0> in its word table.
    """
    g = kernel.g
    e = g.theta[0]
    single = {kernel.cons((e, -1, 0)): 1}
    for alpha in range(0, 4):
        if kernel.chain_ids(((e, alpha),), single) or generator_value(g, e, alpha, e):
            raise ArithmeticError(
                f"nonzero ingredient at alpha={alpha}: the vanishing argument fails"
            )


def integral_pipeline(g: LieAlgebra, k: int) -> Verdict:
    """Run the positive-integral-level computation and force c = 0.

    Registers the stated power rule, computes the Cartan rules with the
    evaluator, reduces f^def(1) e(-1)^(k+1)|0> mechanically, and extracts the
    relation (k+1)*c = 0 as the coefficient of e(-1)^k|0> in that image.
    The powers e(-1)^j|0> are built once as word ids of the registry's kernel,
    and every rule is registered and every atom evaluated by its id key
    ``(gen, depth, word id)``; words are spelled only for the errors, and the
    transcript writes each power from its exponent.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"level must be a positive integer, got {k!r}")
    report = validate(g)
    if not report.ok:
        raise ValueError(f"algebra fails validation: {report}")
    e, h, f = g.theta
    transcript = ProofTranscript()
    transcript.add("setup", f"algebra validated; level k = {k}")

    # an atom's text spells its power as e(-1)^n|0>, n = 1 included, and
    # power_text spells e(-1)^n|0> as render_word does, from n alone
    e1 = f"{g.label(e)}(-1)"
    e_def, h_def, f_def = def_label(g, e, -1), def_label(g, h, 0), def_label(g, f, 1)

    def atom_text(label, n):
        return f"{label}{e1}^{n}|0>"

    def power_text(n):
        return "|0>" if not n else f"{e1}|0>" if n == 1 else f"{e1}^{n}|0>"

    registry = RuleRegistry(g, k)
    kernel = registry.kernel
    check_power_rule_ingredients(kernel)
    # powers[j] is the id of e(-1)^j|0>: a prepend onto the previous power,
    # canonical by construction
    powers = [0]
    for _ in range(k + 1):
        powers.append(kernel.cons((e, -1, powers[-1])))

    def value_of(gen, depth, n):
        # the atom's value by evaluate, over ids: the one-term root _over_ids builds
        return evaluate((((1, (), (gen, depth, powers[n])),), {}), registry)

    def rendered(ids):
        return State({kernel.spell(wid): coeff for wid, coeff in ids.items()}).render(g)

    for j in range(1, k + 1):
        registry.register_value((e, -1, powers[j]), State.zero(), "derived:power-rule")
        transcript.add("power-rule", f"{atom_text(e_def, j)} := 0", "all ingredients vanish")
    try:
        # each power takes one master-commute step over the previous,
        # registered power and the power rule
        for p in range(1, k + 1):
            value = value_of(h, 0, p)
            if value:
                raise SystemMismatch(
                    f"{atom_text(h_def, p)} evaluated to {rendered(value)}, not 0"
                )
            registry.register_value((h, 0, powers[p]), State.zero(), "derived:cartan-induction")
            transcript.add("cartan-rule", f"{atom_text(h_def, p)} := 0", f"{p + 1}-step induction")
        registry.freeze()

        for i in range(1, k + 2):
            got = value_of(f, 1, i)
            if got != {powers[i - 1]: LinForm.symbol("c", i)}:
                raise SystemMismatch(
                    f"reduction of {atom_text(f_def, i)} gave {rendered(got)}"
                )
            transcript.add(
                "reduce",
                atom_text(f_def, i),
                f"{i}*c*{power_text(i - 1)}",
            )
    except UnresolvedAtom as exc:
        raise PipelineStuck(str(exc)) from exc

    transcript.add(
        "telescope",
        f"0 = {atom_text(f_def, k + 1)} (the power generates the ideal)",
    )
    for i in range(k, 0, -1):
        done = k + 1 - i
        prefix = f"{e1}*" if done == 1 else f"{e1}^{done}*"
        transcript.add(
            "telescope",
            f"0 = {prefix}{atom_text(f_def, i)} + {done}*c*{e1}^{k}|0>",
        )
    # the image of the ideal's generator, read off below the ideal's weight
    relation = as_linform(got.get(powers[k], 0))
    transcript.add(
        "extract",
        f"coefficient of {power_text(k)} at weight {k}, below the ideal's weight {k + 1}",
        f"{relation} = 0",
    )
    forced = eliminate([relation]) is not None
    transcript.add("solve", "row reduction on the extracted relation", f"c forced: {forced}")
    transcript.conclusion = relation
    return Verdict(
        pipeline="integral",
        level=Fraction(k),
        c_forced_zero=forced,
        final_relation=relation,
        equations=[relation],
        transcript=transcript,
    )


# The five equations of the level -4/3 system, frozen coefficient-for-coefficient,
# in the reporting order (three charge-0 rows, then two charge-2 rows).
ADMISSIBLE_EQUATIONS = (
    {"a3": 84, "a4": 168, "a5": -28, "b3": -18, "b4": -36, "b5": 6,
     "c3": -12, "c4": -24, "c5": 4, "c": 12},
    {"a2": -42, "a4": -56, "b2": 9, "b4": 12, "c2": 6, "c4": 8, "c": 9},
    {"a1": -42, "a3": -56, "b1": 9, "b3": 12, "c1": 6, "c3": 8, "c": -6},
    {"a2": 84, "a4": -560, "a5": 168, "b2": -18, "b4": 120, "b5": -36,
     "c2": -12, "c4": 80, "c5": -24, "c": 36},
    {"a1": 84, "a2": -280, "a3": -168, "a4": 784, "a5": -336, "b1": -18,
     "b2": 60, "b3": 36, "b4": -168, "b5": 72, "c1": -12, "c2": 40,
     "c3": 24, "c4": -112, "c5": 48, "c": -96},
)

# Eliminated-row contents reached by the stated row operations, up to scaling.
ELIMINATED_ROW_4 = {"a4": 112, "a5": -28, "b4": -24, "b5": 6, "c": -9, "c4": -16, "c5": 4}
ELIMINATED_ROW_5 = {"a4": 1288, "a5": -322, "b4": -276, "b5": 69, "c": -96,
                    "c4": -184, "c5": 46}

# Combination coefficients of the singular relation as used by the derivation.
DISPLAY_COMBINATION = (Fraction(-48), Fraction(6), Fraction(-6), Fraction(9), Fraction(80))


def _proportionality(lin: LinForm, row: dict):
    """Exact ratio lin / row if the supports agree and all ratios coincide."""
    if lin.constant or set(lin.terms) != set(row):
        return None
    ratio = None
    for name, coeff in row.items():
        r = lin.terms[name] / Fraction(coeff)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


def admissible_sl2_rule_table(g: LieAlgebra) -> RuleRegistry:
    """The ten authoritative depth-1 def-mode actions on the weight-3 words.

    These are inputs of the level -4/3 computation, registered as rewrites
    keyed by the traditional mixed-order spellings; the cross-check diagnostic
    attempts to re-derive each one independently.
    """
    k = ADMISSIBLE_LEVEL
    e, h, f = g.theta
    w1, w2, w3, w4, w5 = WEIGHT3_WORDS
    c = LinForm.symbol("c")
    registry = RuleRegistry(g, k)

    def expr(terms, tail=None):
        return DefExpression(terms, tail)

    def term(coeff, prefix, gen, depth, target):
        return DefTerm(coeff, prefix, DefAtom(gen, depth, target))

    f1 = (Mode(f, 1),)
    h1 = (Mode(h, 1),)
    e_m2 = (Mode(e, -2),)
    e_m1 = (Mode(e, -1),)
    ef = (Mode(e, -1), Mode(f, -1))
    he = (Mode(h, -1), Mode(e, -1))
    table = {
        DefAtom(f, 1, w1): expr([term(-1, f1, h, -1, e_m2)]),
        DefAtom(f, 1, w2): expr(
            [term(-1, f1, e, -1, ef)],
            State.monomial(ef, c.scale(2)),
        ),
        DefAtom(f, 1, w3): expr(
            [term(-1, f1, h, -2, e_m1)],
            State.monomial((Mode(h, -2),), c),
        ),
        DefAtom(f, 1, w4): expr(
            [term(-1, f1, h, -1, he)],
            State.monomial((Mode(h, -1), Mode(h, -1)), c),
        ),
        DefAtom(f, 1, w5): expr([]),
        DefAtom(h, 1, w1): expr(
            [term(-1, h1, h, -1, e_m2)],
            State.monomial(e_m2, c.scale(2)),
        ),
        DefAtom(h, 1, w2): expr([term(-1, h1, e, -1, ef)]),
        DefAtom(h, 1, w3): expr([term(-1, h1, h, -2, e_m1)]),
        DefAtom(h, 1, w4): expr(
            [term(-1, h1, h, -1, he)],
            normal_order(g, he, k).scale(c.scale(4)),
        ),
        DefAtom(h, 1, w5): expr([]),
    }
    for atom, rhs in table.items():
        registry.register_value(atom, rhs, "stated")
    return registry


def admissible_pipeline(combination=None) -> Verdict:
    """Run the level -4/3 computation on sl2 and force c = 0.

    Registers the stated rule table, the three ansatz expansions, and the
    translation constraint; evaluates the two depth-1 def-modes against the
    weight-3 singular relation; collects the five weight-2 coefficient
    equations; golden-checks them; and applies the stated row operations down
    to the final relation on c.
    """
    g = sl2()
    k = ADMISSIBLE_LEVEL
    e, h, f = g.theta
    transcript = ProofTranscript()
    sigma = tuple(combination) if combination is not None else DISPLAY_COMBINATION
    golden = combination is None

    registry = admissible_sl2_rule_table(g)
    registry.register_value(DefAtom(h, -1, (Mode(e, -1),)), State.zero(), "stated")
    transcript.add("input-rule", "h^def(-1)e(-1)|0> := 0")
    a_rule = register_ansatz(registry, DefAtom(h, -1, (Mode(e, -2),)), "a")
    b_rule = register_ansatz(registry, DefAtom(h, -1, (Mode(h, -1), Mode(e, -1))), "b")
    c_rule = register_ansatz(registry, DefAtom(e, -1, (Mode(e, -1), Mode(f, -1))), "c")
    for rule in (a_rule, b_rule, c_rule):
        transcript.add("ansatz", registry.render_atom(rule.atom), rule.value.render(g))
    # translation identity at m = -1 on e(-1)|0>, with h^def(-1)e(-1)|0> = 0:
    # h^def(-2)e(-1)|0> = -h^def(-1)e(-2)|0>
    translation = d_shift(registry, h, -1, State.monomial((Mode(e, -1),)))
    registry.register_value(DefAtom(h, -2, (Mode(e, -1),)), translation, "derived:translation")
    transcript.add("translation", "h^def(-2)e(-1)|0> := -h^def(-1)e(-2)|0>")
    registry.freeze()

    words = WEIGHT3_WORDS
    relation_text = signed_sum(
        ("-" if s < 0 else "") + f"{format_rational(abs(s))}*{render_word(g, w)}"
        for s, w in zip(sigma, words)
    )
    transcript.add("singular-relation", f"0 = {relation_text}")

    def image(gen):
        # a^def(1) on the relation, as one expression: evaluate is linear
        terms = [DefTerm(s, (), DefAtom(gen, 1, w)) for s, w in zip(sigma, words)]
        return evaluate(DefExpression(terms), registry)

    try:
        f_image = image(f)
        h_image = image(h)
    except UnresolvedAtom as exc:
        raise PipelineStuck(str(exc)) from exc
    transcript.add("mode-action", "f^def(1) on the relation", f_image.render(g))
    transcript.add("mode-action", "h^def(1) on the relation", h_image.render(g))

    ef_word = (Mode(e, -1), Mode(f, -1))
    hh_word = (Mode(h, -1), Mode(h, -1))
    h2_word = (Mode(h, -2),)
    e2_word = (Mode(e, -2),)
    eh_word = (Mode(e, -1), Mode(h, -1))
    if set(f_image.words()) - {ef_word, hh_word, h2_word}:
        raise SystemMismatch("unexpected monomials in the charge-0 image")
    if set(h_image.words()) - {e2_word, eh_word}:
        raise SystemMismatch("unexpected monomials in the charge-2 image")
    alpha = h_image.coefficient(e2_word)
    beta = h_image.coefficient(eh_word)
    equations = [
        f_image.coefficient(ef_word),
        f_image.coefficient(hh_word),
        f_image.coefficient(h2_word),
        # charge-2 rows are reported in the mixed-spelling basis
        # {e(-2)|0>, h(-1)e(-1)|0>}: (alpha, beta) -> (beta, alpha - 2*beta)
        beta,
        alpha - beta.scale(2),
    ]
    labels = ["e(-1)*f(-1)|0>", "h(-1)^2|0>", "h(-2)|0>", "h(-1)e(-1)|0>", "e(-2)|0>"]
    for label, eq in zip(labels, equations):
        transcript.add("collect", f"coefficient of {label}", f"{eq} = 0")

    eq1, eq2, eq3, eq4, eq5 = equations
    row4 = eq4 + eq2.scale(2)
    row5 = eq5 + eq3.scale(2) + eq2.scale(Fraction(-20, 3)) + eq1.scale(Fraction(10, 3))
    if golden:
        for idx, (eq, expected) in enumerate(zip(equations, ADMISSIBLE_EQUATIONS), 1):
            if eq != LinForm(0, expected):
                raise SystemMismatch(
                    f"collected equation {idx} does not match the expected row: {eq}"
                )
        transcript.add(
            "golden-check",
            "all five equations match the expected rows",
            f"c-coefficients are {tuple(row['c'] for row in ADMISSIBLE_EQUATIONS)}",
        )
        # the frozen rows fix both combinations, so these ratios are constants
        r4 = _proportionality(row4, ELIMINATED_ROW_4)
        r5 = _proportionality(row5, ELIMINATED_ROW_5)
        transcript.add("row-op", "eq4 + 2*eq2", f"({format_rational(r4)}) * expected row")
        transcript.add(
            "row-op",
            "eq5 + 2*eq3 - (20/3)*eq2 + (10/3)*eq1",
            f"({format_rational(r5)}) * expected row",
        )
    final = row5 + row4.scale(Fraction(23, 9))
    transcript.add("row-op", "previous + (23/9)*(eq4 + 2*eq2)", f"{final} = 0")
    quarantine = []
    if set(final.terms) != {"c"} or final.constant:
        quarantine.append(f"final combination is not supported on c alone: {final}")

    c_row = eliminate(equations)
    transcript.add(
        "solve",
        "exact row reduction over all sixteen unknowns",
        f"c forced: {c_row is not None}",
    )
    final_relation = final if not quarantine else (c_row or final)
    transcript.conclusion = final_relation
    return Verdict(
        pipeline="admissible-sl2",
        level=k,
        c_forced_zero=c_row is not None,
        final_relation=final_relation,
        equations=equations,
        transcript=transcript,
        quarantine=tuple(quarantine),
    )


class CrossCheckEntry(NamedTuple):
    label: str
    status: str  # "match" | "residual" | "mismatch"
    residual_atoms: list
    detail: str


def cross_check() -> list:
    """Attempt independent derivations of the stated rule table.

    Each identity is re-derived from the master commutator, the translation
    identity, and the generator pairing alone; the report lists the residual
    atoms whose vanishing would force a match.  Diagnostics only: never raises.
    """
    g = sl2()
    e, h, f = g.theta
    table = admissible_sl2_rule_table(g)
    base = RuleRegistry(g, ADMISSIBLE_LEVEL)
    base.register_value(DefAtom(h, -1, (Mode(e, -1),)), State.zero(), "stated")
    base.freeze()
    entries = []
    for gen in (f, h):
        for word in WEIGHT3_WORDS:
            atom = DefAtom(gen, 1, word)
            label = base.render_atom(atom)
            stated = table.lookup_value(atom).value
            # evaluate is linear, so one evaluation of derived - stated suffices
            tail_diff, term_diff = evaluate(
                DefExpression.atom(atom) + stated.scale(-1), base, collect_residual=True
            )
            if not tail_diff and not term_diff:
                entries.append(CrossCheckEntry(label, "match", [], ""))
            elif not tail_diff:
                atoms = sorted({base.render_atom(t.atom) for t in term_diff})
                entries.append(
                    CrossCheckEntry(
                        label,
                        "residual",
                        atoms,
                        "match forced if these atoms vanish",
                    )
                )
            else:
                entries.append(
                    CrossCheckEntry(
                        label, "mismatch", [], f"state discrepancy: {tail_diff.render(g)}"
                    )
                )
    return entries
