"""Command-line interface: a state-expression parser and subcommands for every pipeline.

Exit codes: 0 success (or verdict c = 0), 1 failed check or verdict c not
forced, 2 usage or parse errors.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import click

from . import rigidity, singular
from .liealg import MAX_DIM, MAX_RANK, InvalidRank, LieAlgebra, load_structure_file, sl2, sln
from .pbw import (
    Mode,
    State,
    apply_mode,
    basis_enum,
    is_canonical,
    normal_order,
    render_word,
    stratum_size,
    word_charge,
    word_weight,
)
from .scalar import add_scaled, format_rational, parse_rational


# The budgets of the input grammars.  The algebras' three are liealg's: MAX_RANK,
# checked here on the digits of --algebra slN, and MAX_DIM and MAX_JOIN, checked
# by the loader.

# Most modes a whole state may spell, over all its terms, checked before a
# word is expanded; also the highest weight pbw-basis lists.
MAX_WORD_LENGTH = 5_000
# Highest level k the integral commands accept, checked before any computation.
MAX_LEVEL = 100
# Most canonical words in the PBW stratum that one expansion may reach, counted by
# pbw.stratum_size before anything is expanded: the (weight, charge) stratum of
# each --state word that is not canonical (a canonical word is its own normal
# form), and the stratum that pbw-basis lists, the whole weight without --charge.
MAX_STRATUM = 10_000
# Most modes pbw-basis may list, counted as its stratum's words times its weight
# (the most modes a word of that weight holds) before anything is listed.
MAX_LISTED_MODES = 200_000
# Most digits of the numbers in one --level, --state or --mode value, all counted
# before any conversion, so that no result passes Python's 4300-digit int-to-str limit.
MAX_LITERAL_DIGITS = 1_000
# The label integral:k=N, with N in ASCII digits: int() alone also takes "1_0",
# "+2" and " 3".
INTEGRAL_LABEL = re.compile(r"integral:k=(-?[0-9]+)")


class StateSyntaxError(Exception):
    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


_TOKEN = re.compile(
    r"\s*(?:(?P<vac>\|0>)|(?P<number>[0-9]+(?:/[0-9]+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise StateSyntaxError(f"unrecognized input {text[pos]!r}", pos)
            break
        start = m.start(m.lastgroup)
        tokens.append((m.lastgroup, m.group(m.lastgroup), start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class ExprAST(NamedTuple):
    """Signed terms: (rational coefficient, word of ``Mode``s in the order spelled)."""

    terms: tuple

    def to_state(self, g: LieAlgebra, k) -> State:
        total = {}  # the sum of the terms, in State.__add__ order
        for coeff, word in self.terms:
            part = normal_order(g, word, k)
            if coeff:
                add_scaled(total, part, coeff)
        return State(total)


def parse_state(text: str, g: LieAlgebra) -> ExprAST:
    """Parse a signed sum of mode words applied to ``|0>``."""
    tokens = _tokenize(text)
    pos = 0
    spent = 0  # modes spelled by the terms parsed so far

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_int(context):
        sign = 1
        kind, value, off = peek()
        if kind == "op" and value in "+-":
            advance()
            sign = -1 if value == "-" else 1
            kind, value, off = peek()
        if kind != "number" or "/" in value:
            raise StateSyntaxError(f"expected an integer {context}", off)
        advance()
        return sign * int(value)

    def parse_term(sign):
        nonlocal spent
        coeff = Fraction(sign)
        kind, value, off = peek()
        if kind == "number":
            advance()
            try:
                coeff *= Fraction(value)
            except ZeroDivisionError:
                raise StateSyntaxError(f"zero denominator in {value!r}", off) from None
            kind, value, off = peek()
            if kind == "op" and value == "*":
                advance()
        word = []
        while True:
            kind, value, off = peek()
            if kind == "vac":
                advance()
                return coeff, tuple(word)
            if kind != "ident":
                raise StateSyntaxError("expected a generator or |0>", off)
            advance()
            ident_off = off
            try:
                gen = g.index(value)
            except KeyError:
                raise StateSyntaxError(f"unknown generator {value!r}", ident_off) from None
            kind, value, off = peek()
            if not (kind == "op" and value == "("):
                raise StateSyntaxError("expected '(' after generator", off)
            advance()
            depth = parse_int("as a mode depth")
            kind, value, off = peek()
            if not (kind == "op" and value == ")"):
                raise StateSyntaxError("expected ')'", off)
            advance()
            if depth >= 0:
                raise StateSyntaxError(f"depth {depth} is not a creation depth", ident_off)
            count, count_off = 1, ident_off
            kind, value, off = peek()
            if kind == "op" and value == "^":
                advance()
                kind, value, count_off = peek()
                digits = value.lstrip("0")
                if kind != "number" or "/" in value or not digits:
                    raise StateSyntaxError("expected a positive exponent", count_off)
                advance()
                # a literal too long to be within budget is never converted
                too_long = len(digits) > len(str(MAX_WORD_LENGTH))
                count = MAX_WORD_LENGTH + 1 if too_long else int(digits)
            if spent + count > MAX_WORD_LENGTH:
                raise StateSyntaxError(
                    f"state longer than the budget of {MAX_WORD_LENGTH} modes", count_off
                )
            spent += count
            word.extend([Mode(gen, depth)] * count)
            kind, value, off = peek()
            if kind == "op" and value == "*":
                advance()

    terms = []
    kind, value, off = peek()
    sign = 1
    if kind == "op" and value in "+-":
        advance()
        sign = -1 if value == "-" else 1
    terms.append(parse_term(sign))
    while True:
        kind, value, off = peek()
        if kind == "end":
            break
        if kind == "op" and value in "+-":
            advance()
            terms.append(parse_term(-1 if value == "-" else 1))
        else:
            raise StateSyntaxError("expected '+' or '-' between terms", off)
    return ExprAST(tuple(terms))


# a mode, piece by piece: a required piece that fails to match marks the first
# byte no mode can continue with
_MODE_PIECES = tuple(
    re.compile(piece)
    for piece in (
        r"\s*", r"[A-Za-z_][A-Za-z0-9_]*", r"\(", r"\s*", r"[+-]?", r"[0-9]+", r"\s*", r"\)", r"\s*"
    )
)


def parse_mode(text: str, g: LieAlgebra):
    """Parse a single mode like ``f(1)`` (any depth)."""
    parts, pos = [], 0
    for piece in _MODE_PIECES:
        m = piece.match(text, pos)
        if m is None:
            break
        parts.append(m.group())
        pos = m.end()
    if len(parts) < len(_MODE_PIECES) or pos < len(text):
        raise StateSyntaxError(f"bad mode {text!r}", pos)
    label = parts[1]
    try:
        gen = g.index(label)
    except KeyError:
        raise StateSyntaxError(f"unknown generator {label!r}", len(parts[0])) from None
    return Mode(gen, int(parts[4] + parts[5]))


# a number: a run of digits that is neither part of a label such as E13 nor the 0 of |0>
_NUMBER = re.compile(r"(?<![A-Za-z0-9_|])[0-9]+")


def check_literals(option: str, text: str):
    """Refuse a value whose numbers have more than ``MAX_LITERAL_DIGITS`` digits in all."""
    n = sum(map(len, _NUMBER.findall(text)))
    if n > MAX_LITERAL_DIGITS:
        raise click.UsageError(f"{option} has {n} digits, above the budget of {MAX_LITERAL_DIGITS}")


def integer(text: str) -> int:
    """An integer option: an optional sign and at most ``MAX_LITERAL_DIGITS`` ASCII
    digits, checked before conversion (``int()`` takes any Unicode digit and ``_``)."""
    if not re.fullmatch(f"[+-]?[0-9]{{1,{MAX_LITERAL_DIGITS}}}", text):
        raise click.BadParameter(f"not an integer of at most {MAX_LITERAL_DIGITS} ASCII digits")
    return int(text)


def check_level(k: int):
    """Refuse a level above ``MAX_LEVEL`` as a usage error."""
    if k > MAX_LEVEL:
        raise click.UsageError(f"level {k} is above the budget of {MAX_LEVEL}")


def check_stratum(what: str, g: LieAlgebra, weight: int, charge) -> int:
    """Refuse an expansion whose stratum holds more than ``MAX_STRATUM`` words;
    return the number of words it holds."""
    size = stratum_size(g, weight, charge, MAX_STRATUM)
    if size > MAX_STRATUM:
        raise click.UsageError(f"{what}: its stratum holds more than {MAX_STRATUM} words")
    return size


def resolve_algebra(name: str) -> LieAlgebra:
    if name == "sl2":
        return sl2()
    m = re.fullmatch(r"sl([0-9]+)", name)
    if m:
        rank = m.group(1).lstrip("0") or "0"  # read off its digits: no rank is too long
        if len(rank) > len(str(MAX_RANK)) or int(rank) > MAX_RANK:
            raise click.UsageError(f"rank {rank} is above the budget of {MAX_RANK}")
        try:
            return sln(int(rank))
        except InvalidRank as exc:
            raise click.UsageError(str(exc)) from None
    path = Path(name)
    if path.suffix or path.exists():
        try:
            return load_structure_file(path.read_text())
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot load algebra {name!r}: {exc}") from None
    raise click.UsageError(f"unknown algebra {name!r}")


def emit(payload, fmt: str, text_lines):
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            click.echo(line)


def format_options(fn):
    fn = click.option(
        "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
        help="Report format.",
    )(fn)
    fn = click.option(
        "--transcript", is_flag=True, default=False, help="Include derivation steps."
    )(fn)
    return fn


@click.group()
def main():
    """Exact deformation calculus for affine vacuum modules."""


@main.command("pbw-basis")
@click.option("--algebra", default="sl2", show_default=True)
@click.option("--weight", type=integer, required=True)
@click.option("--charge", type=integer, default=None)
@format_options
def pbw_basis_cmd(algebra, weight, charge, fmt, transcript):
    """List the canonical monomials of a graded stratum."""
    g = resolve_algebra(algebra)
    # a word of weight w has up to w modes: a stratum of few words can still be deep
    if weight > MAX_WORD_LENGTH:
        raise click.UsageError(f"weight {weight} is above the budget of {MAX_WORD_LENGTH} modes")
    if weight >= 0:
        size = check_stratum(f"weight {weight}", g, weight, charge)
        if size * weight > MAX_LISTED_MODES:
            raise click.UsageError(
                f"weight {weight}: its {size} words may spell more than "
                f"the budget of {MAX_LISTED_MODES} modes"
            )
    try:
        words = basis_enum(g, weight, charge)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rendered = [render_word(g, w) for w in words]
    emit(
        {"algebra": algebra, "basis": rendered, "charge": charge,
         "count": len(rendered), "weight": weight},
        fmt,
        rendered,
    )


@main.command("act")
@click.option("--algebra", default="sl2", show_default=True)
@click.option("--mode", "mode_text", required=True, help='Mode to apply, e.g. "f(1)".')
@click.option("--state", "state_text", required=True)
@click.option("--level", required=True, help="Level as p/q or an integer.")
@format_options
def act_cmd(algebra, mode_text, state_text, level, fmt, transcript):
    """Apply a single mode to a state at the given level."""
    g = resolve_algebra(algebra)
    for option, text in (("--level", level), ("--mode", mode_text), ("--state", state_text)):
        check_literals(option, text)
    try:
        k = parse_rational(level)
        mode = parse_mode(mode_text, g)
        ast = parse_state(state_text, g)
    except (ValueError, StateSyntaxError) as exc:
        raise click.UsageError(str(exc))
    for i, (_, word) in enumerate(ast.terms, 1):
        if not is_canonical(word):
            w, q = word_weight(word), word_charge(g, word)
            check_stratum(f"--state word {i} has weight {w} and charge {q}", g, w, q)
    result = apply_mode(g, mode.gen, mode.depth, ast.to_state(g, k), k)
    text = result.render(g)
    emit(
        {"level": format_rational(k), "mode": mode_text.strip(), "result": text},
        fmt,
        [text],
    )


@main.command("singular-check")
@click.option("--label", required=True, help="Catalog label, e.g. sl2:-4/3 or integral:k=2.")
@format_options
def singular_check_cmd(label, fmt, transcript):
    """Verify a cataloged singular vector by exhausting its annihilators."""
    g = sl2()
    m = INTEGRAL_LABEL.fullmatch(label)
    if label == "sl2:-4/3":
        entry = singular.admissible_sl2(g)
    elif m:
        try:
            k = int(m.group(1))
        except ValueError:  # more digits than int() converts
            raise click.UsageError(f"bad catalog label {label!r}") from None
        check_level(k)
        try:
            entry = singular.integral_relation(g, k)
        except singular.NonPositiveLevel as exc:
            raise click.UsageError(str(exc)) from None
    elif label.startswith("integral:k="):
        raise click.UsageError(f"bad catalog label {label!r}")
    else:
        raise click.UsageError(f"unknown catalog label {label!r}")
    ok, witness = singular.is_singular(entry.vector, entry.level, g)
    lines = [
        f"label: {entry.label}",
        f"level: {format_rational(entry.level)}",
        f"vector: {entry.vector.render(g)}",
        f"singular: {ok}",
    ]
    if witness:
        lines.append(f"witness: {witness[3]}")
    emit(
        {"label": entry.label, "level": format_rational(entry.level),
         "singular": ok, "witness": witness[3] if witness else None},
        fmt,
        lines,
    )
    if not ok:
        sys.exit(1)


@main.group("rigidity")
def rigidity_group():
    """Deformation-rigidity pipelines."""


def _emit_verdict(verdict, fmt, transcript):
    lines = [f"pipeline: {verdict.pipeline}", f"level: {format_rational(verdict.level)}"]
    lines += [f"equation {i}: {eq} = 0" for i, eq in enumerate(verdict.equations, 1)]
    lines.append(f"final relation: {verdict.final_relation} = 0")
    lines.append(f"c forced to zero: {verdict.c_forced_zero}")
    lines += [f"quarantine: {note}" for note in verdict.quarantine]
    if transcript:
        lines.append(verdict.transcript.render())
    emit(verdict.to_jsonable(include_steps=transcript), fmt, lines)
    if not verdict.c_forced_zero or verdict.quarantine:
        sys.exit(1)


@rigidity_group.command("integral")
@click.option("--algebra", default="sl2", show_default=True)
@click.option("--k", type=integer, required=True)
@format_options
def rigidity_integral_cmd(algebra, k, fmt, transcript):
    """Positive integral level: conclude (k+1)*c = 0."""
    if k < 1:
        raise click.UsageError("k must be a positive integer")
    check_level(k)
    g = resolve_algebra(algebra)
    verdict = rigidity.integral_pipeline(g, k)
    _emit_verdict(verdict, fmt, transcript)


@rigidity_group.command("admissible-sl2")
@format_options
def rigidity_admissible_cmd(fmt, transcript):
    """Level -4/3 on sl2: conclude 10*c = 0."""
    verdict = rigidity.admissible_pipeline()
    _emit_verdict(verdict, fmt, transcript)


@main.command("cross-check")
@format_options
def cross_check_cmd(fmt, transcript):
    """Try to re-derive the stated rule table; report residual atoms."""
    entries = rigidity.cross_check()
    lines = []
    for entry in entries:
        line = f"{entry.label}: {entry.status.upper()}"
        if entry.residual_atoms:
            line += " [" + "; ".join(entry.residual_atoms) + "]"
        if entry.detail:
            line += f" -- {entry.detail}"
        lines.append(line)
    emit(
        [
            {"detail": e.detail, "label": e.label,
             "residual": list(e.residual_atoms), "status": e.status}
            for e in entries
        ],
        fmt,
        lines,
    )


if __name__ == "__main__":
    main()
