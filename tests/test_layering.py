"""The package's import graph: each module imports only the layers below it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affdef

PACKAGE = Path(affdef.__file__).parent

# module -> the package modules it may import
ALLOWED = {
    "scalar": set(),
    "liealg": {"scalar"},
    "pbw": {"liealg", "scalar"},
    "singular": {"liealg", "pbw"},
    "deform": {"liealg", "pbw", "scalar"},
}
ALLOWED["rigidity"] = set(ALLOWED)
ALLOWED["cli"] = set(ALLOWED)
ALLOWED["__init__"] = set(ALLOWED)


def package_imports(source: str) -> set:
    """Names of the package modules imported anywhere in the source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module and node.module.startswith("affdef."):
                    found.add(node.module.split(".")[1])
            elif node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("affdef."):
                    found.add(alias.name.split(".")[1])
    return found


def test_package_imports_follow_the_layers():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert set(modules) == set(ALLOWED), "place every new module in the layer graph"
    for name, path in sorted(modules.items()):
        extra = package_imports(path.read_text()) - ALLOWED[name]
        assert not extra, f"{name} imports {sorted(extra)} from above its layer"


def test_import_scan_sees_every_form():
    source = "from .pbw import Mode\nfrom . import singular\nimport affdef.deform\n"
    assert package_imports(source) == {"pbw", "singular", "deform"}


# The calculus keeps nothing between calls: no cache per (g, k) or on the algebra.
CALCULUS = ("scalar", "liealg", "pbw", "deform")
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_CALLS = {"dict", "list", "set"}


def _is_mutable(node) -> bool:
    return isinstance(node, MUTABLE_DISPLAYS) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_CALLS
    )


def module_level_containers(source: str) -> list:
    """Line numbers of module-level bindings whose value is or holds a mutable container."""
    found = []

    def visit(statements):
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) else None
            if value is not None and any(map(_is_mutable, ast.walk(value))):
                found.append(node.lineno)
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(ast.parse(source).body)
    return found


def test_calculus_binds_no_module_level_container():
    for name in CALCULUS:
        lines = module_level_containers((PACKAGE / f"{name}.py").read_text())
        assert not lines, f"{name} binds a mutable container at module level, lines {lines}"


def test_container_scan_sees_every_form():
    source = (
        "A = {}\nB: list = []\nC = {1}\nD = {x: x for x in ()}\nE = [x for x in ()]\n"
        "F = {x for x in ()}\nG = dict()\nH = list(())\nif True:\n    I = set()\n"
        "J = (1, 2)\nK = frozenset()\ndef f():\n    L = {}\nclass C:\n    M = ()\n"
        "N = ((), {})\nO = (None, ((), frozenset()))\n"
    )
    assert module_level_containers(source) == list(range(1, 9)) + [10, 17]


# States over kernel-spelled words skip the word walk; words a user spells enter
# through the checked State constructor, so only the calculus that owns the
# kernel may take the unchecked one.
UNCHECKED_CALLERS = ("pbw", "deform")


def unchecked_state_uses(source: str) -> list:
    """Line numbers that name ``_unchecked`` as an attribute, called or not."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_unchecked"
    )


def test_unchecked_state_stays_in_the_calculus():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in UNCHECKED_CALLERS:
            lines = unchecked_state_uses(path.read_text())
            assert not lines, f"{path.stem} builds an unchecked State, lines {lines}"
    assert unchecked_state_uses((PACKAGE / "deform.py").read_text()), "the scan lost its callers"


def test_unchecked_scan_sees_every_form():
    source = (
        "State._unchecked({})\nmake = pbw.State._unchecked\nState({})\n"
        "def f():\n    return affdef.pbw.State._unchecked(terms)\n_unchecked = 1\n"
    )
    assert unchecked_state_uses(source) == [1, 2, 5]


# An expression over kernel word ids is deform's own format: only deform
# converts into it and out of it, so no other module names the converters.
ID_FORMAT = {"_over_ids", "_spelled"}


def id_format_uses(source: str) -> list:
    """Line numbers that name a converter: as a name, an attribute or an import."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id in ID_FORMAT
        or isinstance(node, ast.Attribute) and node.attr in ID_FORMAT
        or isinstance(node, ast.ImportFrom) and any(a.name in ID_FORMAT for a in node.names)
    )


def test_id_format_stays_in_deform():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "deform":
            lines = id_format_uses(path.read_text())
            assert not lines, f"{path.stem} names an id-expression converter, lines {lines}"
    assert id_format_uses((PACKAGE / "deform.py").read_text()), "the scan lost its callers"


def test_id_format_scan_sees_every_form():
    source = (
        "from .deform import _spelled\nx = deform._over_ids(k, e)\n_spelled(k, e)\n"
        "f = affdef.deform._spelled\n'_over_ids'\nspelled = over_ids = 1\n"
    )
    assert id_format_uses(source) == [1, 2, 3, 4]


# A LinForm is shared once made (``scale(1)`` is the form itself), so no module
# changes the ``terms`` of any object in place: no item assignment or deletion,
# no dict mutator, no in-place operator and no ``add_scaled`` into it.
DICT_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}


def _is_terms(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def terms_mutations(source: str) -> list:
    """Line numbers that change an object's ``.terms`` in place."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_terms(target.value) or (
                    isinstance(node, ast.AugAssign) and _is_terms(target)
                ):
                    found.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in DICT_MUTATORS and _is_terms(func.value):
                found.append(node.lineno)
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "add_scaled" and node.args and _is_terms(node.args[0]):
                found.append(node.lineno)
    return sorted(found)


def test_no_module_mutates_terms_in_place():
    for path in sorted(PACKAGE.glob("*.py")):
        lines = terms_mutations(path.read_text())
        assert not lines, f"{path.stem} changes .terms in place, lines {lines}"


def test_terms_scan_sees_every_form():
    source = (
        "x.terms['c'] = 1\ndel x.terms['c']\nx.terms['c'] += 1\nx.terms |= {}\n"
        "x.terms.update({})\nx.terms.pop('c')\nscalar.add_scaled(x.terms, y, 1)\n"
        "add_scaled(out, x.terms, 1)\nx.terms = {}\nd = dict(x.terms)\nd['c'] = 1\n"
        "x.terms.get('c')\nx.terms.setdefault('c', 0)\n"
    )
    assert terms_mutations(source) == [1, 2, 3, 4, 5, 6, 7, 13]


# Coefficients are ints when integral, so a bare ``a / b`` of two of them is a
# float; the exact layers divide only where an operand is a Fraction(...) call.
EXACT_LAYERS = ("scalar", "pbw", "deform", "rigidity", "singular")


def _is_fraction_call(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "Fraction") or (
        isinstance(func, ast.Attribute) and func.attr == "Fraction")


def true_divisions(source: str) -> list:
    """Line numbers of each ``/`` and ``/=`` with no ``Fraction(...)`` call as an operand."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.target, node.value)
        else:
            continue
        if not any(map(_is_fraction_call, operands)):
            found.append(node.lineno)
    return sorted(found)


def test_exact_layers_divide_only_into_a_fraction():
    for name in EXACT_LAYERS:
        lines = true_divisions((PACKAGE / f"{name}.py").read_text())
        assert not lines, f"{name} divides outside a Fraction, lines {lines}"


def test_division_scan_sees_every_form():
    source = (
        "a / b\na / Fraction(b)\nFraction(a) / b\nx /= 2\nx /= Fraction(2)\n"
        "fractions.Fraction(1) / n\na // b\nf = lambda p, q: p / q\n"
        "def g(r=1 / 3):\n    return [p / q for p in r]\n"
        "Fraction(a / b)\nfloat(a) / b\n'1/2'\n"
    )
    assert true_divisions(source) == [1, 4, 8, 9, 10, 11, 12]


# Each budget is stated once: the algebra bounds in liealg, the input grammars' in cli.
BUDGET_OWNERS = {"MAX_RANK": "liealg", "MAX_DIM": "liealg", "MAX_JOIN": "liealg"}


def budget_assignments(source: str) -> list:
    """``(name, line)`` of every binding of a ``MAX_*`` name, nested ones included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr, ast.For)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            found += [(n.id, node.lineno) for n in names if n.id.startswith("MAX_")]
        elif isinstance(node, ast.alias) and (node.asname or "").startswith("MAX_"):
            found.append((node.asname, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_each_budget_has_one_owner():
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in budget_assignments(path.read_text()):
            owners.setdefault(name, []).append(f"{path.stem}:{line}")
    assert {"MAX_RANK", "MAX_DIM", "MAX_JOIN", "MAX_LEVEL"} <= set(owners), "the scan lost its budgets"
    for name, places in sorted(owners.items()):
        owner = BUDGET_OWNERS.get(name, "cli")
        assert len(places) == 1 and places[0].startswith(f"{owner}:"), (name, places)


def test_budget_scan_sees_every_form():
    source = (
        "MAX_A = 1\nMAX_B: int = 2\nMAX_C += 3\nx, MAX_D = 4, 5\n"
        "def f():\n    MAX_E = 6\n    return (MAX_F := 7)\nfor MAX_G in ():\n    pass\n"
        "from m import X as MAX_H\nMAX_A\nOTHER = MAX_B\n"
    )
    assert budget_assignments(source) == [
        ("MAX_A", 1), ("MAX_B", 2), ("MAX_C", 3), ("MAX_D", 4), ("MAX_E", 6), ("MAX_F", 7),
        ("MAX_G", 8), ("MAX_H", 10),
    ]


# A fresh interpreter imports the module named by argv[1] and exits with a message
# if that import newly loaded any of the modules named after it.  Modules already
# loaded before the import (say by a site hook) do not count.
FRESH_IMPORT = """
import sys
module, heavy = sys.argv[1], sys.argv[2:]
before = set(sys.modules)
__import__(module)
loaded = sorted(set(heavy) & (set(sys.modules) - before))
if loaded:
    sys.exit(f"import {module} newly loaded {' '.join(loaded)}")
"""


def fresh_import(module: str, *heavy: str, script: str = FRESH_IMPORT) -> subprocess.CompletedProcess:
    """Run the script (FRESH_IMPORT by default) in a child that finds this package
    first on its path, with the module and the names after it as arguments."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", script, module, *heavy],
        env=env, capture_output=True, text=True, timeout=60,
    )


# The records are NamedTuples and one plain class, so a cold start skips
# dataclasses and what it imports; click itself imports inspect.  validate runs
# on dicts of Python ints, so set-up imports no array or symbolic package.
@pytest.mark.parametrize("module, heavy", [
    ("affdef", ("dataclasses", "inspect", "ast", "dis", "tokenize", "numpy", "sympy")),
    ("affdef.cli", ("dataclasses",)),
])
def test_cold_import_skips_heavy_modules(module, heavy):
    child = fresh_import(module, *heavy)
    assert child.returncode == 0, child.stderr


def test_fresh_import_reports_a_heavy_module():
    child = fresh_import("affdef.scalar", "affdef.scalar", "dataclasses")
    assert child.returncode == 1
    assert child.stderr.strip() == "import affdef.scalar newly loaded affdef.scalar"
