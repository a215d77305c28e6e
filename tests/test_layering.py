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


def module_level_containers(source: str) -> list:
    """Line numbers of module-level bindings to a mutable container."""
    found = []

    def visit(statements):
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) else None
            if isinstance(value, MUTABLE_DISPLAYS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in MUTABLE_CALLS
            ):
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
    )
    assert module_level_containers(source) == list(range(1, 9)) + [10]


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


def fresh_import(module: str, *heavy: str) -> subprocess.CompletedProcess:
    """Run FRESH_IMPORT in a child that finds this package first on its path."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT, module, *heavy],
        env=env, capture_output=True, text=True, timeout=60,
    )


# The records are NamedTuples and one plain class, so a cold start skips
# dataclasses and what it imports; click itself imports inspect.
@pytest.mark.parametrize("module, heavy", [
    ("affdef", ("dataclasses", "inspect", "ast", "dis", "tokenize")),
    ("affdef.cli", ("dataclasses",)),
])
def test_cold_import_skips_heavy_modules(module, heavy):
    child = fresh_import(module, *heavy)
    assert child.returncode == 0, child.stderr


def test_fresh_import_reports_a_heavy_module():
    child = fresh_import("affdef.scalar", "affdef.scalar", "dataclasses")
    assert child.returncode == 1
    assert child.stderr.strip() == "import affdef.scalar newly loaded affdef.scalar"
