"""The package's import graph: each module imports only the layers below it."""

import ast
from pathlib import Path

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
