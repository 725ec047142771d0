"""numpy is the only runtime dependency: the package imports nothing else outside the stdlib."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "xastruct"
ALLOWED = {"numpy", "xastruct"}


def imported_top_levels(tree: ast.AST) -> set:
    """Top-level names of a module's absolute imports; relative ones are the package's own."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_scan_sees_every_import_form():
    tree = ast.parse("import a.b, c\nfrom d.e import f\nfrom . import g\nfrom .h import i\n"
                     "def j():\n    import k\n")
    assert imported_top_levels(tree) == {"a", "c", "d", "k"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_stdlib_numpy_and_the_package(path):
    names = imported_top_levels(ast.parse(path.read_text(), filename=str(path)))
    foreign = sorted(names - set(sys.stdlib_module_names) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"
