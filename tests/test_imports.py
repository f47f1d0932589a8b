"""The two branch modules stand apart: neither imports the other, at module
level or inside a function, so each branch can change without the other."""

import ast
import pathlib

import pytest

import dualrec

SRC = pathlib.Path(dualrec.__file__).parent
BRANCHES = ("mf_model", "mlp_model")


def imported_modules(path) -> set:
    """The dualrec modules a source file imports, by their short names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("dualrec."))
        elif isinstance(node, ast.ImportFrom):
            module = f"dualrec.{node.module or ''}" if node.level else node.module
            if module in ("dualrec", "dualrec."):  # from . import x, from dualrec import x
                found.update(alias.name for alias in node.names)
            elif module.startswith("dualrec."):
                found.add(module.split(".")[1])
    return found


def test_the_scan_sees_each_import_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from . import a\nfrom .b import x\nimport dualrec.c\n"
                      "from dualrec import d\nfrom dualrec.e import y\n"
                      "def f():\n    from .g import z\nimport numpy\n")
    assert imported_modules(source) == {"a", "b", "c", "d", "e", "g"}


@pytest.mark.parametrize("module, other", [BRANCHES, BRANCHES[::-1]],
                         ids=["mf_model", "mlp_model"])
def test_a_branch_module_does_not_import_the_other(module, other):
    assert other not in imported_modules(SRC / f"{module}.py")
