"""Only the CLI opens a store file the user names, through ``cli._read``:
``harness`` takes its store from its caller, so it neither imports nor
calls ``load_store``, and a sweep's ``data.store`` gets the categories of
every ``--store``."""

import ast
import pathlib

import dualrec

SRC = pathlib.Path(dualrec.__file__).parent


def load_store_uses(path) -> list:
    """Line of each import, call or other mention of ``load_store`` in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Attribute) and node.attr == "load_store")
                or (isinstance(node, ast.Name) and node.id == "load_store")
                or (isinstance(node, ast.ImportFrom)
                    and "load_store" in {alias.name for alias in node.names})):
            found.append(node.lineno)
    return sorted(found)


def test_the_scan_sees_each_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .ingest import (\n    load_store)\n"
                      "def f(path):\n    return load_store(path)\n"
                      "def g(path):\n    return ingest.load_store(path)\n"
                      "def h(store):\n    return store.loaded\n")
    assert load_store_uses(source) == [1, 4, 6]


def test_harness_neither_imports_nor_calls_load_store():
    assert load_store_uses(SRC / "harness.py") == []
