"""Cyclic garbage collection is switched in one place: ``ingest._gc_paused``.
Store IO pauses it through that context manager; no other code turns it
off or on, so no caller is left with a setting it did not choose."""

import ast
import pathlib

import dualrec

SRC = pathlib.Path(dualrec.__file__).parent
SWITCHES = {"disable", "enable"}


def gc_switches(path) -> list:
    """(enclosing top-level name, line) of each ``gc.disable``/``gc.enable`` in a
    source file, also when imported by name; None names module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in SWITCHES
                    and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                found.append((owner, node.lineno))
            elif (isinstance(node, ast.ImportFrom) and node.module == "gc"
                  and SWITCHES & {alias.name for alias in node.names}):
                found.append((owner, node.lineno))
    return found


def test_the_scan_sees_each_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import gc\ngc.disable()\n"
                      "def f():\n    gc.enable()\n"
                      "class C:\n    def m(self):\n        from gc import disable\n"
                      "gc.isenabled()\n")
    assert gc_switches(source) == [(None, 2), ("f", 4), ("C", 7)]


def test_only_gc_paused_switches_collection():
    found = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
             for owner, _ in gc_switches(path)}
    assert found == {("ingest.py", "_gc_paused")}
