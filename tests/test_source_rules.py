"""Design rules of ``src/dualrec``, pinned by one AST scan and one table:

- only ``ingest._gc_paused`` switches garbage collection, so no caller
  keeps a setting it did not choose;
- only ``__main__.run`` freezes the heap, and only ``__main__.py`` holds a
  ``__name__ == "__main__"`` guard, which would run a command unfrozen;
- only ``ingest.store_from_columns`` calls ``InteractionStore(``;
- only ``harness.ExperimentConfig`` and the library guards of ``mlp_model``
  call ``check_tower``, so every command checks its tower once, when its
  config is made;
- ``harness`` takes its store from its caller, so it reads no private name
  of ``ingest`` and no ``load_store``: only the CLI opens a store file;
- neither branch module imports the other, so each can change alone;
- only ``training.check_int`` calls ``is_int``, so every size, count and
  seed is held to one rule and refused with one message.
"""

import ast
import pathlib

import pytest

import dualrec

SRC = pathlib.Path(dualrec.__file__).parent


def scan(path, rule) -> list:
    """(enclosing top-level name, line) of each node of a source file that
    ``rule`` matches, in line order; None names module level."""
    tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))
    hits = [(getattr(top, "name", None), node.lineno)
            for top in tree.body for node in ast.walk(top) if rule(node)]
    return sorted(hits, key=lambda hit: hit[1])


def attribute_of(node, owner: str) -> str:
    """The attribute ``node`` reads of the name ``owner``, or ''."""
    is_owner = isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == owner
    return node.attr if is_owner else ""


def imported(node) -> set:
    """Dotted names an import imports, ``from p import x`` as p and p.x; ``.`` is dualrec."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    base = ".".join(filter(None, ["dualrec" * bool(node.level), node.module]))
    return {base} | {f"{base}.{alias.name}" for alias in node.names}


def gc_use(*names):
    """Rule: ``gc.<name>``, or ``from gc import <name>``, for one of ``names``."""
    return lambda node: (attribute_of(node, "gc") in names
                         or any(f"gc.{name}" in imported(node) for name in names))


gc_switch, gc_freeze = gc_use("disable", "enable"), gc_use("freeze")
MAIN_SIDES = {ast.dump(ast.Name("__name__", ast.Load())), ast.dump(ast.Constant("__main__"))}


def main_guard(node) -> bool:
    """A ``__name__ == "__main__"`` comparison, either way round."""
    return isinstance(node, ast.Compare) and {
        ast.dump(side) for side in (node.left, *node.comparators)} >= MAIN_SIDES


def calls(name):
    """Rule: a call of ``name``, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


store_construction = calls("InteractionStore")
is_int_call = calls("is_int")


def private_ingest_name(node) -> bool:
    return (attribute_of(node, "ingest").startswith("_")
            or any(name.startswith("dualrec.ingest._") for name in imported(node)))


def load_store_use(node) -> bool:
    return ("load_store" in (getattr(node, "attr", None), getattr(node, "id", None))
            or any(name.endswith(".load_store") for name in imported(node)))


def imports(*modules):
    """Rule: an import of one of the dualrec ``modules``, in any form."""
    return lambda node: bool(imported(node) & {f"dualrec.{module}" for module in modules})


GC_FORMS = ("import gc\ngc.{0}()\ndef f():\n    gc.{1}()\n"
            "class C:\n    def m(self):\n        from gc import {0}\ngc.{2}()\n")
STORE_FORMS = ("from .ingest import (InteractionStore,\n    _make_store)\n"
               "a = InteractionStore((), ())\n"
               "def f():\n    return ingest.InteractionStore((), ())\n"
               "class C:\n    def m(self):\n        return ingest._load_copy(1, 2)\n"
               "def g(store):\n    return isinstance(store, InteractionStore)\n")

FORMS = [  # (rule, a source holding each form it must see and some it must not, the hits)
    pytest.param(gc_switch, GC_FORMS.format("disable", "enable", "isenabled"),
                 [(None, 2), ("f", 4), ("C", 7)], id="gc-switch"),
    pytest.param(gc_freeze, GC_FORMS.format("freeze", "freeze", "unfreeze"),
                 [(None, 2), ("f", 4), ("C", 7)], id="gc-freeze"),
    pytest.param(main_guard, 'if __name__ == "__main__":\n    pass\n'
                 "def f():\n    return '__main__' == __name__\n"
                 'name = "__main__"\nif __name__ == name:\n    pass\n',
                 [(None, 1), ("f", 4)], id="main-guard"),
    pytest.param(store_construction, STORE_FORMS, [(None, 3), ("f", 5)], id="store-construction"),
    pytest.param(private_ingest_name, STORE_FORMS, [(None, 1), ("C", 8)], id="private-name"),
    pytest.param(load_store_use, "from .ingest import (\n    load_store)\n"
                 "def f(path):\n    return load_store(path)\n"
                 "def g(path):\n    return ingest.load_store(path)\n"
                 "def h(store):\n    return store.loaded\n",
                 [(None, 1), ("f", 4), ("g", 6)], id="load-store"),
    pytest.param(imports(*"abcdeg"), "from . import a\nfrom .b import x\nimport dualrec.c\n"
                 "from dualrec import d\nfrom dualrec.e import y\n"
                 "def f():\n    from .g import z\nimport numpy\nfrom . import h\n",
                 [(None, 1), (None, 2), (None, 3), (None, 4), (None, 5), ("f", 7)], id="import"),
    pytest.param(is_int_call, "from .training import is_int\nok = is_int(3, 1)\n"
                 "def f(x):\n    return training.is_int(x)\ncheck = is_int\n"
                 "class C:\n    def m(self, xs):\n        return all(map(is_int, xs))\n",
                 [(None, 2), ("f", 4)], id="is-int-call"),
]


@pytest.mark.parametrize("rule, source, hits", FORMS)
def test_the_scan_sees_each_form(tmp_path, rule, source, hits):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert scan(path, rule) == hits


RULES = [  # (rule, the files of src/dualrec it scans, the (file, top-level name) of each hit)
    pytest.param(gc_switch, "*.py", [("ingest.py", "_gc_paused")] * 2, id="gc-switch"),
    pytest.param(gc_freeze, "*.py", [("__main__.py", "run")], id="gc-freeze"),
    pytest.param(main_guard, "*.py", [("__main__.py", None)], id="main-guard"),
    pytest.param(store_construction, "*.py", [("ingest.py", "store_from_columns")],
                 id="store-construction"),
    pytest.param(calls("check_tower"), "*.py",
                 [("harness.py", "ExperimentConfig"), ("mlp_model.py", "MlpHyperparams"),
                  ("mlp_model.py", "init_mlp"), ("mlp_model.py", "section_shapes")],
                 id="check-tower"),
    pytest.param(private_ingest_name, "harness.py", [], id="harness-private-ingest-name"),
    pytest.param(load_store_use, "harness.py", [], id="harness-load-store"),
    pytest.param(imports("mlp_model"), "mf_model.py", [], id="mf_model-imports-mlp_model"),
    pytest.param(imports("mf_model"), "mlp_model.py", [], id="mlp_model-imports-mf_model"),
    pytest.param(is_int_call, "*.py", [("training.py", "check_int")], id="is-int-call"),
]


@pytest.mark.parametrize("rule, files, hits", RULES)
def test_only_the_allowed_places_match(rule, files, hits):
    paths = sorted(SRC.glob(files))
    assert paths, files
    assert [(path.name, owner) for path in paths for owner, _ in scan(path, rule)] == hits
