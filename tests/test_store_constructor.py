"""``ingest.store_from_columns``, the one checked constructor of a store.

Every store built from outside data ends in it: entry rows (``build_store``,
the JSON reader and ``_make_store``), the columnar copy and the synthetic
generator. ``restrict`` and ``with_reliability`` derive from a store that
was already checked. An AST scan pins that no other function calls
``InteractionStore(``, and that ``harness`` imports no private name of
``ingest``.
"""

import ast
import pathlib

import numpy as np
import pytest

import dualrec
from dualrec.ingest import _COLUMNS, _make_store, store_from_columns

from test_store_copy import contents, mixed_store

SRC = pathlib.Path(dualrec.__file__).parent


def store_constructions(path) -> list:
    """(enclosing top-level name, line) of each call of ``InteractionStore``
    in a source file, by name or as an attribute; None names module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "InteractionStore" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append((owner, node.lineno))
    return found


def private_ingest_names(path) -> list:
    """Each underscore name a source file imports from ``ingest`` or reads as ``ingest._x``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "ingest":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id == "ingest"):
            found.append(node.attr)
    return found


def test_the_scans_see_each_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .ingest import (InteractionStore,\n    _make_store)\n"
                      "a = InteractionStore((), ())\n"
                      "def f():\n    return ingest.InteractionStore((), ())\n"
                      "class C:\n    def m(self):\n        return ingest._load_copy(1, 2)\n"
                      "def g(store):\n    return isinstance(store, InteractionStore)\n")
    assert store_constructions(source) == [(None, 3), ("f", 5)]
    assert private_ingest_names(source) == ["_make_store", "_load_copy"]


def test_one_function_constructs_every_store():
    found = [(path.name, owner) for path in sorted(SRC.glob("*.py"))
             for owner, _ in store_constructions(path)]
    assert found == [("ingest.py", "store_from_columns")]


def test_harness_imports_no_private_name_of_ingest():
    assert private_ingest_names(SRC / "harness.py") == []


def columns_of(store) -> dict:
    """Writable copies of a store's eight columns, in order."""
    return {name: getattr(store, name).copy() for name in _COLUMNS}


def test_a_stores_own_columns_give_the_same_store():
    store = mixed_store()
    assert contents(store_from_columns(store.user_ids, store.product_ids,
                                       **columns_of(store))) == contents(store)


def test_a_float_int_flag_becomes_bool_and_every_column_read_only():
    store = mixed_store()
    cols = columns_of(store) | {"raw_is_int": store.raw_is_int.astype(np.float64)}
    built = store_from_columns(list(store.user_ids), list(store.product_ids), **cols)
    assert contents(built) == contents(store)
    assert not any(getattr(built, name).flags.writeable for name in _COLUMNS)


def set_first(name, value):
    def edit(cols):
        cols[name][0] = value
    return edit


EDITS = {
    "columns-reordered": lambda cols: cols.update(user=cols.pop("user")),
    "missing-column": lambda cols: cols.pop("votes_total"),
    "extra-column": lambda cols: cols.update(extra=cols["user"].copy()),
    "list-column": lambda cols: cols.update(unix_time=cols["unix_time"].tolist()),
    "two-dimensional-column": lambda cols: cols.update(raw=cols["raw"][:, None]),
    "short-column": lambda cols: cols.update(reliability=cols["reliability"][1:]),
    "int32-index": lambda cols: cols.update(user=cols["user"].astype(np.int32)),
    "float-index": lambda cols: cols.update(product=cols["product"].astype(np.float64)),
    "int-rating": lambda cols: cols.update(raw=cols["raw"].astype(np.int64)),
    "int-flag": lambda cols: cols.update(raw_is_int=cols["raw_is_int"].astype(np.int64)),
    "index-outside-the-maps": set_first("product", 2),
    "negative-index": set_first("user", -1),
    "duplicate-pair": lambda cols: cols["product"].__setitem__(3, 0),
    # row 1 holds the one fractional rating, 3.5, so its int flag is off
    "rating-half-a-star": lambda cols: cols["raw"].__setitem__(1, 0.5),
    "rating-above-five": lambda cols: cols["raw"].__setitem__(1, 5.5),
    "rating-nan": lambda cols: cols["raw"].__setitem__(1, np.nan),
    "flag-on-a-fraction": lambda cols: cols["raw_is_int"].fill(True),
    "float-flag-not-0-or-1": lambda cols: cols.update(raw_is_int=np.array([0.5, 0, 1, 0.0])),
    "helpful-over-total": set_first("helpful_yes", 3),
    "negative-votes": lambda cols: cols["helpful_yes"].__setitem__(1, -1),
    "score-above-one": set_first("reliability", 1.5),
    "score-minus-infinity": set_first("reliability", -np.inf),
}


@pytest.mark.parametrize("edit", EDITS)
def test_a_column_that_breaks_a_rule_is_refused(edit):
    store = mixed_store()
    cols = columns_of(store)
    EDITS[edit](cols)
    with pytest.raises(ValueError):
        store_from_columns(store.user_ids, store.product_ids, **cols)


def test_ids_are_checked_before_the_columns():
    with pytest.raises(ValueError, match="user and product ids must be lists of distinct"):
        store_from_columns(["u", "u"], ["p"])


def test_rows_name_the_row_that_breaks_a_rule():
    with pytest.raises(ValueError) as exc:
        _make_store(["u"], ["p", "q"], [(0, 0, 4, 0, 0, 1), (0, 1, 0.5, 0, 0, 2)])
    assert str(exc.value) == "entry 1: raw rating must be a number in [1, 5], got 0.5"
