"""``ingest.store_from_columns``, the one checked constructor of a store.

Every store built from outside data ends in it: entry rows (``build_store``,
the JSON reader and ``_make_store``), the columnar copy and the synthetic
generator. ``restrict`` and ``with_reliability`` derive from a store that
was already checked. ``tests/test_source_rules.py`` pins that no other
function calls ``InteractionStore(``.
"""

import numpy as np
import pytest

from dualrec.ingest import _COLUMNS, _make_store, _score_column, store_from_columns

from test_store_copy import contents, mixed_store


def columns_of(store) -> dict:
    """Writable copies of a store's seven columns, in order."""
    return {name: getattr(store, name).copy() for name in _COLUMNS}


def test_a_stores_own_columns_give_the_same_store():
    store = mixed_store()
    assert contents(store_from_columns(store.user_ids, store.product_ids,
                                       **columns_of(store))) == contents(store)


def test_every_column_is_read_only():
    store = mixed_store()
    built = store_from_columns(list(store.user_ids), list(store.product_ids), **columns_of(store))
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
    "index-outside-the-maps": set_first("product", 2),
    "negative-index": set_first("user", -1),
    "duplicate-pair": lambda cols: cols["product"].__setitem__(3, 0),
    "rating-half-a-star": lambda cols: cols["raw"].__setitem__(1, 0.5),
    "rating-above-five": lambda cols: cols["raw"].__setitem__(1, 5.5),
    "rating-nan": lambda cols: cols["raw"].__setitem__(1, np.nan),
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


# entry rows of a 1 x 2 store -> the refusal that names the first bad row
BAD_ROWS = [
    ([(0, 0, 4, 0, 0, 1), (0, 1, 0.5, 0, 0, 2)],
     "entry 1: raw rating must be a number in [1, 5], got 0.5"),
    ([(0, 0, 4, 0, 0, 1), (0, 1, 4, 3, 2, 2)],
     "entry 1: need 0 <= helpful_yes <= votes_total, got (3, 2)"),
    ([(0, 0, 4, 0, 0, 1), (0, 2, 4, 0, 0, 2)], "entry 1: pair (0, 2) outside the 1 x 2 store"),
    ([(0, 1, 4, 0, 0, 1), (0, 0, 4, 0, 0, 2), (0, 1, 3, 0, 0, 3)],
     "entry 2: duplicate pair (0, 1)"),
    # the first bad row is named, by its first broken rule
    ([(0, 0, 9, 3, 2, 1)], "entry 0: raw rating must be a number in [1, 5], got 9.0"),
    ([(0, 0, 4, 0, 0, 1), (0, 3, 4, 0, 0, 2), (0, 0, 0, 0, 0, 3)],
     "entry 1: pair (0, 3) outside the 1 x 2 store"),
    ([(0, 2, 4, 0, 0, 1), (1, 0, 4, 0, 0, 2)], "entry 0: pair (0, 2) outside the 1 x 2 store"),
]


def test_rows_name_the_row_that_breaks_a_rule():
    for rows, want in BAD_ROWS:
        with pytest.raises(ValueError) as exc:
            _make_store(["u"], ["p", "q"], rows)
        assert str(exc.value) == want
        cols = {name: np.array(col, dtype)
                for (name, dtype), col in zip(_COLUMNS.items(), zip(*rows))}
        with pytest.raises(ValueError) as exc:
            store_from_columns(["u"], ["p", "q"], **cols, reliability=np.full(len(rows), np.nan))
        assert str(exc.value) == want


def test_a_mistyped_row_is_named_by_its_position():
    with pytest.raises(ValueError) as exc:
        _make_store(["u"], ["p"], [(0, 0, 4, 0, 0, 1), (0, True, 4, 0, 0, 2)])
    assert str(exc.value) == ("entry 1: expected 6 fields (int64, int64, number, int64, int64, "
                              "int64), got (0, True, 4, 0, 0, 2)")
    store = _make_store(["u"], ["p", "q"], [(0, 0, 4, 0, 0, 1), (0, 1, 4, 0, 0, 2)])
    with pytest.raises(ValueError) as exc:
        _score_column(store, [[0, 0, 0.5], [0, 1, "0.5"]])
    assert str(exc.value) == ("reliability triple 1: expected 3 fields (int64, int64, number), "
                              "got [0, 1, '0.5']")
