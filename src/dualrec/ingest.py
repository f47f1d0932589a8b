"""Review-stream parsing and the columnar interaction store.

Input is the line-delimited JSON used by the large public product-review
dumps: one object per line with at least ``reviewerID``, ``asin``,
``overall``, ``helpful`` (a ``[helpful_votes, total_votes]`` pair) and
``unixReviewTime``. Parsing is forgiving per line -- malformed lines are
skipped, counted and reported with their line number -- but strict about
the fields it does accept.

An :class:`InteractionStore` holds the deduplicated reviews once, as
read-only numpy columns, plus the string<->index maps. The rating and
reliability matrices, their index arrays and the per-product review
timelines all derive from the columns. Stores are immutable and safe to
share across threads.
"""

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "ReviewRecord", "PairArrays", "InteractionStore", "parse_reviews", "build_store",
    "with_reliability", "restrict", "save_store", "load_store",
]

MIN_RATING = 1
MAX_RATING = 5

STORE_FORMAT = "dualrec-store"
STORE_VERSION = 1

_INT64 = range(-(2**63), 2**63)


@dataclass(frozen=True)
class ReviewRecord:
    """One parsed review."""

    user_id: str
    product_id: str
    rating: int
    helpful_yes: int
    votes_total: int
    unix_time: int


@dataclass
class ParseResult:
    """Parsed records plus per-line warnings for everything skipped."""

    records: list[ReviewRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def n_skipped(self) -> int:
        return len(self.warnings)


class PairArrays(NamedTuple):
    """Column arrays of one sparse matrix's pairs in sorted-pair order."""

    idx_u: np.ndarray
    idx_p: np.ndarray
    values: np.ndarray  # normalized rating, or reliability score
    raw: np.ndarray  # raw 1..5 rating of the pair


_COLUMNS = ("user", "product", "raw", "raw_is_int", "helpful_yes", "votes_total",
            "unix_time", "reliability")


@dataclass(frozen=True, eq=False)
class InteractionStore:
    """Entry columns plus the index maps; build one with ``_make_store``.

    One row per rated pair, in deduplicated input order, which fixes
    timeline tie-breaks and the on-disk layout. The columns are the
    ``user``/``product`` indices, the ``raw`` 1..5 rating (float64;
    ``raw_is_int`` says whether it arrived as an int), ``helpful_yes``,
    ``votes_total``, ``unix_time`` (int64) and the ``reliability`` score
    in [0, 1], NaN where a row is unscored. Everything else is derived
    from them on first use.
    """

    user_ids: tuple[str, ...]
    product_ids: tuple[str, ...]
    user: np.ndarray
    product: np.ndarray
    raw: np.ndarray
    raw_is_int: np.ndarray
    helpful_yes: np.ndarray
    votes_total: np.ndarray
    unix_time: np.ndarray
    reliability: np.ndarray

    def __post_init__(self):
        for name in _COLUMNS:
            getattr(self, name).flags.writeable = False

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_products(self) -> int:
        return len(self.product_ids)

    @cached_property
    def user_index(self) -> dict:
        return {key: idx for idx, key in enumerate(self.user_ids)}

    @cached_property
    def product_index(self) -> dict:
        return {key: idx for idx, key in enumerate(self.product_ids)}

    @property
    def ratings(self) -> np.ndarray:
        """Normalized rating of each row: raw / MAX_RATING, in (0, 1]."""
        return self.raw / MAX_RATING

    @cached_property
    def timeline_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows by (product, unix_time, row), and where each product's run starts."""
        order = np.lexsort((self.unix_time, self.product))  # stable: ties keep row order
        starts = np.flatnonzero(np.diff(self.product[order], prepend=-1))
        order.flags.writeable = starts.flags.writeable = False
        return order, starts

    @cached_property
    def timelines(self) -> dict:
        """Product index -> its rows ordered by (unix_time, row)."""
        order, starts = self.timeline_order
        return dict(zip(self.product[order[starts]].tolist(), np.split(order, starts[1:])))

    @cached_property
    def _order(self) -> np.ndarray:
        """Rows in sorted (user, product) order."""
        return np.argsort(self.user * self.n_products + self.product, kind="stable")

    def _pair_arrays(self, rows: np.ndarray, values: np.ndarray) -> PairArrays:
        out = PairArrays(self.user[rows], self.product[rows], values[rows], self.raw[rows])
        for arr in out:
            arr.flags.writeable = False
        return out

    @cached_property
    def rated_arrays(self) -> PairArrays:
        """Rated pairs as index and value columns, built once per store."""
        return self._pair_arrays(self._order, self.ratings)

    @cached_property
    def scored_arrays(self) -> PairArrays:
        """Reliability pairs as index and value columns, built once per store."""
        order = self._order
        return self._pair_arrays(order[~np.isnan(self.reliability[order])], self.reliability)

    def _rows_of(self, users, products) -> np.ndarray:
        """Row of each (user, product) pair by binary search; -1 where unrated."""
        if not (len(users) and self.raw.size):
            return np.full(len(users), -1)
        order = self._order
        keys = (self.user * self.n_products + self.product)[order]
        inside = (0 <= users) & (users < self.n_users)
        inside &= (0 <= products) & (products < self.n_products)
        query = np.where(inside, users * self.n_products + products, -1)
        pos = np.searchsorted(keys, query).clip(max=order.size - 1)
        return np.where(inside & (keys[pos] == query), order[pos], -1)

    def global_mean_raw(self) -> float:
        """Mean raw rating over all observed pairs."""
        if not self.raw.size:
            raise ValueError("store has no ratings")
        # Python's left-to-right sum: np.sum adds pairwise and can round differently
        return float(sum(self.raw.tolist()) / self.raw.size)


def _clean_line(obj: dict) -> ReviewRecord:
    """Validate one decoded line; raises ValueError with a short reason."""
    user, prod = obj.get("reviewerID"), obj.get("asin")
    if not isinstance(user, str) or not user:
        raise ValueError("missing or empty reviewerID")
    if not isinstance(prod, str) or not prod:
        raise ValueError("missing or empty asin")

    overall = obj.get("overall")
    if not isinstance(overall, (int, float)) or isinstance(overall, bool):
        raise ValueError("missing or non-numeric overall")
    # range first: int() of an infinite value raises OverflowError
    if not MIN_RATING <= overall <= MAX_RATING or float(overall) != int(overall):
        raise ValueError(f"overall must be an integer in [{MIN_RATING}, {MAX_RATING}]")

    helpful = obj.get("helpful", [0, 0])
    if type(helpful) is not list or len(helpful) != 2 or set(map(type, helpful)) - {int}:
        raise ValueError("helpful must be a pair of integers")
    yes, total = helpful
    if yes < 0 or total < 0:
        raise ValueError("negative vote count")
    if yes > total:
        raise ValueError("helpful_yes > votes_total")
    if total not in _INT64:
        raise ValueError("vote count outside int64")

    when = obj.get("unixReviewTime")
    if not isinstance(when, int) or isinstance(when, bool):
        raise ValueError("missing or non-integer unixReviewTime")
    if when not in _INT64:
        raise ValueError("unixReviewTime outside int64")

    return ReviewRecord(user, prod, int(overall), yes, total, when)


def parse_reviews(stream: Iterable[str]) -> ParseResult:
    """Parse line-delimited review JSON into records.

    Any exception raised while *reading* the stream propagates; problems
    inside a single line only skip that line and append a warning of the
    form ``"line N: reason"``.
    """
    result = ParseResult()
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deeply
            result.warnings.append(f"line {lineno}: invalid JSON")
            continue
        if not isinstance(obj, dict):
            result.warnings.append(f"line {lineno}: record is not an object")
            continue
        try:
            result.records.append(_clean_line(obj))
        except ValueError as exc:
            result.warnings.append(f"line {lineno}: {exc}")
    return result


def _typed_columns(rows, kinds: tuple):
    """Numpy columns (int64 for kind ``{int}``, else float64) of ``rows``, a
    list of lists or tuples with one value per kind, or None unless every
    value's exact type is in its kind (a bool is no int) and fits its column."""
    if (type(rows) not in (list, tuple) or set(map(type, rows)) - {list, tuple}
            or set(map(len, rows)) - {len(kinds)}):
        return None
    cols = list(zip(*rows)) or [()] * len(kinds)
    if any(set(map(type, col)) - kind for col, kind in zip(cols, kinds)):
        return None
    try:
        return [np.array(col, np.int64 if kind == {int} else np.float64)
                for col, kind in zip(cols, kinds)]
    except OverflowError:
        return None


def _first_bad_entry(entries, n_users: int, n_products: int) -> str:
    """Why the first malformed entry row is malformed, found row by row."""
    if type(entries) not in (list, tuple):
        return "entries must be a list of rows"
    seen: dict = {}  # pair -> its first row
    for pos, row in enumerate(entries):
        if type(row) not in (list, tuple) or len(row) != 6:
            return f"entry {pos}: expected 6 fields, got {row!r}"
        i, j, raw_rating, yes, total, when = row
        if not all(type(v) is int and v in _INT64 for v in (i, j, yes, total, when)):
            return f"entry {pos}: index, vote or time field is not an int64 integer: {row!r}"
        if not (type(raw_rating) in (int, float) and 0 < raw_rating <= MAX_RATING):
            return (f"entry {pos}: raw rating must be a number in (0, {MAX_RATING}], "
                    f"got {raw_rating!r}")
        if not 0 <= yes <= total:
            return f"entry {pos}: need 0 <= helpful_yes <= votes_total, got {row!r}"
        if not (0 <= i < n_users and 0 <= j < n_products):
            return f"entry {pos}: pair {(i, j)} outside the {n_users} x {n_products} store"
        if seen.setdefault((i, j), pos) != pos:
            return f"entry {pos}: duplicate pair {(i, j)}"
    return "malformed entries"


def _make_store(user_ids, product_ids, entries, reliability=()) -> InteractionStore:
    """The checked constructor: a store from index maps, entry rows and scores.

    ``entries`` lists (i, j, raw, helpful_yes, votes_total, unix_time) rows
    in input order: raw ratings in (0, 5], int64 ints elsewhere with 0 <=
    helpful_yes <= votes_total, each pair inside the maps and only once.
    ``reliability`` is as for :func:`with_reliability`; ValueError names a bad row.
    """
    for ids in (user_ids, product_ids):
        if (type(ids) not in (list, tuple) or set(map(type, ids)) - {str}
                or len(set(ids)) < len(ids)):
            raise ValueError("user and product ids must be lists of distinct strings")
    n_users, n_products = len(user_ids), len(product_ids)
    cols = _typed_columns(entries, ({int}, {int}, {int, float}, {int}, {int}, {int}))
    if cols is not None:  # then check values and duplicate pairs with numpy
        i, j, raw, yes, total, when = cols
        ok = (0 <= i) & (i < n_users) & (0 <= j) & (j < n_products)
        ok &= (0 < raw) & (raw <= MAX_RATING) & (0 <= yes) & (yes <= total)
    if cols is None or not ok.all() or (np.diff(np.sort(i * n_products + j)) == 0).any():
        raise ValueError(_first_bad_entry(entries, n_users, n_products))
    is_int = np.array([type(row[2]) is int for row in entries], dtype=bool)
    store = InteractionStore(tuple(user_ids), tuple(product_ids), i, j, raw, is_int, yes, total,
                             when, np.full(i.size, np.nan))
    return with_reliability(store, reliability)


def build_store(records: list[ReviewRecord]) -> InteractionStore:
    """Index records and build the immutable, unscored interaction store.

    Users and products get contiguous indices in first-appearance order.
    Of one (user, product) pair's reviews, the one with the latest
    ``unix_time`` is kept, the later input winning a tie. A record's
    values are checked here, with the rest of its row: ValueError names
    the first bad one.
    """
    users: dict = {}
    products: dict = {}
    kept: dict = {}  # pair -> record, in the input order of the kept records
    for rec in records:
        pair = (users.setdefault(rec.user_id, len(users)),
                products.setdefault(rec.product_id, len(products)))
        if pair not in kept or rec.unix_time >= kept[pair].unix_time:
            kept.pop(pair, None)
            kept[pair] = rec
    entries = [(i, j, rec.rating, rec.helpful_yes, rec.votes_total, rec.unix_time)
               for (i, j), rec in kept.items()]
    return _make_store(list(users), list(products), entries)


def with_reliability(store: InteractionStore, reliability) -> InteractionStore:
    """Copy of the store whose scores are exactly ``reliability``: a map
    (user_idx, product_idx) -> score, (user_idx, product_idx, score) triples
    as a saved store lists them, or an array of one score per row. Each pair
    must be rated and appear once; each score must lie in [0, 1]."""
    if isinstance(reliability, dict):
        reliability = [(*pair, v) for pair, v in reliability.items()]
    if isinstance(reliability, np.ndarray) and reliability.shape == store.raw.shape:
        cols = [store.user, store.product, reliability.astype(np.float64)]
    else:
        cols = _typed_columns(reliability, ({int}, {int}, {int, float}))
    if cols is None:
        raise ValueError("reliability must list (int user, int product, number score) triples")
    i, j, values = cols
    rows = store._rows_of(i, j)
    if (rows < 0).any():
        k = int(np.argmax(rows < 0))
        raise ValueError(f"reliability key {(int(i[k]), int(j[k]))} is not a rated pair")
    bad = ~((0.0 <= values) & (values <= 1.0))
    if bad.any():
        raise ValueError(f"reliability score {values[bad][0]} outside [0, 1]")
    if (np.diff(np.sort(rows)) == 0).any():
        raise ValueError("a reliability pair appears twice")
    column = np.full(store.raw.size, np.nan)
    column[rows] = values
    out = replace(store, reliability=column)
    if "_order" in vars(store):  # same user and product columns, so the same pair order
        vars(out)["_order"] = store._order
    return out


def restrict(store: InteractionStore, pairs) -> InteractionStore:
    """Sub-store of the rows of the given rated pairs, in input order.

    ``pairs`` is an iterable of (user_idx, product_idx) or a (k, 2) array.
    Index maps keep their size, so factor matrices built against the full
    store stay aligned.
    """
    pairs = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), np.int64)
    rows = store._rows_of(*pairs.reshape(-1, 2).T)
    if (rows < 0).any():
        raise ValueError(f"{np.count_nonzero(rows < 0)} pairs are not rated in this store")
    keep = np.unique(rows)  # sorted rows: input order
    return replace(store, **{name: getattr(store, name)[keep] for name in _COLUMNS})


def save_store(store: InteractionStore, path) -> None:
    """Write the store as canonical JSON (stable bytes for a given store)."""
    # a raw rating is written as an int exactly when it arrived as one
    raw = [int(v) if k else v for v, k in zip(store.raw.tolist(), store.raw_is_int.tolist())]
    doc = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "n_users": store.n_users,
        "n_products": store.n_products,
        "users": list(store.user_ids),
        "products": list(store.product_ids),
        "entries": list(zip(store.user.tolist(), store.product.tolist(), raw,
                            store.helpful_yes.tolist(), store.votes_total.tolist(),
                            store.unix_time.tolist())),
        "reliability": list(zip(*(column.tolist() for column in store.scored_arrays[:3]))),
    }
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps uses the C encoder; json.dump streams through the
        # pure-Python one. Both write the same bytes.
        fh.write(json.dumps(doc, separators=(",", ":")))
        fh.write("\n")


def load_store(path) -> InteractionStore:
    """Read a store written by :func:`save_store`; ValueError for anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:  # nested deeper than the parser's stack
            raise ValueError(f"{path}: JSON nested too deeply") from exc
    if type(doc) is not dict or doc.get("format") != STORE_FORMAT:
        raise ValueError(f"{path}: not a {STORE_FORMAT} file")
    if type(doc.get("version")) is not int or doc["version"] != STORE_VERSION:
        raise ValueError(f"{path}: unsupported store version {doc.get('version')!r}")
    store = _make_store(doc.get("users"), doc.get("products"), doc.get("entries"),
                        doc.get("reliability", []))
    counts = [doc.get("n_users"), doc.get("n_products")]
    if set(map(type, counts)) != {int} or counts != [store.n_users, store.n_products]:
        raise ValueError(f"{path}: dimension counts do not match index maps")
    return store
