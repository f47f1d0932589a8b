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

:func:`save_store` writes a store as canonical JSON, and beside it, at
``<path>.cols``, a columnar copy: a :mod:`checkpoint` container of kind
``store`` that holds one sha256 of the JSON bytes and of the store the
copy holds. :func:`load_store` reads the copy instead of decoding the
JSON only when the copy's columns pass the store's rules and that digest
matches the JSON it has just read and the store the copy gives; any
other copy is ignored, so deleting one is harmless.
"""

import gc
import io
import json
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import checkpoint
from .linalg import sum_in_order

__all__ = [
    "PairArrays", "InteractionStore", "parse_reviews", "build_store", "store_from_columns",
    "with_reliability", "restrict", "save_store", "load_store",
]

MIN_RATING = 1
MAX_RATING = 5

STORE_FORMAT = "dualrec-store"
STORE_VERSION = 1

COPY_SUFFIX = ".cols"  # the columnar copy of a store file sits at its path plus this
COPY_KIND = "store"
COPY_LAYOUT = 2

_INT64 = range(-(2**63), 2**63)

# one decoder for every review line; json.loads is this plus a refusal of data after the value
_raw_decode = json.JSONDecoder().raw_decode


def _key_fault(key: str):
    """(The fault, the rule) that keeps ``key`` from being a user or product
    key, or None. The TSV outputs split rows on tabs and line breaks, and
    ``predict`` strips each pairs line, so no store key holds either or is padded.
    They are written as UTF-8, so no key holds a lone surrogate: an input byte
    that is not UTF-8, or a JSON ``\\udXXX`` escape."""
    if "\t" in key or "\n" in key or "\r" in key:
        return "holds a tab or line break", "must hold no tab or line break"
    if key != key.strip():
        return "has leading or trailing whitespace", "must have no leading or trailing whitespace"
    if not key.isascii() and any("\ud800" <= char <= "\udfff" for char in key):
        return "is not valid UTF-8 text", "must be valid UTF-8 text"
    return None


class _gc_paused:
    """Context manager: cyclic garbage collection is off inside the block and
    back to the caller's setting after it, also when the block raises.

    Store IO builds tens of thousands of acyclic lists and tuples that
    survive. Every collection it would trigger re-traverses them and the
    whole heap, and frees nothing. A class, not a generator: its exit
    allocates nothing, so the collection owed for the block starts after
    the function that paused has returned.
    """

    def __enter__(self):
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.was_enabled:
            gc.enable()


class ReviewRecord(NamedTuple):
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


# the store's columns, in order -> the dtype of each
_COLUMNS = {"user": np.int64, "product": np.int64, "raw": np.float64, "helpful_yes": np.int64,
            "votes_total": np.int64, "unix_time": np.int64, "reliability": np.float64}


@dataclass(frozen=True, eq=False)
class InteractionStore:
    """Entry columns plus the index maps; :func:`store_from_columns` builds one.

    One row per rated pair, in deduplicated input order, which fixes
    timeline tie-breaks and the on-disk layout. The columns are the
    ``user``/``product`` indices, the ``raw`` 1..5 rating (float64),
    ``helpful_yes``, ``votes_total``, ``unix_time`` (int64) and the
    ``reliability`` score in [0, 1], NaN where a row is unscored.
    Everything else is derived from them on first use.
    """

    user_ids: tuple[str, ...]
    product_ids: tuple[str, ...]
    user: np.ndarray
    product: np.ndarray
    raw: np.ndarray
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
    def pair_order(self) -> np.ndarray:
        """Rows in sorted (user, product) order."""
        return np.argsort(self.user * self.n_products + self.product, kind="stable")

    def _pair_columns(self, rows: np.ndarray, values: np.ndarray) -> PairArrays:
        out = PairArrays(self.user[rows], self.product[rows], values[rows], self.raw[rows])
        for arr in out:
            arr.flags.writeable = False
        return out

    @cached_property
    def rated_arrays(self) -> PairArrays:
        """Rated pairs as index and value columns, built once per store."""
        return self._pair_columns(self.pair_order, self.ratings)

    @cached_property
    def scored_arrays(self) -> PairArrays:
        """Reliability pairs as index and value columns, built once per store."""
        order = self.pair_order
        return self._pair_columns(order[~np.isnan(self.reliability[order])], self.reliability)

    def global_mean_raw(self) -> float:
        """Mean raw rating over all observed pairs."""
        if not self.raw.size:
            raise ValueError("store has no ratings")
        # left to right: np.sum adds pairwise and can round differently
        return float(sum_in_order(self.raw.tolist()) / self.raw.size)


def _clean_line(obj: dict) -> ReviewRecord:
    """Validate one decoded line; raises ValueError with a short reason."""
    user, prod = obj.get("reviewerID"), obj.get("asin")
    if not isinstance(user, str) or not user:
        raise ValueError("missing or empty reviewerID")
    if not isinstance(prod, str) or not prod:
        raise ValueError("missing or empty asin")
    if fault := _key_fault(user):
        raise ValueError(f"reviewerID {fault[0]}")
    if fault := _key_fault(prod):
        raise ValueError(f"asin {fault[0]}")

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
    with _gc_paused():
        for lineno, line in enumerate(stream, start=1):
            text = line.strip()
            if not text:
                continue
            # ValueError: JSONDecodeError, or a number over the int-string limit;
            # RecursionError: nested too deeply
            try:
                obj, end = _raw_decode(text)
            except (ValueError, RecursionError):
                end = None
            if end != len(text):  # no value, or data after it
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


def _typed_columns(rows, kinds: tuple, noun: str) -> list:
    """Numpy columns (int64 for kind ``{int}``, else float64) of ``rows``, a
    list of lists or tuples with one value per kind whose exact type is in
    its kind (a bool is no int) and fits its column; ValueError names the
    first row, as ``<noun> N``, that is not."""
    def columns(rows):
        if set(map(type, rows)) - {list, tuple} or set(map(len, rows)) - {len(kinds)}:
            return None
        cols = list(zip(*rows)) or [()] * len(kinds)
        if any(set(map(type, col)) - kind for col, kind in zip(cols, kinds)):
            return None
        try:
            return [np.array(col, np.int64 if kind == {int} else np.float64)
                    for col, kind in zip(cols, kinds)]
        except OverflowError:
            return None

    if type(rows) not in (list, tuple):
        raise ValueError(f"{noun} rows must be a list")
    out = columns(rows)
    if out is None:  # the same check, one row at a time, finds the first bad row
        pos = next(pos for pos, row in enumerate(rows) if columns([row]) is None)
        fields = ", ".join("int64" if kind == {int} else "number" for kind in kinds)
        raise ValueError(f"{noun} {pos}: expected {len(kinds)} fields ({fields}), "
                         f"got {rows[pos]!r}")
    return out


def _check_ids(user_ids, product_ids) -> None:
    """ValueError unless both are lists of distinct strings that are valid keys."""
    for ids in (user_ids, product_ids):
        if (type(ids) not in (list, tuple) or set(map(type, ids)) - {str}
                or len(set(ids)) < len(ids)):
            raise ValueError("user and product ids must be lists of distinct strings")
        if fault := next(filter(None, map(_key_fault, ids)), None):
            raise ValueError(f"user and product ids {fault[1]}")


def _check_scores(column: np.ndarray) -> None:
    """ValueError unless every score is NaN (unscored) or in [0, 1]."""
    bad = ~((0.0 <= column) & (column <= 1.0) | np.isnan(column))
    if bad.any():
        raise ValueError(f"reliability score {column[bad][0]} outside [0, 1]")


def store_from_columns(user_ids, product_ids, /, **columns) -> InteractionStore:
    """The one checked constructor: the store of index maps and the seven
    named columns, which it takes over. They come in order, 1-D, of one
    length and of their dtypes. ValueError unless the keys are distinct and
    valid, each rating lies in [MIN_RATING, MAX_RATING], 0 <= helpful_yes <=
    votes_total, each pair lies inside the maps and appears once, and each
    score is NaN or in [0, 1]; a row that breaks a rule is named as ``entry N``."""
    _check_ids(user_ids, product_ids)
    cols = list(columns.values())
    if (list(columns) != list(_COLUMNS) or set(map(type, cols)) != {np.ndarray}
            or {col.shape for col in cols} != {(cols[0].size,)}
            or any(col.dtype != _COLUMNS[name] for name, col in columns.items())):
        raise ValueError("store columns must be the seven 1-D columns of one length and dtype")
    i, j, raw, yes, total = cols[:5]
    n_users, n_products = len(user_ids), len(product_ids)
    masks = [(MIN_RATING <= raw) & (raw <= MAX_RATING), (0 <= yes) & (yes <= total),
             (0 <= i) & (i < n_users) & (0 <= j) & (j < n_products)]
    keys = i * n_products + j
    if not np.logical_and.reduce(masks).all() or (np.diff(np.sort(keys)) == 0).any():
        order = np.argsort(keys, kind="stable")  # of a pair's rows, the later ones repeat it
        once = np.ones(keys.size, bool)
        once[order[1:]] = keys[order[1:]] != keys[order[:-1]]
        masks.append(once)
        k = int(np.argmin(np.logical_and.reduce(masks)))
        pair = (int(i[k]), int(j[k]))
        faults = [f"raw rating must be a number in [{MIN_RATING}, {MAX_RATING}], "
                  f"got {float(raw[k])!r}",
                  f"need 0 <= helpful_yes <= votes_total, got {(int(yes[k]), int(total[k]))}",
                  f"pair {pair} outside the {n_users} x {n_products} store",
                  f"duplicate pair {pair}"]
        raise ValueError(f"entry {k}: " + next(f for m, f in zip(masks, faults) if not m[k]))
    _check_scores(columns["reliability"])
    return InteractionStore(tuple(user_ids), tuple(product_ids), **columns)


def _make_store(user_ids, product_ids, entries) -> InteractionStore:
    """An unscored store of index maps and entry rows (i, j, raw, helpful_yes,
    votes_total, unix_time) in input order; ValueError names a bad row."""
    cols = _typed_columns(entries, ({int}, {int}, {int, float}, {int}, {int}, {int}), "entry")
    return store_from_columns(user_ids, product_ids, **dict(zip(_COLUMNS, cols)),
                              reliability=np.full(len(entries), np.nan))


def build_store(records: list[ReviewRecord]) -> InteractionStore:
    """Index records and build the immutable, unscored interaction store.

    Users and products get contiguous indices in first-appearance order.
    Of one (user, product) pair's reviews, the one with the latest
    ``unix_time`` is kept, the later input winning a tie. A record's
    values are checked here, with the rest of its row: ValueError names
    the first bad one.
    """
    with _gc_paused():
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


def _score_column(store: InteractionStore, reliability) -> np.ndarray:
    """Row-aligned score column, NaN where unscored, of the (user_idx,
    product_idx, score) triples a saved store lists. Each pair must be rated
    and appear once, and no score may be NaN, which the column reads as
    unscored; :func:`with_reliability` checks the column's range."""
    users, products, values = _typed_columns(reliability, ({int}, {int}, {int, float}),
                                             "reliability triple")
    rows = np.full(users.size, -1)
    if users.size and store.raw.size:  # binary search of each pair's key
        order, n_products = store.pair_order, store.n_products
        keys = (store.user * n_products + store.product)[order]
        inside = (0 <= users) & (users < store.n_users) & (0 <= products) & (products < n_products)
        query = np.where(inside, users * n_products + products, -1)
        pos = np.searchsorted(keys, query).clip(max=order.size - 1)
        rows = np.where(inside & (keys[pos] == query), order[pos], -1)
    if (rows < 0).any():
        k = int(np.argmax(rows < 0))
        raise ValueError(f"reliability key {(int(users[k]), int(products[k]))} is not a rated pair")
    if np.isnan(values).any():
        raise ValueError("a reliability score is NaN")
    if (np.diff(np.sort(rows)) == 0).any():
        raise ValueError("a reliability pair appears twice")
    column = np.full(store.raw.size, np.nan)
    column[rows] = values
    return column


def with_reliability(store: InteractionStore, column) -> InteractionStore:
    """Copy of the store whose reliability column is ``column``: one float
    per row, NaN where a row is unscored and in [0, 1] everywhere else."""
    column = np.array(column, np.float64)  # a copy: the store makes it read-only
    if column.shape != store.raw.shape:
        raise ValueError(f"reliability needs one score per row, got shape {column.shape}")
    _check_scores(column)
    out = replace(store, reliability=column)
    if "pair_order" in vars(store):  # same user and product columns, so the same pair order
        vars(out)["pair_order"] = store.pair_order
    return out


def restrict(store: InteractionStore, rows) -> InteractionStore:
    """Sub-store of the given rows, in input order. Index maps keep their
    size, so factor matrices built against the full store stay aligned."""
    rows = np.asarray(rows)  # not cast: a bool mask or float rows would pass as indices
    if rows.ndim != 1 or rows.size and (rows.dtype.kind not in "iu"
                                        or ((rows < 0) | (rows >= store.raw.size)).any()):
        raise ValueError(f"rows must be a list of row indices in [0, {store.raw.size})")
    keep = np.unique(rows.astype(np.int64, copy=False))  # sorted rows: input order
    return replace(store, **{name: getattr(store, name)[keep] for name in _COLUMNS})


def _copy_path(path) -> str:
    return os.fspath(path) + COPY_SUFFIX


def _digest(data: bytes, store: InteractionStore) -> str:
    """Sha256 of the JSON bytes, then the store's id lists, then its columns
    as a copy's sections hold them, so a copy matches only the store saved."""
    import hashlib  # here, not at import time: it loads OpenSSL

    digest = hashlib.sha256(data)
    digest.update(json.dumps([store.user_ids, store.product_ids]).encode("utf-8"))
    for name in _COLUMNS:
        digest.update(checkpoint.as_section(getattr(store, name)).tobytes())
    return digest.hexdigest()


def save_store(store: InteractionStore, path) -> None:
    """Write the store as canonical JSON (stable bytes for a given store),
    then its columnar copy; a copy that cannot be written is left out."""
    with _gc_paused():
        # a whole raw rating is written as an int
        raw = [int(v) if v.is_integer() else v for v in store.raw.tolist()]
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
        # json.dumps uses the C encoder; json.dump streams through the
        # pure-Python one. Both write the same bytes.
        data = (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        meta = {"layout": COPY_LAYOUT, "sha256": _digest(data, store),
                "users": list(store.user_ids), "products": list(store.product_ids)}
        try:
            checkpoint.save_sections(_copy_path(path), COPY_KIND, meta,
                                     [(name, getattr(store, name)) for name in _COLUMNS])
        except OSError:
            pass  # the JSON alone is the whole store


def _load_copy(path, data: bytes) -> InteractionStore | None:
    """The store of the columnar copy beside ``path``, or None unless the
    copy is complete, of this layout, :func:`store_from_columns` takes its
    columns and it holds the sha256 of ``data`` (the JSON bytes) and that store."""
    try:
        kind, meta, cols = checkpoint.load_sections(_copy_path(path))
        layout = meta.get("layout")
        if kind == COPY_KIND and type(layout) is int and layout == COPY_LAYOUT:
            store = store_from_columns(meta.get("users"), meta.get("products"), **cols)
            if meta.get("sha256") == _digest(data, store):
                return store
    except (OSError, ValueError):
        pass
    return None


def load_store(path) -> InteractionStore:
    """Read a store written by :func:`save_store`; ValueError for anything else.

    The store comes from the columnar copy beside the file when that copy
    belongs to these JSON bytes and keeps the store's rules, and from the
    JSON otherwise; both give the same store.
    """
    with _gc_paused():
        with open(path, "rb") as fh:
            data = fh.read()
        store = _load_copy(path, data)
        if store is not None:
            return store
        try:  # decoded as a file opened in text mode would be
            doc = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        except RecursionError as exc:  # nested deeper than the parser's stack
            raise ValueError(f"{path}: JSON nested too deeply") from exc
        if type(doc) is not dict or doc.get("format") != STORE_FORMAT:
            raise ValueError(f"{path}: not a {STORE_FORMAT} file")
        if type(doc.get("version")) is not int or doc["version"] != STORE_VERSION:
            raise ValueError(f"{path}: unsupported store version {doc.get('version')!r}")
        store = _make_store(doc.get("users"), doc.get("products"), doc.get("entries"))
        store = with_reliability(store, _score_column(store, doc.get("reliability", [])))
        counts = [doc.get("n_users"), doc.get("n_products")]
        if set(map(type, counts)) != {int} or counts != [store.n_users, store.n_products]:
            raise ValueError(f"{path}: dimension counts do not match index maps")
        return store
