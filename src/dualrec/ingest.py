"""Review-stream parsing and the sparse interaction store.

Input is the line-delimited JSON used by the large public product-review
dumps: one object per line with at least ``reviewerID``, ``asin``,
``overall``, ``helpful`` (a ``[helpful_votes, total_votes]`` pair) and
``unixReviewTime``. Parsing is forgiving per line -- malformed lines are
skipped, counted and reported with their line number -- but strict about
the fields it does accept.

The :class:`InteractionStore` built from parsed records keeps the
deduplicated entry rows ``(i, j, raw, helpful_yes, votes_total,
unix_time)`` in input order as its record, the rating and reliability
matrices in sparse dict form, and the string<->index maps needed to get
back to the original keys. Per-product review timelines are a lazy view
of the entry rows, built only when the reliability stage asks for them.
Every store operation is linear in the number of entries. Stores are
immutable once built and safe to share across threads.
"""

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "ReviewRecord",
    "ParseResult",
    "TimelineEntry",
    "PairArrays",
    "InteractionStore",
    "parse_reviews",
    "normalize_rating",
    "build_store",
    "with_reliability",
    "restrict",
    "save_store",
    "load_store",
]

MAX_RATING = 5

STORE_FORMAT = "dualrec-store"
STORE_VERSION = 1


@dataclass(frozen=True)
class ReviewRecord:
    """One parsed review."""

    user_id: str
    product_id: str
    rating: int
    helpful_yes: int
    votes_total: int
    unix_time: int

    def __post_init__(self):
        if not 1 <= self.rating <= MAX_RATING:
            raise ValueError(f"rating must be in [1, {MAX_RATING}], got {self.rating}")
        if self.helpful_yes < 0 or self.votes_total < 0:
            raise ValueError("vote counts must be non-negative")
        if self.helpful_yes > self.votes_total:
            raise ValueError("helpful_yes > votes_total")


@dataclass
class ParseResult:
    """Parsed records plus per-line warnings for everything skipped."""

    records: list[ReviewRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def n_skipped(self) -> int:
        return len(self.warnings)


class TimelineEntry(NamedTuple):
    """One review inside a product's time-ordered review list."""

    user: int
    helpful_yes: int
    votes_total: int
    unix_time: int


class PairArrays(NamedTuple):
    """Column arrays of one sparse matrix's pairs in sorted-pair order."""

    idx_u: np.ndarray
    idx_p: np.ndarray
    values: np.ndarray  # normalized rating, or reliability score
    raw: np.ndarray  # raw 1..5 rating of the pair


def _sorted_pair_arrays(values: dict, raw_ratings: dict) -> PairArrays:
    pairs = sorted(values)
    idx = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    out = PairArrays(
        idx[:, 0].copy(),
        idx[:, 1].copy(),
        np.array([values[p] for p in pairs], dtype=np.float64),
        np.array([raw_ratings[p] for p in pairs], dtype=np.float64),
    )
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class InteractionStore:
    """Entry rows, sparse rating and reliability matrices, index maps.

    ``entries`` is the record: one ``(i, j, raw, helpful_yes,
    votes_total, unix_time)`` row per rated pair, in deduplicated input
    order, which fixes timeline tie-breaks and the on-disk layout.
    ``ratings`` maps (user_idx, product_idx) to the normalized rating in
    (0, 1]; ``raw_ratings`` keeps the original 1..5 value so downstream
    error metrics never re-derive it. ``reliability`` is independent of
    ``ratings``: its key set (``psi``) may be empty or any subset of the
    rated pairs. ``timelines`` is derived from ``entries`` on first use.
    """

    user_ids: tuple[str, ...]
    product_ids: tuple[str, ...]
    raw_ratings: dict
    ratings: dict
    reliability: dict
    entries: tuple

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_products(self) -> int:
        return len(self.product_ids)

    @property
    def omega(self):
        """Observed rating pairs (keys of the rating matrix)."""
        return self.ratings.keys()

    @property
    def psi(self):
        """Observed reliability pairs (keys of the reliability matrix)."""
        return self.reliability.keys()

    @cached_property
    def user_index(self) -> dict:
        return {key: idx for idx, key in enumerate(self.user_ids)}

    @cached_property
    def product_index(self) -> dict:
        return {key: idx for idx, key in enumerate(self.product_ids)}

    @cached_property
    def timelines(self) -> dict:
        """Product index -> its reviews ordered by (unix_time, entry position)."""
        by_product: dict = {}
        for pos, (i, j, _, yes, total, when) in enumerate(self.entries):
            by_product.setdefault(j, []).append((when, pos, TimelineEntry(i, yes, total, when)))
        # (when, pos) is unique, so the sort never compares the entries
        return {j: tuple(row[2] for row in sorted(rows)) for j, rows in by_product.items()}

    @cached_property
    def rated_arrays(self) -> PairArrays:
        """Rated pairs as index and value columns, built once per store."""
        return _sorted_pair_arrays(self.ratings, self.raw_ratings)

    @cached_property
    def scored_arrays(self) -> PairArrays:
        """Reliability pairs as index and value columns, built once per store."""
        return _sorted_pair_arrays(self.reliability, self.raw_ratings)

    def global_mean_raw(self) -> float:
        """Mean raw rating over all observed pairs."""
        if not self.raw_ratings:
            raise ValueError("store has no ratings")
        return float(sum(self.raw_ratings.values()) / len(self.raw_ratings))


def normalize_rating(raw) -> float:
    """Map a raw 1..5 rating onto (0, 1] by dividing by the maximum."""
    value = float(raw)
    if value != int(value) or not 1 <= value <= MAX_RATING:
        raise ValueError(f"rating must be an integer in [1, {MAX_RATING}], got {raw!r}")
    return value / MAX_RATING


def _clean_line(obj: dict) -> ReviewRecord:
    """Validate one decoded line; raises ValueError with a short reason."""
    user = obj.get("reviewerID")
    prod = obj.get("asin")
    if not isinstance(user, str) or not user:
        raise ValueError("missing or empty reviewerID")
    if not isinstance(prod, str) or not prod:
        raise ValueError("missing or empty asin")

    overall = obj.get("overall")
    if not isinstance(overall, (int, float)) or isinstance(overall, bool):
        raise ValueError("missing or non-numeric overall")
    # range first: int() of an infinite value raises OverflowError
    if not 1 <= overall <= MAX_RATING or float(overall) != int(overall):
        raise ValueError(f"overall must be an integer in [1, {MAX_RATING}]")

    helpful = obj.get("helpful", [0, 0])
    if (
        not isinstance(helpful, (list, tuple))
        or len(helpful) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in helpful)
    ):
        raise ValueError("helpful must be a pair of integers")
    yes, total = helpful
    if yes < 0 or total < 0:
        raise ValueError("negative vote count")
    if yes > total:
        raise ValueError("helpful_yes > votes_total")

    when = obj.get("unixReviewTime")
    if not isinstance(when, int) or isinstance(when, bool):
        raise ValueError("missing or non-integer unixReviewTime")

    return ReviewRecord(
        user_id=user,
        product_id=prod,
        rating=int(overall),
        helpful_yes=yes,
        votes_total=total,
        unix_time=when,
    )


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
        except json.JSONDecodeError:
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


def _make_store(user_ids, product_ids, entries, reliability) -> InteractionStore:
    """Assemble a store from deduplicated entries.

    ``entries`` is a sequence of (i, j, raw, helpful_yes, votes_total,
    unix_time) in input order; raw ratings may be non-integral for
    synthetic data. Every pair must lie inside the index maps and appear
    once. Reliability keys must be rated pairs.
    """
    n_users, n_products = len(user_ids), len(product_ids)
    raw: dict = {}
    norm: dict = {}
    rows = []
    for pos, row in enumerate(entries):
        if not isinstance(row, (list, tuple)) or len(row) != 6:
            raise ValueError(f"entry {pos}: expected 6 fields, got {row!r}")
        i, j, raw_rating, yes, total, when = row
        pair = (int(i), int(j))
        if not (0 <= pair[0] < n_users and 0 <= pair[1] < n_products):
            raise ValueError(f"entry {pos}: pair {pair} outside the {n_users} x {n_products} store")
        if pair in raw:
            raise ValueError(f"entry {pos}: duplicate pair {pair}")
        # keep ints as ints so integer ratings survive JSON round-trips
        value = raw_rating if isinstance(raw_rating, int) else float(raw_rating)
        raw[pair] = value
        norm[pair] = raw_rating / MAX_RATING
        rows.append((pair[0], pair[1], value, int(yes), int(total), int(when)))

    return InteractionStore(
        user_ids=tuple(user_ids),
        product_ids=tuple(product_ids),
        raw_ratings=raw,
        ratings=norm,
        reliability=_checked_reliability(reliability, raw),
        entries=tuple(rows),
    )


def _checked_reliability(reliability: dict, raw_ratings: dict) -> dict:
    """Reliability map with int pairs and float scores in [0, 1] on rated pairs."""
    rel = {}
    for pair, value in reliability.items():
        pair = (int(pair[0]), int(pair[1]))
        if pair not in raw_ratings:
            raise ValueError(f"reliability key {pair} is not a rated pair")
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"reliability score {value} outside [0, 1]")
        rel[pair] = value
    return rel


def build_store(records: list[ReviewRecord], reliability: dict | None = None) -> InteractionStore:
    """Index records and build the immutable interaction store.

    Users and products get contiguous indices in first-appearance order.
    Duplicate (user, product) reviews keep the one with the latest
    ``unix_time`` (later input position wins a timestamp tie). The
    optional ``reliability`` map is keyed by (user_idx, product_idx)
    under that same indexing.
    """
    user_ids: list[str] = []
    product_ids: list[str] = []
    user_index: dict = {}
    product_index: dict = {}
    kept: dict = {}

    for pos, rec in enumerate(records):
        if rec.user_id not in user_index:
            user_index[rec.user_id] = len(user_ids)
            user_ids.append(rec.user_id)
        if rec.product_id not in product_index:
            product_index[rec.product_id] = len(product_ids)
            product_ids.append(rec.product_id)
        pair = (user_index[rec.user_id], product_index[rec.product_id])
        if pair in kept:
            _, old_time, old_pos = kept[pair]
            if rec.unix_time >= old_time:
                kept[pair] = (rec, rec.unix_time, pos)
        else:
            kept[pair] = (rec, rec.unix_time, pos)

    ordered = sorted(kept.items(), key=lambda item: item[1][2])
    entries = [
        (pair[0], pair[1], rec.rating, rec.helpful_yes, rec.votes_total, rec.unix_time)
        for pair, (rec, _, _) in ordered
    ]
    return _make_store(user_ids, product_ids, entries, reliability or {})


def with_reliability(store: InteractionStore, reliability: dict) -> InteractionStore:
    """Return a copy of the store with the reliability matrix replaced."""
    return replace(store, reliability=_checked_reliability(reliability, store.raw_ratings))


def restrict(store: InteractionStore, pairs) -> InteractionStore:
    """Sub-store containing only the given rated pairs.

    Index maps keep their original size so factor matrices built against
    the full store stay aligned; only the sparse contents shrink.
    """
    keep = set(pairs)
    unknown = keep - store.raw_ratings.keys()
    if unknown:
        raise ValueError(f"{len(unknown)} pairs are not rated in this store")
    entries = [row for row in store.entries if (row[0], row[1]) in keep]
    rel = {pair: v for pair, v in store.reliability.items() if pair in keep}
    return _make_store(store.user_ids, store.product_ids, entries, rel)


def save_store(store: InteractionStore, path) -> None:
    """Write the store as canonical JSON (stable bytes for a given store)."""
    doc = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "n_users": store.n_users,
        "n_products": store.n_products,
        "users": list(store.user_ids),
        "products": list(store.product_ids),
        "entries": store.entries,
        "reliability": [[i, j, v] for (i, j), v in sorted(store.reliability.items())],
    }
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps uses the C encoder; json.dump streams through the
        # pure-Python one. Both write the same bytes.
        fh.write(json.dumps(doc, separators=(",", ":")))
        fh.write("\n")


def load_store(path) -> InteractionStore:
    """Read a store written by :func:`save_store`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != STORE_FORMAT:
        raise ValueError(f"{path}: not a {STORE_FORMAT} file")
    if doc.get("version") != STORE_VERSION:
        raise ValueError(f"{path}: unsupported store version {doc.get('version')}")
    if len(doc["users"]) != doc["n_users"] or len(doc["products"]) != doc["n_products"]:
        raise ValueError(f"{path}: dimension counts do not match index maps")
    try:
        reliability = {(int(i), int(j)): float(v) for i, j, v in doc.get("reliability", [])}
        return _make_store(doc["users"], doc["products"], doc["entries"], reliability)
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError(f"{path}: malformed store: {exc}") from exc
