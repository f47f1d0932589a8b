"""Per-review reliability scores from the review network.

Each review earns three normalized weights inside its product's review
timeline:

* a helpfulness weight -- the squared helpful-vote ratio of the review,
  normalized over the product, so reviews with many "yes" votes dominate
  quadratically;
* a recency readership weight -- every later buyer reads the review as
  the k-th most recent one and contributes 1/k^2, so recent reviews are
  read more;
* a rank readership weight -- later buyers also read reviews in
  helpfulness-rank order, contributing (n' - i) / rank^2.

The two readership weights blend with a configurable ``alpha`` and the
blend averages with the helpfulness weight to give the final reliability
score in [0, 1]. Degenerate products (a single reviewer, or no votes at
all) score 0 instead of dividing by zero. Each product's timeline is one
contiguous segment of rows, and all segments are scored at once.
"""

from typing import NamedTuple

import numpy as np

from .ingest import InteractionStore, with_reliability
from .training import check_int

__all__ = [
    "recency_weights", "check_unit", "score_product", "score_store", "attach_scores",
    "breakdown_rows",
]

RELIABLE = "reliable"
NOT_RELIABLE = "not-reliable"

DEFAULT_ALPHA = 0.5
DEFAULT_THRESHOLD = 0.5


class ReliabilityBreakdown(NamedTuple):
    """The intermediate scores behind reliability values: floats for one
    review, or float64 columns with one entry per store row."""

    h: float
    most: float
    top: float
    d: float
    rel: float


class _Segments(NamedTuple):
    """Rows in contiguous segments, one per product timeline."""

    starts: np.ndarray  # first row of each segment
    lengths: np.ndarray  # rows in each segment
    position: np.ndarray  # per row: its 1-based place i in its segment
    length: np.ndarray  # per row: its segment's length n'


def _segments(starts: np.ndarray, n_rows: int) -> _Segments:
    lengths = np.diff(starts, append=n_rows)
    position = np.arange(1, n_rows + 1) - np.repeat(starts, lengths)
    return _Segments(starts, lengths, position, np.repeat(lengths, lengths))


def _helpfulness_weights(yes: np.ndarray, total: np.ndarray, seg: _Segments,
                         fallback_max: bool) -> np.ndarray:
    """Unnormalized helpfulness weights yes^2 / total per review.

    ``fallback_max`` switches the denominator to the product's maximum
    helpful-vote count, for datasets that never recorded vote totals
    (encode those with votes_total equal to helpful_yes). Zero
    denominators yield 0 -- no evidence of helpfulness.
    """
    denom = np.repeat(np.maximum.reduceat(yes, seg.starts), seg.lengths) if fallback_max else total
    weights = np.zeros(yes.size)
    # below these bounds yes^2 and denom are exact float64s, so the quotient
    # is the correctly rounded one of Python's int division
    exact = (yes < 2**26) & (denom < 2**53)
    fast = exact & (denom > 0)
    weights[fast] = yes[fast] * yes[fast] / denom[fast]
    for k in np.flatnonzero(~exact).tolist():  # denom >= yes >= 2**26 here
        weights[k] = int(yes[k]) ** 2 / int(denom[k])
    return weights


def _ranks(weights: np.ndarray, times: np.ndarray, users: np.ndarray,
           seg: _Segments) -> np.ndarray:
    """Helpfulness rank of each row in its segment: 1 is the largest
    weight, ties broken by earlier time then lower user index."""
    segment = np.repeat(np.arange(seg.starts.size), seg.lengths)
    order = np.lexsort((users, times, -weights, segment))
    ranks = np.empty_like(order)
    ranks[order] = seg.position  # each segment keeps its rows in ``order``
    return ranks


def _recency_weights(seg: _Segments) -> np.ndarray:
    """Position i of n' collects prefix[n' - i], the sum of 1/s^2 for s = 1..n'-i."""
    s = np.arange(1, seg.length.max(initial=1))
    prefix = np.concatenate(([0.0], np.cumsum(1.0 / (s * s))))  # adds in ascending s
    return prefix[seg.length - seg.position]


def _normalize(weights: np.ndarray, seg: _Segments) -> np.ndarray:
    """Each row of weights over its segment's total; 0 where that is 0. A
    total adds left to right from 0, as Python 3.11's float ``sum`` does;
    ``np.add.reduceat`` can round differently."""
    bounds = np.append(seg.starts, weights.shape[1]).tolist()
    totals = np.empty((weights.shape[0], seg.starts.size))
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        totals[:, k] = np.cumsum(weights[:, a:b], axis=1)[:, -1]
    totals = np.repeat(totals, seg.lengths, axis=1)
    return np.divide(weights, totals, out=np.zeros_like(weights), where=totals > 0.0)


def _score_timelines(users, yes, total, times, starts, alpha: float,
                     fallback_max: bool) -> ReliabilityBreakdown:
    """Score columns of timelines that begin at ``starts``."""
    seg = _segments(starts, users.size)
    weights = _helpfulness_weights(yes, total, seg, fallback_max)
    ranks = _ranks(weights, times, users, seg)
    read_by_rank = (seg.length - seg.position) / (ranks * ranks)
    h, most, top = _normalize(np.stack([weights, _recency_weights(seg), read_by_rank]), seg)
    d = combined_score(top, most, alpha)
    return ReliabilityBreakdown(h, most, top, d, reliability_score(h, d))


def recency_weights(n_reviews: int) -> list[float]:
    """Unnormalized recency weights of a timeline of ``n_reviews``:
    position i collects sum 1/s^2.

    The i-th reviewer of n' is read by the n' - i later buyers as the
    s-th most recent review for s = 1..n'-i; the last reviewer collects
    nothing.
    """
    check_int("n_reviews", n_reviews, 1)
    return _recency_weights(_segments(np.zeros(1, np.int64), n_reviews)).tolist()


def check_unit(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def combined_score(top, most, alpha: float = DEFAULT_ALPHA):
    """Blend of the two readership weights; alpha weights the rank side."""
    check_unit("alpha", alpha)
    return alpha * top + (1.0 - alpha) * most


def reliability_score(h, d):
    """Average of the helpfulness and readership components."""
    return (h + d) / 2.0


def classify_reviewer(rel: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    """Label a review reliable when its score reaches the threshold."""
    return RELIABLE if rel >= threshold else NOT_RELIABLE


def _timeline_columns(store: InteractionStore, rows: np.ndarray) -> tuple:
    """The columns scoring reads, over the given rows in timeline order."""
    return tuple(column[rows] for column in (
        store.user, store.helpful_yes, store.votes_total, store.unix_time))


def score_product(store: InteractionStore, product: int, alpha: float = DEFAULT_ALPHA,
                  fallback_max: bool = False) -> dict:
    """Reliability breakdown per reviewer of one product, in time order: the
    product's rows of ``score_store``."""
    rows = store.timelines.get(product)
    if rows is None:
        raise ValueError(f"product {product} has no reviews")
    columns = _timeline_columns(store, rows)
    scores = _score_timelines(*columns, np.zeros(1, np.int64), alpha, fallback_max)
    return {user: ReliabilityBreakdown(*values)
            for user, *values in zip(columns[0].tolist(), *(c.tolist() for c in scores))}


def score_store(store: InteractionStore, alpha: float = DEFAULT_ALPHA,
                fallback_max: bool = False) -> ReliabilityBreakdown:
    """Breakdown columns with one entry per store row, in row order."""
    order, starts = store.timeline_order
    scores = np.empty((len(ReliabilityBreakdown._fields), order.size))
    scores[:, order] = _score_timelines(*_timeline_columns(store, order), starts, alpha,
                                        fallback_max)
    return ReliabilityBreakdown(*scores)


def attach_scores(store: InteractionStore, scores: ReliabilityBreakdown) -> InteractionStore:
    """Store copy whose reliability column holds the given rel scores."""
    return with_reliability(store, scores.rel)


def breakdown_rows(store: InteractionStore, scores: ReliabilityBreakdown,
                   threshold: float = DEFAULT_THRESHOLD):
    """Tab-separated breakdown rows (with header), sorted by index pair."""
    order = store.pair_order
    users = map(store.user_ids.__getitem__, store.user[order].tolist())
    products = map(store.product_ids.__getitem__, store.product[order].tolist())
    yield "user\tproduct\th\tmost\ttop\td\trel\tlabel"
    for user, product, h, most, top, d, rel in zip(
            users, products, *(column[order].tolist() for column in scores)):
        yield (f"{user}\t{product}\t{h!r}\t{most!r}\t{top!r}\t{d!r}\t{rel!r}\t"
               f"{classify_reviewer(rel, threshold)}")
