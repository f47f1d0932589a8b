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
all) score 0 instead of dividing by zero.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .ingest import InteractionStore, with_reliability

__all__ = [
    "RELIABLE",
    "NOT_RELIABLE",
    "ProductTimeline",
    "ReliabilityBreakdown",
    "helpfulness_scores",
    "recency_weights",
    "most_recent_scores",
    "top_ranking_scores",
    "combined_score",
    "reliability_score",
    "classify_reviewer",
    "score_product",
    "score_store",
    "attach_scores",
    "breakdown_rows",
]

RELIABLE = "reliable"
NOT_RELIABLE = "not-reliable"

DEFAULT_ALPHA = 0.5
DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class ProductTimeline:
    """Time-ordered reviews of one product with their helpfulness ranks.

    Position ``i`` (1-based) is the i-th review in time. ``ranks`` holds
    the helpfulness rank of each position: 1 is the most helpful review,
    ties broken by earlier timestamp then lower reviewer index.
    """

    product: int
    reviewers: tuple[int, ...]
    helpful_yes: tuple[int, ...]
    votes_total: tuple[int, ...]
    unix_times: tuple[int, ...]
    ranks: tuple[int, ...]

    @property
    def n_reviews(self) -> int:
        return len(self.reviewers)


def _raw_helpfulness(yes: tuple, total: tuple, fallback_max: bool) -> list[float]:
    """Unnormalized helpfulness weights yes^2 / total per review.

    ``fallback_max`` switches the denominator to the product's maximum
    helpful-vote count, for datasets that never recorded vote totals
    (encode those with votes_total equal to helpful_yes). Zero
    denominators yield 0 -- no evidence of helpfulness.
    """
    if fallback_max:
        denom = max(yes, default=0)
        return [y * y / denom if denom else 0.0 for y in yes]
    return [y * y / t if t else 0.0 for y, t in zip(yes, total)]


def build_timeline(
    store: InteractionStore, product: int, fallback_max: bool = False
) -> ProductTimeline:
    """Assemble one product's timeline from a store, assigning ranks."""
    rows = store.timelines.get(product)
    if rows is None:
        raise ValueError(f"product {product} has no reviews")
    users, yes, total, times = (tuple(column[rows].tolist()) for column in (
        store.user, store.helpful_yes, store.votes_total, store.unix_time))
    weights = _raw_helpfulness(yes, total, fallback_max)
    order = sorted(range(len(users)), key=lambda k: (-weights[k], times[k], users[k]))
    ranks = [0] * len(users)
    for rank, k in enumerate(order, start=1):
        ranks[k] = rank
    return ProductTimeline(
        product=product,
        reviewers=users,
        helpful_yes=yes,
        votes_total=total,
        unix_times=times,
        ranks=tuple(ranks),
    )


@dataclass(frozen=True)
class ReliabilityBreakdown:
    """All intermediate scores behind one review's reliability value."""

    h: float
    most: float
    top: float
    d: float
    rel: float
    alpha: float


def _normalize(weights: list[float]) -> list[float]:
    total = sum(weights)
    if total <= 0.0:
        return [0.0] * len(weights)
    return [w / total for w in weights]


def helpfulness_scores(timeline: ProductTimeline, fallback_max: bool = False) -> dict:
    """Normalized helpfulness weight per reviewer; all 0 when voteless."""
    weights = _raw_helpfulness(timeline.helpful_yes, timeline.votes_total, fallback_max)
    return dict(zip(timeline.reviewers, _normalize(weights)))


def recency_weights(timeline: ProductTimeline) -> list[float]:
    """Unnormalized recency weights: position i collects sum 1/s^2.

    The i-th reviewer of n' is read by the n' - i later buyers as the
    s-th most recent review for s = 1..n'-i; the last reviewer collects
    nothing.
    """
    n = timeline.n_reviews
    # prefix[k] = sum of 1/s^2 for s = 1..k, accumulated in ascending s
    prefix = [0.0] * n
    acc = 0.0
    for s in range(1, n):
        acc += 1.0 / (s * s)
        prefix[s] = acc
    return [prefix[n - i] for i in range(1, n + 1)]


def most_recent_scores(timeline: ProductTimeline) -> dict:
    """Normalized recency readership weight per reviewer.

    A singleton timeline scores 0 (nobody reads after the only review).
    """
    weights = recency_weights(timeline)
    return dict(zip(timeline.reviewers, _normalize(weights)))


def top_ranking_scores(timeline: ProductTimeline) -> dict:
    """Rank readership weight per reviewer: (n' - i) / rank^2, normalized."""
    n = timeline.n_reviews
    weights = [
        (n - i) / (rank * rank)
        for i, rank in zip(range(1, n + 1), timeline.ranks)
    ]
    return dict(zip(timeline.reviewers, _normalize(weights)))


def combined_score(top: float, most: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Blend of the two readership weights; alpha weights the rank side."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * top + (1.0 - alpha) * most


def reliability_score(h: float, d: float) -> float:
    """Average of the helpfulness and readership components."""
    return (h + d) / 2.0


def classify_reviewer(rel: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    """Label a review reliable when its score reaches the threshold."""
    return RELIABLE if rel >= threshold else NOT_RELIABLE


def score_product(
    timeline: ProductTimeline,
    alpha: float = DEFAULT_ALPHA,
    fallback_max: bool = False,
) -> dict:
    """Reliability breakdown per reviewer of one product."""
    h = helpfulness_scores(timeline, fallback_max)
    most = most_recent_scores(timeline)
    top = top_ranking_scores(timeline)
    out = {}
    for user in timeline.reviewers:
        d = combined_score(top[user], most[user], alpha)
        out[user] = ReliabilityBreakdown(
            h=h[user],
            most=most[user],
            top=top[user],
            d=d,
            rel=reliability_score(h[user], d),
            alpha=alpha,
        )
    return out


def score_store(
    store: InteractionStore,
    alpha: float = DEFAULT_ALPHA,
    fallback_max: bool = False,
    threads: int = 1,
) -> dict:
    """Reliability breakdowns for every rated (user, product) pair.

    Products are independent, so scoring optionally fans out over a
    thread pool; results are merged in product order either way, keeping
    the output deterministic.
    """
    products = sorted(store.timelines)

    def one(product):
        timeline = build_timeline(store, product, fallback_max)
        return product, score_product(timeline, alpha, fallback_max)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scored = list(pool.map(one, products))
    else:
        scored = [one(p) for p in products]

    return {(user, product): b for product, per_user in scored for user, b in per_user.items()}


def attach_scores(store: InteractionStore, breakdowns: dict) -> InteractionStore:
    """Store copy whose reliability matrix holds the given rel scores."""
    return with_reliability(store, {pair: b.rel for pair, b in breakdowns.items()})


def breakdown_rows(
    store: InteractionStore,
    breakdowns: dict,
    threshold: float = DEFAULT_THRESHOLD,
):
    """Tab-separated breakdown rows (with header), sorted by index pair."""
    yield "user\tproduct\th\tmost\ttop\td\trel\tlabel"
    for (i, j), b in sorted(breakdowns.items()):
        label = classify_reviewer(b.rel, threshold)
        yield (
            f"{store.user_ids[i]}\t{store.product_ids[j]}\t"
            f"{b.h!r}\t{b.most!r}\t{b.top!r}\t{b.d!r}\t{b.rel!r}\t{label}"
        )
