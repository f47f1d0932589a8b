"""Seeded generator of line-delimited review JSON for the pipeline benchmark.

The output looks like the public product-review dumps the ``dualrec
ingest`` command reads: one JSON object per line with ``reviewerID``,
``asin``, ``overall``, ``helpful`` and ``unixReviewTime``. Unlike
``dualrec.harness.gen_synthetic`` it writes real helpful/total votes, so
reliability scoring is not degenerate, and it never builds a dense
users x products array.

What a given seed produces is fully known up front:

* ``n_ratings`` distinct (user, product) pairs with low-rank ratings;
* ``n_duplicates`` re-reviews of some of those pairs, each strictly later
  than the review it replaces, so ingest keeps the re-review;
* ``n_malformed`` ordinary bad lines (invalid JSON, a missing field, and
  helpful yes > total), each of which ingest skips and counts.
"""

from dataclasses import dataclass

import numpy as np

RANK = 3  # rank of the user x product affinity
DUP_SHARE = 0.02  # re-reviews, as a share of the distinct pairs
BAD_SHARE = 0.01  # malformed lines, as a share of the valid lines
_BAD_KINDS = ("invalid-json", "missing-field", "helpful-over-total")
_SUMMARIES = ("Waste of money", "Not great", "It is fine", "Works well", "Love it")
_EPOCH_START = 1_000_000_000


@dataclass(frozen=True)
class Shape:
    """Size and popularity profile of one generated review file.

    With ``hot_counts`` the first products get exactly those many
    reviews and the rest form a long tail; without it popularity is
    uniform across products.
    """

    n_users: int
    n_products: int
    n_ratings: int
    hot_counts: tuple = ()
    predict_users: int = 100
    predict_per_user: int = 20


@dataclass
class Reviews:
    """A generated review file's lines plus its known counts."""

    lines: list
    pairs: list  # (user key, product key) rows of the predict set
    n_ratings: int
    n_duplicates: int
    n_malformed: int
    max_product_reviews: int

    @property
    def n_records(self) -> int:
        """Lines that ingest accepts: every rating plus every re-review."""
        return self.n_ratings + self.n_duplicates


def user_key(u: int) -> str:
    # multiplying by an odd constant is a bijection modulo 2**48
    return f"A{(u * 2654435761) % (1 << 48):012X}"


def product_key(p: int) -> str:
    return f"B{p:09d}"


def _product_counts(shape: Shape, rng) -> np.ndarray:
    m, n = shape.n_products, shape.n_users
    hot = np.minimum(np.array(shape.hot_counts, dtype=np.int64), n)
    n_tail = m - hot.size
    tail_total = shape.n_ratings - int(hot.sum())
    if n_tail < 1 or tail_total < n_tail:
        raise ValueError(f"shape cannot hold its hot products: {shape}")
    if hot.size:
        # a gently falling tail whose head stays well below the hot products
        weights = 1.0 / (np.arange(1, n_tail + 1) + 50.0)
    else:
        weights = np.ones(n_tail)
    tail = 1 + rng.multinomial(tail_total - n_tail, weights / weights.sum())
    return np.concatenate([hot, np.minimum(tail, n)])


def _line(user: str, product: str, rating: int, yes: int, total: int, when: int) -> str:
    return (
        f'{{"reviewerID": "{user}", "asin": "{product}", "overall": {rating}.0, '
        f'"helpful": [{yes}, {total}], "unixReviewTime": {when}, '
        f'"summary": "{_SUMMARIES[rating - 1]}"}}'
    )


def _votes(rng, quality: np.ndarray):
    total = np.floor(np.expm1(rng.normal(0.3, 1.3, quality.size).clip(0.0, None))).astype(np.int64)
    yes = rng.binomial(total, 1.0 / (1.0 + np.exp(-quality)))
    return yes, total


def generate(shape: Shape, seed: int) -> Reviews:
    """Reviews for ``shape``, a pure function of ``seed``."""
    rng = np.random.default_rng(seed)
    n, m, r = shape.n_users, shape.n_products, RANK

    counts = _product_counts(shape, rng)
    prod = np.repeat(np.arange(m), counts)
    user = np.concatenate([rng.choice(n, c, replace=False) for c in counts])
    n_ratings = int(prod.size)

    u_fac = rng.normal(0.0, 1.0, (n, r))
    p_fac = rng.normal(0.0, 1.0, (m, r))
    u_bias = rng.normal(0.0, 0.7, n)
    p_bias = rng.normal(0.0, 0.5, m)
    affinity = np.einsum("ij,ij->i", u_fac[user], p_fac[prod]) / np.sqrt(r)
    score = 4.1 + u_bias[user] + p_bias[prod] + affinity + rng.normal(0.0, 0.35, n_ratings)
    rating = np.clip(np.rint(score), 1, 5).astype(np.int64)
    yes, total = _votes(rng, 0.8 * affinity + rng.normal(0.0, 1.0, n_ratings))
    launch = rng.integers(0, 200_000_000, m)
    when = _EPOCH_START + launch[prod] + rng.integers(0, 150_000_000, n_ratings)

    n_dup = int(round(DUP_SHARE * n_ratings))
    dup = rng.choice(n_ratings, n_dup, replace=False)
    dup_rating = rng.integers(1, 6, n_dup)
    dup_yes, dup_total = _votes(rng, rng.normal(0.0, 1.0, n_dup))
    dup_when = when[dup] + rng.integers(1, 10_000_000, n_dup)

    users = [user_key(u) for u in range(n)]
    products = [product_key(p) for p in range(m)]
    lines = [
        _line(users[u], products[p], int(x), int(y), int(t), int(w))
        for u, p, x, y, t, w in zip(user, prod, rating, yes, total, when)
    ]
    lines += [
        _line(users[user[k]], products[prod[k]], int(x), int(y), int(t), int(w))
        for k, x, y, t, w in zip(dup, dup_rating, dup_yes, dup_total, dup_when)
    ]

    n_bad = int(round(BAD_SHARE * len(lines)))
    for k, src in enumerate(rng.integers(0, n_ratings, n_bad)):
        kind = _BAD_KINDS[k % len(_BAD_KINDS)]
        u, p, x, w = users[user[src]], products[prod[src]], int(rating[src]), int(when[src])
        if kind == "invalid-json":
            full = _line(u, p, x, 1, 2, w)
            lines.append(full[: len(full) // 2])
        elif kind == "missing-field":
            lines.append(f'{{"reviewerID": "{u}", "overall": {x}.0, "helpful": [0, 0], '
                         f'"unixReviewTime": {w}}}')
        else:
            lines.append(_line(u, p, x, 3, 2, w))
    lines = [lines[k] for k in rng.permutation(len(lines))]

    active = np.unique(user)
    pred_users = rng.choice(active, min(shape.predict_users, active.size), replace=False)
    per_user = min(shape.predict_per_user, m)
    pairs = [
        (users[u], products[p])
        for u in pred_users
        for p in rng.choice(m, per_user, replace=False)
    ]
    return Reviews(
        lines=lines,
        pairs=pairs,
        n_ratings=n_ratings,
        n_duplicates=n_dup,
        n_malformed=n_bad,
        max_product_reviews=int(counts.max()),
    )


def write(reviews: Reviews, reviews_path, pairs_path) -> None:
    """Write the review lines and the user<TAB>product predict set."""
    with open(reviews_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(reviews.lines))
        fh.write("\n")
    with open(pairs_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{p}\n" for u, p in reviews.pairs)
