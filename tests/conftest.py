import os
from pathlib import Path

import numpy as np
import pytest

from dualrec.ingest import COPY_SUFFIX, ReviewRecord, build_store, with_reliability


def copy_path(path) -> Path:
    """Where ``save_store`` writes the columnar copy of the store file ``path``."""
    return Path(os.fspath(path) + COPY_SUFFIX)


def rated(store) -> dict:
    """(user, product) -> raw rating of every rated pair, in row order."""
    return dict(zip(zip(store.user.tolist(), store.product.tolist()), store.raw.tolist()))


def scored(store) -> dict:
    """(user, product) -> reliability score of every scored pair."""
    idx_u, idx_p, values, _ = store.scored_arrays
    return dict(zip(zip(idx_u.tolist(), idx_p.tolist()), values.tolist()))


def record(user, prod, rating=3, yes=0, total=0, when=0):
    return ReviewRecord(
        user_id=user, product_id=prod, rating=rating,
        helpful_yes=yes, votes_total=total, unix_time=when,
    )


def with_scores(store, scores):
    """Copy of ``store`` scored with ``scores``, a map (user_idx, product_idx)
    -> score; a rated pair the map leaves out is unscored."""
    return with_reliability(store, [scores.get(pair, np.nan) for pair in rated(store)])


def store_from(rows, reliability=None):
    """Store out of (user, prod, rating, yes, total, when) tuples, scored
    with ``reliability``, a map (user_idx, product_idx) -> score, when it is given."""
    store = build_store([record(*row) for row in rows])
    return with_scores(store, reliability) if reliability else store


def pair_forward(forward, model, i, j):
    """``forward(model, idx_u, idx_p)`` of the one pair (i, j): its raw
    prediction as a float, and the cache its backward pass reads."""
    raw, cache = forward(model, np.array([i]), np.array([j]))
    return float(raw[0]), cache


@pytest.fixture
def tiny_store():
    """3 users x 3 products, 6 ratings, votes on one product."""
    rows = [
        ("alice", "p1", 5, 3, 5, 100),
        ("bob", "p1", 3, 1, 1, 200),
        ("carol", "p1", 1, 0, 2, 300),
        ("alice", "p2", 4, 0, 0, 110),
        ("bob", "p2", 2, 0, 0, 210),
        ("carol", "p3", 5, 2, 2, 130),
    ]
    return store_from(rows)


def random_store(rng, n_users=4, n_products=4, density=0.8, with_reliability=True):
    """Small random store for gradient and training tests."""
    rows = []
    when = 0
    for i in range(n_users):
        for j in range(n_products):
            if rng.random() < density:
                rows.append(
                    (f"u{i}", f"p{j}", int(rng.integers(1, 6)),
                     int(rng.integers(0, 3)), int(rng.integers(3, 6)), when)
                )
                when += 1
    store = store_from(rows)
    if with_reliability:
        rel = {pair: float(rng.uniform(0.05, 0.95)) for pair in rated(store)}
        store = store_from(rows, rel)
    return store
