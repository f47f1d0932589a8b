import pytest

from dualrec.ingest import ReviewRecord, build_store


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


def store_from(rows, reliability=None):
    """Store out of (user, prod, rating, yes, total, when) tuples."""
    return build_store([record(*row) for row in rows], reliability)


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
