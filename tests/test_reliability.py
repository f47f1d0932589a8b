import math
import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrec.ingest import _make_store, restrict
from dualrec.reliability import (
    NOT_RELIABLE,
    RELIABLE,
    ReliabilityBreakdown,
    attach_scores,
    classify_reviewer,
    combined_score,
    recency_weights,
    reliability_score,
    score_product,
    score_store,
)

from conftest import rated, scored, store_from


def scores_of(rows, **settings):
    """``score_product`` of product p0 built from (user, rating, yes, total, when)."""
    store = store_from([(u, "p0", r, y, t, w) for u, r, y, t, w in rows])
    return score_product(store, 0, **settings)


def field(scores, name):
    """Reviewer -> the ``name`` score of each of ``scores``' breakdowns."""
    return {user: getattr(b, name) for user, b in scores.items()}


class TestHelpfulness:
    def test_hand_worked_votes(self):
        # l = (3^2/5, 1^2/1, 0^2/2) = (1.8, 1.0, 0.0) summing to 2.8,
        # so h = (9/14, 5/14, 0)
        h = field(scores_of([("a", 3, 3, 5, 1), ("b", 3, 1, 1, 2), ("c", 3, 0, 2, 3)]), "h")
        assert math.isclose(h[0], 9 / 14, rel_tol=1e-12)
        assert math.isclose(h[1], 5 / 14, rel_tol=1e-12)
        assert h[2] == 0.0

    def test_single_review_normalizes_to_one(self):
        assert field(scores_of([("a", 4, 4, 4, 1)]), "h") == {0: 1.0}

    def test_all_zero_votes_scores_zero(self):
        assert set(field(scores_of([("a", 4, 0, 0, 1), ("b", 2, 0, 0, 2)]), "h").values()) == {0.0}

    def test_fallback_divides_by_max_helpful(self):
        # vote-less data is encoded as total == yes; fallback replaces
        # denominators with max yes = 3: l = (9/3, 1/3, 0)
        h = field(scores_of([("a", 3, 3, 3, 1), ("b", 3, 1, 1, 2), ("c", 3, 0, 0, 3)],
                            fallback_max=True), "h")
        total = 3.0 + 1 / 3
        assert math.isclose(h[0], 3.0 / total, rel_tol=1e-12)
        assert math.isclose(h[1], (1 / 3) / total, rel_tol=1e-12)
        assert h[2] == 0.0


class TestMostRecent:
    def test_five_reviewer_series(self):
        # c = (1 + 1/4 + 1/9 + 1/16, 1 + 1/4 + 1/9, 1.25, 1, 0)
        most = field(scores_of([(f"u{i}", 3, 0, 0, i) for i in range(5)]), "most")
        c = [205 / 144, 49 / 36, 5 / 4, 1.0, 0.0]
        total = sum(c)
        for pos in range(5):
            assert math.isclose(most[pos], c[pos] / total, rel_tol=1e-12)

    def test_first_of_five_matches_partial_sum(self):
        most = field(scores_of([(f"u{i}", 3, 0, 0, i) for i in range(5)]), "most")
        assert math.isclose(most[0], 0.282758620689, rel_tol=1e-9)

    def test_singleton_scores_zero(self):
        assert field(scores_of([("a", 3, 0, 0, 1)]), "most") == {0: 0.0}

    def test_non_increasing_in_time(self):
        most = field(scores_of([(f"u{i}", 3, 0, 0, i) for i in range(9)]), "most")
        values = [most[p] for p in range(9)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_recency_weights_of_a_review_count(self):
        assert recency_weights(1) == [0.0]
        assert recency_weights(3) == [1 + 1 / 4, 1.0, 0.0]
        assert recency_weights(np.int64(2)) == [1.0, 0.0]

    @pytest.mark.parametrize("n_reviews", [0, -2, 2.0, "3", None])
    def test_recency_weights_refuse_a_count_below_one_or_not_an_integer(self, n_reviews):
        with pytest.raises(ValueError, match="n_reviews must be an integer >= 1"):
            recency_weights(n_reviews)


class TestTopRanking:
    def test_hand_worked_ranks(self):
        # time order a, b, c with helpfulness ranks (2, 1, 3):
        # q = (1/4 * 2, 1 * 1, 1/9 * 0) = (0.5, 1, 0) -> (1/3, 2/3, 0)
        top = field(scores_of([("a", 3, 1, 2, 1), ("b", 3, 2, 2, 2), ("c", 3, 0, 2, 3)]), "top")
        assert math.isclose(top[0], 1 / 3, rel_tol=1e-12)
        assert math.isclose(top[1], 2 / 3, rel_tol=1e-12)
        assert top[2] == 0.0

    def test_last_reviewer_always_zero(self):
        top = field(scores_of([("a", 3, 5, 5, 1), ("b", 3, 1, 5, 2), ("c", 3, 4, 5, 3)]), "top")
        assert top[2] == 0.0

    def test_singleton_scores_zero(self):
        assert field(scores_of([("a", 3, 4, 4, 1)]), "top") == {0: 0.0}

    def test_rank_ties_broken_by_earlier_time(self):
        # a and b weigh 1 each, c weighs 0. The earlier a takes rank 1:
        # q = (2/1, 1/4, 0) -> (8/9, 1/9, 0); the other way round would
        # give q = (2/4, 1/1, 0) -> (1/3, 2/3, 0)
        top = field(scores_of([("a", 3, 2, 4, 5), ("b", 3, 2, 4, 9), ("c", 3, 0, 4, 12)]), "top")
        assert math.isclose(top[0], 8 / 9, rel_tol=1e-12)
        assert math.isclose(top[1], 1 / 9, rel_tol=1e-12)
        assert top[2] == 0.0

    def test_ranks_follow_the_scoring_fallback(self):
        # votes (3, 3), (4, 10), (1, 1) over the max helpful count 4 weigh
        # (9/4, 16/4, 1/4): ranks (2, 1, 3), q = (2/4, 1, 0) -> (1/3, 2/3, 0)
        rows = [("a", 3, 3, 3, 1), ("b", 3, 4, 10, 2), ("c", 3, 1, 1, 3)]
        top = [b.top for b in scores_of(rows, fallback_max=True).values()]
        assert math.isclose(top[0], 1 / 3, rel_tol=1e-12)
        assert math.isclose(top[1], 2 / 3, rel_tol=1e-12)
        assert top[2] == 0.0
        store = store_from([(u, "p0", r, y, t, w) for u, r, y, t, w in rows])
        assert top == score_store(store, fallback_max=True).top.tolist()


class TestCombinedAndFinal:
    def test_symmetric_average(self):
        assert combined_score(0.4, 0.6, 0.5) == 0.5

    def test_boundary_weight(self):
        assert combined_score(1.0, 0.0, 1.0) == 1.0

    def test_chained_hand_example(self):
        top = 1 / 3
        most = 205 / 725
        d = combined_score(top, most, 0.5)
        assert math.isclose(d, 0.30804597701, rel_tol=1e-9)
        rel = reliability_score(9 / 14, d)
        assert math.isclose(rel, 0.47545155993, rel_tol=1e-9)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            combined_score(0.5, 0.5, 1.5)

    def test_reliability_score_average(self):
        assert reliability_score(0.6, 0.4) == 0.5
        assert reliability_score(0.0, 0.0) == 0.0

    def test_classification(self):
        assert classify_reviewer(0.5) == RELIABLE
        assert classify_reviewer(0.49) == NOT_RELIABLE
        assert classify_reviewer(1.0) == RELIABLE


def random_product_rows(rng, n_reviews):
    rows = []
    for r in range(n_reviews):
        total = int(rng.integers(0, 7))
        yes = int(rng.integers(0, total + 1))
        rows.append((f"u{r}", int(rng.integers(1, 6)), yes, total, int(rng.integers(0, 1000))))
    return rows


class TestProperties:
    def test_score_sums_and_ranges(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            rows = random_product_rows(rng, int(rng.integers(1, 12)))
            scores = scores_of(rows)
            h, most, top = (field(scores, name) for name in ("h", "most", "top"))
            if any(y > 0 for _, _, y, _, _ in rows):
                assert math.isclose(sum(h.values()), 1.0, abs_tol=1e-12)
            if len(rows) >= 2:
                assert math.isclose(sum(most.values()), 1.0, abs_tol=1e-12)
                assert math.isclose(sum(top.values()), 1.0, abs_tol=1e-12)
            for b in scores.values():
                for value in (b.h, b.most, b.top, b.d, b.rel):
                    assert 0.0 <= value <= 1.0

    def test_breakdown_identities(self):
        rng = np.random.default_rng(7)
        for b in scores_of(random_product_rows(rng, 8), alpha=0.3).values():
            assert b.d == 0.3 * b.top + (1 - 0.3) * b.most
            assert b.rel == (b.h + b.d) / 2

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_input_order_invariance(self, pyrng):
        rows = [
            ("a", 5, 3, 5, 10), ("b", 3, 1, 4, 20), ("c", 1, 2, 6, 30),
            ("d", 4, 0, 2, 40), ("e", 2, 4, 4, 50),
        ]
        baseline = {
            u: b for u, b in zip("abcde", [None] * 5)
        }
        store = store_from([(u, "p0", r, y, t, w) for u, r, y, t, w in rows])
        id_of = store.user_index
        base_scores = {u: score_product(store, 0)[id_of[u]] for u in "abcde"}

        shuffled = rows[:]
        pyrng.shuffle(shuffled)
        store2 = store_from([(u, "p0", r, y, t, w) for u, r, y, t, w in shuffled])
        scores2 = score_product(store2, 0)
        for u in "abcde":
            b1, b2 = base_scores[u], scores2[store2.user_index[u]]
            assert b1 == b2


def oracle_columns(entries, alpha=0.5, fallback_max=False) -> dict:
    """Score name -> per-row scores of (i, j, raw, yes, total, when) entries,
    computed product by product in plain Python: int quotients, ``sorted``
    ranks, the 1/s^2 loop and left-to-right ``sum``."""
    names = ("h", "most", "top", "d", "rel")
    out = {name: [None] * len(entries) for name in names}
    products = {}
    for row, (i, j, _, yes, total, when) in enumerate(entries):
        products.setdefault(j, []).append((when, row, i, yes, total))
    for reviews in products.values():
        reviews.sort()  # time order, ties in row order
        n = len(reviews)
        times, rows, users, yes, total = zip(*reviews)
        if fallback_max:
            total = [max(yes)] * n
        weights = [y * y / t if t else 0.0 for y, t in zip(yes, total)]
        ranks = [0] * n
        by_rank = sorted(range(n), key=lambda k: (-weights[k], times[k], users[k]))
        for rank, k in enumerate(by_rank, start=1):
            ranks[k] = rank
        prefix = [0.0] * n
        acc = 0.0
        for step in range(1, n):
            acc += 1.0 / (step * step)
            prefix[step] = acc

        def normalize(values):
            values = list(values)
            total_weight = sum(values)
            return [v / total_weight if total_weight > 0.0 else 0.0 for v in values]

        h = normalize(weights)
        most = normalize(prefix[n - i] for i in range(1, n + 1))
        top = normalize((n - i) / (rank * rank) for i, rank in zip(range(1, n + 1), ranks))
        for k, row in enumerate(rows):
            d = alpha * top[k] + (1.0 - alpha) * most[k]
            for name, value in zip(names, (h[k], most[k], top[k], d, (h[k] + d) / 2.0)):
                out[name][row] = value
    return out


def oracle_store():
    """Seeded store with single-review, vote-less and tied products, one
    product of 3,000 reviews and a few vote counts of 2**27 and more."""
    rng = np.random.default_rng(11)
    n_users, n_products = 3200, 240
    entries = [(int(i), 0, 4, int(rng.integers(0, 4)), 3, int(rng.integers(0, 50)))
               for i in rng.permutation(3000)]
    for j in range(1, n_products):
        size = 1 if j % 7 == 0 else int(rng.integers(2, 40))
        for i in rng.choice(n_users, size, replace=False):
            total = 0 if j % 5 == 0 else int(rng.integers(0, 5))
            entries.append((int(i), j, int(rng.integers(1, 6)), int(rng.integers(0, total + 1)),
                            total, int(rng.integers(0, 8))))
    huge = {10: (2**27 + 1, 2**27 + 5), 3100: (2**40 + 3, 2**41 + 7), 3101: (3, 2**60 + 1),
            3102: (2**61 + 9, 2**62 + 11), 3250: (2**31, 2**31)}
    for row, votes in huge.items():
        i, j, raw, _, _, when = entries[row]
        entries[row] = (i, j, raw, *votes, when)
    return _make_store([f"u{i}" for i in range(n_users)], [f"p{j}" for j in range(n_products)],
                       entries), entries


class TestScoreStore:
    def test_store_columns_score_every_row(self, tiny_store):
        scores = score_store(tiny_store)
        assert ReliabilityBreakdown._fields == ("h", "most", "top", "d", "rel")
        for column in scores:
            assert column.dtype == np.float64 and column.shape == tiny_store.raw.shape
            assert not np.isnan(column).any()
        scored_store = attach_scores(tiny_store, scores)
        assert set(scored(scored_store)) == set(rated(tiny_store))
        assert np.array_equal(scored_store.reliability, scores.rel)
        with pytest.raises(ValueError, match="outside"):
            attach_scores(tiny_store, scores._replace(rel=scores.rel + 1.5))

    @pytest.mark.parametrize("settings", [{}, {"alpha": 0.3}, {"fallback_max": True}],
                             ids=["default", "alpha", "fallback"])
    def test_columns_equal_the_python_oracle_bit_for_bit(self, settings):
        store, entries = oracle_store()
        sizes = np.bincount(store.product)
        assert sizes.size >= 200 and sizes.max() >= 3000 and (sizes == 1).any()
        assert store.helpful_yes.max() >= 2**27
        want = oracle_columns(entries, **settings)
        got = score_store(store, **settings)
        for name in ReliabilityBreakdown._fields:
            assert np.array_equal(getattr(got, name), np.array(want[name])), name

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 4),
                      st.integers(0, 4), st.integers(0, 3)),
            min_size=1, max_size=24, unique_by=lambda e: e[:2]),
        alpha=st.floats(0.0, 1.0),
        fallback_max=st.booleans(),
    )
    def test_per_product_scores_equal_the_store_rows_bit_for_bit(
            self, entries, alpha, fallback_max):
        # (user, product, yes, votes beyond yes, time): few times, so ties
        store = _make_store([f"u{i}" for i in range(6)], [f"p{j}" for j in range(4)],
                            [(i, j, 3, yes, yes + more, when)
                             for i, j, yes, more, when in entries])
        columns = np.stack(score_store(store, alpha, fallback_max))
        for product, rows in store.timelines.items():
            got = score_product(store, product, alpha, fallback_max)
            assert list(got) == store.user[rows].tolist()
            assert np.array(list(got.values())).tobytes() == columns[:, rows].T.tobytes()

    def test_a_product_without_reviews_is_refused(self, tiny_store):
        without_p1 = restrict(tiny_store, np.flatnonzero(tiny_store.product != 0))
        assert tiny_store.product_ids[0] == "p1" and without_p1.n_products == 3
        for store, product in ((without_p1, 0), (tiny_store, tiny_store.n_products)):
            with pytest.raises(ValueError, match=f"product {product} has no reviews"):
                score_product(store, product)

    def test_empty_store_scores_to_empty_columns(self):
        scores = score_store(_make_store([], [], []))
        assert [column.shape for column in scores] == [(0,)] * 5


def one_product_store(n_reviews, rng):
    entries = [(i, 0, 3, int(rng.integers(0, 3)), 3, int(rng.integers(0, 100)))
               for i in range(n_reviews)]
    return _make_store([f"u{i}" for i in range(n_reviews)], ["p0"], entries)


def test_one_product_scoring_stays_linear_in_its_reviews():
    """Four times the reviews of one product must not cost 16 times as much."""
    rng = np.random.default_rng(5)
    small, large = one_product_store(4000, rng), one_product_store(16000, rng)

    def seconds(store):  # best of 5: one call takes milliseconds, so noise dominates
        times = []
        for _ in range(5):
            started = time.perf_counter()
            score_store(store)
            times.append(time.perf_counter() - started)
        return min(times)

    ratios = [seconds(large) / seconds(small) for _ in range(5)]
    ratio = statistics.median(ratios)
    assert ratio < 8, f"scaling ratio {ratio:.2f} (all: {ratios})"
