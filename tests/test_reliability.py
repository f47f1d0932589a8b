import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrec.reliability import (
    NOT_RELIABLE,
    RELIABLE,
    build_timeline,
    classify_reviewer,
    combined_score,
    helpfulness_scores,
    most_recent_scores,
    reliability_score,
    score_product,
    score_store,
    top_ranking_scores,
)

from conftest import rated, store_from


def timeline_of(rows):
    """Timeline of product p0 built from (user, rating, yes, total, when)."""
    store = store_from([(u, "p0", r, y, t, w) for u, r, y, t, w in rows])
    return build_timeline(store, 0)


class TestHelpfulness:
    def test_hand_worked_votes(self):
        # l = (3^2/5, 1^2/1, 0^2/2) = (1.8, 1.0, 0.0) summing to 2.8,
        # so h = (9/14, 5/14, 0)
        tl = timeline_of([("a", 3, 3, 5, 1), ("b", 3, 1, 1, 2), ("c", 3, 0, 2, 3)])
        h = helpfulness_scores(tl)
        assert math.isclose(h[0], 9 / 14, rel_tol=1e-12)
        assert math.isclose(h[1], 5 / 14, rel_tol=1e-12)
        assert h[2] == 0.0

    def test_single_review_normalizes_to_one(self):
        tl = timeline_of([("a", 4, 4, 4, 1)])
        assert helpfulness_scores(tl) == {0: 1.0}

    def test_all_zero_votes_scores_zero(self):
        tl = timeline_of([("a", 4, 0, 0, 1), ("b", 2, 0, 0, 2)])
        assert set(helpfulness_scores(tl).values()) == {0.0}

    def test_fallback_divides_by_max_helpful(self):
        # vote-less data is encoded as total == yes; fallback replaces
        # denominators with max yes = 3: l = (9/3, 1/3, 0)
        tl = timeline_of([("a", 3, 3, 3, 1), ("b", 3, 1, 1, 2), ("c", 3, 0, 0, 3)])
        h = helpfulness_scores(tl, fallback_max=True)
        total = 3.0 + 1 / 3
        assert math.isclose(h[0], 3.0 / total, rel_tol=1e-12)
        assert math.isclose(h[1], (1 / 3) / total, rel_tol=1e-12)
        assert h[2] == 0.0


class TestMostRecent:
    def test_five_reviewer_series(self):
        # c = (1 + 1/4 + 1/9 + 1/16, 1 + 1/4 + 1/9, 1.25, 1, 0)
        tl = timeline_of([(f"u{i}", 3, 0, 0, i) for i in range(5)])
        most = most_recent_scores(tl)
        c = [205 / 144, 49 / 36, 5 / 4, 1.0, 0.0]
        total = sum(c)
        for pos in range(5):
            assert math.isclose(most[pos], c[pos] / total, rel_tol=1e-12)

    def test_first_of_five_matches_partial_sum(self):
        tl = timeline_of([(f"u{i}", 3, 0, 0, i) for i in range(5)])
        most = most_recent_scores(tl)
        assert math.isclose(most[0], 0.282758620689, rel_tol=1e-9)

    def test_singleton_scores_zero(self):
        tl = timeline_of([("a", 3, 0, 0, 1)])
        assert most_recent_scores(tl) == {0: 0.0}

    def test_non_increasing_in_time(self):
        tl = timeline_of([(f"u{i}", 3, 0, 0, i) for i in range(9)])
        most = most_recent_scores(tl)
        values = [most[p] for p in range(9)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestTopRanking:
    def test_hand_worked_ranks(self):
        # time order a, b, c with helpfulness ranks (2, 1, 3):
        # q = (1/4 * 2, 1 * 1, 1/9 * 0) = (0.5, 1, 0) -> (1/3, 2/3, 0)
        tl = timeline_of([("a", 3, 1, 2, 1), ("b", 3, 2, 2, 2), ("c", 3, 0, 2, 3)])
        assert tl.ranks == (2, 1, 3)
        top = top_ranking_scores(tl)
        assert math.isclose(top[0], 1 / 3, rel_tol=1e-12)
        assert math.isclose(top[1], 2 / 3, rel_tol=1e-12)
        assert top[2] == 0.0

    def test_last_reviewer_always_zero(self):
        tl = timeline_of([("a", 3, 5, 5, 1), ("b", 3, 1, 5, 2), ("c", 3, 4, 5, 3)])
        assert top_ranking_scores(tl)[2] == 0.0

    def test_singleton_scores_zero(self):
        tl = timeline_of([("a", 3, 4, 4, 1)])
        assert top_ranking_scores(tl) == {0: 0.0}

    def test_rank_ties_broken_by_earlier_time(self):
        # equal weights: earlier review must take rank 1
        tl = timeline_of([("a", 3, 2, 4, 5), ("b", 3, 2, 4, 9)])
        assert tl.ranks == (1, 2)


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
            tl = timeline_of(random_product_rows(rng, int(rng.integers(1, 12))))
            h = helpfulness_scores(tl)
            most = most_recent_scores(tl)
            top = top_ranking_scores(tl)
            if any(y > 0 for y in tl.helpful_yes):
                assert math.isclose(sum(h.values()), 1.0, abs_tol=1e-12)
            if tl.n_reviews >= 2:
                assert math.isclose(sum(most.values()), 1.0, abs_tol=1e-12)
                assert math.isclose(sum(top.values()), 1.0, abs_tol=1e-12)
            for b in score_product(tl).values():
                for value in (b.h, b.most, b.top, b.d, b.rel):
                    assert 0.0 <= value <= 1.0

    def test_breakdown_identities(self):
        rng = np.random.default_rng(7)
        tl = timeline_of(random_product_rows(rng, 8))
        for b in score_product(tl, alpha=0.3).values():
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
        tl = timeline_of(rows)
        store = store_from([(u, "p0", r, y, t, w) for u, r, y, t, w in rows])
        id_of = store.user_index
        base_scores = {u: score_product(tl)[id_of[u]] for u in "abcde"}

        shuffled = rows[:]
        pyrng.shuffle(shuffled)
        store2 = store_from([(u, "p0", r, y, t, w) for u, r, y, t, w in shuffled])
        tl2 = build_timeline(store2, 0)
        scores2 = score_product(tl2)
        for u in "abcde":
            b1, b2 = base_scores[u], scores2[store2.user_index[u]]
            assert b1 == b2


class TestScoreStore:
    def test_store_level_scores_keyed_by_pair(self, tiny_store):
        breakdowns = score_store(tiny_store)
        assert set(breakdowns) == set(rated(tiny_store))

    def test_thread_pool_matches_sequential(self, tiny_store):
        sequential = score_store(tiny_store, threads=1)
        threaded = score_store(tiny_store, threads=4)
        assert sequential == threaded
