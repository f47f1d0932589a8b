import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrec.metrics import (
    check_cutoff,
    check_threshold,
    classification_metrics,
    evaluate_predictions,
    f1_at_cutoff,
    mae,
    mean_average_precision,
    ndcg,
    rmse,
)


class TestErrorMetrics:
    def test_perfect_predictions(self):
        assert rmse([1.0, 4.0], [1.0, 4.0]) == 0.0
        assert mae([1.0, 4.0], [1.0, 4.0]) == 0.0

    def test_hand_values(self):
        assert math.isclose(rmse([3.0, 4.0], [3.0, 5.0]), math.sqrt(0.5), rel_tol=1e-12)
        assert mae([3.0, 4.0], [3.0, 5.0]) == 0.5

    def test_constant_offset(self):
        truth = [1.0, 2.0, 5.0]
        pred = [t + 0.75 for t in truth]
        assert math.isclose(rmse(pred, truth), 0.75, rel_tol=1e-12)
        assert math.isclose(mae(pred, truth), 0.75, rel_tol=1e-12)

    def test_symmetric_in_residual_sign(self):
        # 0.5 is exactly representable, so the residuals negate exactly
        truth = [2.0, 3.0, 4.5]
        up = [t + 0.5 for t in truth]
        down = [t - 0.5 for t in truth]
        assert rmse(up, truth) == rmse(down, truth)
        assert mae(up, truth) == mae(down, truth)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            rmse([], [])
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])

    def test_residuals_are_added_left_to_right(self):
        # each 1e-16 is below half an ulp of 1.0 and rounds away; a compensated
        # sum (math.fsum, or builtin sum from Python 3.12) keeps their 1e-15
        pred = [1.0] + [1e-16] * 10
        assert mae(pred, [0.0] * 11) == 1.0 / 11
        assert math.fsum(pred) / 11 != 1.0 / 11

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(1, 5), st.floats(1, 5)), min_size=1, max_size=30)
    )
    def test_mae_never_exceeds_rmse(self, pairs):
        pred = [p for p, _ in pairs]
        truth = [t for _, t in pairs]
        assert mae(pred, truth) <= rmse(pred, truth) + 1e-12


class TestClassification:
    def test_everything_relevant_and_recommended(self):
        users = {0: [(0, 5.0, 4.0), (1, 3.0, 3.0)]}
        assert classification_metrics(users) == (1.0, 1.0, 1.0)

    def test_empty_recommended_counts_zero(self):
        users = {0: [(0, 1.0, 4.0)]}  # nothing predicted >= 3
        precision, recall, f1 = classification_metrics(users)
        assert precision == 0.0 and recall == 0.0 and f1 == 0.0

    def test_two_user_hand_case(self):
        # user A recommends {1, 2}, prefers {2}; user B recommends {3},
        # prefers {3, 4} -> precision (0.5 + 1) / 2, recall (1 + 0.5) / 2
        users = {
            "A": [(1, 4.0, 2.0), (2, 5.0, 5.0)],
            "B": [(3, 4.0, 4.0), (4, 2.0, 4.0)],
        }
        precision, recall, f1 = classification_metrics(users)
        assert precision == 0.75 and recall == 0.75 and f1 == 0.75


def map_oracle(users, threshold=3.0):
    """Direct re-computation of mean average precision."""
    values = []
    for rows in users.values():
        ranked = sorted(rows, key=lambda r: (-r[1], r[0]))
        orig = [r for r in rows if r[2] >= threshold]
        if not orig:
            values.append(0.0)
            continue
        ap = 0.0
        for t in range(1, len(ranked) + 1):
            if ranked[t - 1][2] >= threshold:
                prec_at_t = sum(1 for r in ranked[:t] if r[2] >= threshold) / t
                ap += prec_at_t
        values.append(ap / len(orig))
    return sum(values) / len(values)


def ndcg_oracle(users):
    """Max-normalized DCG via exhaustive permutation search (<= 5 items)."""

    def dcg(ratings):
        return sum(
            (2.0**r - 1.0) / math.log2(1.0 + pos)
            for pos, r in enumerate(ratings, start=1)
        )

    total = 0.0
    for rows in users.values():
        ranked = sorted(rows, key=lambda r: (-r[1], r[0]))
        value = dcg([r[2] for r in ranked])
        best = max(
            dcg([r[2] for r in perm]) for perm in itertools.permutations(rows)
        )
        total += value / best
    return total / len(users)


class TestMap:
    def test_relevant_first_of_three(self):
        users = {0: [(0, 5.0, 5.0), (1, 4.0, 1.0), (2, 3.5, 2.0)]}
        assert mean_average_precision(users) == 1.0

    def test_one_relevant_at_rank_two(self):
        users = {0: [(0, 5.0, 1.0), (1, 4.0, 5.0)]}
        assert mean_average_precision(users) == 0.5

    def test_reversed_ranking_never_beats_perfect(self):
        perfect = {0: [(0, 5.0, 5.0), (1, 4.0, 4.0), (2, 1.0, 1.0)]}
        reverse = {0: [(0, 1.0, 5.0), (1, 2.0, 4.0), (2, 5.0, 1.0)]}
        assert mean_average_precision(reverse) <= mean_average_precision(perfect)

    def test_matches_direct_oracle_on_random_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            users = {
                u: [
                    (j, float(rng.uniform(1, 5)), float(rng.integers(1, 6)))
                    for j in range(int(rng.integers(1, 6)))
                ]
                for u in range(int(rng.integers(1, 4)))
            }
            assert math.isclose(
                mean_average_precision(users), map_oracle(users), abs_tol=1e-12
            )


class TestNdcg:
    def test_perfect_order_is_one(self):
        users = {0: [(0, 5.0, 5.0), (1, 4.0, 3.0), (2, 3.0, 1.0)]}
        assert ndcg(users) == 1.0

    def test_two_item_reversal_hand_value(self):
        # true ratings (5, 1) predicted in reverse: DCG = 1 + 31/log2(3),
        # ideal = 31 + 1/log2(3)
        users = {0: [(0, 5.0, 1.0), (1, 4.0, 5.0)]}
        expected = (1.0 + 31.0 / math.log2(3)) / (31.0 + 1.0 / math.log2(3))
        assert math.isclose(ndcg(users), expected, rel_tol=1e-12)
        assert math.isclose(ndcg(users), 0.650, abs_tol=5e-4)

    def test_single_item_user_scores_one(self):
        assert ndcg({0: [(0, 2.0, 4.0)]}) == 1.0

    def test_matches_permutation_oracle_on_random_cases(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            users = {
                u: [
                    (j, float(rng.uniform(1, 5)), float(rng.integers(1, 6)))
                    for j in range(int(rng.integers(1, 6)))
                ]
                for u in range(int(rng.integers(1, 4)))
            }
            assert math.isclose(ndcg(users), ndcg_oracle(users), abs_tol=1e-12)


class TestTopCutoff:
    def test_no_truncation_equals_plain_f1(self):
        rng = np.random.default_rng(17)
        users = {
            u: [
                (j, float(rng.uniform(1, 5)), float(rng.integers(1, 6)))
                for j in range(4)
            ]
            for u in range(5)
        }
        _, _, f1 = classification_metrics(users)
        assert math.isclose(f1_at_cutoff(users, 10), f1, rel_tol=1e-12)

    def test_top_one_hand_case(self):
        # top item recommended and relevant, two relevant overall:
        # precision 1, recall 0.5 -> f1 = 2/3
        users = {0: [(0, 5.0, 5.0), (1, 4.0, 4.0), (2, 1.0, 1.0)]}
        assert math.isclose(f1_at_cutoff(users, 1), 2 / 3, rel_tol=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            users = {
                u: [
                    (j, float(rng.uniform(1, 5)), float(rng.integers(1, 6)))
                    for j in range(int(rng.integers(1, 8)))
                ]
                for u in range(3)
            }
            assert f1_at_cutoff(users, 5) <= 1.0


class TestCutoffCheck:
    @pytest.mark.parametrize("cutoff", [0, -3, True, 2.5, 5.0, "5", None],
                             ids=["zero", "negative", "bool", "fraction", "float", "string",
                                  "null"])
    def test_a_cutoff_that_is_not_a_positive_integer_is_refused(self, cutoff):
        with pytest.raises(ValueError, match=f"^cutoff must be an integer >= 1, got {cutoff!r}$"):
            check_cutoff(cutoff)

    @pytest.mark.parametrize("cutoff", [1, 10, np.int64(5)])
    def test_a_positive_integer_cutoff_passes(self, cutoff):
        check_cutoff(cutoff)


class TestThresholdCheck:
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_a_non_finite_threshold_is_refused(self, threshold):
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            check_threshold(threshold)

    @pytest.mark.parametrize("threshold", [3.0, 4, -1.5, 10**400])
    def test_a_finite_threshold_passes(self, threshold):
        check_threshold(threshold)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("metric", [
        evaluate_predictions, classification_metrics, mean_average_precision,
        lambda users, threshold: f1_at_cutoff(users, 5, threshold),
    ], ids=["evaluate_predictions", "classification_metrics", "mean_average_precision",
            "f1_at_cutoff"])
    def test_every_metric_refuses_a_non_finite_threshold(self, metric, threshold):
        users = {0: [(0, 4.0, 5.0), (1, 2.0, 1.0)], 1: [(0, 3.5, 4.0)]}
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            metric(users, threshold=threshold)


class TestInvariances:
    def test_monotone_transform_leaves_ranking_metrics_unchanged(self):
        rng = np.random.default_rng(23)
        users = {
            u: [
                (j, float(rng.uniform(1, 5)), float(rng.integers(1, 6)))
                for j in range(5)
            ]
            for u in range(4)
        }
        transformed = {
            u: [(j, 3.0 * p + 7.0, t) for j, p, t in rows]
            for u, rows in users.items()
        }
        assert ndcg(users) == ndcg(transformed)
        assert mean_average_precision(users) == mean_average_precision(transformed)

    def test_duplicated_user_reweights_the_mean(self):
        rng = np.random.default_rng(29)
        users = {
            u: [
                (j, float(rng.uniform(1, 5)), float(rng.integers(1, 6)))
                for j in range(4)
            ]
            for u in range(3)
        }
        dup = dict(users)
        dup["copy"] = [row for row in users[0]]
        for metric in (mean_average_precision, ndcg):
            single = metric({0: users[0]})
            base = metric(users)
            expected = (3 * base + single) / 4
            assert math.isclose(metric(dup), expected, rel_tol=1e-12)


class TestReport:
    def test_report_fields_and_serialization(self):
        users = {
            0: [(0, 4.2, 5.0), (1, 2.0, 1.0)],
            1: [(0, 3.6, 4.0), (2, 4.8, 2.0)],
        }
        report = evaluate_predictions(users, cutoffs=(5, 10))
        assert report.n_users == 2 and report.n_pairs == 4
        assert 0.0 <= report.ndcg <= 1.0
        if report.precision + report.recall > 0:
            expected = 2 * report.precision * report.recall / (report.precision + report.recall)
            assert math.isclose(report.f1, expected, rel_tol=1e-12)
        kv = report.as_kv_text()
        assert "rmse\t" in kv and "f1_at_5\t" in kv
        tsv = report.as_tsv()
        header, row = tsv.strip().split("\n")
        assert len(header.split("\t")) == len(row.split("\t"))
