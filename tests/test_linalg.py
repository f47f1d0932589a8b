import math

import numpy as np
import pytest

from dualrec.linalg import (
    AdamState,
    PairMatrix,
    adam_step,
    as_matrix,
    finite_diff_grad,
    relu,
    sigmoid,
    truncated_svd,
)


class TestTruncatedSvd:
    def test_diagonal_singular_values(self):
        u, s, vt = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(s, [3.0, 2.0], atol=1e-12)

    def test_rank_one_exact(self):
        a = np.outer([1.0, 2.0, -1.0], [0.5, 1.5])
        u, s, vt = truncated_svd(a, 1)
        np.testing.assert_allclose(u * s @ vt, a, atol=1e-10)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 6))
        u, s, vt = truncated_svd(a, 6)
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-8)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(7, 5))
        u, s, vt = truncated_svd(a, 4)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(vt @ vt.T, np.eye(4), atol=1e-8)
        assert np.all(np.diff(s) <= 1e-12) and np.all(s >= 0)

    def test_best_rank_k_beats_other_low_rank(self):
        # truncated SVD must beat a deliberately bad rank-2 reconstruction
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6))
        u, s, vt = truncated_svd(a, 2)
        best = np.linalg.norm(a - (u * s) @ vt)
        uf, sf, vtf = truncated_svd(a, 6)
        worse = np.linalg.norm(a - (uf[:, 4:] * sf[4:]) @ vtf[4:, :])
        assert best <= worse + 1e-12

    def test_rejects_bad_rank_and_nonfinite(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)

    def test_as_matrix_requires_2d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros(3))


class TestPairMatrix:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.rows = rng.integers(0, 6, 20)
        self.cols = rng.integers(0, 4, 20)
        self.values = rng.normal(size=20)
        self.dense = np.zeros((6, 4))
        np.add.at(self.dense, (self.rows, self.cols), self.values)  # repeats add up
        self.a = PairMatrix(self.rows, self.cols, self.values, (6, 4))

    def test_products_equal_dense(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(6, 5))
        np.testing.assert_allclose(self.a @ x, self.dense @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(self.a.T @ y, self.dense.T @ y, rtol=1e-12, atol=1e-12)
        assert self.a.T.shape == (4, 6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PairMatrix([0, 6], [0, 0], [1.0, 1.0], (6, 4))
        with pytest.raises(ValueError):
            PairMatrix([0], [0], [np.inf], (6, 4))
        with pytest.raises(ValueError):
            self.a @ np.zeros((6, 2))

    def test_svd_matches_dense_input(self):
        u, s, vt = truncated_svd(self.a, 2)
        du, ds, dvt = truncated_svd(self.dense, 2)
        np.testing.assert_allclose(s, ds, rtol=1e-12)
        np.testing.assert_allclose(u, du, atol=1e-12)
        np.testing.assert_allclose(vt, dvt, atol=1e-12)


class TestRandomizedSvd:
    def test_gapped_low_rank_plus_noise_matches_lapack(self):
        # rank-5 signal with singular values 100..20 plus noise of norm ~1:
        # 15 test vectors in a 300 x 200 matrix, so the range is sampled
        rng = np.random.default_rng(4)
        left, _ = np.linalg.qr(rng.normal(size=(300, 5)))
        right, _ = np.linalg.qr(rng.normal(size=(200, 5)))
        a = (left * [100.0, 80.0, 60.0, 40.0, 20.0]) @ right.T
        a += rng.normal(scale=0.03, size=a.shape)
        u, s, vt = truncated_svd(a, 5)
        eu, es, evt = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_allclose(s, es[:5], rtol=1e-10)
        np.testing.assert_allclose(u @ u.T, eu[:, :5] @ eu[:, :5].T, atol=1e-10)
        np.testing.assert_allclose(vt.T @ vt, evt[:5].T @ evt[:5], atol=1e-10)

    def test_does_not_touch_global_random_state(self):
        np.random.seed(3)
        expected = np.random.random()
        np.random.seed(3)
        truncated_svd(np.arange(12.0).reshape(4, 3), 1)
        assert np.random.random() == expected

    def test_sign_convention(self):
        a = -np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
        u, s, vt = truncated_svd(a, 1)
        assert u[np.argmax(np.abs(u[:, 0])), 0] > 0
        np.testing.assert_allclose(u * s @ vt, a, atol=1e-12)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_log3_is_three_quarters(self):
        assert math.isclose(sigmoid(math.log(3.0)), 0.75, rel_tol=1e-12)

    def test_saturates_inside_open_interval(self):
        for x in (-1e6, -800.0, -40.0, 40.0, 800.0, 1e6):
            value = sigmoid(x)
            assert 0.0 < value < 1.0

    def test_symmetry_and_monotonicity(self):
        xs = np.linspace(-30, 30, 2001)
        np.testing.assert_allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-12)
        assert np.all(np.diff(sigmoid(xs)) > 0)

    def test_relu_clamps_negative(self):
        np.testing.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState(lr=0.1)
        adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_first_step_magnitude_is_lr_times_sign(self):
        # closed form: after bias correction the first update is
        # lr * g / (|g| + eps) = lr * sign(g) up to eps
        g = np.array([0.3, -4.0, 1e-3])
        params = {"w": np.zeros(3)}
        state = AdamState(lr=0.01)
        adam_step(params, {"w": g.copy()}, state)
        np.testing.assert_allclose(params["w"], -0.01 * np.sign(g), rtol=1e-4)

    def test_constant_gradient_drifts_monotonically(self):
        # simulation oracle: constant positive gradient must push the
        # parameter strictly down every step
        params = {"w": np.array([0.5])}
        state = AdamState(lr=0.05)
        seen = [params["w"][0]]
        for _ in range(50):
            adam_step(params, {"w": np.array([2.0])}, state)
            seen.append(params["w"][0])
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_lr_zero_never_moves(self):
        rng = np.random.default_rng(3)
        params = {"w": rng.normal(size=4)}
        before = params["w"].copy()
        state = AdamState(lr=0.0)
        for _ in range(5):
            adam_step(params, {"w": rng.normal(size=4)}, state)
        np.testing.assert_array_equal(params["w"], before)

    def test_moments_are_allocated_once_per_name(self, monkeypatch):
        from dualrec import linalg

        calls = []
        monkeypatch.setattr(linalg.np, "zeros_like", lambda p: calls.append(p) or np.zeros(p.shape))
        params = {"w": np.zeros(3), "b": np.zeros(1)}
        state = AdamState(lr=0.1)
        for _ in range(4):
            adam_step(params, {"w": np.ones(3), "b": np.ones(1)}, state)
        assert len(calls) == 4  # m and v of each name, on its first step

    def test_shape_mismatch_rejected(self):
        state = AdamState()
        with pytest.raises(ValueError):
            adam_step({"w": np.zeros(3)}, {"w": np.zeros(2)}, state)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), step=1e-6)
        assert math.isclose(grad[0], 6.0, rel_tol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda x: 7.5, np.array([1.0, -2.0, 0.0]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_multivariate(self):
        f = lambda x: float(np.sin(x[0]) + x[1] ** 3)
        grad = finite_diff_grad(f, np.array([0.7, -1.2]), step=1e-6)
        np.testing.assert_allclose(grad, [np.cos(0.7), 3 * 1.2**2], rtol=1e-6)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.zeros(2), step=0.0)
