import math
import tracemalloc

import numpy as np
import pytest

from dualrec.linalg import (
    AdamState,
    PairMatrix,
    adam_step,
    finite_diff_grad,
    relu,
    scatter_rows,
    sigmoid,
    truncated_svd,
)


def pairs_of(dense) -> PairMatrix:
    """PairMatrix with one triplet per entry of a dense 2-D array, zeros too."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.indices(dense.shape)
    return PairMatrix(rows.ravel(), cols.ravel(), dense.ravel(), dense.shape)


class TestTruncatedSvd:
    def test_diagonal_singular_values(self):
        u, s, vt = truncated_svd(pairs_of(np.diag([3.0, 2.0, 1.0])), 2)
        np.testing.assert_allclose(s, [3.0, 2.0], atol=1e-12)

    def test_rank_one_exact(self):
        a = np.outer([1.0, 2.0, -1.0], [0.5, 1.5])
        u, s, vt = truncated_svd(pairs_of(a), 1)
        np.testing.assert_allclose(u * s @ vt, a, atol=1e-10)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 6))
        u, s, vt = truncated_svd(pairs_of(a), 6)
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-8)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(7, 5))
        u, s, vt = truncated_svd(pairs_of(a), 4)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(vt @ vt.T, np.eye(4), atol=1e-8)
        assert np.all(np.diff(s) <= 1e-12) and np.all(s >= 0)

    def test_best_rank_k_beats_other_low_rank(self):
        # truncated SVD must beat a deliberately bad rank-2 reconstruction
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6))
        u, s, vt = truncated_svd(pairs_of(a), 2)
        best = np.linalg.norm(a - (u * s) @ vt)
        uf, sf, vtf = truncated_svd(pairs_of(a), 6)
        worse = np.linalg.norm(a - (uf[:, 4:] * sf[4:]) @ vtf[4:, :])
        assert best <= worse + 1e-12

    def test_rejects_bad_rank_and_nonfinite(self):
        with pytest.raises(ValueError):
            truncated_svd(pairs_of(np.eye(3)), 4)
        with pytest.raises(ValueError):
            pairs_of([[np.nan, 0.0], [0.0, 1.0]])


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
        # rank 2 + 10 test vectors span all of the 4 columns: an exact SVD
        u, s, vt = truncated_svd(self.a, 2)
        eu, es, evt = np.linalg.svd(self.dense, full_matrices=False)
        np.testing.assert_allclose(s, es[:2], rtol=1e-12)
        np.testing.assert_allclose(u @ u.T, eu[:, :2] @ eu[:, :2].T, atol=1e-12)
        np.testing.assert_allclose(vt.T @ vt, evt[:2].T @ evt[:2], atol=1e-12)


class TestRandomizedSvd:
    def test_gapped_low_rank_plus_noise_matches_lapack(self):
        # rank-5 signal with singular values 100..20 plus noise of norm ~1:
        # 15 test vectors in a 300 x 200 matrix, so the range is sampled
        rng = np.random.default_rng(4)
        left, _ = np.linalg.qr(rng.normal(size=(300, 5)))
        right, _ = np.linalg.qr(rng.normal(size=(200, 5)))
        a = (left * [100.0, 80.0, 60.0, 40.0, 20.0]) @ right.T
        a += rng.normal(scale=0.03, size=a.shape)
        u, s, vt = truncated_svd(pairs_of(a), 5)
        eu, es, evt = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_allclose(s, es[:5], rtol=1e-10)
        np.testing.assert_allclose(u @ u.T, eu[:, :5] @ eu[:, :5].T, atol=1e-10)
        np.testing.assert_allclose(vt.T @ vt, evt[:5].T @ evt[:5], atol=1e-10)

    def test_does_not_touch_global_random_state(self):
        np.random.seed(3)
        expected = np.random.random()
        np.random.seed(3)
        truncated_svd(pairs_of(np.arange(12.0).reshape(4, 3)), 1)
        assert np.random.random() == expected

    def test_sign_convention(self):
        a = -np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
        u, s, vt = truncated_svd(pairs_of(a), 1)
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

    def test_edge_values_raise_no_warning(self):
        # the suite turns a RuntimeWarning into an error, so an overflow or
        # an invalid operation on any of these fails the test
        xs = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e308, -1e308, np.nan])
        hi, lo = np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)
        np.testing.assert_array_equal(sigmoid(xs), [0.5, 0.5, hi, lo, hi, lo, hi, lo, np.nan])

    def test_equals_the_two_branch_formula(self):
        xs = np.linspace(-750.0, 750.0, 20001)
        with np.errstate(over="ignore", invalid="ignore"):
            pos = 1.0 / (1.0 + np.exp(-xs))
            neg = np.exp(xs) / (1.0 + np.exp(xs))
        want = np.clip(np.where(xs >= 0, pos, neg), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
        np.testing.assert_array_equal(sigmoid(xs), want)

    def test_symmetry_and_monotonicity(self):
        xs = np.linspace(-30, 30, 2001)
        np.testing.assert_allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-12)
        assert np.all(np.diff(sigmoid(xs)) > 0)

    def test_relu_clamps_negative(self):
        np.testing.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


class TestScatterRows:
    @pytest.mark.parametrize("n_rows, batch, k", [(1000, 512, 8), (5, 40, 3), (4, 0, 2)])
    def test_bitwise_equal_to_add_at(self, n_rows, batch, k):
        # repeated indices, mixed signs and magnitudes: each row must sum in
        # input order from 0.0, exactly as np.add.at does
        rng = np.random.default_rng(batch)
        idx = rng.integers(0, min(n_rows, max(batch // 4, 1)), size=batch)
        contrib = rng.normal(size=(batch, k)) * 10.0 ** rng.integers(-8, 8, size=(batch, k))
        want = np.zeros((n_rows, k))
        np.add.at(want, idx, contrib)
        np.testing.assert_array_equal(scatter_rows(n_rows, idx, contrib), want)

    def test_column_scatter_is_its_transpose(self):
        from dualrec.mf_model import _scatter_cols

        rng = np.random.default_rng(1)
        idx = rng.integers(0, 6, size=30)
        contrib = rng.normal(size=(30, 4))
        want = np.zeros((9, 4))
        np.add.at(want, idx, contrib)
        np.testing.assert_array_equal(_scatter_cols(9, idx, contrib), want.T)


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

    def test_moments_are_allocated_on_the_first_step_only(self):
        params = {"w": np.zeros((400, 8)), "b": np.zeros(1)}
        grads = {"w": np.ones((8, 400)).T, "b": np.ones(1)}
        state = AdamState(lr=0.1)

        def moments():
            return [held[name] for held in (state.m, state.v) for name in params]

        adam_step(params, grads, state)
        first = moments()
        tracemalloc.start()
        try:
            for _ in range(3):
                adam_step(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(a is b for a, b in zip(moments(), first))
        assert peak < params["w"].nbytes  # no buffer of a parameter's size

    def test_matches_the_per_array_update_bit_for_bit(self):
        rng = np.random.default_rng(7)
        shapes = {"table": (4, 6), "w": (5,), "b": (1,), "cube": (2, 3, 2)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        want = {name: p.copy() for name, p in params.items()}
        want_m, want_v = {}, {}
        state = AdamState(lr=0.001)
        for t in range(1, 11):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            # an F-order view, as ``_scatter_cols`` returns
            grads["table"] = rng.normal(size=(6, 4)).T
            if t == 8:
                grads = dict(reversed(grads.items()))
            state.lr = 0.05 * 0.9**t  # as ``fit`` sets it per epoch
            adam_step(params, grads, state)
            bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for name, g in grads.items():
                m = want_m.get(name, np.zeros(shapes[name]))
                v = want_v.get(name, np.zeros(shapes[name]))
                want_m[name] = m * 0.9 + (1.0 - 0.9) * g
                want_v[name] = v * 0.999 + (1.0 - 0.999) * g**2
                want[name] = want[name] - (state.lr * (want_m[name] / bc1)) / (
                    np.sqrt(want_v[name] / bc2) + 1e-8)
            for name in shapes:
                assert np.array_equal(params[name], want[name]), (t, name)
                assert np.array_equal(state.m[name], want_m[name]), (t, name)
                assert np.array_equal(state.v[name], want_v[name]), (t, name)
        assert state.t == 10

    def test_shape_mismatch_rejected(self):
        state = AdamState(lr=0.001)
        with pytest.raises(ValueError):
            adam_step({"w": np.zeros(3)}, {"w": np.zeros(2)}, state)

    @pytest.mark.parametrize("names", [("w",), ("w", "b", "c")], ids=["fewer", "more"])
    def test_a_later_step_with_other_names_is_refused(self, names):
        params = {"w": np.zeros(2), "b": np.zeros(1), "c": np.zeros(3)}
        state = AdamState(lr=0.1)
        adam_step(params, {"w": np.ones(2), "b": np.ones(1)}, state)
        before = {name: p.copy() for name, p in params.items()}
        with pytest.raises(ValueError, match="steps the names"):
            adam_step(params, {name: np.ones_like(params[name]) for name in names}, state)
        assert state.t == 1
        for name, p in params.items():
            np.testing.assert_array_equal(p, before[name])


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
