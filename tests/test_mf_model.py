import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dualrec.harness import SyntheticSpec, gen_synthetic
from dualrec.ingest import restrict
from dualrec.linalg import TrainingDivergedError, finite_diff_grad, sigmoid
from dualrec.mf_model import (
    JOINT,
    RATING,
    RELIABILITY,
    MfHyperparams,
    MfParams,
    _embedding_batch,
    _forward_batch,
    factor_predict,
    load_mf,
    objective_grads,
    objective_loss,
    save_mf,
    svd_init,
    train_mf,
)
from dualrec.training import FitHyperparams

from conftest import random_store, rated, scored, store_from, with_scores


def random_params(rng, n, m, k=2, p=3, scale=0.5):
    return MfParams(
        user_rating=rng.normal(0, scale, (k, n)),
        prod_rating=rng.normal(0, scale, (k, m)),
        user_joint=rng.normal(0, scale, (k, n)),
        prod_joint=rng.normal(0, scale, (k, m)),
        prod_rel=rng.normal(0, scale, (k, m)),
        proj_rating=rng.normal(0, scale, (k, k)),
        proj_joint=rng.normal(0, scale, (k, k)),
        head=rng.normal(0, scale, (k, p)),
        reg_w=rng.normal(0, scale, p),
        reg_b=np.array([rng.normal()]),
    )


def factor_names(terms) -> list:
    """The factor tables a term table names, each once, in order of first use."""
    return list(dict.fromkeys(name for user, prod, _ in terms for name in (user, prod)))


def flat_objective(params, store, lam, terms):
    """The objective ``terms`` as a function of its factor tables, flattened
    into one vector in :func:`factor_names` order."""
    shapes = [(f, getattr(params, f).shape) for f in factor_names(terms)]

    def unpack(x):
        clone = params.copy()
        offset = 0
        for name, shape in shapes:
            size = int(np.prod(shape))
            setattr(clone, name, x[offset : offset + size].reshape(shape))
            offset += size
        return clone

    def objective(x):
        return objective_loss(unpack(x), store, terms, lam)

    x0 = np.concatenate([getattr(params, name).ravel() for name, _ in shapes])
    return objective, x0


def assert_grad_close(analytic, numeric, tol=1e-4):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    worst = float(np.max(np.abs(analytic - numeric) / scale))
    assert worst < tol, f"max relative gradient error {worst}"


def check_objective_gradients(terms, seeds):
    """The analytic gradients of the objective ``terms`` match central
    finite differences on a random store and factors for each seed."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        store = random_store(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        params = random_params(rng, store.n_users, store.n_products, k=int(rng.integers(1, 4)))
        lam = float(rng.uniform(0, 0.3))
        _, grads = objective_grads(params, store, terms, lam)
        objective, x0 = flat_objective(params, store, lam, terms)
        numeric = finite_diff_grad(objective, x0, step=1e-6)
        analytic = np.concatenate([grads[f].ravel() for f in factor_names(terms)])
        assert_grad_close(analytic, numeric)


class TestSvdInit:
    def test_full_rank_reconstructs_ratings(self):
        store = store_from(
            [(f"u{i}", f"p{j}", ((i + j) % 5) + 1, 0, 0, i * 10 + j)
             for i in range(3) for j in range(3)]
        )
        (w, z), _ = svd_init(store, 3)
        dense = np.zeros((3, 3))
        dense[store.user, store.product] = store.ratings
        np.testing.assert_allclose(w.T @ z, dense, atol=1e-8)

    def test_zero_matrix_gives_zero_factors(self):
        store = store_from([("u0", "p0", 1, 0, 0, 0)])
        # reliability matrix is all-absent -> dense zeros
        _, (e, f) = svd_init(store, 1)
        np.testing.assert_array_equal(e, np.zeros_like(e))
        np.testing.assert_array_equal(f, np.zeros_like(f))

    def test_rank2_synthetic_reconstruction(self):
        # exactly rank-2 positive matrix built from known factors
        rng = np.random.default_rng(5)
        left = rng.uniform(0.2, 0.9, size=(20, 2))
        right = rng.uniform(0.2, 0.9, size=(15, 2))
        target = left @ right.T
        target /= target.max()
        rows = []
        for i in range(20):
            for j in range(15):
                rows.append((i, j, float(5 * target[i, j]), 0, 0, i * 100 + j))
        from dualrec.ingest import _make_store

        store = _make_store([f"u{i}" for i in range(20)], [f"p{j}" for j in range(15)], rows)
        (w, z), _ = svd_init(store, 2)
        err = np.abs(w.T @ z - target) / np.abs(target)
        assert float(err.max()) < 1e-6

    def test_repeat_calls_are_byte_identical(self):
        store = random_store(np.random.default_rng(9), 30, 25, density=0.3)
        first, second = svd_init(store, 4), svd_init(store, 4)
        for a, b in zip([*first[0], *first[1]], [*second[0], *second[1]]):
            assert a.tobytes() == b.tobytes()

    def test_no_dense_users_by_products_matrix(self):
        # 3,000 x 3,000 store with 4,000 ratings: a dense float64 copy
        # alone would take 72 MB
        rng = np.random.default_rng(10)
        flat = rng.choice(3000 * 3000, size=4000, replace=False)
        entries = [(int(k // 3000), int(k % 3000), int(rng.integers(1, 6)), 0, 0, t)
                   for t, k in enumerate(flat)]
        rel = {(i, j): 0.5 for i, j, *_ in entries[::2]}
        from dualrec.ingest import _make_store

        store = with_scores(_make_store([f"u{i}" for i in range(3000)],
                                        [f"p{j}" for j in range(3000)], entries), rel)
        tracemalloc.start()
        try:
            svd_init(store, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"svd_init peak {peak / 2**20:.1f} MiB"


class TestLossValues:
    def test_perfect_fit_is_zero(self):
        rng = np.random.default_rng(1)
        store = random_store(rng, 3, 3)
        params = random_params(rng, 3, 3, k=2)
        # overwrite ratings so the current factors fit exactly
        raws = [5 * sigmoid(float(params.user_rating[:, i] @ params.prod_rating[:, j]))
                for (i, j) in rated(store)]
        fitted = replace(store, raw=np.array(raws))
        assert objective_loss(params, fitted, RATING, 0.0) < 1e-24

    def test_zero_factors_predict_half(self, tiny_store):
        params = random_params(np.random.default_rng(2), 3, 3)
        params.user_rating[:] = 0
        params.prod_rating[:] = 0
        expected = sum((v - 0.5) ** 2 for v in tiny_store.ratings.tolist())
        assert math.isclose(objective_loss(params, tiny_store, RATING, 0.0), expected,
                            rel_tol=1e-12)

    def test_reliability_zero_factors(self):
        rng = np.random.default_rng(3)
        store = random_store(rng, 3, 3)
        params = random_params(rng, 3, 3)
        params.user_joint[:] = 0
        params.prod_rel[:] = 0
        expected = sum((v - 0.5) ** 2 for v in scored(store).values())
        assert math.isclose(objective_loss(params, store, RELIABILITY, 0.0), expected,
                            rel_tol=1e-12)

    def test_spreadsheet_style_two_by_two(self):
        # direct formula evaluation with hand-set numbers
        store = store_from([
            ("u0", "p0", 5, 0, 0, 0),
            ("u0", "p1", 1, 0, 0, 1),
            ("u1", "p0", 3, 0, 0, 2),
        ])
        params = random_params(np.random.default_rng(4), 2, 2, k=1)
        params.user_rating = np.array([[0.5, -0.25]])
        params.prod_rating = np.array([[1.0, 2.0]])
        lam = 0.1
        expected = 0.0
        for i, j, r in zip(store.user, store.product, store.ratings):
            expected += (r - sigmoid(params.user_rating[0, i] * params.prod_rating[0, j])) ** 2
        counts_u = {0: 2, 1: 1}
        counts_p = {0: 2, 1: 1}
        for i, c in counts_u.items():
            expected += lam * c * params.user_rating[0, i] ** 2
        for j, c in counts_p.items():
            expected += lam * c * params.prod_rating[0, j] ** 2
        assert math.isclose(objective_loss(params, store, RATING, lam), expected, rel_tol=1e-12)

    def test_joint_perfect_fit_is_exactly_zero(self):
        rng = np.random.default_rng(6)
        store = random_store(rng, 3, 3)
        params = random_params(rng, 3, 3, k=2)
        fits = {(i, j): sigmoid(float(params.user_joint[:, i] @ params.prod_joint[:, j]))
                for (i, j) in rated(store)}
        # a store's rating is raw / 5: keep the pairs whose fit that can equal exactly
        store = restrict(store, [row for row, fit in enumerate(fits.values())
                                 if 5 * fit / 5 == fit])
        raws = [5 * fits[pair] for pair in rated(store)]
        rel = [sigmoid(float(params.user_joint[:, i] @ params.prod_rel[:, j]))
               for (i, j) in rated(store)]
        fitted = replace(store, raw=np.array(raws), reliability=np.array(rel))
        assert objective_loss(params, fitted, JOINT, 0.0) == 0.0

    def test_joint_with_empty_psi_reduces_to_rating_form(self):
        rng = np.random.default_rng(5)
        store = random_store(rng, 4, 4, with_reliability=False)
        params = random_params(rng, 4, 4)
        # rating-form loss evaluated on the joint blocks
        ghost = params.copy()
        ghost.user_rating = params.user_joint
        ghost.prod_rating = params.prod_joint
        assert math.isclose(
            objective_loss(params, store, JOINT, 0.3),
            objective_loss(ghost, store, RATING, 0.3),
            rel_tol=1e-12,
        )


class TestGradients:
    def test_rating_loss_gradients(self):
        check_objective_gradients(RATING, range(21))

    def test_reliability_loss_gradients(self):
        check_objective_gradients(RELIABILITY, range(100, 121))

    def test_joint_loss_gradients(self):
        check_objective_gradients(JOINT, range(200, 221))

    @pytest.mark.parametrize("seed", range(5))
    def test_head_backward_batch_matches_finite_differences(self, seed):
        from dualrec.mf_model import _backward_batch

        rng = np.random.default_rng(300 + seed)
        params = random_params(rng, 3, 4, k=2, p=3)
        idx_u, idx_p = rng.integers(0, 3, 6), rng.integers(0, 4, 6)
        d_raw = rng.normal(size=6)
        grads = _backward_batch(params, _forward_batch(params, idx_u, idx_p)[1], d_raw)
        # the head trains with the factor tables frozen: none of them gets a gradient
        assert set(grads) == {"head", "reg_w", "reg_b", "proj_rating", "proj_joint"}
        for name, grad in grads.items():
            def value(x, name=name):
                clone = params.copy()
                setattr(clone, name, x.reshape(grad.shape))
                return float(np.dot(d_raw, _forward_batch(clone, idx_u, idx_p)[0]))

            numeric = finite_diff_grad(value, getattr(params, name).ravel(), step=1e-6)
            assert_grad_close(grad.ravel(), numeric)


def pair(i, j):
    """One-element index arrays of the pair (i, j)."""
    return np.array([i]), np.array([j])


class TestEmbeddingAndHead:
    def test_identity_projections_add_interactions(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 2, 2, k=2)
        params.proj_rating = np.eye(2)
        params.proj_joint = np.eye(2)
        i, j = 1, 0
        expected = (
            params.user_rating[:, i] * params.prod_rating[:, j]
            + params.user_joint[:, i] * params.prod_joint[:, j]
        )
        np.testing.assert_allclose(_embedding_batch(params, *pair(i, j))[0][0], expected,
                                   atol=1e-12)

    def test_zero_factors_zero_embedding(self):
        params = random_params(np.random.default_rng(7), 2, 2)
        for name in ("user_rating", "prod_rating", "user_joint", "prod_joint"):
            getattr(params, name)[:] = 0
        np.testing.assert_array_equal(_embedding_batch(params, *pair(0, 0))[0][0], np.zeros(2))

    def test_hand_case_with_scaled_projections(self):
        params = random_params(np.random.default_rng(8), 1, 1, k=2)
        params.user_rating = np.array([[1.0], [2.0]])
        params.prod_rating = np.array([[1.0], [1.0]])
        params.user_joint = np.array([[3.0], [4.0]])
        params.prod_joint = np.array([[1.0], [1.0]])
        params.proj_rating = 2 * np.eye(2)
        params.proj_joint = np.eye(2)
        np.testing.assert_allclose(_embedding_batch(params, *pair(0, 0))[0][0], [5.0, 8.0],
                                   atol=1e-12)

    def test_embedding_linear_in_projections(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 3, 3, k=2)
        base = _embedding_batch(params, *pair(1, 2))[0][0]
        scaled = params.copy()
        scaled.proj_rating = 3.0 * params.proj_rating
        scaled.proj_joint = 3.0 * params.proj_joint
        np.testing.assert_allclose(_embedding_batch(scaled, *pair(1, 2))[0][0], 3.0 * base,
                                   rtol=1e-12)

    def test_bias_only_head_predicts_scaled_bias(self):
        params = random_params(np.random.default_rng(10), 2, 2)
        params.head[:] = 0.0
        params.reg_b[0] = 0.6
        assert math.isclose(_forward_batch(params, *pair(0, 1))[0][0], 3.0, rel_tol=1e-12)

    def test_one_dim_pass_through(self):
        params = random_params(np.random.default_rng(11), 1, 1, k=1, p=1)
        params.user_rating = np.array([[0.8]])
        params.prod_rating = np.array([[1.0]])
        params.user_joint = np.array([[0.0]])
        params.prod_joint = np.array([[0.0]])
        params.proj_rating = np.array([[1.0]])
        params.proj_joint = np.array([[1.0]])
        params.head = np.array([[1.0]])
        params.reg_w = np.array([1.0])
        params.reg_b[0] = 0.0
        assert math.isclose(_forward_batch(params, *pair(0, 0))[0][0], 4.0, rel_tol=1e-12)

    @pytest.mark.parametrize("terms", [JOINT, RATING], ids=["joint", "rating"])
    @pytest.mark.parametrize("idx_u, idx_p", [([-1], [0]), ([3], [0]), ([0, 1], [0, -1]),
                                              ([0], [4])])
    def test_factor_predict_index_out_of_range(self, terms, idx_u, idx_p):
        params = random_params(np.random.default_rng(13), 3, 4)
        with pytest.raises(IndexError):
            factor_predict(params, idx_u, idx_p, terms)


def hyper(**kw):
    model = dict(latent_dim=2, predictive_dim=3, reg_lambda=0.01)
    loop = dict(batch_size=64, epochs=8, lr=0.05, seed=0, patience=0)
    for key, value in kw.items():
        (model if key in model else loop)[key] = value
    return MfHyperparams(**model, fit=FitHyperparams(**loop))


class TestTraining:
    def test_zero_epochs_returns_svd_init(self, tiny_store):
        params = train_mf(tiny_store, hyper(epochs=0))
        (w, z), (e, f) = svd_init(tiny_store, 2)
        np.testing.assert_array_equal(params.user_rating, w)
        np.testing.assert_array_equal(params.prod_rating, z)
        np.testing.assert_array_equal(params.user_joint, e)
        np.testing.assert_array_equal(params.prod_joint, z)
        np.testing.assert_array_equal(params.prod_rel, f)

    def test_factor_tables_share_no_memory(self, tiny_store):
        # at K = 1 the rating and joint models' product factors z are one row,
        # both C- and F-ordered, so only a copy per table keeps them apart
        params = train_mf(tiny_store, MfHyperparams(latent_dim=1, predictive_dim=1,
                                                    fit=FitHyperparams(epochs=0)))
        tables = [params.user_rating, params.prod_rating, params.user_joint, params.prod_joint,
                  params.prod_rel]
        for i, a in enumerate(tables):
            assert not any(np.shares_memory(a, b) for b in tables[i + 1:])

    def test_synthetic_rank2_recovery(self):
        store = gen_synthetic(SyntheticSpec(30, 25, 2, 0.6, 0.0, seed=1, quantize=False))
        params = train_mf(store, hyper(epochs=150, reg_lambda=0.0))
        idx_u, idx_p, _, truth = store.rated_arrays
        preds = factor_predict(params, idx_u, idx_p, RATING)
        rmse_norm = float(np.sqrt(np.mean(((preds - truth) / 5.0) ** 2)))
        assert rmse_norm < 0.05

    def test_huge_lambda_shrinks_factors(self, tiny_store):
        free = train_mf(tiny_store, hyper(reg_lambda=0.0, epochs=20))
        tied = train_mf(tiny_store, hyper(reg_lambda=1e6, epochs=20))
        assert np.linalg.norm(tied.user_rating) < np.linalg.norm(free.user_rating)
        assert np.linalg.norm(tied.prod_rating) < np.linalg.norm(free.prod_rating)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(31)
        store = random_store(rng, 5, 5)
        a = train_mf(store, hyper(epochs=4))
        b = train_mf(store, hyper(epochs=4))
        np.testing.assert_array_equal(a.user_rating, b.user_rating)
        np.testing.assert_array_equal(a.user_joint, b.user_joint)
        np.testing.assert_array_equal(a.head, b.head)
        assert a.reg_b == b.reg_b

    def test_head_training_mae_decreases_over_first_epochs(self):
        rng = np.random.default_rng(37)
        store = random_store(rng, 6, 6, density=0.9)
        losses = []

        def on_epoch(phase, epoch, loss, seconds):
            if phase == "mf-head":
                losses.append(loss)

        train_mf(store, hyper(epochs=5, lr=0.02), on_epoch=on_epoch)
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_divergence_raises(self, tiny_store):
        with pytest.raises(TrainingDivergedError):
            train_mf(tiny_store, hyper(lr=1e160, reg_lambda=0.1, epochs=3))

    def test_empty_store_rejected(self):
        from dualrec.ingest import _make_store

        empty = _make_store([], [], [])
        with pytest.raises(ValueError):
            train_mf(empty, hyper())


class TestHyperparams:
    @pytest.mark.parametrize("reg_lambda", [-0.1, float("nan"), float("inf"), -float("inf")],
                             ids=["negative", "nan", "inf", "-inf"])
    def test_reg_lambda_must_be_finite_and_non_negative(self, reg_lambda):
        with pytest.raises(ValueError, match="reg_lambda must be a finite number >= 0"):
            MfHyperparams(latent_dim=2, predictive_dim=3, reg_lambda=reg_lambda)

    def test_predictive_dim_has_no_default(self):
        with pytest.raises(TypeError):
            MfHyperparams(latent_dim=2)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        params = random_params(rng, 4, 5, k=2, p=3)
        path = tmp_path / "mf.ckpt"
        save_mf(params, path)
        loaded = load_mf(path)
        for name in ("user_rating", "prod_rating", "user_joint", "prod_joint",
                     "prod_rel", "proj_rating", "proj_joint", "head", "reg_w"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))
        assert loaded.reg_b == params.reg_b

    def test_factor_tables_are_column_major_when_trained_and_loaded(self, tmp_path):
        # a batch gathers each pair's factors as one contiguous column
        store = gen_synthetic(SyntheticSpec(12, 10, 2, 0.6, 0.05, seed=1))
        params = train_mf(store, MfHyperparams(latent_dim=3, predictive_dim=2,
                                               fit=FitHyperparams(epochs=1, batch_size=16)))
        save_mf(params, tmp_path / "mf.ckpt")
        for model in (params, load_mf(tmp_path / "mf.ckpt")):
            for name in ("user_rating", "prod_rating", "user_joint", "prod_joint", "prod_rel"):
                assert np.isfortran(getattr(model, name)), name

    def test_kind_mismatch_rejected(self, tmp_path):
        from dualrec.checkpoint import save_sections

        path = tmp_path / "other.ckpt"
        save_sections(path, "mlp", {}, [("x", np.zeros(2))])
        with pytest.raises(ValueError):
            load_mf(path)

    @pytest.mark.parametrize("k, p", [(0, 0), (0, 2), (2, 0)],
                             ids=["both-zero", "latent-zero", "head-zero"])
    def test_sizes_training_cannot_produce_are_refused(self, tmp_path, k, p):
        from dualrec.checkpoint import save_sections

        sections = mf_sections(3, 2, k, p)
        path = tmp_path / "mf.ckpt"
        want = f"latent_dim and predictive_dim must be >= 1, got {k} and {p}"
        with pytest.raises(ValueError, match=want):
            save_mf(MfParams(**sections), path)
        assert not path.exists()
        meta = {"n_users": 3, "n_products": 2, "latent_dim": k, "predictive_dim": p}
        save_sections(path, "mf", meta, sections.items())
        with pytest.raises(ValueError, match=want):
            load_mf(path)


def mf_sections(n, m, k, p) -> dict:
    """Zero sections of an MF checkpoint of n users, m products, latent size
    k and head width p, laid out by hand."""
    shapes = {"user_rating": (k, n), "prod_rating": (k, m), "user_joint": (k, n),
              "prod_joint": (k, m), "prod_rel": (k, m), "proj_rating": (k, k),
              "proj_joint": (k, k), "head": (k, p), "reg_w": (p,), "reg_b": (1,)}
    return {name: np.zeros(shape) for name, shape in shapes.items()}
