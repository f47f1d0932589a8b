import copy
import math

import numpy as np
import pytest

from dualrec.fusion import (
    FusionHyperparams,
    FusionModel,
    fused_predict,
    init_fusion,
    init_fusion_random,
    load_fusion,
    predict_batch,
    save_fusion,
    train_fusion,
)
from dualrec.linalg import finite_diff_grad
from dualrec.mlp_model import init_mlp, param_dict as mlp_param_dict

from conftest import random_store
from test_mf_model import random_params


def small_model(seed=0, n=4, m=4, k=2, p=3, scale=0.5) -> FusionModel:
    rng = np.random.default_rng(seed)
    mf = random_params(rng, n, m, k=k, p=p, scale=scale)
    mlp = init_mlp(n, m, k, (2 * k, p), seed=seed + 1, scale=scale)
    return init_fusion(mf, mlp, gamma=0.5)


class TestInit:
    def test_gamma_one_zeroes_mlp_block(self):
        model = small_model()
        rebuilt = init_fusion(model.mf, model.mlp, gamma=1.0)
        k = model.latent_dim
        np.testing.assert_array_equal(rebuilt.concat_w[:, k:], 0.0)
        np.testing.assert_array_equal(rebuilt.concat_w[:, :k], model.mf.head.T)

    def test_gamma_half_halves_both_blocks(self):
        model = small_model()
        k = model.latent_dim
        np.testing.assert_allclose(model.concat_w[:, :k], 0.5 * model.mf.head.T, rtol=1e-15)
        np.testing.assert_allclose(model.concat_w[:, k:], 0.5 * model.mlp.head.T, rtol=1e-15)

    def test_regression_head_is_branch_average(self):
        model = small_model()
        np.testing.assert_allclose(
            model.reg_w, (model.mf.reg_w + model.mlp.reg_w) / 2, rtol=1e-15
        )
        assert model.reg_b == (model.mf.reg_b + model.mlp.reg_b) / 2

    def test_gamma_out_of_range(self):
        model = small_model()
        with pytest.raises(ValueError):
            init_fusion(model.mf, model.mlp, gamma=1.5)

    def test_head_width_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        mf = random_params(rng, 3, 3, k=2, p=4)
        mlp = init_mlp(3, 3, 2, (4, 2), seed=0)
        with pytest.raises(ValueError):
            init_fusion(mf, mlp, 0.5)

    def test_branches_are_copies(self):
        rng = np.random.default_rng(2)
        mf = random_params(rng, 3, 3, k=2, p=3)
        mlp = init_mlp(3, 3, 2, (4, 3), seed=0)
        model = init_fusion(mf, mlp, 0.5)
        mf.user_rating[:] = 99.0
        assert not np.any(model.mf.user_rating == 99.0)


class TestBlockIdentity:
    def test_gamma_one_ignores_mlp_bitwise(self):
        model = init_fusion(small_model().mf, small_model().mlp, gamma=1.0)
        pairs = [(i, j) for i in range(4) for j in range(4)]
        before = [fused_predict(model, i, j) for i, j in pairs]
        rng = np.random.default_rng(3)
        noisy = model.copy()
        for arr in mlp_param_dict(noisy.mlp).values():
            arr += rng.normal(size=arr.shape)
        after = [fused_predict(noisy, i, j) for i, j in pairs]
        assert before == after  # bitwise

    def test_gamma_zero_ignores_mf_bitwise(self):
        model = init_fusion(small_model().mf, small_model().mlp, gamma=0.0)
        pairs = [(i, j) for i in range(4) for j in range(4)]
        before = [fused_predict(model, i, j) for i, j in pairs]
        rng = np.random.default_rng(4)
        noisy = model.copy()
        for name in ("user_rating", "prod_rating", "user_joint", "prod_joint",
                     "prod_rel", "proj_rating", "proj_joint"):
            arr = getattr(noisy.mf, name)
            arr += rng.normal(size=arr.shape)
        after = [fused_predict(noisy, i, j) for i, j in pairs]
        assert before == after


class TestForward:
    def test_bias_only(self):
        model = small_model()
        model.concat_w[:] = 0.0
        model.reg_b[0] = 0.6
        for i in range(2):
            for j in range(2):
                assert math.isclose(fused_predict(model, i, j), 3.0, rel_tol=1e-12)

    def test_one_dim_hand_case(self):
        rng = np.random.default_rng(5)
        mf = random_params(rng, 1, 1, k=1, p=1)
        mf.user_rating = np.array([[0.2]])
        mf.prod_rating = np.array([[1.0]])
        mf.user_joint = np.array([[0.0]])
        mf.prod_joint = np.array([[0.0]])
        mf.proj_rating = np.array([[1.0]])
        mf.proj_joint = np.array([[1.0]])
        mlp = init_mlp(1, 1, 1, (1,), seed=0)
        model = init_fusion(mf, mlp, 0.5)
        # overwrite the fused head with the hand-set values
        model.concat_w = np.array([[1.0, 1.0]])
        model.reg_w = np.array([1.0])
        model.reg_b[0] = 0.0
        # craft the MLP branch to emit exactly 0.4
        model.mlp.user_emb = np.array([[0.4]])
        model.mlp.fusion_w_user = np.array([[1.0]])
        model.mlp.fusion_b_user = np.zeros(1)
        model.mlp.tower_w[0] = np.array([[1.0], [0.0]])
        model.mlp.tower_b[0] = np.zeros(1)
        assert math.isclose(fused_predict(model, 0, 0), 3.0, rel_tol=1e-12)

    def test_linear_in_concat_weights(self):
        model = small_model(seed=7)
        base = fused_predict(model, 1, 2) - 5 * model.reg_b[0]
        doubled = model.copy()
        doubled.concat_w = 2.0 * model.concat_w
        scaled = fused_predict(doubled, 1, 2) - 5 * model.reg_b[0]
        assert math.isclose(scaled, 2.0 * base, rel_tol=1e-9)

    def test_out_of_range_index(self):
        model = small_model()
        with pytest.raises(IndexError):
            fused_predict(model, 9, 0)


class TestPredictBatch:
    def test_empty(self):
        assert predict_batch(small_model(), []) == []

    def test_duplicates_identical(self):
        model = small_model(seed=9)
        out = predict_batch(model, [(1, 1), (1, 1), (2, 0), (1, 1)])
        assert out[0] == out[1] == out[3]

    def test_unknown_index_falls_back_to_global_mean(self):
        model = small_model()
        model.global_mean = 3.7
        out = predict_batch(model, [(-1, 0), (0, 99), (50, 50)])
        assert out == [3.7, 3.7, 3.7]

    def test_reported_predictions_clamped(self):
        model = small_model(seed=11)
        model.reg_b[0] = 100.0  # push raw predictions far above 5
        out = predict_batch(model, [(i, j) for i in range(4) for j in range(4)])
        assert all(v == 5.0 for v in out)
        model.reg_b[0] = -100.0
        out = predict_batch(model, [(0, 0)])
        assert out == [1.0]

    def test_order_preserving(self):
        model = small_model(seed=13)
        pairs = [(0, 1), (2, 3), (1, 0)]
        one_by_one = [predict_batch(model, [p])[0] for p in pairs]
        assert predict_batch(model, pairs) == one_by_one


class TestFusedGradients:
    def test_full_model_gradcheck(self):
        from dualrec.fusion import _forward_batch, _grads_batch, _param_dict

        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            model = small_model(seed=seed, n=3, m=3, k=2, p=2, scale=0.6)
            rng = np.random.default_rng(1000 + seed)
            idx_u = rng.integers(0, 3, size=4)
            idx_p = rng.integers(0, 3, size=4)
            d_raw = rng.normal(size=4)
            _, cache = _forward_batch(model, idx_u, idx_p)
            pres = np.concatenate(
                [cache["mlp_cache"]["a_pre"].ravel(), cache["mlp_cache"]["b_pre"].ravel()]
                + [p.ravel() for p in cache["mlp_cache"]["pres"]]
            )
            if np.any(np.abs(pres) < 1e-4):
                continue
            checked += 1
            grads = _grads_batch(model, cache, d_raw, freeze_branches=False)
            weights = _param_dict(model, freeze_branches=False)

            for name, grad in grads.items():
                if name not in weights or not np.any(np.isfinite(grad)):
                    continue
                base = weights[name].copy()
                shape = base.shape

                def value(x):
                    clone = model.copy()
                    wdict = _param_dict(clone, freeze_branches=False)
                    wdict[name][...] = x.reshape(shape)
                    raw, _ = _forward_batch(clone, idx_u, idx_p)
                    return float(np.dot(d_raw, raw))

                numeric = finite_diff_grad(value, base.ravel(), step=1e-6).reshape(shape)
                scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
                worst = float(np.max(np.abs(grad - numeric) / scale))
                assert worst < 1e-4, f"seed {seed} field {name}: {worst}"


class TestTraining:
    def test_lr_zero_changes_nothing(self):
        rng = np.random.default_rng(15)
        store = random_store(rng, 4, 4)
        model = small_model(seed=15)
        trained = train_fusion(model, store, FusionHyperparams(epochs=3, lr=0.0, patience=0))
        pairs = [(i, j) for i in range(4) for j in range(4)]
        assert predict_batch(trained, pairs) == predict_batch(model, pairs)
        np.testing.assert_array_equal(trained.concat_w, model.concat_w)
        np.testing.assert_array_equal(trained.mf.user_rating, model.mf.user_rating)
        np.testing.assert_array_equal(trained.mlp.tower_w[0], model.mlp.tower_w[0])
        assert trained.reg_b == model.reg_b
        for i, j in pairs:
            assert fused_predict(trained, i, j) == fused_predict(model, i, j)

    def test_input_model_untouched(self):
        rng = np.random.default_rng(17)
        store = random_store(rng, 4, 4)
        model = small_model(seed=17)
        snapshot = copy.deepcopy(model)
        train_fusion(model, store, FusionHyperparams(epochs=2, lr=0.01, patience=0))
        np.testing.assert_array_equal(model.concat_w, snapshot.concat_w)
        np.testing.assert_array_equal(model.mf.user_joint, snapshot.mf.user_joint)

    def test_training_mae_non_increasing_within_noise(self):
        rng = np.random.default_rng(19)
        store = random_store(rng, 8, 8, density=0.9)
        model = small_model(seed=19, n=8, m=8, k=3, p=3, scale=0.3)
        losses = []
        train_fusion(
            model, store,
            FusionHyperparams(epochs=5, lr=0.01, batch_size=16, patience=0),
            on_epoch=lambda ph, ep, loss, s: losses.append(loss),
        )
        assert len(losses) == 5
        for a, b in zip(losses, losses[1:]):
            assert b <= a * 1.05  # non-increasing within 5% noise

    def test_freeze_branches_only_updates_head(self):
        rng = np.random.default_rng(21)
        store = random_store(rng, 4, 4)
        model = small_model(seed=21)
        trained = train_fusion(
            model, store, FusionHyperparams(epochs=3, lr=0.05, patience=0),
            freeze_branches=True,
        )
        np.testing.assert_array_equal(trained.mf.user_rating, model.mf.user_rating)
        np.testing.assert_array_equal(trained.mf.proj_joint, model.mf.proj_joint)
        np.testing.assert_array_equal(trained.mlp.tower_w[0], model.mlp.tower_w[0])
        np.testing.assert_array_equal(trained.mlp.user_emb, model.mlp.user_emb)
        assert np.any(trained.concat_w != model.concat_w)

    def test_global_mean_recorded(self):
        rng = np.random.default_rng(23)
        store = random_store(rng, 4, 4)
        model = train_fusion(small_model(23), store, FusionHyperparams(epochs=1, patience=0))
        assert model.global_mean == store.global_mean_raw()

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        store = random_store(rng, 5, 5)
        hyper = FusionHyperparams(epochs=3, lr=0.02, seed=4, patience=0)
        a = train_fusion(small_model(25, n=5, m=5), store, hyper)
        b = train_fusion(small_model(25, n=5, m=5), store, hyper)
        np.testing.assert_array_equal(a.concat_w, b.concat_w)
        np.testing.assert_array_equal(a.mlp.user_emb, b.mlp.user_emb)


class TestCheckpoint:
    def test_round_trip_and_byte_stability(self, tmp_path):
        model = small_model(seed=27)
        model.global_mean = 3.21
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_fusion(model, a)
        loaded = load_fusion(a)
        assert loaded.gamma == model.gamma
        assert loaded.global_mean == model.global_mean
        np.testing.assert_array_equal(loaded.concat_w, model.concat_w)
        np.testing.assert_array_equal(loaded.mf.prod_rel, model.mf.prod_rel)
        np.testing.assert_array_equal(loaded.mlp.tower_b[1], model.mlp.tower_b[1])
        save_fusion(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    def test_random_init_variant(self):
        model = init_fusion_random(4, 5, 3, (6, 3), seed=1)
        assert model.mf.n_users == 4
        assert model.mlp.predictive_dim == 3
        value = fused_predict(model, 0, 0)
        assert np.isfinite(value)
