import copy
import dataclasses
import math

import numpy as np
import pytest

from dualrec import mf_model, mlp_model, training
from dualrec.fusion import (
    FusionModel,
    _forward_batch,
    init_fusion,
    init_fusion_random,
    load_fusion,
    predict_batch,
    save_fusion,
    train_fusion,
)
from dualrec.linalg import adam_step, finite_diff_grad
from dualrec.mlp_model import init_mlp, param_dict as mlp_param_dict
from dualrec.training import FitHyperparams

from conftest import pair_forward, random_store
from test_mf_model import random_params


def fused_predict(model, i, j) -> float:
    """Unclamped raw prediction of the fused model for the pair (i, j)."""
    return pair_forward(_forward_batch, model, i, j)[0]


# The embedding tables of both branches, as fine-tuning names them.
TABLES = {"mf/user_rating", "mf/prod_rating", "mf/user_joint", "mf/prod_joint",
          "mlp/user_emb", "mlp/prod_emb"}
# Every array a small_model trains when its tables train too.
FUSED_NAMES = TABLES | {
    "concat_w", "reg_w", "reg_b", "mf/proj_rating", "mf/proj_joint",
    "mlp/fusion_w_user", "mlp/fusion_b_user", "mlp/fusion_w_prod", "mlp/fusion_b_prod",
    "mlp/tower_w_0", "mlp/tower_b_0", "mlp/tower_w_1", "mlp/tower_b_1",
}


def check_fused_gradients(model, cache, d_raw, assert_close) -> set:
    """Finite-difference check of every gradient on the path that trains
    the tables; the tables-fixed path of ``model`` must return the same
    gradient for every name but the tables. Returns the names checked."""
    from dualrec.fusion import _grads_batch, param_dict

    full_model = dataclasses.replace(model, train_tables=True)
    full = _grads_batch(full_model, cache, d_raw)
    fixed = _grads_batch(model, cache, d_raw)
    weights = param_dict(full_model)
    assert set(full) <= set(weights)
    assert set(fixed) == set(full) - TABLES
    for name, grad in fixed.items():
        np.testing.assert_array_equal(grad, full[name], err_msg=name)
    for name, grad in full.items():
        def value(x, name=name):
            clone = full_model.copy()
            param_dict(clone)[name][...] = x.reshape(grad.shape)
            raw, _ = _forward_batch(clone, cache["idx_u"], cache["idx_p"])
            return float(np.dot(d_raw, raw))

        numeric = finite_diff_grad(value, weights[name].ravel(), step=1e-6)
        assert_close(name, grad, numeric.reshape(grad.shape))
    return set(full)


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

    def test_latent_size_mismatch_rejected(self):
        mf = random_params(np.random.default_rng(1), 3, 3, k=2, p=2)
        mlp = init_mlp(3, 3, 3, (4, 2), seed=0)
        with pytest.raises(ValueError, match="branch latent sizes differ: mf=2, mlp=3"):
            init_fusion(mf, mlp, 0.5)

    @pytest.mark.parametrize("gamma", [-0.1, 2, float("nan")])
    def test_random_init_refuses_a_gamma_outside_the_unit_interval(self, gamma):
        with pytest.raises(ValueError, match=rf"gamma must be in \[0, 1\], got {gamma}"):
            init_fusion_random(4, 5, 3, (6, 3), seed=1, gamma=gamma)

    @pytest.mark.parametrize("n, m", [(4, 3), (3, 4)], ids=["users", "products"])
    def test_table_mismatch_rejected(self, n, m):
        mf = random_params(np.random.default_rng(1), 3, 3, k=2, p=2)
        mlp = init_mlp(n, m, 2, (4, 2), seed=0)
        with pytest.raises(ValueError, match="branch tables differ"):
            init_fusion(mf, mlp, 0.5)

    def test_branches_are_copies(self):
        rng = np.random.default_rng(2)
        mf = random_params(rng, 3, 3, k=2, p=3)
        mlp = init_mlp(3, 3, 2, (4, 3), seed=0)
        model = init_fusion(mf, mlp, 0.5)
        mf.user_rating[:] = 99.0
        assert not np.any(model.mf.user_rating == 99.0)


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
        def assert_close(name, grad, numeric):
            scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
            worst = float(np.max(np.abs(grad - numeric) / scale))
            assert worst < 1e-4, f"seed {seed} field {name}: {worst}"

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
            assert check_fused_gradients(model, cache, d_raw, assert_close) == FUSED_NAMES


class TestTraining:
    def test_lr_zero_changes_nothing(self):
        rng = np.random.default_rng(15)
        store = random_store(rng, 4, 4)
        model = small_model(seed=15)
        trained = train_fusion(model, store, FitHyperparams(epochs=3, lr=0.0, patience=0))
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
        train_fusion(model, store, FitHyperparams(epochs=2, lr=0.01, patience=0))
        np.testing.assert_array_equal(model.concat_w, snapshot.concat_w)
        np.testing.assert_array_equal(model.mf.user_joint, snapshot.mf.user_joint)

    def test_training_mae_non_increasing_within_noise(self):
        rng = np.random.default_rng(19)
        store = random_store(rng, 8, 8, density=0.9)
        model = small_model(seed=19, n=8, m=8, k=3, p=3, scale=0.3)
        losses = []
        train_fusion(
            model, store,
            FitHyperparams(epochs=5, lr=0.01, batch_size=16, patience=0),
            on_epoch=lambda ph, ep, loss, s: losses.append(loss),
        )
        assert len(losses) == 5
        for a, b in zip(losses, losses[1:]):
            assert b <= a * 1.05  # non-increasing within 5% noise

    def test_global_mean_recorded(self):
        rng = np.random.default_rng(23)
        store = random_store(rng, 4, 4)
        model = train_fusion(small_model(23), store, FitHyperparams(epochs=1, patience=0))
        assert model.global_mean == store.global_mean_raw()

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        store = random_store(rng, 5, 5)
        hyper = FitHyperparams(epochs=3, lr=0.02, seed=4, patience=0)
        a = train_fusion(small_model(25, n=5, m=5), store, hyper)
        b = train_fusion(small_model(25, n=5, m=5), store, hyper)
        np.testing.assert_array_equal(a.concat_w, b.concat_w)
        np.testing.assert_array_equal(a.mlp.user_emb, b.mlp.user_emb)


class TestTableTraining:
    def test_pretrained_tables_stay_fixed(self):
        rng = np.random.default_rng(29)
        store = random_store(rng, 4, 4)
        model = small_model(seed=29)
        assert not model.train_tables
        trained = train_fusion(model, store, FitHyperparams(epochs=3, lr=0.05, patience=0))
        for name in ("user_rating", "prod_rating", "user_joint", "prod_joint"):
            np.testing.assert_array_equal(getattr(trained.mf, name), getattr(model.mf, name))
        np.testing.assert_array_equal(trained.mlp.user_emb, model.mlp.user_emb)
        np.testing.assert_array_equal(trained.mlp.prod_emb, model.mlp.prod_emb)
        for before, after in ((model.mf.proj_rating, trained.mf.proj_rating),
                              (model.mf.proj_joint, trained.mf.proj_joint),
                              (model.mlp.fusion_w_user, trained.mlp.fusion_w_user),
                              (model.mlp.fusion_w_prod, trained.mlp.fusion_w_prod),
                              (model.mlp.tower_w[0], trained.mlp.tower_w[0]),
                              (model.concat_w, trained.concat_w)):
            assert np.any(before != after)

    def test_random_model_trains_its_tables(self):
        rng = np.random.default_rng(31)
        store = random_store(rng, 4, 5, density=0.9)
        model = init_fusion_random(4, 5, 3, (6, 3), seed=1, scale=0.3)
        assert model.train_tables
        trained = train_fusion(model, store, FitHyperparams(epochs=3, lr=0.05, patience=0))
        for name in ("user_rating", "prod_rating", "user_joint", "prod_joint"):
            assert np.any(getattr(trained.mf, name) != getattr(model.mf, name)), name
        assert np.any(trained.mlp.user_emb != model.mlp.user_emb)
        assert np.any(trained.mlp.prod_emb != model.mlp.prod_emb)

    @pytest.mark.parametrize("cold", [False, True], ids=["pretrained", "random"])
    def test_fixed_tables_are_skipped_not_filtered(self, monkeypatch, cold):
        calls = []
        states = []

        def counting(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        def recording_step(params, grads, state):
            states.append(state)
            return adam_step(params, grads, state)

        monkeypatch.setattr(mf_model, "_scatter_cols",
                            counting("mf", mf_model._scatter_cols))
        monkeypatch.setattr(mlp_model, "scatter_rows",
                            counting("mlp", mlp_model.scatter_rows))
        monkeypatch.setattr(training, "adam_step", recording_step)
        rng = np.random.default_rng(33)
        store = random_store(rng, 4, 4)
        model = (init_fusion_random(4, 4, 2, (4, 3), seed=2) if cold
                 else small_model(seed=33))
        train_fusion(model, store, FitHyperparams(epochs=2, lr=0.01, patience=0))
        state = states[0]
        assert all(s is state for s in states)
        if cold:
            assert set(state.m) == set(state.v) == FUSED_NAMES
            assert calls.count("mf") == 4 * len(states) and calls.count("mlp") == 2 * len(states)
        else:
            assert set(state.m) == set(state.v) == FUSED_NAMES - TABLES
            assert calls == []


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

    def test_a_tower_training_cannot_produce_is_refused(self, tmp_path):
        from dualrec.checkpoint import save_sections
        from dualrec.fusion import param_dict
        from test_mf_model import mf_sections
        from test_mlp_model import WIDENING_TOWER_ERROR, widening_tower_sections

        model = init_fusion(mf_model.MfParams(**mf_sections(3, 2, 2, 2)),
                            mlp_model.params_from_sections(widening_tower_sections(), 2))
        path = tmp_path / "fused.ckpt"
        with pytest.raises(ValueError, match=WIDENING_TOWER_ERROR):
            save_fusion(model, path)
        assert not path.exists()
        meta = {"n_users": 3, "n_products": 2, "latent_dim": 2, "predictive_dim": 2,
                "tower": [8, 2], "gamma": model.gamma, "global_mean": 3.0}
        save_sections(path, "fusion", meta, param_dict(model).items())
        with pytest.raises(ValueError, match=WIDENING_TOWER_ERROR):
            load_fusion(path)
