import math

import numpy as np
import pytest

from dualrec.harness import SyntheticSpec, gen_synthetic
from dualrec.linalg import TrainingDivergedError
from dualrec.mlp_model import (
    MlpHyperparams,
    MlpParams,
    _backward_batch,
    _bias_grad,
    _embedding_batch,
    _forward_batch,
    init_mlp,
    load_mlp,
    param_dict,
    params_from_sections,
    save_mlp,
    section_shapes,
    train_mlp,
)
from dualrec.training import FitHyperparams

from conftest import pair_forward, random_store, rated


def get_field(params, name):
    return param_dict(params)[name]


def mlp_predict(params, i, j) -> float:
    """Raw prediction of the branch's own head for the pair (i, j)."""
    return pair_forward(_forward_batch, params, i, j)[0]


def pair_grads(params, i, j, d_raw=1.0) -> dict:
    """Gradients of ``d_raw`` times the pair's raw prediction."""
    _, cache = pair_forward(_forward_batch, params, i, j)
    return _backward_batch(params, cache, np.array([d_raw]))


def set_field(params, name, value):
    param_dict(params)[name][...] = value


def embedding(params, i, j):
    """The tower output of the pair (i, j), from one-element index arrays."""
    return _embedding_batch(params, np.array([i]), np.array([j]))[0][0]


def fused_rows(params, i, j):
    """The fusion layer's user and product vectors (a_i, b_j) of the pair (i, j)."""
    v = _embedding_batch(params, np.array([i]), np.array([j]))[1]["hidden"][0][0]
    return v[:params.latent_dim], v[params.latent_dim:]


class TestInit:
    def test_deterministic_under_seed(self):
        a = init_mlp(5, 6, 3, (6, 3), seed=9)
        b = init_mlp(5, 6, 3, (6, 3), seed=9)
        np.testing.assert_array_equal(a.user_emb, b.user_emb)
        np.testing.assert_array_equal(a.tower_w[0], b.tower_w[0])
        np.testing.assert_array_equal(a.head, b.head)

    def test_reference_tower_shape(self):
        params = init_mlp(4, 4, 256, (512, 256, 128, 64), seed=0)
        assert params.tower_w[0].shape == (512, 512)  # input width is 2K
        assert params.tower_widths == (512, 256, 128, 64)
        assert params.predictive_dim == 64

    def test_increasing_widths_rejected(self):
        with pytest.raises(ValueError):
            init_mlp(4, 4, 2, (8, 4), seed=0)  # 8 > 2K = 4
        with pytest.raises(ValueError):
            init_mlp(4, 4, 8, (4, 8), seed=0)

    def test_empty_or_nonpositive_towers_rejected(self):
        with pytest.raises(ValueError):
            init_mlp(4, 4, 2, (), seed=0)
        with pytest.raises(ValueError):
            init_mlp(4, 4, 2, (4, 0), seed=0)

    def test_initializer_standard_deviation(self):
        params = init_mlp(100, 100, 100, (200, 100), seed=1)
        tables = np.concatenate([params.user_emb.ravel(), params.prod_emb.ravel()])
        draws = np.concatenate([
            params.fusion_w_user.ravel(), params.fusion_w_prod.ravel(),
            params.tower_w[0].ravel(), params.tower_w[1].ravel(),
        ])
        assert tables.size >= 2e4 and draws.size >= 8e4
        # each table entry sums two draws
        assert math.sqrt(2) * 0.009 <= float(tables.std()) <= math.sqrt(2) * 0.011
        assert 0.009 <= float(draws.std()) <= 0.011
        assert not np.any(params.fusion_b_user)
        assert not np.any(params.tower_b[0])

    def test_section_shapes_list_the_sections_in_param_dict_order(self):
        params = init_mlp(5, 6, 3, (6, 4, 2), seed=0)
        meta = {"n_users": 5, "n_products": 6, "latent_dim": 3, "tower": [6, 4, 2],
                "predictive_dim": 2}
        sections = param_dict(params)
        assert list(section_shapes(meta)) == list(sections)
        assert section_shapes(meta) == {name: a.shape for name, a in sections.items()}


def predictions_digest(params):
    """sha256 of the raw-scale predictions over every (user, product) pair."""
    import hashlib

    preds = [mlp_predict(params, i, j)
             for i in range(params.n_users) for j in range(params.n_products)]
    return hashlib.sha256(np.array(preds).tobytes()).hexdigest()


class TestInitGolden:
    # Recorded while each side still had a rating table and a reliability
    # table that the forward pass summed; one table holding that sum must
    # give the same function bit for bit.
    def test_random_init_predictions(self):
        params = init_mlp(6, 5, 3, (6, 3), seed=5, scale=0.3)
        assert predictions_digest(params) == (
            "c2b02f6bc01960d27cc46afaec335838de60e604a36057c4d0f323a23ba43aaf")


class TestFusionLayer:
    def test_all_zero_inputs(self):
        params = init_mlp(3, 3, 2, (4, 2), seed=0)
        for table in ("user_emb", "prod_emb"):
            get_field(params, table)[:] = 0.0
        params.fusion_b_user[:] = 0.0
        params.fusion_b_prod[:] = 0.0
        a, b = fused_rows(params, 0, 0)
        np.testing.assert_array_equal(a, np.zeros(2))
        np.testing.assert_array_equal(b, np.zeros(2))

    def test_identity_weights_pass_positive_rows(self):
        params = init_mlp(2, 2, 2, (4, 2), seed=0)
        params.user_emb = np.array([[0.7, 0.4], [0.3, 0.6]])
        params.fusion_w_user = np.eye(2)
        params.fusion_b_user[:] = 0.0
        a, _ = fused_rows(params, 1, 0)
        np.testing.assert_allclose(a, [0.3, 0.6], atol=1e-12)

    def test_negative_preactivation_clamped_to_zero(self):
        params = init_mlp(2, 2, 1, (2, 1), seed=0)
        params.user_emb = np.array([[1.0], [1.0]])
        params.fusion_w_user = np.array([[-2.0]])
        params.fusion_b_user[:] = 0.0
        a, _ = fused_rows(params, 0, 0)
        assert a[0] == 0.0


def step_by_step_oracle(params: MlpParams, i: int, j: int):
    """Independent scalar-loop evaluation of the tower output."""
    k = params.latent_dim
    user = params.user_emb[i]
    prod = params.prod_emb[j]
    a = [max(0.0, sum(params.fusion_w_user[r, c] * user[c] for c in range(k))
             + params.fusion_b_user[r]) for r in range(k)]
    b = [max(0.0, sum(params.fusion_w_prod[r, c] * prod[c] for c in range(k))
             + params.fusion_b_prod[r]) for r in range(k)]
    vec = a + b
    for w, bias in zip(params.tower_w, params.tower_b):
        vec = [
            max(0.0, sum(vec[r] * w[r, c] for r in range(len(vec))) + bias[c])
            for c in range(w.shape[1])
        ]
    return np.array(vec)


class TestEmbedding:
    def test_all_zero_weights_give_zero(self):
        params = init_mlp(3, 3, 2, (4, 2), seed=0)
        for l in range(len(params.tower_w)):
            params.tower_w[l][:] = 0.0
        np.testing.assert_array_equal(embedding(params, 0, 0), np.zeros(2))

    def test_constructed_pass_through_selects_user_vector(self):
        params = init_mlp(2, 2, 2, (2,), seed=0)
        params.user_emb = np.array([[0.4, 0.7], [0.3, 0.9]])
        params.fusion_w_user = np.eye(2)
        params.fusion_b_user[:] = 0.0
        # single layer selecting the user half of the concatenation
        params.tower_w[0] = np.vstack([np.eye(2), np.zeros((2, 2))])
        params.tower_b[0][:] = 0.0
        np.testing.assert_allclose(embedding(params, 1, 0), [0.3, 0.9], atol=1e-12)

    def test_matches_independent_oracle(self):
        for seed in range(10):
            params = init_mlp(3, 4, 2, (4, 2), seed=seed, scale=0.5)
            i, j = seed % 3, seed % 4
            np.testing.assert_allclose(
                embedding(params, i, j), step_by_step_oracle(params, i, j), atol=1e-12
            )

    def test_tower_output_nonnegative(self):
        rng = np.random.default_rng(3)
        params = init_mlp(5, 5, 3, (6, 3), seed=7, scale=0.8)
        for i in range(5):
            for j in range(5):
                assert np.all(embedding(params, i, j) >= 0.0)

    def test_forward_deterministic(self):
        params = init_mlp(3, 3, 2, (4, 2), seed=1, scale=0.4)
        first = embedding(params, 1, 2)
        second = embedding(params, 1, 2)
        np.testing.assert_array_equal(first, second)


class TestBackward:
    def test_zero_loss_grad_zero_gradients(self):
        params = init_mlp(3, 3, 2, (4, 2), seed=0, scale=0.5)
        grads = pair_grads(params, 1, 1, 0.0)
        for name, g in grads.items():
            assert not np.any(g), name

    def test_untouched_rows_get_zero_gradient(self):
        params = init_mlp(4, 4, 2, (4, 2), seed=0, scale=0.5)
        # make every ReLU unit alive so gradient reaches the looked-up rows
        for name in ("user_emb", "prod_emb", "fusion_w_user", "fusion_w_prod", "head",
                     "reg_w"):
            field = get_field(params, name)
            field[:] = np.abs(field)
        for l in range(len(params.tower_w)):
            params.tower_w[l][:] = np.abs(params.tower_w[l])
        grads = pair_grads(params, 1, 2)
        assert not np.any(grads["user_emb"][0])
        assert not np.any(grads["user_emb"][3])
        assert not np.any(grads["prod_emb"][0])
        # the looked-up rows must receive something
        assert np.any(grads["user_emb"][1])
        assert np.any(grads["prod_emb"][2])

    def test_epoch_gradient_invariant_to_batch_split(self):
        # summed per-example gradients: one big batch == two halves
        params = init_mlp(5, 5, 2, (4, 2), seed=3, scale=0.5)
        rng = np.random.default_rng(5)
        idx_u = rng.integers(0, 5, size=12)
        idx_p = rng.integers(0, 5, size=12)
        d_raw = rng.normal(size=12)

        _, cache = _forward_batch(params, idx_u, idx_p)
        full = _backward_batch(params, cache, d_raw)
        halves = {}
        for sl in (slice(0, 6), slice(6, 12)):
            _, cache = _forward_batch(params, idx_u[sl], idx_p[sl])
            part = _backward_batch(params, cache, d_raw[sl])
            for name, g in part.items():
                halves[name] = halves.get(name, 0.0) + g
        for name in full:
            np.testing.assert_allclose(full[name], halves[name], atol=1e-12)

    @pytest.mark.parametrize("width", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("batch", [0, 1, 7, 8, 9, 64, 129, 512, 1000])
    def test_bias_grad_is_the_column_sum_bit_for_bit(self, width, batch):
        # mixed signs and magnitudes, so that any other order of additions
        # rounds differently somewhere
        rng = np.random.default_rng(1000 * width + batch)
        d = rng.normal(size=(batch, width)) * 10.0 ** rng.integers(-8, 8, size=(batch, width))
        assert _bias_grad(d).tobytes() == d.sum(axis=0).tobytes()


class TestPredictAndTrain:
    def test_bias_only_head(self):
        params = init_mlp(3, 3, 2, (4, 2), seed=0)
        params.head[:] = 0.0
        params.reg_b[0] = 0.6
        assert math.isclose(mlp_predict(params, 0, 0), 3.0, rel_tol=1e-12)

    def test_prediction_ignores_other_users_rows(self):
        params = init_mlp(4, 4, 2, (4, 2), seed=2, scale=0.5)
        before = mlp_predict(params, 1, 1)
        params.user_emb[3] += 100.0
        params.user_emb[0] -= 50.0
        params.prod_emb[2] += 10.0
        assert mlp_predict(params, 1, 1) == before

    def test_capacity_overfits_small_toy(self):
        store = gen_synthetic(SyntheticSpec(10, 10, 2, 0.5, 0.0, seed=2, quantize=False))
        assert len(store.ratings) == 50
        hyper = MlpHyperparams(
            latent_dim=8, tower=(16, 8), init_scale=0.3,
            fit=FitHyperparams(batch_size=4, epochs=200, lr=0.02, lr_decay=0.99, seed=0,
                               patience=0),
        )
        params = train_mlp(store, hyper)
        ratings = rated(store)
        pairs = sorted(ratings)
        preds = np.array([mlp_predict(params, i, j) for i, j in pairs])
        truth = np.array([ratings[p] for p in pairs])
        assert float(np.mean(np.abs(preds - truth))) < 0.1

    def test_training_deterministic(self):
        rng = np.random.default_rng(11)
        store = random_store(rng, 5, 5, with_reliability=False)
        hyper = MlpHyperparams(latent_dim=4, tower=(8, 4),
                               fit=FitHyperparams(batch_size=8, epochs=3, seed=5))
        a = train_mlp(store, hyper)
        b = train_mlp(store, hyper)
        np.testing.assert_array_equal(a.user_emb, b.user_emb)
        np.testing.assert_array_equal(a.tower_w[1], b.tower_w[1])
        assert a.reg_b == b.reg_b

    def test_divergence_raises(self):
        rng = np.random.default_rng(17)
        store = random_store(rng, 4, 4, with_reliability=False)
        hyper = MlpHyperparams(latent_dim=2, tower=(4, 2),
                               fit=FitHyperparams(epochs=4, lr=1e200, seed=0))
        with pytest.raises(TrainingDivergedError):
            train_mlp(store, hyper)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_mlp(4, 5, 3, (6, 4), seed=21, scale=0.3)
        params.reg_b[0] = -0.25
        path = tmp_path / "mlp.ckpt"
        save_mlp(params, path)
        loaded = load_mlp(path)
        np.testing.assert_array_equal(loaded.user_emb, params.user_emb)
        np.testing.assert_array_equal(loaded.tower_w[1], params.tower_w[1])
        np.testing.assert_array_equal(loaded.head, params.head)
        assert loaded.reg_b == params.reg_b
        assert loaded.tower_widths == params.tower_widths

    def test_a_tower_training_cannot_produce_is_refused(self, tmp_path):
        from dualrec.checkpoint import save_sections

        arrays = widening_tower_sections()
        path = tmp_path / "mlp.ckpt"
        with pytest.raises(ValueError, match=WIDENING_TOWER_ERROR):
            save_mlp(params_from_sections(arrays, 2), path)
        assert not path.exists()
        meta = {"n_users": 3, "n_products": 2, "latent_dim": 2, "tower": [8, 2],
                "predictive_dim": 2}
        save_sections(path, "mlp", meta, arrays.items())
        with pytest.raises(ValueError, match=WIDENING_TOWER_ERROR):
            load_mlp(path)


WIDENING_TOWER_ERROR = r"tower widths must be non-increasing from 4, got \[8, 2\]"


def widening_tower_sections() -> dict:
    """Zero sections of an MLP checkpoint of 3 users, 2 products, K = 2 and
    tower (8, 2), which widens past the 2K = 4 concatenation."""
    shapes = {"user_emb": (3, 2), "prod_emb": (2, 2), "fusion_w_user": (2, 2),
              "fusion_b_user": (2,), "fusion_w_prod": (2, 2), "fusion_b_prod": (2,),
              "head": (2, 2), "reg_w": (2,), "reg_b": (1,), "tower_w_0": (4, 8),
              "tower_b_0": (8,), "tower_w_1": (8, 2), "tower_b_1": (2,)}
    return {name: np.zeros(shape) for name, shape in shapes.items()}
