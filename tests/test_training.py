import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dualrec import fusion, mf_model, mlp_model, training
from dualrec.fusion import (_forward_batch, init_fusion, init_fusion_random, predict_batch,
                            train_fusion)
from dualrec.harness import SyntheticSpec, gen_synthetic
from dualrec.ingest import PairArrays, _make_store
from dualrec.linalg import TrainingDivergedError, adam_step, finite_diff_grad
from dualrec.mlp_model import MlpHyperparams, param_dict, train_mlp
from dualrec.training import (CHUNK_PAIRS, INIT_SCALE, FitHyperparams, fit, head_backward,
                              head_forward, init_sections, mean_abs_error, predict_chunked)

from conftest import pair_forward, rated
from test_fusion import FUSED_NAMES, TABLES


Hyper = functools.partial(FitHyperparams, epochs=10, patience=2, lr=0.1, batch_size=2)


def run_fit(val_scores, hyper):
    """fit on one weight vector with a constant gradient; returns
    (weights, per-epoch weight copies, validation calls)."""
    weights = {"w": np.zeros(3)}
    seen = []
    calls = []

    def val_mae():
        calls.append(len(calls))
        return val_scores[len(calls) - 1]

    def on_epoch(phase, epoch, loss, seconds):
        seen.append(weights["w"].copy())

    fit(weights, lambda batch: (0.0, {"w": np.ones(3)}), lambda: 0.0, 4, hyper,
        np.random.default_rng(0), "toy", val_loss=val_mae, on_epoch=on_epoch)
    return weights["w"], seen, calls


class TestFit:
    def test_restores_the_best_epoch_weights(self):
        # validation improves up to epoch 2, then gets worse
        w, seen, calls = run_fit([3.0, 2.0, 1.0, 1.5, 2.5, 9.0], Hyper(patience=2))
        assert len(calls) == 5  # stopped two epochs after the best
        assert np.array_equal(w, seen[2])
        assert not np.array_equal(w, seen[-1])

    def test_restores_when_the_last_epochs_are_worse_without_stopping(self):
        w, seen, _ = run_fit([3.0, 1.0, 2.0, 2.5], Hyper(epochs=4, patience=5))
        assert np.array_equal(w, seen[1])

    def test_without_patience_keeps_the_last_weights(self):
        w, seen, calls = run_fit([3.0, 1.0, 2.0, 2.5], Hyper(epochs=4, patience=0))
        assert calls == []
        assert np.array_equal(w, seen[-1])

    def test_learning_rate_decays_per_epoch(self):
        w, seen, _ = run_fit([0.0] * 3, Hyper(epochs=3, patience=0, lr=0.1, lr_decay=0.5))
        steps = -np.diff(np.concatenate([[0.0], [s[0] for s in seen]]))
        # constant gradients make each Adam step move by the learning rate
        assert steps == pytest.approx([0.2, 0.1, 0.05], rel=1e-6)

    def test_divergence_names_phase_and_epoch(self):
        with pytest.raises(TrainingDivergedError, match="toy training diverged at epoch 0"):
            fit({"w": np.zeros(1)}, lambda batch: (float("nan"), {"w": np.ones(1)}),
                lambda: float("nan"), 1, Hyper(), np.random.default_rng(0), "toy")

    @pytest.mark.parametrize("patience, last", [(0, 9), (2, 4)])
    def test_divergence_after_the_last_epoch_is_caught(self, patience, last):
        # finite batch losses, but the returned weights score nan; with
        # patience the run stops (and restores) after epoch 4
        val = iter([3.0, 2.0, 1.0, 1.5, 2.5])
        with pytest.raises(TrainingDivergedError,
                           match=f"toy training diverged at epoch {last}: loss=nan"):
            fit({"w": np.zeros(1)}, lambda batch: (0.0, {"w": np.ones(1)}),
                lambda: float("nan"), 4, Hyper(patience=patience), np.random.default_rng(0),
                "toy", val_loss=lambda: next(val))

    def test_epoch_loss_is_the_batch_losses_over_n(self):
        rng = np.random.default_rng(3)
        returned, reported = [], []

        def batch_grads(batch):
            returned.append(float(rng.random()) * len(batch))
            return returned[-1], {"w": np.ones(1)}

        fit({"w": np.zeros(1)}, batch_grads, lambda: 0.0, 5, Hyper(epochs=3, patience=0),
            np.random.default_rng(0), "toy",
            on_epoch=lambda phase, epoch, loss, seconds: reported.append(loss))
        # 5 examples in batches of 2: three batches per epoch
        assert len(returned) == 9
        assert reported == [sum(returned[3 * e : 3 * e + 3]) / 5 for e in range(3)]


class TestFitHyperparams:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -5), ("batch_size", 2.0), ("epochs", -3),
        ("epochs", "1"), ("patience", -1), ("lr", -1.0), ("lr", float("nan")),
        ("lr", float("inf")), ("lr", "a"), ("lr_decay", 0.0), ("lr_decay", -0.5),
        ("lr_decay", float("nan")), ("lr_decay", float("inf")),
    ])
    def test_bad_setting_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FitHyperparams(**{field: value})

    def test_zero_lr_zero_epochs_and_numpy_integers_are_accepted(self):
        assert FitHyperparams(lr=0.0, epochs=0, patience=0).lr == 0.0
        assert FitHyperparams(batch_size=np.int64(3)).batch_size == 3


def test_init_sections_takes_given_zeros_biases_and_draws_the_rest_in_order():
    shapes = {"mf/head": (3, 2), "mf/reg_b": (1,), "mlp/user_emb": (4, 3),
              "mlp/fusion_b_user": (3,), "mlp/tower_w_0": (6, 2), "mlp/tower_b_0": (2,),
              "concat_w": (2, 5), "reg_w": (2,), "reg_b": (1,)}
    table = np.arange(12.0).reshape(4, 3)
    arrays = init_sections(shapes, np.random.default_rng(4), given={"mlp/user_emb": table})
    assert list(arrays) == list(shapes)
    assert {name: a.shape for name, a in arrays.items()} == shapes
    assert arrays["mlp/user_emb"] is table
    for name in ("mf/reg_b", "mlp/fusion_b_user", "mlp/tower_b_0", "reg_b"):
        assert not np.any(arrays[name])
    rng = np.random.default_rng(4)
    for name in ("mf/head", "mlp/tower_w_0", "concat_w", "reg_w"):
        np.testing.assert_array_equal(arrays[name], rng.normal(0.0, INIT_SCALE, shapes[name]))
    scaled = init_sections({"w": (3,)}, np.random.default_rng(4), scale=0.3)
    np.testing.assert_array_equal(scaled["w"], np.random.default_rng(4).normal(0.0, 0.3, 3))


@pytest.mark.parametrize("seed", [0, 1])
def test_head_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    arrays = {"theta": rng.normal(size=(5, 4)), "head": rng.normal(size=(4, 3)),
              "reg_w": rng.normal(size=3), "reg_b": rng.normal(size=1)}
    d_raw = rng.normal(size=5)
    hidden, _ = head_forward(arrays["theta"], arrays["head"], arrays["reg_w"], arrays["reg_b"])
    grads, d_theta = head_backward(arrays["theta"], hidden, arrays["head"], arrays["reg_w"], d_raw)
    assert set(grads) == {"head", "reg_w", "reg_b"}
    grads["theta"] = d_theta
    for name, grad in grads.items():
        def value(x, name=name):
            moved = dict(arrays, **{name: x.reshape(grad.shape)})
            _, raw = head_forward(moved["theta"], moved["head"], moved["reg_w"], moved["reg_b"])
            return float(np.dot(d_raw, raw))

        numeric = finite_diff_grad(value, arrays[name].ravel(), step=1e-6)
        np.testing.assert_allclose(grad, numeric.reshape(grad.shape), rtol=1e-6, atol=1e-8,
                                   err_msg=name)


@pytest.fixture(scope="module")
def mirrored():
    """A training store and a validation store of the same pairs with
    mirrored ratings: fitting the training ratings first helps, then
    hurts validation MAE."""
    store = gen_synthetic(SyntheticSpec(20, 16, 2, 0.6, 0.05, seed=3))
    entries = [(i, j, 6 - r, 0, 0, k) for k, ((i, j), r) in enumerate(sorted(rated(store).items()))]
    return store, _make_store(store.user_ids, store.product_ids, entries)


def best_epoch(train, forward, val, epochs, patience):
    """Index of the best validation epoch of an uninterrupted run, scored
    pair by pair through the model's ``forward``, checked to lie before the
    last epoch and ``patience`` epochs before the end."""
    curve = []
    for e in range(1, epochs + 1):
        model = train(e)
        curve.append(mean_abs_error(
            lambda u, p: np.array([pair_forward(forward, model, a, b)[0] for a, b in zip(u, p)]),
            val.rated_arrays))
    best = int(np.argmin(curve))
    assert 0 < best and best + patience < epochs, curve
    return best


def test_train_mlp_returns_the_best_validation_epoch(mirrored):
    store, val = mirrored

    def hyper(epochs, patience=0):
        return MlpHyperparams(latent_dim=2, tower=(4, 2),
                              fit=FitHyperparams(batch_size=32, epochs=epochs, lr=0.03, seed=2,
                                                 patience=patience))

    best = best_epoch(lambda e: train_mlp(store, hyper(e)), mlp_model._forward_batch, val, 10, 3)
    got = train_mlp(store, hyper(10, patience=3), val_store=val)
    want = train_mlp(store, hyper(best + 1))
    for (name, a), (_, b) in zip(param_dict(got).items(), param_dict(want).items()):
        assert np.array_equal(a, b), name


def test_train_mf_head_returns_the_best_validation_epoch(mirrored):
    store, val = mirrored

    def hyper(epochs, patience=0):
        return mf_model.MfHyperparams(
            latent_dim=2, predictive_dim=2,
            fit=FitHyperparams(batch_size=32, epochs=epochs, lr=0.01, seed=2,
                               patience=patience))

    start = mf_model.train_mf(store, hyper(0))  # SVD factors, an untrained head

    def train(epochs, patience=0, val_store=None):  # the head phase of train_mf
        params = start.copy()
        training.fit_mae(mf_model.param_dict(params),
                         functools.partial(mf_model._forward_batch, params),
                         functools.partial(mf_model._backward_batch, params), store,
                         hyper(epochs, patience).fit, np.random.default_rng(2), "mf-head",
                         val_store)
        return params

    best = best_epoch(train, mf_model._forward_batch, val, 10, 3)
    got = train(10, patience=3, val_store=val)
    want = train(best + 1)
    for (name, a), (_, b) in zip(mf_model.param_dict(got).items(),
                                 mf_model.param_dict(want).items()):
        assert np.array_equal(a, b), name


def test_train_fusion_returns_the_best_validation_epoch(mirrored):
    store, val = mirrored
    start = init_fusion_random(store.n_users, store.n_products, 2, (4, 2), seed=2)

    def hyper(epochs, patience=0):
        return FitHyperparams(batch_size=32, epochs=epochs, lr=0.02, seed=1,
                              patience=patience)

    best = best_epoch(lambda e: train_fusion(start, store, hyper(e)), _forward_batch,
                      val, 10, 3)
    got = train_fusion(start, store, hyper(10, patience=3), val_store=val)
    want = train_fusion(start, store, hyper(best + 1))
    assert got.reg_b == want.reg_b
    for a, b in ((got.concat_w, want.concat_w), (got.reg_w, want.reg_w),
                 (got.mf.user_joint, want.mf.user_joint),
                 (got.mlp.user_emb, want.mlp.user_emb)):
        assert np.array_equal(a, b)


def test_each_phase_scores_the_training_set_once(mirrored, monkeypatch):
    """Without a validation store, every phase runs one full-data loss,
    after its last epoch, whatever the epoch count."""
    store, _ = mirrored
    calls = []
    for module, name in ((training, "predict_chunked"), (mf_model, "objective_loss")):
        def spy(*args, _wrapped=getattr(module, name), _name=name):
            calls.append(_name)
            return _wrapped(*args)

        monkeypatch.setattr(module, name, spy)
    hyper = FitHyperparams(batch_size=32, epochs=5, lr=0.01)
    mf_model.train_mf(store, mf_model.MfHyperparams(latent_dim=2, predictive_dim=2, fit=hyper))
    # rating, joint, head
    assert sorted(calls) == ["objective_loss", "objective_loss", "predict_chunked"]
    calls.clear()
    train_mlp(store, MlpHyperparams(latent_dim=2, tower=(4, 2), fit=hyper))
    assert calls == ["predict_chunked"]
    calls.clear()
    train_fusion(init_fusion_random(store.n_users, store.n_products, 2, (4, 2), seed=2), store,
                 hyper)
    assert calls == ["predict_chunked"]


def test_train_fusion_keeps_the_pretrained_tables_through_early_stopping(mirrored):
    """Early stopping copies the best epoch's whole parameter table back;
    the arrays an init_fusion model does not train keep their input bits."""
    store, val = mirrored
    hyper = FitHyperparams(batch_size=32, epochs=2, lr=0.01, seed=2)
    mf = mf_model.train_mf(store, mf_model.MfHyperparams(latent_dim=2, predictive_dim=2,
                                                         fit=hyper))
    mlp = train_mlp(store, MlpHyperparams(latent_dim=2, tower=(4, 2), fit=hyper))
    start = init_fusion(mf, mlp)
    trained = train_fusion(start, store, FitHyperparams(batch_size=32, epochs=10, lr=0.05,
                                                        patience=2), val_store=val)
    before, after = fusion.param_dict(start), fusion.param_dict(trained)
    assert set(before) > FUSED_NAMES
    for name in set(before) - (FUSED_NAMES - TABLES):
        assert np.array_equal(after[name], before[name]), name
    assert not np.array_equal(after["concat_w"], before["concat_w"])  # the head trained


def test_each_phase_steps_once_per_batch_over_every_trained_name(mirrored, monkeypatch):
    """Every phase takes ceil(n / batch_size) Adam steps an epoch, each over
    exactly the names it trains, out of the model's whole parameter table;
    the benchmark's ``linalg.adam_step_calls`` and ``adam_elems_per_step``
    count these steps."""
    store, _ = mirrored
    steps = []

    def recording_step(params, grads, state):
        steps.append((state, set(params), set(grads)))
        return adam_step(params, grads, state)

    monkeypatch.setattr(training, "adam_step", recording_step)
    hyper = FitHyperparams(batch_size=32, epochs=3, lr=0.01, patience=0)
    mf = mf_model.train_mf(store, mf_model.MfHyperparams(latent_dim=2, predictive_dim=2,
                                                         fit=hyper))
    mlp = train_mlp(store, MlpHyperparams(latent_dim=2, tower=(4, 2), fit=hyper))
    train_fusion(init_fusion(mf, mlp), store, hyper)
    phases = []  # the steps of each phase, which has its own AdamState
    for state, params, names in steps:
        if not phases or phases[-1][0] is not state:
            phases.append((state, []))
        phases[-1][1].append((params, names))
    rated, scored = store.rated_arrays.idx_u.size, store.scored_arrays.idx_u.size
    sizes = [rated, rated + scored, rated, rated, rated]  # mf-rating, mf-joint, mf-head, mlp, fusion
    assert [len(calls) for _, calls in phases] == [3 * math.ceil(n / 32) for n in sizes]
    trained = [{"user_rating", "prod_rating"},  # mf-rating
               {"user_joint", "prod_joint", "prod_rel"},  # mf-joint
               {"proj_rating", "proj_joint", "head", "reg_w", "reg_b"},  # mf-head
               set(param_dict(mlp)),  # mlp: every section
               FUSED_NAMES - TABLES]  # fusion
    for (_, calls), want in zip(phases, trained, strict=True):
        for params, names in calls:
            assert names == want and params >= names


N_USERS, N_PRODUCTS = 300, 200
COUNTS = [0, 1, CHUNK_PAIRS - 1, CHUNK_PAIRS, CHUNK_PAIRS + 1, 2 * CHUNK_PAIRS + 3]


@pytest.fixture(scope="module")
def scorer():
    """A fused model with spread-out weights, and its one-pass forward."""
    model = init_fusion_random(N_USERS, N_PRODUCTS, 8, (16, 8), seed=5, scale=0.5)
    model.global_mean = 3.25
    return model, lambda u, p: _forward_batch(model, u, p)[0]


def known_pairs(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, N_USERS, n), rng.integers(0, N_PRODUCTS, n)


class TestChunkedScoring:
    @pytest.mark.parametrize("n, sizes", [
        (0, []),
        (5, [5]),
        (CHUNK_PAIRS + CHUNK_PAIRS // 2 - 1, [CHUNK_PAIRS + CHUNK_PAIRS // 2 - 1]),
        (CHUNK_PAIRS + CHUNK_PAIRS // 2, [CHUNK_PAIRS, CHUNK_PAIRS // 2]),
        (2 * CHUNK_PAIRS + 3, [CHUNK_PAIRS, CHUNK_PAIRS + 3]),
    ])
    def test_slices_are_chunks_and_a_last_slice_of_at_least_half_a_chunk(self, n, sizes):
        seen = []

        def predict(u, p):
            seen.append(len(u))
            return u + 0.5 * p

        u, p = known_pairs(n)
        np.testing.assert_array_equal(predict_chunked(predict, u, p), u + 0.5 * p)
        assert seen == sizes

    @pytest.mark.parametrize("n", COUNTS)
    def test_mean_abs_error_equals_one_pass(self, scorer, n):
        _, predict = scorer
        u, p = known_pairs(n)
        raw = np.random.default_rng(1).integers(1, 6, n).astype(np.float64)
        with warnings.catch_warnings():  # the mean of no pairs is nan, with a warning
            warnings.simplefilter("ignore", RuntimeWarning)
            got = mean_abs_error(predict, PairArrays(u, p, raw / 5, raw))
            want = np.mean(np.abs(predict(u, p) - raw))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", COUNTS)
    def test_predict_batch_equals_one_pass(self, scorer, n):
        model, predict = scorer
        u, p = known_pairs(n)
        # unknown pairs at drawn positions: a negative index, or one past either table
        unknown = [(-1, 0), (0, -3), (N_USERS, 0), (0, N_PRODUCTS), (N_USERS + 5, -1)]
        where = np.sort(np.random.default_rng(2).integers(0, n + 1, len(unknown)))
        pairs = list(zip(u.tolist(), p.tolist()))
        for k, pair in sorted(zip(where.tolist(), unknown), reverse=True):
            pairs.insert(k, pair)
        got = predict_batch(model, pairs)
        assert all(type(v) is float for v in got)
        want = np.full(len(pairs), model.global_mean)
        known = np.ones(len(pairs), bool)
        known[where + np.arange(len(unknown))] = False
        want[known] = predict(u, p)
        np.testing.assert_array_equal(got, np.clip(want, 1.0, 5.0))
        assert got.count(model.global_mean) >= len(unknown)

    def test_scoring_memory_does_not_grow_with_the_pairs(self, scorer):
        model, predict = scorer

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = {}
        for n in (4_000, 40_000):
            u, p = known_pairs(n)
            pairs = list(zip(u.tolist(), p.tolist()))
            arrays = PairArrays(u, p, np.zeros(n), np.full(n, 3.0))
            peaks[n] = (peak(lambda: predict_batch(model, pairs)),
                        peak(lambda: mean_abs_error(predict, arrays)))
        # one forward pass over every pair keeps ten times the cache at 40,000
        for small, large in zip(peaks[4_000], peaks[40_000]):
            assert large < 2 * small, peaks
