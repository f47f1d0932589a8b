import numpy as np
import pytest

from dualrec.fusion import FusionHyperparams, fused_predict, init_fusion_random, train_fusion
from dualrec.harness import SyntheticSpec, gen_synthetic
from dualrec.ingest import _make_store
from dualrec.linalg import TrainingDivergedError
from dualrec.mlp_model import MlpHyperparams, mlp_predict, param_dict, train_mlp
from dualrec.training import fit, mean_abs_error

from conftest import rated


class Hyper:
    def __init__(self, epochs=10, patience=2, lr=0.1, lr_decay=1.0, batch_size=2):
        self.epochs, self.patience = epochs, patience
        self.lr, self.lr_decay, self.batch_size = lr, lr_decay, batch_size


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

    fit(weights, lambda batch: {"w": np.ones(3)}, lambda: 0.0, 4, hyper,
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
            fit({"w": np.zeros(1)}, lambda batch: {"w": np.ones(1)}, lambda: float("nan"),
                1, Hyper(), np.random.default_rng(0), "toy")


@pytest.fixture(scope="module")
def mirrored():
    """A training store and a validation store of the same pairs with
    mirrored ratings: fitting the training ratings first helps, then
    hurts validation MAE."""
    store = gen_synthetic(SyntheticSpec(20, 16, 2, 0.6, 0.05, seed=3)).store
    entries = [(i, j, 6 - r, 0, 0, k) for k, ((i, j), r) in enumerate(sorted(rated(store).items()))]
    return store, _make_store(store.user_ids, store.product_ids, entries, {})


def best_epoch(train, predict, val, epochs, patience):
    """Index of the best validation epoch of an uninterrupted run, checked
    to lie before the last epoch and ``patience`` epochs before the end."""
    curve = []
    for e in range(1, epochs + 1):
        model = train(e)
        curve.append(mean_abs_error(
            lambda u, p: np.array([predict(model, a, b) for a, b in zip(u, p)]),
            val.rated_arrays))
    best = int(np.argmin(curve))
    assert 0 < best and best + patience < epochs, curve
    return best


def test_train_mlp_returns_the_best_validation_epoch(mirrored):
    store, val = mirrored

    def hyper(epochs, patience=0):
        return MlpHyperparams(latent_dim=2, tower=(4, 2), batch_size=32, epochs=epochs,
                              lr=0.03, seed=2, patience=patience)

    best = best_epoch(lambda e: train_mlp(store, hyper(e)), mlp_predict, val, 10, 3)
    got = train_mlp(store, hyper(10, patience=3), val_store=val)
    want = train_mlp(store, hyper(best + 1))
    for (name, a), (_, b) in zip(param_dict(got).items(), param_dict(want).items()):
        assert np.array_equal(a, b), name


def test_train_fusion_returns_the_best_validation_epoch(mirrored):
    store, val = mirrored
    start = init_fusion_random(store.n_users, store.n_products, 2, (4, 2), seed=2)

    def hyper(epochs, patience=0):
        return FusionHyperparams(batch_size=32, epochs=epochs, lr=0.02, seed=1,
                                 patience=patience)

    best = best_epoch(lambda e: train_fusion(start, store, hyper(e)), fused_predict,
                      val, 10, 3)
    got = train_fusion(start, store, hyper(10, patience=3), val_store=val)
    want = train_fusion(start, store, hyper(best + 1))
    assert got.reg_b == want.reg_b
    for a, b in ((got.concat_w, want.concat_w), (got.reg_w, want.reg_w),
                 (got.mf.user_joint, want.mf.user_joint),
                 (got.mlp.user_emb, want.mlp.user_emb)):
        assert np.array_equal(a, b)
