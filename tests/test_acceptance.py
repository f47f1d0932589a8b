"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Absolute accuracy figures published for models of this family come from
full commercial review corpora (millions of ratings per category) and
are not reachable at desk scale, so every criterion here is a property:
exact scoring identities, finite-difference gradient agreement,
synthetic recovery margins, initialization identities, a pre-training
direction check, brute-force metric oracles, linear runtime scaling and
byte-identical pipeline determinism. Run with ``pytest -s`` to see the
per-criterion lines.
"""

import functools
import itertools
import math
import statistics
import time
from pathlib import Path

import numpy as np

from dualrec import mf_model, mlp_model
from dualrec.fusion import init_fusion, init_fusion_random, predict_batch, train_fusion
from dualrec.harness import SplitSpec, SyntheticSpec, gen_synthetic, split
from dualrec.ingest import _make_store
from dualrec.linalg import finite_diff_grad
from dualrec.metrics import (
    classification_metrics,
    mae,
    mean_average_precision,
    ndcg,
    rmse,
)
from dualrec.mf_model import JOINT, RATING, RELIABILITY, MfHyperparams, factor_predict, train_mf
from dualrec.mlp_model import MlpHyperparams, _backward_batch, init_mlp, train_mlp
from dualrec.reliability import recency_weights, score_product
from dualrec.training import FitHyperparams

from test_cli import run_pipeline
from test_fusion import FUSED_NAMES, check_fused_gradients, fused_predict, small_model
from test_mf_model import assert_grad_close, check_objective_gradients
from test_mlp_model import get_field, mlp_predict, set_field
from conftest import rated


def criterion(name):
    """Print one PASS/FAIL line for the wrapped acceptance check."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")

        return run

    return wrap


@criterion("benchmark-scale figures declared out of reach; acceptance is property-based")
def test_c01_scale_statement_present():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    assert "not reproducible at desk scale" in text.replace("*", "")
    assert "property-based" in text


@criterion("reliability suite: normalization sums and ranges over 1000 random products")
def test_c02_reliability_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    entries = []
    user = 0
    for product in range(1000):
        n_reviews = int(rng.integers(1, 51))
        for _ in range(n_reviews):
            total = int(rng.integers(0, 9))
            yes = int(rng.integers(0, total + 1))
            entries.append((user, product, int(rng.integers(1, 6)), yes, total,
                            int(rng.integers(0, 10_000))))
            user += 1
    store = _make_store(
        [f"u{i}" for i in range(user)], [f"p{j}" for j in range(1000)], entries
    )
    for product in range(1000):
        rows = store.timelines[product]
        scores = score_product(store, product)
        h, most, top = ({u: getattr(b, name) for u, b in scores.items()}
                        for name in ("h", "most", "top"))
        if (store.helpful_yes[rows] > 0).any():
            assert abs(sum(h.values()) - 1.0) <= 1e-12
        if rows.size >= 2:
            assert abs(sum(most.values()) - 1.0) <= 1e-12
            assert abs(sum(top.values()) - 1.0) <= 1e-12
        for breakdown in scores.values():
            for value in (breakdown.h, breakdown.most, breakdown.top,
                          breakdown.d, breakdown.rel):
                assert 0.0 <= value <= 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"reliability suite took {elapsed:.2f}s"


@criterion("worked example: first-of-five recency weight is 1 + 1/4 + 1/9 + 1/16 exactly")
def test_c03_worked_recency_example():
    entries = [(i, 0, 3, 0, 0, i) for i in range(5)]
    store = _make_store([f"u{i}" for i in range(5)], ["p0"], entries)
    weights = recency_weights(store.timelines[0].size)
    assert weights[0] == 1 + 1 / 4 + 1 / 9 + 1 / 16  # bitwise


@criterion("gradients match central finite differences (rel err < 1e-4, 20+ instances)")
def test_c04_gradient_correctness():
    started = time.perf_counter()

    # factor objectives: rating-only, reliability-only, joint
    for offset, terms in enumerate((RATING, RELIABILITY, JOINT)):
        check_objective_gradients(terms, range(1000 * offset, 1000 * offset + 20))

    # the non-linear branch, all parameters (kink-free instances)
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        params = init_mlp(3, 3, 2, (4, 2), seed=seed, scale=0.6)
        i, j = seed % 3, (seed // 3) % 3
        from dualrec.mlp_model import _forward_batch

        _, cache = _forward_batch(params, np.array([i]), np.array([j]))
        pres = np.concatenate(
            [cache["a_pre"].ravel(), cache["b_pre"].ravel()]
            + [p.ravel() for p in cache["pres"]]
        )
        if np.any(np.abs(pres) < 1e-4):
            continue
        checked += 1
        grads = _backward_batch(params, cache, np.ones(1))
        assert set(grads) == set(mlp_model.param_dict(params))
        for name, grad in grads.items():
            base = get_field(params, name).copy()
            shape = base.shape

            def value(x, name=name, shape=shape):
                import copy

                clone = copy.deepcopy(params)
                set_field(clone, name, x.reshape(shape).copy())
                return mlp_predict(clone, i, j)

            numeric = finite_diff_grad(value, base.ravel(), step=1e-6).reshape(shape)
            assert_grad_close(grad.ravel(), numeric.ravel())

    # the fused model end to end, on the path that trains the tables and on
    # the tables-fixed path an init_fusion model takes
    from dualrec.fusion import _forward_batch as fused_forward_batch

    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        model = small_model(seed=seed, n=3, m=3, k=2, p=2, scale=0.6)
        rng = np.random.default_rng(5000 + seed)
        idx_u = rng.integers(0, 3, size=4)
        idx_p = rng.integers(0, 3, size=4)
        d_raw = rng.normal(size=4)
        _, cache = fused_forward_batch(model, idx_u, idx_p)
        pres = np.concatenate(
            [cache["mlp_cache"]["a_pre"].ravel(), cache["mlp_cache"]["b_pre"].ravel()]
            + [p.ravel() for p in cache["mlp_cache"]["pres"]]
        )
        if np.any(np.abs(pres) < 1e-4):
            continue
        checked += 1
        names = check_fused_gradients(
            model, cache, d_raw, lambda name, g, n: assert_grad_close(g.ravel(), n.ravel()))
        assert names == FUSED_NAMES

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient battery took {elapsed:.2f}s"


@criterion("synthetic recovery: joint factors beat the global-mean baseline by >= 40%")
def test_c05_synthetic_recovery():
    started = time.perf_counter()
    store = gen_synthetic(SyntheticSpec(50, 40, 2, 0.3, 0.05, seed=7))
    train_store, _, test_store = split(
        store, SplitSpec(0.7, 0.15, 0.15, folds=1, seed=0)
    )[0]
    hyper = MfHyperparams(latent_dim=2, predictive_dim=4, reg_lambda=0.001,
                          fit=FitHyperparams(batch_size=512, epochs=200, lr=0.05, seed=0,
                                             patience=0))
    params = train_mf(train_store, hyper)
    idx_u, idx_p, _, truth = test_store.rated_arrays
    preds = factor_predict(params, idx_u, idx_p, JOINT)
    model_rmse = float(np.sqrt(np.mean((preds - truth) ** 2)))
    baseline = float(np.sqrt(np.mean((train_store.global_mean_raw() - truth) ** 2)))
    elapsed = time.perf_counter() - started
    assert model_rmse <= 0.6 * baseline, (
        f"model RMSE {model_rmse:.4f} vs baseline {baseline:.4f}"
    )
    assert elapsed < 60.0, f"synthetic recovery took {elapsed:.2f}s"


@criterion("fusion block-init identity: the silenced branch cannot move any prediction")
def test_c06_block_init_identity():
    started = time.perf_counter()
    pairs = [(i, j) for i in range(4) for j in range(4)]
    rng = np.random.default_rng(99)

    base = small_model(seed=42)
    solo_mf = init_fusion(base.mf, base.mlp, gamma=1.0)
    before = [fused_predict(solo_mf, i, j) for i, j in pairs]
    noisy = solo_mf.copy()
    for arr in mlp_model.param_dict(noisy.mlp).values():  # every table, the tower included
        arr += rng.normal(size=arr.shape)
    assert [fused_predict(noisy, i, j) for i, j in pairs] == before  # bitwise

    solo_mlp = init_fusion(base.mf, base.mlp, gamma=0.0)
    before = [fused_predict(solo_mlp, i, j) for i, j in pairs]
    noisy = solo_mlp.copy()
    for arr in mf_model.param_dict(noisy.mf).values():
        arr += rng.normal(size=arr.shape)
    assert [fused_predict(noisy, i, j) for i, j in pairs] == before  # bitwise
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"block-init identity took {elapsed:.2f}s"


def _test_mae(model, test_store):
    ratings = rated(test_store)
    pairs = sorted(ratings)
    preds = predict_batch(model, pairs)
    truth = np.array([ratings[p] for p in pairs], dtype=np.float64)
    return float(np.mean(np.abs(np.array(preds) - truth)))


@criterion("pre-training direction: pre-trained start wins in >= 4 of 5 seeds")
def test_c07_pretraining_direction():
    wins = 0
    for seed in range(5):
        store = gen_synthetic(SyntheticSpec(30, 24, 2, 0.5, 0.05, seed=100 + seed))
        train_store, val_store, test_store = split(
            store, SplitSpec(0.7, 0.15, 0.15, folds=1, seed=seed)
        )[0]
        fine_tune = FitHyperparams(batch_size=64, epochs=30, lr=0.01,
                                   lr_decay=0.98, seed=seed, patience=5)
        mf = train_mf(
            train_store,
            MfHyperparams(latent_dim=2, predictive_dim=4, reg_lambda=0.01,
                          fit=FitHyperparams(batch_size=64, epochs=200, lr=0.05, seed=seed,
                                             patience=5)),
            val_store=val_store,
        )
        mlp = train_mlp(
            train_store,
            MlpHyperparams(latent_dim=2, tower=(4, 4),
                           fit=FitHyperparams(batch_size=64, epochs=50, lr=0.02, seed=seed,
                                              patience=5)),
            val_store=val_store,
        )
        warm = train_fusion(init_fusion(mf, mlp, 0.5), train_store, fine_tune,
                            val_store=val_store)
        cold_init = init_fusion_random(train_store.n_users, train_store.n_products,
                                       2, (4, 4), seed=seed)
        cold = train_fusion(cold_init, train_store, fine_tune, val_store=val_store)
        wins += _test_mae(warm, test_store) <= _test_mae(cold, test_store)
    assert wins >= 4, f"pre-training won only {wins}/5 seeds"


@criterion("metric oracles: NDCG and MAP match brute force; fixtures match hand values")
def test_c08_metric_oracles():
    def dcg(ratings):
        return sum((2.0**r - 1.0) / math.log2(1.0 + pos)
                   for pos, r in enumerate(ratings, start=1))

    rng = np.random.default_rng(321)
    for _ in range(200):
        users = {
            u: [(item, float(rng.uniform(1, 5)), float(rng.integers(1, 6)))
                for item in range(int(rng.integers(1, 6)))]
            for u in range(int(rng.integers(1, 4)))
        }
        # NDCG against exhaustive permutation maximization
        expected = 0.0
        for rows in users.values():
            ranked = sorted(rows, key=lambda r: (-r[1], r[0]))
            best = max(dcg([r[2] for r in perm])
                       for perm in itertools.permutations(rows))
            expected += dcg([r[2] for r in ranked]) / best
        assert abs(ndcg(users) - expected / len(users)) <= 1e-12
        # MAP against a direct AP loop
        expected = 0.0
        for rows in users.values():
            ranked = sorted(rows, key=lambda r: (-r[1], r[0]))
            relevant = [r[2] >= 3.0 for r in ranked]
            if not any(relevant):
                continue
            hits = 0
            ap = 0.0
            for pos, is_rel in enumerate(relevant, start=1):
                if is_rel:
                    hits += 1
                    ap += hits / pos
            expected += ap / sum(relevant)
        assert abs(mean_average_precision(users) - expected / len(users)) <= 1e-12

    # hand-computed fixtures
    assert abs(rmse([3.0, 4.0], [3.0, 5.0]) - math.sqrt(0.5)) <= 1e-12
    assert mae([3.0, 4.0], [3.0, 5.0]) == 0.5
    fixture = {
        "A": [(1, 4.0, 2.0), (2, 5.0, 5.0)],
        "B": [(3, 4.0, 4.0), (4, 2.0, 4.0)],
    }
    assert classification_metrics(fixture) == (0.75, 0.75, 0.75)


@criterion("linear scaling: doubling observed ratings doubles per-epoch time (+-30%)")
def test_c09_linear_scaling():
    small = gen_synthetic(SyntheticSpec(200, 150, 2, 0.4, 0.05, seed=9))
    large = gen_synthetic(SyntheticSpec(200, 150, 2, 0.8, 0.05, seed=9))
    count_ratio = len(large.ratings) / len(small.ratings)
    assert 1.9 <= count_ratio <= 2.1  # the doubling itself

    def per_epoch_seconds(store):
        phase_times = {}

        def on_epoch(phase, epoch, loss, seconds):
            phase_times.setdefault(phase, []).append(seconds)

        hyper = MfHyperparams(latent_dim=8, predictive_dim=8, reg_lambda=0.01,
                              fit=FitHyperparams(batch_size=512, epochs=12, lr=0.01, seed=0,
                                                 patience=0))
        train_mf(store, hyper, on_epoch=on_epoch)
        return sum(statistics.median(v) for v in phase_times.values())

    # each sample times both stores back to back, the first one in turn, so
    # that a change of host speed between them does not favour one store
    ratios = []
    for sample in range(5):
        if sample % 2:
            large_s = per_epoch_seconds(large)
            small_s = per_epoch_seconds(small)
        else:
            small_s = per_epoch_seconds(small)
            large_s = per_epoch_seconds(large)
        ratios.append(large_s / small_s)
    ratio = statistics.median(ratios)
    assert 1.4 <= ratio <= 2.6, f"per-epoch scaling ratio {ratio:.3f} (all: {ratios})"


@criterion("determinism: the seeded pipeline produces byte-identical files twice")
def test_c10_pipeline_determinism(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    files_a = run_pipeline(run_a, seed="11", epochs="2")
    files_b = run_pipeline(run_b, seed="11", epochs="2")
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes(), f"{fa.name} differs between runs"
