import dataclasses
import json
import math

import numpy as np
import pytest

from dualrec import harness
from dualrec.harness import (
    ExperimentConfig,
    SplitSpec,
    SyntheticSpec,
    gen_synthetic,
    run_experiment,
    split,
    sweep_train_sizes,
)
from dualrec.mf_model import RATING, MfHyperparams, factor_predict, train_mf
from dualrec.training import FitHyperparams

from conftest import random_store, rated, scored


class TestSplitSpec:
    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SplitSpec(folds=0)


class TestSplit:
    def make_store(self, n_pairs=100):
        rng = np.random.default_rng(1)
        store = random_store(rng, 20, 20, density=0.5, with_reliability=True)
        while len(store.ratings) < n_pairs:
            store = random_store(rng, 25, 25, density=0.5, with_reliability=True)
        from dualrec.ingest import restrict

        return restrict(store, store.pair_order[:n_pairs])

    def test_sizes_70_15_15(self):
        store = self.make_store(100)
        train, val, test = split(store, SplitSpec(0.7, 0.15, 0.15, seed=3))[0]
        assert (len(train.ratings), len(val.ratings), len(test.ratings)) == (70, 15, 15)

    def test_deterministic(self):
        store = self.make_store(60)
        spec = SplitSpec(0.7, 0.15, 0.15, seed=9)
        a = split(store, spec)[0]
        b = split(store, spec)[0]
        assert sorted(rated(a[0])) == sorted(rated(b[0]))
        assert sorted(rated(a[2])) == sorted(rated(b[2]))

    def test_partition_property(self):
        store = self.make_store(87)
        for fold in split(store, SplitSpec(0.6, 0.2, 0.2, folds=3, seed=5)):
            train, val, test = fold
            tr, va, te = set(rated(train)), set(rated(val)), set(rated(test))
            assert not (tr & va) and not (tr & te) and not (va & te)
            assert tr | va | te == set(rated(store))

    def test_folds_re_randomize(self):
        store = self.make_store(80)
        folds = split(store, SplitSpec(0.7, 0.15, 0.15, folds=2, seed=0))
        assert sorted(rated(folds[0][0])) != sorted(rated(folds[1][0]))

    def test_insufficient_data_rejected(self):
        rng = np.random.default_rng(2)
        store = random_store(rng, 2, 2, density=1.0)
        with pytest.raises(ValueError):
            split(store, SplitSpec(0.9, 0.05, 0.05))

    def test_reliability_follows_pairs(self):
        store = self.make_store(60)
        train, _, _ = split(store, SplitSpec(0.7, 0.15, 0.15, seed=1))[0]
        assert set(scored(train)) == set(rated(train)) & set(scored(store))


class TestSynthetic:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(5, 5, 6, 0.5, 0.0, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec(5, 5, 2, 0.0, 0.0, seed=0)

    def test_deterministic(self):
        spec = SyntheticSpec(12, 10, 2, 0.5, 0.1, seed=4)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        assert rated(a) == rated(b)
        assert scored(a) == scored(b)

    def test_density_within_binomial_spread(self):
        n, m, density = 50, 40, 0.01
        spec = SyntheticSpec(n, m, 2, density, 0.0, seed=8)
        observed = len(gen_synthetic(spec).ratings)
        expected = n * m * density
        spread = math.sqrt(n * m * density * (1 - density))
        assert abs(observed - expected) <= 3 * spread

    def test_quantized_ratings_are_whole_stars(self):
        store = gen_synthetic(SyntheticSpec(10, 10, 2, 0.5, 0.1, seed=2))
        assert all(v == int(v) and 1 <= v <= 5 for v in rated(store).values())

    def test_continuous_ratings_stay_in_range(self):
        store = gen_synthetic(SyntheticSpec(10, 10, 2, 0.5, 0.1, seed=2, quantize=False))
        assert all(1.0 <= v <= 5.0 for v in rated(store).values())

    def test_reliability_in_open_unit_interval(self):
        store = gen_synthetic(SyntheticSpec(10, 10, 2, 0.5, 0.0, seed=3))
        assert set(scored(store)) == set(rated(store))
        assert all(0.0 < v < 1.0 for v in scored(store).values())

    def test_recoverability_oracle(self):
        # noiseless, fully observed, continuous ratings: a matching-rank
        # factor model must reproduce the training data almost exactly
        store = gen_synthetic(SyntheticSpec(50, 40, 2, 1.0, 0.0, seed=3, quantize=False))
        hyper = MfHyperparams(latent_dim=2, predictive_dim=4, reg_lambda=0.0,
                              fit=FitHyperparams(batch_size=512, epochs=200, lr=0.05, seed=0,
                                                 patience=0))
        params = train_mf(store, hyper)
        idx_u, idx_p, _, truth = store.rated_arrays
        preds = factor_predict(params, idx_u, idx_p, RATING)
        assert float(np.sqrt(np.mean((preds - truth) ** 2))) < 0.05


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        synthetic=SyntheticSpec(14, 12, 2, 0.6, 0.05, seed=5),
        split=SplitSpec(0.7, 0.15, 0.15, folds=1, seed=0),
        latent_dim=2,
        tower=(4, 2),
        reg_lambda=0.01,
        batch_size=32,
        epochs_mf=2,
        epochs_mlp=2,
        epochs_fusion=2,
        lr=0.01,
        seed=0,
        patience=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_store():
    """The store of :func:`tiny_config`'s synthetic spec."""
    return gen_synthetic(tiny_config().synthetic)


class TestRunExperiment:
    def test_single_fold_mean_equals_fold(self):
        result = run_experiment(tiny_config(), tiny_store())
        assert len(result.folds) == 1
        fold = result.folds[0].report
        mean = result.mean_report
        assert mean.rmse == fold.rmse
        assert mean.ndcg == fold.ndcg

    def test_mean_is_arithmetic_mean(self):
        result = run_experiment(tiny_config(split=SplitSpec(0.7, 0.15, 0.15, folds=3, seed=2)),
                                tiny_store())
        reports = [f.report for f in result.folds]
        for field in ("rmse", "mae", "precision", "recall", "ndcg", "mean_ap"):
            direct = sum(getattr(r, field) for r in reports) / len(reports)
            assert math.isclose(getattr(result.mean_report, field), direct, abs_tol=1e-12)

    def test_deterministic_under_seed(self):
        a = run_experiment(tiny_config(), tiny_store())
        b = run_experiment(tiny_config(), tiny_store())
        assert a.mean_report == b.mean_report

    def test_phase_timings_recorded(self):
        result = run_experiment(tiny_config(), tiny_store())
        timings = result.folds[0].phase_seconds
        assert set(timings) == {"pretrain_mf", "pretrain_mlp", "fusion", "evaluate"}
        assert all(v >= 0 for v in timings.values())
        phases = {entry[0] for entry in result.folds[0].epoch_log}
        assert "fusion" in phases and "mlp" in phases and "mf-rating" in phases

    def test_a_bad_tower_is_refused_before_any_branch_trains(self, monkeypatch):
        trained = []
        monkeypatch.setattr(harness, "train_mf", lambda *args, **kw: trained.append(args))
        with pytest.raises(ValueError, match=r"non-increasing from 4, got \[6, 2\]"):
            run_experiment(tiny_config(tower=(6, 2)), tiny_store())
        assert trained == []


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_evaluate_model_refuses_a_non_finite_threshold(threshold):
    from test_fusion import small_model

    store = random_store(np.random.default_rng(3))
    with pytest.raises(ValueError, match="threshold must be a finite number"):
        harness.evaluate_model(small_model(), store, cutoffs=(5,), threshold=threshold)


class TestSweep:
    def test_remainder_splits_evenly(self):
        results = sweep_train_sizes(tiny_config(), tiny_store(), [0.4, 0.6])
        assert set(results) == {0.4, 0.6}
        for result in results.values():
            assert result.mean_report.n_pairs > 0

    def test_every_split_is_checked_before_the_first_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", runs.append)
        with pytest.raises(ValueError, match=r"fractions must be in \(0, 1\)"):
            sweep_train_sizes(tiny_config(), tiny_store(), [0.5, 1.0])
        assert runs == []

    def test_a_fraction_the_store_cannot_split_is_refused_before_the_first_run(
            self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", runs.append)
        store = tiny_store()
        n = store.raw.size
        frac = (n - 1) / n  # leaves one rating for validation and test together
        with pytest.raises(ValueError, match=f"insufficient data: {n} interactions split as "):
            sweep_train_sizes(tiny_config(), store, [0.5, frac])
        assert runs == []

    def test_repeated_fraction_refused_before_the_first_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", runs.append)
        with pytest.raises(ValueError, match="train fraction 0.5 is given twice"):
            sweep_train_sizes(tiny_config(), tiny_store(), (0.5, 0.5, 0.7))
        assert runs == []


class TestConfigParsing:
    def test_from_json_round_trip(self, tmp_path):
        doc = {
            "data": {"synthetic": {
                "n_users": 10, "n_products": 10, "true_rank": 2,
                "observation_density": 0.5, "noise_std": 0.0, "seed": 1,
            }},
            "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2,
                      "folds": 2, "seed": 7},
            "model": {"latent_dim": 3, "tower": [6, 3], "epochs_mf": 1,
                      "epochs_mlp": 1, "epochs_fusion": 1, "gamma": 0.25},
            "eval": {"cutoffs": [3, 7], "threshold": 4},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = ExperimentConfig.from_json(path)
        assert config.synthetic.n_users == 10
        assert config.split.folds == 2
        assert config.tower == (6, 3)
        assert config.gamma == 0.25
        assert config.cutoffs == (3, 7)
        assert config.relevance_threshold == 4

    def test_a_leading_bom_is_dropped(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"model": {"latent_dim": 3,
                                                                 "tower": [6, 3]}}).encode())
        assert ExperimentConfig.from_json(path) == ExperimentConfig(latent_dim=3, tower=(6, 3))

    def test_the_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExperimentConfig().tower = (64, 8)

    def test_empty_document_gives_the_defaults(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()

    def test_every_key_lands_in_its_field(self):
        synthetic = {"n_users": 9, "n_products": 8, "true_rank": 2,
                     "observation_density": 0.4, "noise_std": 0.1, "seed": 5}
        split_doc = {"train_frac": 0.5, "val_frac": 0.25, "test_frac": 0.25,
                     "folds": 3, "seed": 4}
        model = {"latent_dim": 5, "tower": [10, 4], "reg_lambda": 0.2, "gamma": 0.7,
                 "batch_size": 64, "epochs_mf": 2, "epochs_mlp": 3, "epochs_fusion": 4,
                 "lr": 0.01, "seed": 9, "patience": 6}
        doc = {
            "data": {"store": "s.json", "synthetic": synthetic},
            "split": split_doc,
            "model": model,
            "reliability": {"alpha": 0.3, "fallback_max": True},
            "eval": {"cutoffs": [2, 4], "threshold": 3.5},
        }
        expected = ExperimentConfig(
            store_path="s.json", synthetic=SyntheticSpec(**synthetic),
            split=SplitSpec(**split_doc), rel_alpha=0.3, rel_fallback_max=True,
            cutoffs=(2, 4), relevance_threshold=3.5, **{**model, "tower": (10, 4)},
        )
        defaults = ExperimentConfig()
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(expected, f.name) != getattr(defaults, f.name), f.name
        assert ExperimentConfig.from_dict(doc) == expected

    @pytest.mark.parametrize("doc,name", [
        ({"model": {"epoch_mf": 1}}, "epoch_mf"),
        ({"split": {"train_fraction": 0.5}}, "train_fraction"),
        ({"modle": {"epochs_mf": 1}}, "modle"),
        ([{"model": {}}], "JSON object"),
        ("model", "JSON object"),
        ({"model": 3}, "JSON object"),
        ({"model": {"lr": "a"}}, "lr"),
        ({"model": {"batch_size": 0}}, "batch_size"),
        ({"model": {"epochs_mlp": -1}}, "epochs"),
        ({"model": {"patience": 1.5}}, "patience"),
        ({"model": {"tower": [64, 8]}}, r"non-increasing from 16, got \[64, 8\]"),
    ])
    def test_unknown_section_or_key_rejected(self, doc, name):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig.from_dict(doc)
