"""Experiment orchestration: splits, synthetic data, full pipelines.

A run takes its store from the caller, makes sure reliability scores are
attached, splits into train/validation/test per fold, pre-trains both
branches, fine-tunes the fused model, and evaluates on the held-out pairs.
Per-phase wall-clock and per-epoch losses are collected along the way.
Synthetic stores come from seeded low-rank factor models.
"""

import json
import numbers
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import reliability as reliability_mod
from .fusion import DEFAULT_GAMMA, FusionModel, init_fusion, predict_batch, train_fusion
from .ingest import MAX_RATING, MIN_RATING, InteractionStore, restrict, store_from_columns
from .linalg import sigmoid, sum_in_order
from .metrics import (DEFAULT_CUTOFFS, RELEVANCE_THRESHOLD, EvalReport, check_cutoff,
                      check_threshold, evaluate_predictions)
from .mf_model import MfHyperparams, MfParams, train_mf
from .mlp_model import MlpHyperparams, MlpParams, check_tower, train_mlp
from .training import FitHyperparams, check_nonnegative

__all__ = [
    "SplitSpec",
    "SyntheticSpec",
    "ExperimentConfig",
    "split_sizes",
    "split",
    "gen_synthetic",
    "pretrain_mf",
    "pretrain_mlp",
    "fine_tune",
    "evaluate_model",
    "sweep_configs",
    "sweep_train_sizes",
]

# Factor distribution for synthetic data: mostly-positive factors keep
# the sigmoid of the inner products inside the rating range while still
# spreading ratings widely enough for ranking metrics to bite.
_FACTOR_LOC = 0.8
_FACTOR_SCALE = 0.8


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.7
    val_frac: float = 0.15
    test_frac: float = 0.15
    folds: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(not 0.0 < f < 1.0 for f in fracs):
            raise ValueError(f"fractions must be in (0, 1), got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(fracs)}")
        if self.folds < 1:
            raise ValueError("folds must be >= 1")


def split_sizes(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    """The (train, validation, test) sizes :func:`split` cuts ``n``
    interactions into; ValueError unless each part gets at least one."""
    n_train = int(round(spec.train_frac * n))
    n_val = int(round(spec.val_frac * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"insufficient data: {n} interactions split as "
            f"({n_train}, {n_val}, {n_test})"
        )
    return n_train, n_val, n_test


def split(store: InteractionStore, spec: SplitSpec):
    """Random interaction-level partition per fold.

    Each fold re-randomizes with its own stream derived from the spec
    seed. Returns a list of (train, val, test) stores whose rated pairs
    partition the full store exactly.
    """
    order = store.pair_order
    n = order.size
    n_train, n_val, _ = split_sizes(n, spec)
    folds = []
    for fold in range(spec.folds):
        rng = np.random.default_rng([spec.seed, fold])
        parts = np.split(rng.permutation(n), [n_train, n_train + n_val])
        folds.append(tuple(restrict(store, order[part]) for part in parts))
    return folds


@dataclass(frozen=True)
class SyntheticSpec:
    n_users: int
    n_products: int
    true_rank: int
    observation_density: float
    noise_std: float
    seed: int
    quantize: bool = True

    def __post_init__(self):
        _check_types(self)
        for name in ("n_users", "n_products", "true_rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.true_rank > min(self.n_users, self.n_products):
            raise ValueError("true_rank exceeds the smaller dimension")
        if not 0.0 < self.observation_density <= 1.0:
            raise ValueError("observation_density must be in (0, 1]")
        check_nonnegative("noise_std", self.noise_std)


def gen_synthetic(spec: SyntheticSpec) -> InteractionStore:
    """Low-rank synthetic store.

    Ratings are sigmoid(u_i . v_j) scaled to the 1..5 range, plus
    Gaussian noise on the normalized scale, clamped and (by default)
    quantized to whole stars. Reliability scores come from a parallel
    rank-r model that shares the user factors (so one user latent space
    explains both matrices, the structure the joint objective assumes)
    with its own product factors, over the same observation mask.
    Deterministic under the spec seed.
    """
    rng = np.random.default_rng(spec.seed)
    n, m, r = spec.n_users, spec.n_products, spec.true_rank
    u = rng.normal(_FACTOR_LOC, _FACTOR_SCALE, (n, r))
    v = rng.normal(_FACTOR_LOC, _FACTOR_SCALE, (m, r))
    rv = rng.normal(_FACTOR_LOC, _FACTOR_SCALE, (m, r))
    mask = rng.random((n, m)) < spec.observation_density

    norm = sigmoid(u @ v.T)
    if spec.noise_std > 0:
        norm = norm + rng.normal(0.0, spec.noise_std, (n, m))
    raw = np.clip(MAX_RATING * norm, float(MIN_RATING), float(MAX_RATING))
    rel = sigmoid(u @ rv.T)

    rows, cols = np.nonzero(mask)  # row-major: the k-th observed pair gets time k
    observed = raw[rows, cols]
    zeros = np.zeros(rows.size, np.int64)
    return store_from_columns(
        [f"u{i}" for i in range(n)], [f"p{j}" for j in range(m)], user=rows, product=cols,
        raw=np.rint(observed) if spec.quantize else observed,
        raw_is_int=np.full(rows.size, spec.quantize), helpful_yes=zeros, votes_total=zeros,
        unix_time=np.arange(rows.size), reliability=rel[rows, cols])


# JSON section -> {key: ExperimentConfig field}; "split" holds SplitSpec's fields.
_JSON_KEYS = {
    "data": {"store": "store_path", "synthetic": "synthetic"},
    "model": {name: name for name in (
        "latent_dim", "tower", "reg_lambda", "gamma", "batch_size", "epochs_mf",
        "epochs_mlp", "epochs_fusion", "lr", "seed", "patience",
    )},
    "reliability": {"alpha": "rel_alpha", "fallback_max": "rel_fallback_max"},
    "eval": {"cutoffs": "cutoffs", "threshold": "relevance_threshold"},
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# JSON type check and its description, per config field type (the fields
# of ExperimentConfig, SplitSpec and SyntheticSpec)
_FIELD_TYPES = {
    int: (_is_int, "an integer"),
    float: (lambda x: isinstance(x, numbers.Real) and not isinstance(x, bool), "a number"),
    bool: (lambda x: isinstance(x, bool), "true or false"),
    tuple: (lambda x: isinstance(x, tuple) and all(map(_is_int, x)), "a list of integers"),
    str | None: (lambda x: x is None or isinstance(x, str), "a string or null"),
}


def _check_types(spec) -> None:
    """ValueError naming the first field of dataclass ``spec`` whose value
    is not of its declared JSON type."""
    for f in fields(spec):
        check = _FIELD_TYPES.get(f.type)
        value = getattr(spec, f.name)
        if check is not None and not check[0](value):
            raise ValueError(f"{f.name} must be {check[1]}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one pipeline run needs, loadable from nested JSON."""

    store_path: str | None = None
    synthetic: SyntheticSpec | None = None
    split: SplitSpec = field(default_factory=SplitSpec)
    latent_dim: int = 8
    tower: tuple = MlpHyperparams.tower
    reg_lambda: float = MfHyperparams.reg_lambda
    gamma: float = DEFAULT_GAMMA
    batch_size: int = FitHyperparams.batch_size
    epochs_mf: int = FitHyperparams.epochs
    epochs_mlp: int = FitHyperparams.epochs
    epochs_fusion: int = FitHyperparams.epochs
    lr: float = FitHyperparams.lr
    seed: int = FitHyperparams.seed
    patience: int = FitHyperparams.patience
    rel_alpha: float = reliability_mod.DEFAULT_ALPHA
    rel_fallback_max: bool = False
    cutoffs: tuple = DEFAULT_CUTOFFS
    relevance_threshold: float = RELEVANCE_THRESHOLD

    def __post_init__(self):
        for epochs in (self.epochs_mf, self.epochs_mlp, self.epochs_fusion):
            self.fit(epochs)  # ValueError naming a bad loop setting
        _check_types(self)
        check_tower(self.latent_dim, self.tower)  # both branches' head width is tower[-1]
        check_nonnegative("reg_lambda", self.reg_lambda)
        for name in ("rel_alpha", "gamma"):
            reliability_mod.check_unit(name, getattr(self, name))
        for cutoff in self.cutoffs:
            check_cutoff(cutoff)
        check_threshold(self.relevance_threshold)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config from the nested JSON layout; absent keys keep their defaults.

        An unknown section or key raises ValueError naming it, so a typo
        cannot silently fall back to the default; so does a document or a
        section that is no JSON object, a bad loop setting, and a value of
        the wrong JSON type in any section: an integer field takes an integer
        (not true or false), a number field any number, a flag true or false.
        So does a ``reliability.alpha`` or a ``model.gamma`` outside [0, 1], a
        ``model.latent_dim`` below 1, a ``model.tower`` that :func:`check_tower`
        refuses, a ``model.reg_lambda`` below 0, an ``eval.cutoffs`` entry
        below 1, and a NaN or infinite ``model.reg_lambda`` or ``eval.threshold``.
        """
        if not isinstance(doc, dict) or not all(isinstance(v, dict) for v in doc.values()):
            raise ValueError("a config is a JSON object of sections, each a JSON object")
        split_keys = {f.name for f in fields(SplitSpec)}
        for section, values in doc.items():
            keys = split_keys if section == "split" else _JSON_KEYS.get(section)
            if keys is None:
                raise ValueError(f"unknown config section {section!r}")
            unknown = sorted(set(values) - set(keys))
            if unknown:
                raise ValueError(f"unknown key(s) in config section {section!r}: "
                                 f"{', '.join(unknown)}")
        kwargs = {}
        for section, keys in _JSON_KEYS.items():
            values = doc.get(section, {})
            kwargs.update({name: values[key] for key, name in keys.items() if key in values})
        if "synthetic" in kwargs:
            kwargs["synthetic"] = SyntheticSpec(**kwargs["synthetic"])
        kwargs["split"] = SplitSpec(**doc.get("split", {}))
        for name in ("tower", "cutoffs"):
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            try:
                doc = json.load(fh)
            except RecursionError as exc:  # nested deeper than the parser's stack
                raise ValueError("JSON nested too deeply") from exc
        return cls.from_dict(doc)

    def fit(self, epochs: int) -> FitHyperparams:
        """Loop settings of a training phase that runs ``epochs`` epochs."""
        return FitHyperparams(batch_size=self.batch_size, epochs=epochs, lr=self.lr,
                              seed=self.seed, patience=self.patience)


@dataclass
class FoldOutcome:
    report: EvalReport
    phase_seconds: dict
    epoch_log: list  # (phase, epoch, loss, seconds); loss: mean batch loss seen in the epoch


@dataclass
class ExperimentResult:
    folds: list
    mean_report: EvalReport


def _mean_reports(reports: list[EvalReport]) -> EvalReport:
    """The mean of each field over the reports; of ``f1_at``, per cutoff."""
    n = len(reports)
    mean = {f.name: sum_in_order(getattr(r, f.name) for r in reports) / n
            for f in fields(EvalReport) if f.name != "f1_at"}
    return EvalReport(**mean, f1_at={c: sum_in_order(r.f1_at[c] for r in reports) / n
                                     for c in sorted(reports[0].f1_at)})


def evaluate_model(model: FusionModel, test_store: InteractionStore, cutoffs,
                   threshold: float) -> EvalReport:
    """Score the fused model on every rated pair of the test store."""
    idx_u, idx_p, _, raw = test_store.rated_arrays
    preds = predict_batch(model, np.column_stack((idx_u, idx_p)))
    users: dict = {}
    for i, j, pred, truth in zip(idx_u.tolist(), idx_p.tolist(), preds, raw.tolist()):
        users.setdefault(i, []).append((j, pred, truth))
    return evaluate_predictions(users, cutoffs=cutoffs, threshold=threshold)


def _ensure_reliability(store: InteractionStore, config: ExperimentConfig) -> InteractionStore:
    if not np.isnan(store.reliability).all():
        return store
    scores = reliability_mod.score_store(
        store, alpha=config.rel_alpha, fallback_max=config.rel_fallback_max
    )
    return reliability_mod.attach_scores(store, scores)


def pretrain_mf(config: ExperimentConfig, store: InteractionStore,
                val_store: InteractionStore | None = None, on_epoch=None) -> MfParams:
    """The linear branch, with the head width ``tower[-1]`` that fusion needs."""
    hyper = MfHyperparams(latent_dim=config.latent_dim, predictive_dim=int(config.tower[-1]),
                          reg_lambda=config.reg_lambda, fit=config.fit(config.epochs_mf))
    return train_mf(store, hyper, val_store=val_store, on_epoch=on_epoch)


def pretrain_mlp(config: ExperimentConfig, store: InteractionStore,
                 val_store: InteractionStore | None = None, on_epoch=None) -> MlpParams:
    """The non-linear branch."""
    hyper = MlpHyperparams(latent_dim=config.latent_dim, tower=config.tower,
                           fit=config.fit(config.epochs_mlp))
    return train_mlp(store, hyper, val_store=val_store, on_epoch=on_epoch)


def fine_tune(config: ExperimentConfig, model: FusionModel, store: InteractionStore,
              val_store: InteractionStore | None = None, on_epoch=None) -> FusionModel:
    """A fine-tuned copy of the fused model."""
    return train_fusion(model, store, config.fit(config.epochs_fusion), val_store=val_store,
                        on_epoch=on_epoch)


def train_pipeline(
    config: ExperimentConfig,
    train_store: InteractionStore,
    val_store: InteractionStore | None = None,
    on_epoch=None,
):
    """Pre-train both branches, fuse them and fine-tune the fused model.

    Returns (model, phase_seconds).
    """
    timings = {}
    started = time.perf_counter()
    mf_params = pretrain_mf(config, train_store, val_store, on_epoch)
    timings["pretrain_mf"] = time.perf_counter() - started

    started = time.perf_counter()
    mlp_params = pretrain_mlp(config, train_store, val_store, on_epoch)
    timings["pretrain_mlp"] = time.perf_counter() - started
    model = init_fusion(mf_params, mlp_params, config.gamma)

    started = time.perf_counter()
    model = fine_tune(config, model, train_store, val_store, on_epoch)
    timings["fusion"] = time.perf_counter() - started
    return model, timings


def run_experiment(config: ExperimentConfig, store: InteractionStore) -> ExperimentResult:
    """Full pipeline per fold of ``store`` plus the arithmetic mean report;
    an unscored store is scored first, with the config's reliability settings."""
    store = _ensure_reliability(store, config)
    outcomes = []
    for train_store, val_store, test_store in split(store, config.split):
        epoch_log = []  # (phase, epoch, loss, seconds) per on_epoch call
        model, timings = train_pipeline(config, train_store, val_store,
                                        lambda *event: epoch_log.append(event))
        started = time.perf_counter()
        report = evaluate_model(model, test_store, config.cutoffs, config.relevance_threshold)
        timings["evaluate"] = time.perf_counter() - started
        outcomes.append(FoldOutcome(report=report, phase_seconds=timings, epoch_log=epoch_log))
    mean_report = _mean_reports([o.report for o in outcomes])
    return ExperimentResult(folds=outcomes, mean_report=mean_report)


def sweep_configs(config: ExperimentConfig, store: InteractionStore, train_fracs) -> dict:
    """{fraction: the config of its run} of a sweep of ``store``.

    For a training fraction x the remainder splits evenly between
    validation and test. ValueError for a fraction given twice, and for
    one whose split spec is refused or leaves a part of ``store`` empty.
    """
    configs = {}
    for frac in train_fracs:
        if frac in configs:
            raise ValueError(f"train fraction {frac!r} is given twice")
        rest = (1.0 - frac) / 2.0
        spec = replace(config.split, train_frac=frac, val_frac=rest, test_frac=rest)
        split_sizes(store.raw.size, spec)
        configs[frac] = replace(config, split=spec)
    return configs


def sweep_train_sizes(config: ExperimentConfig, store: InteractionStore, train_fracs) -> dict:
    """Re-run the experiment on ``store`` over training sizes.

    Every fraction is checked by :func:`sweep_configs` before the first
    run. An unscored store is then scored once, and every fraction runs on
    that one store. Returns {fraction: ExperimentResult}.
    """
    configs = sweep_configs(config, store, train_fracs)
    store = _ensure_reliability(store, config)
    return {frac: run_experiment(cfg, store) for frac, cfg in configs.items()}
