"""Experiment orchestration: splits, synthetic data, full pipelines.

A run goes: load or generate a store, make sure reliability scores are
attached, split into train/validation/test per fold, pre-train both
branches, fine-tune the fused model, and evaluate on the held-out pairs.
Per-phase wall-clock and per-epoch losses are collected along the way.
Synthetic stores come from known low-rank factor models so recovery can
be checked against ground truth.
"""

import json
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import reliability as reliability_mod
from .fusion import (
    FusionHyperparams,
    FusionModel,
    init_fusion,
    init_fusion_random,
    predict_batch,
    train_fusion,
)
from .ingest import MAX_RATING, InteractionStore, _make_store, load_store, restrict
from .linalg import sigmoid
from .metrics import EvalReport, evaluate_predictions
from .mf_model import MfHyperparams, train_mf
from .mlp_model import MlpHyperparams, train_mlp

__all__ = [
    "SplitSpec",
    "SyntheticSpec",
    "SyntheticData",
    "ExperimentConfig",
    "FoldOutcome",
    "ExperimentResult",
    "split",
    "gen_synthetic",
    "evaluate_model",
    "run_experiment",
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
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(not 0.0 < f < 1.0 for f in fracs):
            raise ValueError(f"fractions must be in (0, 1), got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(fracs)}")
        if self.folds < 1:
            raise ValueError("folds must be >= 1")


def split(store: InteractionStore, spec: SplitSpec):
    """Random interaction-level partition per fold.

    Each fold re-randomizes with its own stream derived from the spec
    seed. Returns a list of (train, val, test) stores whose rated pairs
    partition the full store exactly.
    """
    pairs = np.column_stack(store.rated_arrays[:2])  # sorted by pair
    n = len(pairs)
    n_train = int(round(spec.train_frac * n))
    n_val = int(round(spec.val_frac * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"insufficient data: {n} interactions split as "
            f"({n_train}, {n_val}, {n_test})"
        )
    folds = []
    for fold in range(spec.folds):
        rng = np.random.default_rng([spec.seed, fold])
        parts = np.split(rng.permutation(n), [n_train, n_train + n_val])
        folds.append(tuple(restrict(store, pairs[part]) for part in parts))
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
        if self.true_rank > min(self.n_users, self.n_products):
            raise ValueError("true_rank exceeds the smaller dimension")
        if not 0.0 < self.observation_density <= 1.0:
            raise ValueError("observation_density must be in (0, 1]")


@dataclass(frozen=True)
class SyntheticData:
    """Synthetic store plus the ground-truth factors that produced it."""

    store: InteractionStore
    rating_user_factors: np.ndarray
    rating_prod_factors: np.ndarray
    rel_user_factors: np.ndarray
    rel_prod_factors: np.ndarray


def gen_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Low-rank synthetic store with known ground truth.

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
    ru = u
    rv = rng.normal(_FACTOR_LOC, _FACTOR_SCALE, (m, r))
    mask = rng.random((n, m)) < spec.observation_density

    norm = sigmoid(u @ v.T)
    if spec.noise_std > 0:
        norm = norm + rng.normal(0.0, spec.noise_std, (n, m))
    raw = np.clip(MAX_RATING * norm, 1.0, float(MAX_RATING))
    rel = sigmoid(ru @ rv.T)

    rows, cols = np.nonzero(mask)  # row-major: the k-th observed pair gets time k
    observed = raw[rows, cols]
    values = (np.rint(observed).astype(int) if spec.quantize else observed).tolist()
    users, prods, zeros = rows.tolist(), cols.tolist(), [0] * len(observed)
    return SyntheticData(
        store=_make_store(
            [f"u{i}" for i in range(n)],
            [f"p{j}" for j in range(m)],
            list(zip(users, prods, values, zeros, zeros, range(len(observed)))),
            list(zip(users, prods, rel[rows, cols].tolist())),
        ),
        rating_user_factors=u,
        rating_prod_factors=v,
        rel_user_factors=ru,
        rel_prod_factors=rv,
    )


# JSON section -> {key: ExperimentConfig field}; "split" holds SplitSpec's fields.
_JSON_KEYS = {
    "data": {"store": "store_path", "synthetic": "synthetic"},
    "model": {name: name for name in (
        "latent_dim", "tower", "reg_lambda", "gamma", "batch_size", "epochs_mf",
        "epochs_mlp", "epochs_fusion", "lr", "seed", "patience", "pretrain",
        "freeze_branches", "init_tables_from_factors",
    )},
    "reliability": {"alpha": "rel_alpha", "fallback_max": "rel_fallback_max"},
    "eval": {"cutoffs": "cutoffs", "threshold": "relevance_threshold"},
}


@dataclass
class ExperimentConfig:
    """Everything one pipeline run needs, loadable from nested JSON."""

    store_path: str | None = None
    synthetic: SyntheticSpec | None = None
    split: SplitSpec = field(default_factory=SplitSpec)
    latent_dim: int = 8
    tower: tuple = (16, 8)
    reg_lambda: float = 0.1
    gamma: float = 0.5
    batch_size: int = 512
    epochs_mf: int = 12
    epochs_mlp: int = 12
    epochs_fusion: int = 12
    lr: float = 0.001
    seed: int = 0
    patience: int = 3
    pretrain: bool = True
    freeze_branches: bool = False
    init_tables_from_factors: bool = False
    rel_alpha: float = 0.5
    rel_fallback_max: bool = False
    cutoffs: tuple = (5, 10)
    relevance_threshold: float = 3.0

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config from the nested JSON layout; absent keys keep their defaults.

        An unknown section or key raises ValueError naming it, so a typo
        cannot silently fall back to the default.
        """
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
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class FoldOutcome:
    report: EvalReport
    phase_seconds: dict
    epoch_log: list  # (phase, epoch, loss, seconds) tuples


@dataclass
class ExperimentResult:
    folds: list
    mean_report: EvalReport


def _mean_reports(reports: list[EvalReport]) -> EvalReport:
    n = len(reports)
    cutoffs = sorted(reports[0].f1_at)
    return EvalReport(
        rmse=sum(r.rmse for r in reports) / n,
        mae=sum(r.mae for r in reports) / n,
        precision=sum(r.precision for r in reports) / n,
        recall=sum(r.recall for r in reports) / n,
        f1=sum(r.f1 for r in reports) / n,
        mean_ap=sum(r.mean_ap for r in reports) / n,
        ndcg=sum(r.ndcg for r in reports) / n,
        f1_at={c: sum(r.f1_at[c] for r in reports) / n for c in cutoffs},
        n_users=sum(r.n_users for r in reports) / n,
        n_pairs=sum(r.n_pairs for r in reports) / n,
    )


def evaluate_model(
    model: FusionModel,
    test_store: InteractionStore,
    cutoffs=(5, 10),
    threshold: float = 3.0,
) -> EvalReport:
    """Score the fused model on every rated pair of the test store."""
    idx_u, idx_p, _, raw = test_store.rated_arrays
    pairs = list(zip(idx_u.tolist(), idx_p.tolist()))
    users: dict = {}
    for (i, j), pred, truth in zip(pairs, predict_batch(model, pairs), raw.tolist()):
        users.setdefault(i, []).append((j, pred, truth))
    return evaluate_predictions(users, cutoffs=cutoffs, threshold=threshold)


def load_experiment_store(config: ExperimentConfig) -> InteractionStore:
    if config.synthetic is not None:
        return gen_synthetic(config.synthetic).store
    if config.store_path is None:
        raise ValueError("config names neither a store nor a synthetic spec")
    return load_store(config.store_path)


def _ensure_reliability(store: InteractionStore, config: ExperimentConfig) -> InteractionStore:
    if not np.isnan(store.reliability).all():
        return store
    breakdowns = reliability_mod.score_store(
        store, alpha=config.rel_alpha, fallback_max=config.rel_fallback_max
    )
    return reliability_mod.attach_scores(store, breakdowns)


def train_pipeline(
    config: ExperimentConfig,
    train_store: InteractionStore,
    val_store: InteractionStore | None = None,
    on_epoch=None,
):
    """Pre-train both branches (unless disabled) and fine-tune the head.

    Returns (model, phase_seconds).
    """
    timings = {}
    if config.pretrain:
        started = time.perf_counter()
        mf_params = train_mf(
            train_store,
            MfHyperparams(
                latent_dim=config.latent_dim,
                predictive_dim=int(config.tower[-1]),
                reg_lambda=config.reg_lambda,
                batch_size=config.batch_size,
                epochs=config.epochs_mf,
                lr=config.lr,
                seed=config.seed,
                patience=config.patience,
            ),
            val_store=val_store,
            on_epoch=on_epoch,
        )
        timings["pretrain_mf"] = time.perf_counter() - started

        started = time.perf_counter()
        mlp_params = train_mlp(
            train_store,
            MlpHyperparams(
                latent_dim=config.latent_dim,
                tower=config.tower,
                batch_size=config.batch_size,
                epochs=config.epochs_mlp,
                lr=config.lr,
                seed=config.seed,
                patience=config.patience,
                init_from_factors=config.init_tables_from_factors,
            ),
            val_store=val_store,
            on_epoch=on_epoch,
        )
        timings["pretrain_mlp"] = time.perf_counter() - started
        model = init_fusion(mf_params, mlp_params, config.gamma)
    else:
        timings["pretrain_mf"] = 0.0
        timings["pretrain_mlp"] = 0.0
        model = init_fusion_random(
            train_store.n_users,
            train_store.n_products,
            config.latent_dim,
            config.tower,
            config.seed,
            config.gamma,
        )

    started = time.perf_counter()
    model = train_fusion(
        model,
        train_store,
        FusionHyperparams(
            batch_size=config.batch_size,
            epochs=config.epochs_fusion,
            lr=config.lr,
            seed=config.seed,
            patience=config.patience,
        ),
        val_store=val_store,
        freeze_branches=config.freeze_branches,
        on_epoch=on_epoch,
    )
    timings["fusion"] = time.perf_counter() - started
    return model, timings


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Full pipeline per fold plus the arithmetic mean report."""
    store = _ensure_reliability(load_experiment_store(config), config)
    outcomes = []
    for train_store, val_store, test_store in split(store, config.split):
        epoch_log = []

        def on_epoch(phase, epoch, loss, seconds):
            epoch_log.append((phase, epoch, loss, seconds))

        model, timings = train_pipeline(config, train_store, val_store, on_epoch)
        started = time.perf_counter()
        report = evaluate_model(
            model, test_store, cutoffs=config.cutoffs, threshold=config.relevance_threshold
        )
        timings["evaluate"] = time.perf_counter() - started
        outcomes.append(FoldOutcome(report=report, phase_seconds=timings, epoch_log=epoch_log))
    mean_report = _mean_reports([o.report for o in outcomes])
    return ExperimentResult(folds=outcomes, mean_report=mean_report)


def sweep_train_sizes(config: ExperimentConfig, train_fracs) -> dict:
    """Re-run the experiment over training sizes.

    For a training fraction x the remainder splits evenly between
    validation and test. Returns {fraction: ExperimentResult}.
    """
    out = {}
    for frac in train_fracs:
        rest = (1.0 - frac) / 2.0
        spec = replace(config.split, train_frac=frac, val_frac=rest, test_frac=rest)
        cfg = replace(config, split=spec)
        out[frac] = run_experiment(cfg)
    return out
