"""Command-line entry point exposing the pipeline as subcommands.

Data flows through files: ``ingest`` and ``synth`` write store files,
``reliability`` scores a store, the ``pretrain-*``/``train`` commands
write checkpoints, ``evaluate``/``predict`` read them back. All
randomness funnels through ``--seed`` flags, so repeated runs are
byte-identical. Logs go to standard error, data to files or standard
output.
"""

import argparse
import json
import logging
import os
import sys

from . import fusion as fusion_mod
from . import harness, ingest
from . import mf_model, mlp_model
from . import reliability as reliability_mod
from .linalg import TrainingDivergedError

log = logging.getLogger("dualrec")

CONFIG_ENV_VAR = "DUALREC_CONFIG"


class CliError(Exception):
    """Data-level failure with a machine-readable category."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _load_store(path) -> ingest.InteractionStore:
    if not os.path.exists(path):
        raise CliError("input-not-found", f"store not found: {path}")
    try:
        return ingest.load_store(path)
    except (ValueError, json.JSONDecodeError) as exc:
        raise CliError("bad-store", f"cannot read store {path}: {exc}") from exc


def _epoch_logger(phase, epoch, loss, seconds):
    log.info("%s epoch %d: loss=%.6f (%.3fs)", phase, epoch, loss, seconds)


def cmd_ingest(args) -> int:
    if not os.path.exists(args.input):
        raise CliError("input-not-found", f"input not found: {args.input}")
    with open(args.input, "r", encoding="utf-8") as fh:
        result = ingest.parse_reviews(fh)
    for warning in result.warnings:
        log.warning("%s", warning)
    records = result.records
    if args.min_votes > 0:
        records = [r for r in records if r.votes_total >= args.min_votes]
    store = ingest.build_store(records)
    ingest.save_store(store, args.out)
    log.info(
        "ingested %d records (%d skipped) -> %d users x %d products, %d ratings",
        len(records), result.n_skipped, store.n_users, store.n_products,
        len(store.ratings),
    )
    return 0


def cmd_reliability(args) -> int:
    store = _load_store(args.store)
    try:
        breakdowns = reliability_mod.score_store(
            store, alpha=args.alpha, fallback_max=args.fallback_helpful_max,
            threads=max(1, args.threads),
        )
    except ValueError as exc:
        raise CliError("bad-args", str(exc)) from exc
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in reliability_mod.breakdown_rows(store, breakdowns, args.threshold):
            fh.write(row + "\n")
    if args.store_out:
        ingest.save_store(reliability_mod.attach_scores(store, breakdowns), args.store_out)
    return 0


def cmd_pretrain_mf(args) -> int:
    store = _load_store(args.store)
    val_store = _load_store(args.val_store) if args.val_store else None
    hyper = mf_model.MfHyperparams(
        latent_dim=args.k, predictive_dim=args.p, reg_lambda=args.reg_lambda,
        batch_size=args.batch_size, epochs=args.epochs, lr=args.lr, seed=args.seed,
    )
    try:
        params = mf_model.train_mf(store, hyper, val_store=val_store, on_epoch=_epoch_logger)
    except TrainingDivergedError as exc:
        raise CliError("training-diverged", str(exc)) from exc
    mf_model.save_mf(params, args.out)
    return 0


def _parse_tower(text: str) -> tuple:
    try:
        widths = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise CliError("bad-args", f"invalid tower spec {text!r}") from exc
    if not widths:
        raise CliError("bad-args", "tower spec is empty")
    return widths


def cmd_pretrain_mlp(args) -> int:
    store = _load_store(args.store)
    val_store = _load_store(args.val_store) if args.val_store else None
    hyper = mlp_model.MlpHyperparams(
        latent_dim=args.k, tower=_parse_tower(args.tower), batch_size=args.batch_size,
        epochs=args.epochs, lr=args.lr, seed=args.seed,
        init_from_factors=args.init_from_factors,
    )
    try:
        params = mlp_model.train_mlp(store, hyper, val_store=val_store, on_epoch=_epoch_logger)
    except (TrainingDivergedError, ValueError) as exc:
        category = "training-diverged" if isinstance(exc, TrainingDivergedError) else "bad-args"
        raise CliError(category, str(exc)) from exc
    mlp_model.save_mlp(params, args.out)
    return 0


def _experiment_config(args) -> harness.ExperimentConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise CliError("bad-config", "no config given (flag --config or env DUALREC_CONFIG)")
    if not os.path.exists(path):
        raise CliError("config-not-found", f"config not found: {path}")
    try:
        return harness.ExperimentConfig.from_json(path)
    except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        raise CliError("bad-config", f"cannot parse config {path}: {exc}") from exc


def cmd_train(args) -> int:
    store = _load_store(args.store)
    val_store = _load_store(args.val_store) if args.val_store else None
    if args.config or os.environ.get(CONFIG_ENV_VAR):
        config = _experiment_config(args)
    else:
        config = harness.ExperimentConfig()
    if args.gamma is not None:
        config.gamma = args.gamma
    if args.epochs is not None:
        config.epochs_fusion = args.epochs
    if args.lr is not None:
        config.lr = args.lr
    if args.seed is not None:
        config.seed = args.seed
    if args.freeze_branches:
        config.freeze_branches = True

    try:
        if args.mf and args.mlp:
            branches = (_load_model(mf_model.load_mf, args.mf),
                        _load_model(mlp_model.load_mlp, args.mlp))
            model = fusion_mod.init_fusion(*branches, config.gamma)
            model = fusion_mod.train_fusion(
                model, store,
                fusion_mod.FusionHyperparams(
                    batch_size=config.batch_size, epochs=config.epochs_fusion,
                    lr=config.lr, seed=config.seed, patience=config.patience,
                ),
                val_store=val_store, freeze_branches=config.freeze_branches,
                on_epoch=_epoch_logger,
            )
        elif args.mf or args.mlp:
            raise CliError("bad-args", "--mf and --mlp must be given together")
        else:
            model, _ = harness.train_pipeline(config, store, val_store, on_epoch=_epoch_logger)
    except TrainingDivergedError as exc:
        raise CliError("training-diverged", str(exc)) from exc
    fusion_mod.save_fusion(model, args.out)
    return 0


def _load_model(load, path):
    """Run a checkpoint loader, mapping its failures to CLI categories."""
    if not os.path.exists(path):
        raise CliError("input-not-found", f"model not found: {path}")
    try:
        return load(path)
    except ValueError as exc:
        raise CliError("bad-store", f"cannot read model {path}: {exc}") from exc
    except KeyError as exc:  # a well-formed container without a section or meta key
        raise CliError("bad-store", f"cannot read model {path}: missing {exc}") from exc


def cmd_evaluate(args) -> int:
    store = _load_store(args.store)
    model = _load_model(fusion_mod.load_fusion, args.model)
    cutoffs = tuple(int(c) for c in args.cutoffs.split(",") if c)
    report = harness.evaluate_model(model, store, cutoffs=cutoffs, threshold=args.threshold)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.as_kv_text())
    if args.tsv:
        with open(args.tsv, "w", encoding="utf-8") as fh:
            fh.write(report.as_tsv())
    return 0


def cmd_predict(args) -> int:
    store = _load_store(args.store)
    model = _load_model(fusion_mod.load_fusion, args.model)
    if not os.path.exists(args.pairs):
        raise CliError("input-not-found", f"pairs file not found: {args.pairs}")
    keys = []
    with open(args.pairs, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CliError("bad-args", f"pairs lines must be 'user<TAB>product', got {line!r}")
            keys.append((parts[0], parts[1]))
    index_pairs = [
        (store.user_index.get(u, -1), store.product_index.get(p, -1)) for u, p in keys
    ]
    preds = fusion_mod.predict_batch(model, index_pairs)
    with open(args.out, "w", encoding="utf-8") as fh:
        for (u, p), pred in zip(keys, preds):
            fh.write(f"{u}\t{p}\t{pred!r}\n")
    return 0


def cmd_synth(args) -> int:
    try:
        spec = harness.SyntheticSpec(
            n_users=args.users, n_products=args.products, true_rank=args.rank,
            observation_density=args.density, noise_std=args.noise, seed=args.seed,
            quantize=not args.no_quantize,
        )
    except ValueError as exc:
        raise CliError("bad-args", str(exc)) from exc
    ingest.save_store(harness.gen_synthetic(spec).store, args.out)
    return 0


def cmd_sweep(args) -> int:
    config = _experiment_config(args)
    fracs = [float(part) for part in args.train_fracs.split(",") if part]
    if not fracs:
        raise CliError("bad-args", "no training fractions given")
    os.makedirs(args.out_dir, exist_ok=True)
    results = harness.sweep_train_sizes(config, fracs)
    summary_path = os.path.join(args.out_dir, "summary.tsv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("train_frac\trmse\tmae\tf1\tndcg\tmap\n")
        for frac in fracs:
            mean = results[frac].mean_report
            fh.write(
                f"{frac!r}\t{mean.rmse!r}\t{mean.mae!r}\t{mean.f1!r}\t"
                f"{mean.ndcg!r}\t{mean.mean_ap!r}\n"
            )
            report_path = os.path.join(args.out_dir, f"report_{int(round(frac * 100))}.txt")
            with open(report_path, "w", encoding="utf-8") as rfh:
                rfh.write(mean.as_kv_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualrec",
        description="Reliability-aware dual-embedding recommender pipeline",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_train_flags(p):
        p.add_argument("--batch-size", type=int, default=512)
        p.add_argument("--epochs", type=int, default=12)
        p.add_argument("--lr", type=float, default=0.001)
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")

    p = sub.add_parser("ingest", help="parse line-delimited reviews into a store file")
    p.add_argument("--input", required=True, help="line-delimited review JSON")
    p.add_argument("--out", required=True, help="store file to write")
    p.add_argument("--min-votes", type=int, default=0,
                   help="drop reviews with fewer total votes")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("reliability", help="score review reliability over a store")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="TSV breakdown rows")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="weight of the rank readership score in the blend")
    p.add_argument("--threshold", type=float, default=0.5, help="reliable/not-reliable cut")
    p.add_argument("--fallback-helpful-max", action="store_true",
                   help="divide by the product's max helpful votes (vote-less datasets)")
    p.add_argument("--store-out", help="also write a store with reliability attached")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(handler=cmd_reliability)

    p = sub.add_parser("pretrain-mf", help="train the linear branch")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--val-store", help="validation store for early stopping")
    p.add_argument("--k", type=int, default=8, help="latent dimension")
    p.add_argument("--p", type=int, default=8, help="predictive dimension")
    p.add_argument("--reg-lambda", type=float, default=0.1)
    common_train_flags(p)
    p.set_defaults(handler=cmd_pretrain_mf)

    p = sub.add_parser("pretrain-mlp", help="train the non-linear branch")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--val-store", help="validation store for early stopping")
    p.add_argument("--k", type=int, default=8, help="latent dimension")
    p.add_argument("--tower", default="16,8", help="comma-separated layer widths")
    p.add_argument("--init-from-factors", action="store_true",
                   help="initialize embedding tables from the SVD factors")
    common_train_flags(p)
    p.set_defaults(handler=cmd_pretrain_mlp)

    p = sub.add_parser("train", help="fine-tune the fused model")
    p.add_argument("--store", required=True, help="training store")
    p.add_argument("--val-store", help="validation store for early stopping")
    p.add_argument("--mf", help="pre-trained linear-branch checkpoint")
    p.add_argument("--mlp", help="pre-trained non-linear-branch checkpoint")
    p.add_argument("--config", help=f"experiment config JSON (or ${CONFIG_ENV_VAR})")
    p.add_argument("--out", required=True, help="fused checkpoint to write")
    p.add_argument("--gamma", type=float, default=None,
                   help="blend weight of the linear branch at initialization")
    p.add_argument("--freeze-branches", action="store_true",
                   help="train only the fused head")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score a fused model on a store")
    p.add_argument("--store", required=True, help="held-out store")
    p.add_argument("--model", required=True, help="fused checkpoint")
    p.add_argument("--out", required=True, help="key-value report file")
    p.add_argument("--tsv", help="also write a single-row TSV report")
    p.add_argument("--cutoffs", default="5,10", help="top-t cutoffs, comma-separated")
    p.add_argument("--threshold", type=float, default=3.0, help="relevance threshold")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("predict", help="predict ratings for user/product key pairs")
    p.add_argument("--model", required=True, help="fused checkpoint")
    p.add_argument("--store", required=True, help="store that defines the key maps")
    p.add_argument("--pairs", required=True, help="TSV of user<TAB>product keys")
    p.add_argument("--out", required=True, help="TSV of predictions")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("synth", help="generate a synthetic low-rank store")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--products", type=int, required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-quantize", action="store_true", help="keep continuous ratings")
    p.add_argument("--out", required=True, help="store file to write")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("sweep", help="run the pipeline over several training sizes")
    p.add_argument("--config", help=f"experiment config JSON (or ${CONFIG_ENV_VAR})")
    p.add_argument("--train-fracs", default="0.4,0.5,0.6,0.7",
                   help="training fractions; the rest splits evenly into val/test")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error [input-not-found]: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, ValueError) as exc:
        category = "training-diverged" if isinstance(exc, TrainingDivergedError) else "bad-args"
        print(f"error [{category}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
