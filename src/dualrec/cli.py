"""Command-line entry point exposing the pipeline as subcommands.

Data flows through files: ``ingest`` and ``synth`` write store files,
``reliability`` scores a store, the ``pretrain-*``/``train`` commands
write checkpoints, ``evaluate``/``predict`` read them back. All
randomness funnels through ``--seed`` flags, so repeated runs are
byte-identical. Logs go to standard error, data to files or standard
output.
"""

import argparse
import dataclasses
import logging
import os
import sys
from itertools import repeat

import numpy as np

from . import fusion as fusion_mod
from . import harness, ingest
from . import mf_model, mlp_model
from . import reliability as reliability_mod
from .linalg import TrainingDivergedError
from .metrics import DEFAULT_CUTOFFS, RELEVANCE_THRESHOLD, check_cutoff, check_threshold

log = logging.getLogger("dualrec")


class CliError(Exception):
    """Data-level failure with a machine-readable category."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _read(load, path, what: str):
    """``load(path)`` of the store or model file the user named, failures mapped to categories."""
    if not os.path.isfile(path):
        raise CliError("input-not-found", f"{what} not found: {path}")
    try:
        return load(path)
    except ValueError as exc:
        raise CliError("bad-store", f"cannot read {what} {path}: {exc}") from exc


def _rated_store(path) -> ingest.InteractionStore:
    """The store at ``path``; refused unless it holds a rating to train on or score."""
    store = _read(ingest.load_store, path, "store")
    if not store.raw.size:
        raise CliError("bad-store", f"store {path} has no ratings")
    return store


def _file_at_or_above(path):
    """The first of ``path`` and its ancestors that exists and is no directory, or None."""
    while path and not os.path.isdir(path):
        if os.path.lexists(path):
            return path
        path = os.path.dirname(path)
    return None


def _check_outputs(args) -> None:
    """Refuse, before any work starts, an output file that names a directory or
    whose directory is missing or a file, and an ``--out-dir`` that is a file
    or lies under one."""
    for flag in ("out", "store_out", "tsv"):
        path = getattr(args, flag, None)
        if not path:
            continue
        name = f"--{flag.replace('_', '-')}"
        if os.path.isdir(path):
            raise CliError("bad-args", f"{name} names a directory: {path}")
        folder = os.path.dirname(path) or os.curdir
        if not os.path.isdir(folder):
            above = _file_at_or_above(folder)
            raise CliError("bad-args", f"{name} {path} lies under a file: {above}" if above
                           else f"{name} {path}: no such directory: {folder}")
    out_dir = getattr(args, "out_dir", None)
    above = _file_at_or_above(out_dir)
    if above:
        raise CliError("bad-args", f"--out-dir names a file: {out_dir}" if above == out_dir
                       else f"--out-dir {out_dir} lies under a file: {above}")


def _check_train_frac(frac: float) -> None:
    """Raise ValueError unless ``frac`` is in (0, 1), as a split's fractions must be."""
    if not 0.0 < frac < 1.0:
        raise ValueError(f"training fraction must be in (0, 1), got {frac!r}")


# comma-separated flag -> (type of each value, its name, check of each value)
_LIST_FLAGS = {"tower": (int, "integers", None), "cutoffs": (int, "integers", check_cutoff),
               "train_fracs": (float, "numbers", _check_train_frac)}


def _parse_lists(args) -> None:
    """Turn each comma-separated flag into a tuple of values, before any work starts."""
    for dest, (kind, noun, check) in _LIST_FLAGS.items():
        text = getattr(args, dest, None)
        if not isinstance(text, str):  # not given, or a default that is already a tuple
            continue
        flag = f"--{dest.replace('_', '-')}"
        try:
            values = tuple(kind(part) for part in text.split(",") if part)
        except ValueError:
            values = ()
        if not values:
            raise CliError("bad-args", f"{flag} takes comma-separated {noun}, got {text!r}")
        try:
            for value in values if check else ():
                check(value)
        except ValueError as exc:
            raise CliError("bad-args", f"{flag}: {exc}") from exc
        setattr(args, dest, values)


def _epoch_logger(phase, epoch, loss, seconds):
    log.info("%s epoch %d: loss=%.6f (%.3fs)", phase, epoch, loss, seconds)


def cmd_ingest(args) -> int:
    if not os.path.isfile(args.input):
        raise CliError("input-not-found", f"input not found: {args.input}")
    # a byte that is not UTF-8 reaches the key rule, or the decoder as invalid JSON
    with open(args.input, "r", encoding="utf-8", errors="surrogateescape") as fh:
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
        store.raw.size,
    )
    return 0


def cmd_reliability(args) -> int:
    for name in ("alpha", "threshold"):
        reliability_mod.check_unit(name, getattr(args, name))
    store = _read(ingest.load_store, args.store, "store")
    scores = reliability_mod.score_store(
        store, alpha=args.alpha, fallback_max=args.fallback_helpful_max)
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in reliability_mod.breakdown_rows(store, scores, args.threshold):
            fh.write(row + "\n")
    if args.store_out:
        ingest.save_store(reliability_mod.attach_scores(store, scores), args.store_out)
    return 0


def _check_fits(what: str, item, store_path, store) -> None:
    """Refuse ``what``, a model or a validation store, unless its users x
    products are those of the store at ``store_path``, before any work."""
    have, want = (item.n_users, item.n_products), (store.n_users, store.n_products)
    if have != want:
        raise CliError("bad-store", f"{what} has {have[0]} users x {have[1]} products, "
                                    f"store {store_path} has {want[0]} x {want[1]}")


def _train_stores(args):
    """The ``--store`` and the optional ``--val-store`` of a training command."""
    store = _rated_store(args.store)
    if not args.val_store:
        return store, None
    val_store = _read(ingest.load_store, args.val_store, "store")
    _check_fits(f"--val-store {args.val_store}", val_store, args.store, store)
    return store, val_store


def _config(base: harness.ExperimentConfig, **flags) -> harness.ExperimentConfig:
    """``base`` with each field whose training flag was given set to its value;
    a flag that was not given is None and keeps the base value."""
    return dataclasses.replace(base, **{k: v for k, v in flags.items() if v is not None})


def cmd_pretrain_mf(args) -> int:
    # the branch's head width is the last tower width, as in the full pipeline
    config = _config(harness.ExperimentConfig(), latent_dim=args.k, batch_size=args.batch_size,
                     lr=args.lr, seed=args.seed, epochs_mf=args.epochs, reg_lambda=args.reg_lambda,
                     tower=None if args.p is None else (args.p,))
    mf_model.MfHyperparams(config.latent_dim, config.tower[-1])  # refuses --p below 1 first
    stores = _train_stores(args)
    params = harness.pretrain_mf(config, *stores, on_epoch=_epoch_logger)
    mf_model.save_mf(params, args.out)
    return 0


def cmd_pretrain_mlp(args) -> int:
    config = _config(harness.ExperimentConfig(), latent_dim=args.k, batch_size=args.batch_size,
                     lr=args.lr, seed=args.seed, epochs_mlp=args.epochs, tower=args.tower)
    mlp_model.check_tower(config.latent_dim, config.tower)  # refuses a bad --tower first
    stores = _train_stores(args)
    params = harness.pretrain_mlp(config, *stores, on_epoch=_epoch_logger)
    mlp_model.save_mlp(params, args.out)
    return 0


def _experiment_config(path) -> harness.ExperimentConfig:
    if not os.path.isfile(path):
        raise CliError("config-not-found", f"config not found: {path}")
    try:
        return harness.ExperimentConfig.from_json(path)
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError("bad-config", f"cannot parse config {path}: {exc}") from exc


def cmd_train(args) -> int:
    base = _experiment_config(args.config) if args.config else harness.ExperimentConfig()
    config = _config(base, gamma=args.gamma, epochs_fusion=args.epochs, lr=args.lr, seed=args.seed)
    store, val_store = _train_stores(args)

    if args.mf and args.mlp:
        branches = (_read(mf_model.load_mf, args.mf, "model"),
                    _read(mlp_model.load_mlp, args.mlp, "model"))
        for path, branch in zip((args.mf, args.mlp), branches):
            _check_fits(f"model {path}", branch, args.store, store)
        model = fusion_mod.init_fusion(*branches, config.gamma)
        model = harness.fine_tune(config, model, store, val_store, on_epoch=_epoch_logger)
    elif args.mf or args.mlp:
        raise CliError("bad-args", "--mf and --mlp must be given together")
    else:
        model, _ = harness.train_pipeline(config, store, val_store, on_epoch=_epoch_logger)
    fusion_mod.save_fusion(model, args.out)
    return 0


def cmd_evaluate(args) -> int:
    check_threshold(args.threshold)
    store = _rated_store(args.store)
    model = _read(fusion_mod.load_fusion, args.model, "model")
    _check_fits(f"model {args.model}", model.mf, args.store, store)
    report = harness.evaluate_model(model, store, cutoffs=args.cutoffs, threshold=args.threshold)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.as_kv_text())
    if args.tsv:
        with open(args.tsv, "w", encoding="utf-8") as fh:
            fh.write(report.as_tsv())
    return 0


def cmd_predict(args) -> int:
    store = _read(ingest.load_store, args.store, "store")
    model = _read(fusion_mod.load_fusion, args.model, "model")
    _check_fits(f"model {args.model}", model.mf, args.store, store)
    if not os.path.isfile(args.pairs):
        raise CliError("input-not-found", f"pairs file not found: {args.pairs}")
    users, products = [], []  # the keys as two lists: no object per pair
    with open(args.pairs, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CliError("bad-args", f"pairs lines must be 'user<TAB>product', got {line!r}")
            users.append(parts[0])
            products.append(parts[1])
    index_pairs = np.column_stack([  # -1 for an unknown key
        np.fromiter(map(index.get, keys, repeat(-1)), np.intp, len(keys))
        for keys, index in ((users, store.user_index), (products, store.product_index))])
    preds = fusion_mod.predict_batch(model, index_pairs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{p}\t{pred!r}\n" for u, p, pred in zip(users, products, preds))
    return 0


def cmd_synth(args) -> int:
    spec = harness.SyntheticSpec(
        n_users=args.users, n_products=args.products, true_rank=args.rank,
        observation_density=args.density, noise_std=args.noise, seed=args.seed,
        quantize=not args.no_quantize,
    )
    ingest.save_store(harness.gen_synthetic(spec), args.out)
    return 0


def cmd_sweep(args) -> int:
    reports = {}  # report file name -> the one fraction that writes it
    for frac in args.train_fracs:
        name = f"report_{int(round(frac * 100))}.txt"
        if name in reports:
            raise CliError("bad-args", f"--train-fracs {reports[name]!r} and {frac!r} "
                                       f"would both write {name}")
        reports[name] = frac
    config = _experiment_config(args.config)
    if config.synthetic is not None:
        store = harness.gen_synthetic(config.synthetic)
    elif config.store_path is not None:
        store = _rated_store(config.store_path)
    else:
        raise CliError("bad-config", f"config {args.config} names no data.store or data.synthetic")
    harness.sweep_configs(config, store, args.train_fracs)  # refused before --out-dir is made
    os.makedirs(args.out_dir, exist_ok=True)
    results = harness.sweep_train_sizes(config, store, args.train_fracs)
    summary_path = os.path.join(args.out_dir, "summary.tsv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("train_frac\trmse\tmae\tf1\tndcg\tmap\n")
        for name, frac in reports.items():
            mean = results[frac].mean_report
            fh.write(
                f"{frac!r}\t{mean.rmse!r}\t{mean.mae!r}\t{mean.f1!r}\t"
                f"{mean.ndcg!r}\t{mean.mean_ap!r}\n"
            )
            with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as rfh:
                rfh.write(mean.as_kv_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualrec",
        description="Reliability-aware dual-embedding recommender pipeline",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    # A training flag left out is None and keeps the config's value.
    def common_train_flags(p):
        p.add_argument("--k", type=int, help="latent dimension")
        p.add_argument("--batch-size", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--seed", type=int, help="seed for all randomness")

    p = sub.add_parser("ingest", help="parse line-delimited reviews into a store file")
    p.add_argument("--input", required=True, help="line-delimited review JSON")
    p.add_argument("--out", required=True, help="store file to write")
    p.add_argument("--min-votes", type=int, default=0,
                   help="drop reviews with fewer total votes")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("reliability", help="score review reliability over a store")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="TSV breakdown rows")
    p.add_argument("--alpha", type=float, default=reliability_mod.DEFAULT_ALPHA,
                   help="weight of the rank readership score in the blend")
    p.add_argument("--threshold", type=float, default=reliability_mod.DEFAULT_THRESHOLD,
                   help="reliable/not-reliable cut")
    p.add_argument("--fallback-helpful-max", action="store_true",
                   help="divide by the product's max helpful votes (vote-less datasets)")
    p.add_argument("--store-out", help="also write a store with reliability attached")
    p.add_argument("--threads", type=int, default=1, help="no effect; scoring is vectorized")
    p.set_defaults(handler=cmd_reliability)

    p = sub.add_parser("pretrain-mf", help="train the linear branch")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--val-store", help="validation store for early stopping")
    p.add_argument("--p", type=int, help="predictive dimension (default: the last tower width)")
    p.add_argument("--reg-lambda", type=float)
    common_train_flags(p)
    p.set_defaults(handler=cmd_pretrain_mf)

    p = sub.add_parser("pretrain-mlp", help="train the non-linear branch")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--val-store", help="validation store for early stopping")
    p.add_argument("--tower", help="comma-separated layer widths")
    common_train_flags(p)
    p.set_defaults(handler=cmd_pretrain_mlp)

    p = sub.add_parser("train", help="fine-tune the fused model")
    p.add_argument("--store", required=True, help="training store")
    p.add_argument("--val-store", help="validation store for early stopping")
    p.add_argument("--mf", help="pre-trained linear-branch checkpoint")
    p.add_argument("--mlp", help="pre-trained non-linear-branch checkpoint")
    p.add_argument("--config", help="experiment config JSON; without it, the defaults")
    p.add_argument("--out", required=True, help="fused checkpoint to write")
    p.add_argument("--gamma", type=float,
                   help="blend weight of the linear branch at initialization")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score a fused model on a store")
    p.add_argument("--store", required=True, help="held-out store")
    p.add_argument("--model", required=True, help="fused checkpoint")
    p.add_argument("--out", required=True, help="key-value report file")
    p.add_argument("--tsv", help="also write a single-row TSV report")
    p.add_argument("--cutoffs", default=DEFAULT_CUTOFFS, help="top-t cutoffs, comma-separated")
    p.add_argument("--threshold", type=float, default=RELEVANCE_THRESHOLD,
                   help="relevance threshold")
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
    p.add_argument("--config", required=True, help="experiment config JSON")
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
        _check_outputs(args)
        _parse_lists(args)
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
