import argparse
import json
import logging
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualrec import harness
from dualrec import ingest as ingest_mod
from dualrec import reliability as reliability_mod
from dualrec.checkpoint import save_sections
from dualrec.cli import build_parser, main
from dualrec.ingest import _make_store, load_store, restrict, save_store

from conftest import copy_path, rated, scored
from test_checkpoint import container


def write_reviews(path, n_users=15, n_products=10, n_reviews=120, seed=0):
    """Synthesize a plausible line-delimited review file."""
    rng = np.random.default_rng(seed)
    lines = []
    seen = set()
    when = 1_300_000_000
    while len(lines) < n_reviews:
        u = int(rng.integers(0, n_users))
        p = int(rng.integers(0, n_products))
        if (u, p) in seen:
            continue
        seen.add((u, p))
        total = int(rng.integers(0, 8))
        yes = int(rng.integers(0, total + 1))
        when += int(rng.integers(1, 5000))
        lines.append(json.dumps({
            "reviewerID": f"U{u:04d}",
            "asin": f"P{p:05d}",
            "overall": float(rng.integers(1, 6)),
            "helpful": [yes, total],
            "unixReviewTime": when,
            "summary": "fine",
        }))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def reviews_file(tmp_path):
    return write_reviews(tmp_path / "reviews.jsonl")


class TestBasics:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["synth", "--wat", "1"]) == 2

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 2

    def test_synth_smoke(self, tmp_path):
        out = tmp_path / "store.json"
        code = main(["synth", "--users", "50", "--products", "40", "--rank", "2",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        store = load_store(out)
        assert store.n_users == 50 and store.n_products == 40

    @pytest.mark.parametrize("flags, want", [
        ("--rank 0", "true_rank must be >= 1, got 0"),
        ("--rank -1", "true_rank must be >= 1, got -1"),
        ("--users 0", "n_users must be >= 1, got 0"),
        ("--products -3", "n_products must be >= 1, got -3"),
    ], ids=["rank-zero", "rank-negative", "no-users", "negative-products"])
    def test_synth_size_below_one_is_one_bad_args_line(self, tmp_path, capsys, flags, want):
        out = tmp_path / "store.json"
        argv = ["synth", "--users", "5", "--products", "5", "--seed", "1", "--out", str(out)]
        line = error_line(capsys, argv + flags.split())
        assert line == f"error [bad-args]: {want}"
        assert list(tmp_path.iterdir()) == []

    def test_train_missing_config(self, tmp_path):
        store = tmp_path / "store.json"
        main(["synth", "--users", "10", "--products", "8", "--out", str(store)])
        code = main(["train", "--store", str(store), "--config",
                     str(tmp_path / "missing.json"), "--out", str(tmp_path / "m.ckpt")])
        assert code == 1

    def test_train_missing_config_message(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        main(["synth", "--users", "10", "--products", "8", "--out", str(store)])
        main(["train", "--store", str(store), "--config",
              str(tmp_path / "missing.json"), "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert "config not found" in err
        assert "config-not-found" in err

    def test_train_config_with_unknown_key_is_bad_config(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        main(["synth", "--users", "10", "--products", "8", "--out", str(store)])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"epoch_mf": 1}}))
        code = main(["train", "--store", str(store), "--config", str(config),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad-config" in err and "epoch_mf" in err

    @pytest.mark.parametrize("doc, want", [
        ([1, 2], "a config is a JSON object of sections, each a JSON object"),
        ("model", "a config is a JSON object of sections, each a JSON object"),
        ({"model": {"lr": "a"}}, "lr must be a finite number >= 0, got 'a'"),
        ({"model": {"latent_dim": "a"}}, "latent_dim must be an integer, got 'a'"),
        ({"model": {"latent_dim": True}}, "latent_dim must be an integer, got True"),
        ({"model": {"reg_lambda": "x"}}, "reg_lambda must be a number, got 'x'"),
        ({"model": {"gamma": "x"}}, "gamma must be a number, got 'x'"),
        ({"model": {"seed": "a"}}, "seed must be an integer, got 'a'"),
        ({"model": {"pretrain": False}}, "unknown key(s) in config section 'model': pretrain"),
        ({"model": {"freeze_branches": True}},
         "unknown key(s) in config section 'model': freeze_branches"),
        ({"model": {"init_tables_from_factors": True}},
         "unknown key(s) in config section 'model': init_tables_from_factors"),
        ({"model": {"tower": 5}}, "tower must be a list of integers, got 5"),
        ({"eval": {"cutoffs": ["5"]}}, "cutoffs must be a list of integers, got ('5',)"),
        ({"data": {"store": 5}}, "store_path must be a string or null, got 5"),
        ({"split": {"seed": "a"}}, "seed must be an integer, got 'a'"),
        ({"split": {"folds": "a"}}, "folds must be an integer, got 'a'"),
        ({"data": {"synthetic": {"n_users": "9", "n_products": 8, "true_rank": 2,
                                 "observation_density": 0.5, "noise_std": 0.1, "seed": 5}}},
         "n_users must be an integer, got '9'"),
        ({"data": {"synthetic": {"n_users": 9, "n_products": 8, "true_rank": 2,
                                 "observation_density": 0.5, "noise_std": -0.5, "seed": 5}}},
         "noise_std must be a finite number >= 0, got -0.5"),
        ({"data": {"synthetic": {"n_users": 9, "n_products": 8, "true_rank": 2,
                                 "observation_density": 0.5, "noise_std": float("nan"),
                                 "seed": 5}}},
         "noise_std must be a finite number >= 0, got nan"),
        ({"data": {"synthetic": {"n_users": 9, "n_products": 0, "true_rank": 2,
                                 "observation_density": 0.5, "noise_std": 0.1, "seed": 5}}},
         "n_products must be >= 1, got 0"),
        ({"data": {"synthetic": {"n_users": 9, "n_products": 8, "true_rank": 0,
                                 "observation_density": 0.5, "noise_std": 0.1, "seed": 5}}},
         "true_rank must be >= 1, got 0"),
        ({"reliability": {"alpha": 7}}, "rel_alpha must be in [0, 1], got 7"),
        ({"eval": {"cutoffs": [5, 0]}}, "cutoff must be >= 1, got 0"),
        ({"model": {"reg_lambda": float("nan")}},
         "reg_lambda must be a finite number >= 0, got nan"),
        ({"model": {"reg_lambda": -0.5}}, "reg_lambda must be a finite number >= 0, got -0.5"),
        ({"eval": {"threshold": float("nan")}}, "threshold must be a finite number, got nan"),
        ({"eval": {"threshold": float("-inf")}}, "threshold must be a finite number, got -inf"),
    ], ids=["array", "string", "lr-not-a-number", "latent_dim-string", "latent_dim-bool",
            "reg_lambda-string", "gamma-string", "seed-string", "pretrain-removed",
            "freeze_branches-removed", "init_tables_from_factors-removed", "tower-int",
            "cutoffs-strings", "store-int", "split-seed-string", "split-folds-string",
            "synthetic-n_users-string", "synthetic-noise_std-negative",
            "synthetic-noise_std-nan", "synthetic-n_products-zero", "synthetic-true_rank-zero",
            "reliability-alpha-out-of-range", "eval-cutoff-zero",
            "reg_lambda-nan", "reg_lambda-negative", "eval-threshold-nan",
            "eval-threshold-minus-inf"])
    def test_sweep_malformed_config_is_one_bad_config_line(self, tmp_path, capsys, doc, want):
        if isinstance(doc, dict):  # a runnable config but for the one bad value
            doc = {"data": {"synthetic": {"n_users": 9, "n_products": 8, "true_rank": 2,
                                          "observation_density": 0.5, "noise_std": 0.1,
                                          "seed": 5}},
                   "split": {"folds": 1}, **doc}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        line = error_line(capsys, ["sweep", "--config", str(config),
                                   "--out-dir", str(tmp_path / "out")])
        assert line == f"error [bad-config]: cannot parse config {config}: {want}"

    @pytest.mark.parametrize("doc, want", [
        (None, "error [config-not-found]: config not found: {config}"),
        ({"eval": {"cutoffs": [0]}},
         "error [bad-config]: cannot parse config {config}: cutoff must be >= 1, got 0"),
        ({"model": {"gamma": 2, "epochs_fusion": 2}},
         "error [bad-config]: cannot parse config {config}: gamma must be in [0, 1], got 2"),
        ({"model": {"pretrain": False, "epochs_fusion": 2}},
         "error [bad-config]: cannot parse config {config}: "
         "unknown key(s) in config section 'model': pretrain"),
        ({"model": {"freeze_branches": True, "epochs_fusion": 2}},
         "error [bad-config]: cannot parse config {config}: "
         "unknown key(s) in config section 'model': freeze_branches"),
        ({"model": {"init_tables_from_factors": True, "epochs_fusion": 2}},
         "error [bad-config]: cannot parse config {config}: "
         "unknown key(s) in config section 'model': init_tables_from_factors"),
        ({"model": {"reg_lambda": float("nan")}},
         "error [bad-config]: cannot parse config {config}: "
         "reg_lambda must be a finite number >= 0, got nan"),
        ({"model": {"reg_lambda": float("inf")}},
         "error [bad-config]: cannot parse config {config}: "
         "reg_lambda must be a finite number >= 0, got inf"),
        ({"eval": {"threshold": float("inf")}},
         "error [bad-config]: cannot parse config {config}: "
         "threshold must be a finite number, got inf"),
        ({"model": {"latent_dim": 0}},
         "error [bad-config]: cannot parse config {config}: latent_dim must be >= 1"),
    ], ids=["missing", "bad-cutoff", "gamma-too-large", "removed-pretrain",
            "removed-freeze_branches", "removed-init_tables_from_factors", "reg_lambda-nan",
            "reg_lambda-inf", "threshold-inf", "latent_dim-zero"])
    def test_train_reads_the_config_before_the_stores(self, tmp_path, capsys, doc, want):
        config = tmp_path / "config.json"
        if doc is not None:
            config.write_text(json.dumps(doc))
        line = error_line(capsys, ["train", "--store", str(tmp_path / "missing.json"),
                                   "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert line == want.format(config=config)

    @pytest.mark.parametrize("argv, data", [
        ("train --store {t}/store.json --out {t}/m.ckpt", {}),
        ("train --store {t}/store.json --mf {t}/mf.ckpt --mlp {t}/mlp.ckpt --out {t}/m.ckpt", {}),
        ("sweep --out-dir {t}/out", {"store": "{t}/store.json"}),
        ("sweep --out-dir {t}/out", {"synthetic": {
            "n_users": 9, "n_products": 8, "true_rank": 2, "observation_density": 0.5,
            "noise_std": 0.1, "seed": 5}}),
    ], ids=["train", "train-branches", "sweep-store", "sweep-synthetic"])
    def test_a_config_tower_that_does_not_fit_is_refused_before_any_store(
            self, tmp_path, capsys, monkeypatch, argv, data):
        assert main(["synth", "--users", "12", "--products", "10",
                     "--out", str(tmp_path / "store.json")]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": data, "model": {"tower": [64, 8]}})
                          .replace("{t}", str(tmp_path)))
        opened = []  # each store read or generated
        monkeypatch.setattr(ingest_mod, "load_store", lambda *a: opened.append(a))
        monkeypatch.setattr(harness, "gen_synthetic", lambda *a: opened.append(a))
        before = sorted(tmp_path.iterdir())
        line = error_line(capsys, argv.format(t=tmp_path).split() + ["--config", str(config)])
        assert line == (f"error [bad-config]: cannot parse config {config}: "
                        "tower widths must be non-increasing from 16, got [64, 8]")
        assert opened == []
        assert sorted(tmp_path.iterdir()) == before  # no --out-dir, no checkpoint

    @pytest.mark.parametrize("argv", [
        ["train", "--store", "{t}/missing.json", "--out", "{t}/m.ckpt"],
        ["sweep", "--out-dir", "{t}/out"],
    ], ids=["train", "sweep"])
    def test_config_nested_too_deeply_is_one_bad_config_line(self, tmp_path, capsys, argv):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        argv = [arg.format(t=tmp_path) for arg in argv] + ["--config", str(config)]
        line = error_line(capsys, argv)
        assert line == f"error [bad-config]: cannot parse config {config}: JSON nested too deeply"
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("argv", [
        "pretrain-mlp --store {t}/store.json --out {t}/x.ckpt --init-from-factors",
        "train --store {t}/store.json --out {t}/x.ckpt --freeze-branches",
        "pretrain-mf --store {t}/store.json --out {t}/x.ckpt --p 8",
    ], ids=["init-from-factors", "freeze-branches", "predictive-dim"])
    def test_a_removed_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        assert main(["synth", "--users", "12", "--products", "10",
                     "--out", str(tmp_path / "store.json")]) == 0
        capsys.readouterr()
        before = sorted(tmp_path.iterdir())
        assert main(argv.format(t=tmp_path).split()) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --" + argv.split(" --")[-1] in err
        assert sorted(tmp_path.iterdir()) == before  # nothing written

    def test_train_reads_no_config_from_the_environment(self, tmp_path, monkeypatch):
        store, config = tmp_path / "store.json", tmp_path / "config.json"
        main(["synth", "--users", "12", "--products", "10", "--seed", "4",
              "--out", str(store)])
        config.write_text(json.dumps({"model": {"batch_size": 7, "epochs_fusion": 3}}))
        plain, under_env = tmp_path / "plain.ckpt", tmp_path / "env.ckpt"
        argv = ["train", "--store", str(store), "--epochs", "1", "--seed", "4", "--out"]
        assert main(argv + [str(plain)]) == 0
        monkeypatch.setenv("DUALREC_CONFIG", str(config))
        assert main(argv + [str(under_env)]) == 0
        assert under_env.read_bytes() == plain.read_bytes()

    def test_sweep_without_config_is_a_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--out-dir", str(tmp_path / "sweep")]) == 2
        assert "--config" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_readme_cli_synopsis_names_only_parser_flags():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    unknown = {}  # subcommand -> the flags its synopsis names that its parser lacks
    for line in block.replace("\\\n", " ").splitlines():  # a continued line is one command
        code = line.split("#")[0]
        if code.startswith("dualrec "):
            command = code.split()[1]
            options = subparsers.choices[command]._option_string_actions
            unknown[command] = [f for f in re.findall(r"--[a-z-]+", code) if f not in options]
    assert set(unknown) == set(subparsers.choices)
    assert unknown == {command: [] for command in unknown}


class TestIngest:
    def test_ingest_writes_store(self, tmp_path, reviews_file):
        out = tmp_path / "store.json"
        assert main(["ingest", "--input", str(reviews_file), "--out", str(out)]) == 0
        store = load_store(out)
        assert len(store.ratings) == 120

    def test_min_votes_filter(self, tmp_path, reviews_file):
        all_out = tmp_path / "all.json"
        some_out = tmp_path / "some.json"
        main(["ingest", "--input", str(reviews_file), "--out", str(all_out)])
        main(["ingest", "--input", str(reviews_file), "--min-votes", "3",
              "--out", str(some_out)])
        assert len(load_store(some_out).ratings) < len(load_store(all_out).ratings)

    def test_malformed_lines_are_logged_and_counted(self, tmp_path, reviews_file, caplog):
        with reviews_file.open("a") as fh:
            fh.write('{"reviewerID": "U0001"\n')
            fh.write(json.dumps({"reviewerID": "U0001", "asin": "P00001", "overall": 7,
                                 "unixReviewTime": 1}) + "\n")
        caplog.set_level(logging.INFO, logger="dualrec")
        out = tmp_path / "store.json"
        assert main(["ingest", "--input", str(reviews_file), "--out", str(out)]) == 0
        assert len(load_store(out).ratings) == 120
        messages = [r.getMessage() for r in caplog.records]
        assert messages[:2] == ["line 121: invalid JSON",
                                "line 122: overall must be an integer in [1, 5]"]
        assert messages[2].startswith("ingested 120 records (2 skipped) -> ")

    @pytest.mark.parametrize("user", [b"U\xff2", b"U\\udcff2"], ids=["raw-byte", "json-escape"])
    def test_a_key_that_is_not_utf8_is_skipped_and_counted(self, tmp_path, caplog, user):
        # every later stage writes UTF-8, so reliability can write each row
        reviews, store = tmp_path / "reviews.jsonl", tmp_path / "store.json"
        reviews.write_bytes(b"".join(
            b'{"reviewerID": "%s", "asin": "P1", "overall": 4, "unixReviewTime": %d}\n' % (u, k)
            for k, u in enumerate([b"U1", user, b"U3"])))
        caplog.set_level(logging.INFO, logger="dualrec")
        assert main(["ingest", "--input", str(reviews), "--out", str(store)]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert messages[0] == "line 2: reviewerID is not valid UTF-8 text"
        assert messages[1].startswith("ingested 2 records (1 skipped) -> 2 users x 1 products")
        assert main(["reliability", "--store", str(store), "--out", str(tmp_path / "r.tsv"),
                     "--store-out", str(tmp_path / "scored.json")]) == 0
        assert len((tmp_path / "r.tsv").read_text(encoding="utf-8").splitlines()) == 3
        assert load_store(tmp_path / "scored.json").user_ids == ("U1", "U3")

    def test_a_byte_that_is_not_utf8_outside_a_key(self, tmp_path, caplog):
        # a field ingest never reads keeps its review; the JSON syntax is invalid JSON
        reviews = tmp_path / "reviews.jsonl"
        reviews.write_bytes(
            b'{"reviewerID": "U1", "asin": "P1", "overall": 4, "unixReviewTime": 1, '
            b'"summary": "caf\xe9 \xff"}\n'
            b'{"reviewerID": "U2", \xff"asin": "P1", "overall": 4, "unixReviewTime": 2}\n')
        caplog.set_level(logging.INFO, logger="dualrec")
        assert main(["ingest", "--input", str(reviews), "--out", str(tmp_path / "s.json")]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert messages[0] == "line 2: invalid JSON"
        assert messages[1].startswith("ingested 1 records (1 skipped) -> ")

    def test_a_leading_bom_is_dropped(self, tmp_path, reviews_file, caplog):
        with_bom = tmp_path / "bom.jsonl"
        with_bom.write_bytes(b"\xef\xbb\xbf" + reviews_file.read_bytes())
        caplog.set_level(logging.INFO, logger="dualrec")
        for path, out in ((reviews_file, "plain.json"), (with_bom, "bom.json")):
            assert main(["ingest", "--input", str(path), "--out", str(tmp_path / out)]) == 0
        assert [r.getMessage().split(" -> ")[0] for r in caplog.records] == [
            "ingested 120 records (0 skipped)"] * 2
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_missing_input(self, tmp_path):
        code = main(["ingest", "--input", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "s.json")])
        assert code == 1

    def test_store_with_out_of_range_entry_is_bad_store(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        store.write_text(json.dumps({
            "format": "dualrec-store", "version": 1, "n_users": 1, "n_products": 1,
            "users": ["u"], "products": ["p"], "entries": [[5, 7, 4, 0, 0, 1]],
            "reliability": [],
        }))
        code = main(["reliability", "--store", str(store), "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        assert "bad-store" in capsys.readouterr().err

    def test_store_without_entries_is_bad_store(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        store.write_text(json.dumps({
            "format": "dualrec-store", "version": 1, "n_users": 1, "n_products": 1,
            "users": ["u"], "products": ["p"], "reliability": [],
        }))
        code = main(["reliability", "--store", str(store), "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [bad-store]") and "Traceback" not in err, err

    @pytest.mark.parametrize("field, ids, rule", [
        ("users", ["u\t1"], "must hold no tab or line break"),
        ("products", ["p\n2"], "must hold no tab or line break"),
        ("users", ["k\udcff"], "must be valid UTF-8 text"),
        ("products", ["k\udcff"], "must be valid UTF-8 text"),
        ("users", [" u"], "must have no leading or trailing whitespace"),
        ("products", ["p\u00a0"], "must have no leading or trailing whitespace"),
    ], ids=["users-tab", "products-newline", "users-not-utf8", "products-not-utf8",
            "users-padded", "products-padded"])
    def test_store_with_a_bad_key_is_bad_store(self, tmp_path, capsys, field, ids, rule):
        # the TSV outputs split rows on tabs and line breaks and are written as UTF-8,
        # and predict strips each pairs line, so it could never name a padded key
        store = tmp_path / "store.json"
        store.write_text(json.dumps({
            "format": "dualrec-store", "version": 1, "n_users": 1, "n_products": 1,
            "users": ["u"], "products": ["p"], "entries": [[0, 0, 4, 0, 0, 1]],
            "reliability": [], field: ids,
        }))
        code = main(["reliability", "--store", str(store), "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        assert capsys.readouterr().err == (f"error [bad-store]: cannot read store {store}: "
                                           f"user and product ids {rule}\n")

    @pytest.mark.parametrize("with_copy", [False, True], ids=["json", "json-and-its-copy"])
    def test_store_rated_below_one_star_is_one_bad_store_line(self, tmp_path, capsys,
                                                              with_copy):
        # ingest skips such a review and predictions clamp at one star
        store = tmp_path / "store.json"
        store.write_text(json.dumps({
            "format": "dualrec-store", "version": 1, "n_users": 1, "n_products": 1,
            "users": ["u"], "products": ["p"], "entries": [[0, 0, 0.5, 0, 0, 1]],
            "reliability": [],
        }))
        if with_copy:  # the copy holds its own digest, so only its rules can refuse it
            ints = np.array([0])
            cols = {"user": ints, "product": ints, "raw": np.array([0.5]),
                    "raw_is_int": np.array([0.0]), "helpful_yes": ints, "votes_total": ints,
                    "unix_time": ints + 1, "reliability": np.array([math.nan])}
            unchecked = ingest_mod.InteractionStore(("u",), ("p",), **cols)
            meta = {"layout": ingest_mod.COPY_LAYOUT, "users": ["u"], "products": ["p"],
                    "sha256": ingest_mod._digest(store.read_bytes(), unchecked)}
            save_sections(copy_path(store), ingest_mod.COPY_KIND, meta, cols.items())
        line = error_line(capsys, ["reliability", "--store", str(store),
                                   "--out", str(tmp_path / "r.tsv")])
        assert line == (f"error [bad-store]: cannot read store {store}: "
                        "entry 0: raw rating must be a number in [1, 5], got 0.5")

    def test_input_file_not_mutated(self, tmp_path, reviews_file):
        before = reviews_file.read_bytes()
        main(["ingest", "--input", str(reviews_file), "--out", str(tmp_path / "s.json")])
        assert reviews_file.read_bytes() == before


class TestReliability:
    def test_rows_and_store_out(self, tmp_path, reviews_file):
        store_path = tmp_path / "store.json"
        rows = tmp_path / "rel.tsv"
        scored_path = tmp_path / "scored.json"
        main(["ingest", "--input", str(reviews_file), "--out", str(store_path)])
        code = main(["reliability", "--store", str(store_path), "--out", str(rows),
                     "--store-out", str(scored_path)])
        assert code == 0
        lines = rows.read_text().strip().split("\n")
        header, body = lines[0], lines[1:]
        assert header.split("\t") == ["user", "product", "h", "most", "top", "d", "rel", "label"]
        assert len(body) == 120
        assert all(line.split("\t")[-1] in ("reliable", "not-reliable") for line in body)
        scored_store = load_store(scored_path)
        assert set(scored(scored_store)) == set(rated(scored_store))

    def test_threads_do_not_change_output(self, tmp_path, reviews_file):
        store_path = tmp_path / "store.json"
        main(["ingest", "--input", str(reviews_file), "--out", str(store_path)])
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        main(["reliability", "--store", str(store_path), "--out", str(a)])
        main(["reliability", "--store", str(store_path), "--out", str(b),
              "--threads", "4"])
        assert a.read_bytes() == b.read_bytes()

    def test_deterministic_flag_is_gone(self, tmp_path, reviews_file):
        store_path = tmp_path / "store.json"
        main(["ingest", "--input", str(reviews_file), "--out", str(store_path)])
        code = main(["reliability", "--store", str(store_path),
                     "--out", str(tmp_path / "r.tsv"), "--deterministic"])
        assert code == 2

    def test_bad_alpha_rejected(self, tmp_path, reviews_file):
        store_path = tmp_path / "store.json"
        main(["ingest", "--input", str(reviews_file), "--out", str(store_path)])
        code = main(["reliability", "--store", str(store_path),
                     "--out", str(tmp_path / "r.tsv"), "--alpha", "2.0"])
        assert code == 1

    @pytest.mark.parametrize("store", ["empty.json", "missing.json"])
    @pytest.mark.parametrize("flag, value", [("alpha", "7"), ("threshold", "nan")])
    def test_settings_checked_before_the_store_is_read(self, tmp_path, capsys, store, flag,
                                                       value):
        save_store(_make_store([], [], []), tmp_path / "empty.json")
        argv = ["reliability", "--store", str(tmp_path / store), "--out", str(tmp_path / "r.tsv"),
                f"--{flag}", value]
        assert error_line(capsys, argv) == (
            f"error [bad-args]: {flag} must be in [0, 1], got {float(value)}")
        assert not (tmp_path / "r.tsv").exists()


def run_pipeline(tmp_path, seed="7", epochs="2", flags=None, run=main):
    """ingest -> reliability -> pretrain x2 -> train -> evaluate; ``flags``
    maps a command to extra arguments it gets, such as training flags, and
    ``run`` runs each command's argv and returns its exit code."""
    reviews = write_reviews(tmp_path / "reviews.jsonl", seed=int(seed))
    store = tmp_path / "store.json"
    scored = tmp_path / "scored.json"
    mf = tmp_path / "mf.ckpt"
    mlp = tmp_path / "mlp.ckpt"
    fused = tmp_path / "fused.ckpt"
    report = tmp_path / "report.txt"
    tsv = tmp_path / "report.tsv"
    steps = [
        ["ingest", "--input", str(reviews), "--out", str(store)],
        ["reliability", "--store", str(store), "--out", str(tmp_path / "rel.tsv"),
         "--store-out", str(scored)],
        ["pretrain-mf", "--store", str(scored), "--out", str(mf), "--k", "3",
         "--tower", "6,2", "--epochs", epochs, "--seed", seed],
        ["pretrain-mlp", "--store", str(scored), "--out", str(mlp), "--k", "3",
         "--tower", "6,2", "--epochs", epochs, "--seed", seed],
        ["train", "--store", str(scored), "--mf", str(mf), "--mlp", str(mlp),
         "--gamma", "0.5", "--epochs", epochs, "--seed", seed, "--out", str(fused)],
        ["evaluate", "--store", str(scored), "--model", str(fused),
         "--out", str(report), "--tsv", str(tsv)],
    ]
    for argv in steps:
        argv += (flags or {}).get(argv[0], [])
        assert run(argv) == 0, argv
    return [tmp_path / name for name in
            ("store.json", "rel.tsv", "scored.json", "mf.ckpt", "mlp.ckpt",
             "fused.ckpt", "report.txt", "report.tsv")]


def sweep_config(tmp_path):
    """A small synthetic sweep config, written to ``tmp_path``."""
    config = {
        "data": {"synthetic": {
            "n_users": 12, "n_products": 10, "true_rank": 2,
            "observation_density": 0.6, "noise_std": 0.05, "seed": 3,
        }},
        "split": {"folds": 1, "seed": 0},
        "model": {"latent_dim": 2, "tower": [4, 2], "epochs_mf": 1,
                  "epochs_mlp": 1, "epochs_fusion": 1, "batch_size": 32},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return cfg


class TestPipeline:
    def test_full_pipeline_and_reports(self, tmp_path):
        files = run_pipeline(tmp_path)
        report = (tmp_path / "report.txt").read_text()
        assert "rmse\t" in report and "ndcg\t" in report
        for path in files:
            assert path.exists() and path.stat().st_size > 0

    def test_predict_with_unknown_keys(self, tmp_path):
        run_pipeline(tmp_path)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("U0001\tP00001\nGHOST\tP00001\n")
        out = tmp_path / "preds.tsv"
        code = main(["predict", "--model", str(tmp_path / "fused.ckpt"),
                     "--store", str(tmp_path / "scored.json"),
                     "--pairs", str(pairs), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        known = float(lines[0].split("\t")[2])
        ghost = float(lines[1].split("\t")[2])
        assert 1.0 <= known <= 5.0
        store = load_store(tmp_path / "scored.json")
        assert abs(ghost - store.global_mean_raw()) < 1e-9

    def test_sweep_writes_summary(self, tmp_path):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--config", str(sweep_config(tmp_path)), "--train-fracs", "0.5,0.7",
                     "--out-dir", str(out_dir)])
        assert code == 0
        summary = (out_dir / "summary.tsv").read_text().strip().split("\n")
        assert summary[0].startswith("train_frac\t")
        assert len(summary) == 3
        assert (out_dir / "report_50.txt").exists()
        assert (out_dir / "report_70.txt").exists()

    @pytest.mark.parametrize("fracs, want", [
        ("0.5,0.5", "0.5 and 0.5 would both write report_50.txt"),
        ("0.5,0.7,0.504", "0.5 and 0.504 would both write report_50.txt"),
    ], ids=["repeated", "same-report-name"])
    def test_sweep_refuses_fractions_that_share_a_report(self, tmp_path, capsys, fracs, want):
        cfg = sweep_config(tmp_path)
        argv = ["sweep", "--config", str(cfg), "--train-fracs", fracs,
                "--out-dir", str(tmp_path / "sweep")]
        assert error_line(capsys, argv) == f"error [bad-args]: --train-fracs {want}"
        assert list(tmp_path.iterdir()) == [cfg]  # refused before the first run

    def test_sweep_scores_an_unscored_store_with_the_config_alpha(self, tmp_path,
                                                                  reviews_file):
        store, scored_store = tmp_path / "store.json", tmp_path / "scored.json"
        assert main(["ingest", "--input", str(reviews_file), "--out", str(store)]) == 0
        assert main(["reliability", "--store", str(store), "--out", str(tmp_path / "r.tsv"),
                     "--alpha", "0.3", "--store-out", str(scored_store)]) == 0
        summaries = {}
        for name, path, alpha in (("unscored", store, 0.3), ("scored", scored_store, 0.5),
                                  ("default", store, 0.5)):
            config = tmp_path / f"{name}-config.json"
            config.write_text(json.dumps({
                "data": {"store": str(path)}, "split": {"folds": 1, "seed": 0},
                "model": {"latent_dim": 2, "tower": [4, 2], "epochs_mf": 3, "epochs_mlp": 1,
                          "epochs_fusion": 1, "batch_size": 32, "lr": 0.05},
                "reliability": {"alpha": alpha}}))
            out_dir = tmp_path / name
            assert main(["sweep", "--config", str(config), "--train-fracs", "0.6",
                         "--out-dir", str(out_dir)]) == 0
            summaries[name] = (out_dir / "summary.tsv").read_bytes()
        # a scored store keeps its scores; an unscored one is scored at the config's alpha
        assert summaries["unscored"] == summaries["scored"] != summaries["default"]

    def test_a_sweep_reads_and_scores_its_store_once(self, tmp_path, reviews_file, monkeypatch):
        store = tmp_path / "store.json"
        assert main(["ingest", "--input", str(reviews_file), "--out", str(store)]) == 0
        calls = []
        for module, name in ((ingest_mod, "load_store"), (reliability_mod, "score_store")):
            def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {"store": str(store)}, "split": {"folds": 1, "seed": 0},
            "model": {"latent_dim": 2, "tower": [4, 2], "epochs_mf": 1, "epochs_mlp": 1,
                      "epochs_fusion": 1, "batch_size": 32}}))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        assert len((out_dir / "summary.tsv").read_text().splitlines()) == 5  # four fractions
        assert calls == ["load_store", "score_store"]

    @pytest.mark.parametrize("data, want", [
        # the category held before the CLI opened data.store; the line and order are new
        ({"store": "{t}/missing.json"},
         "error [input-not-found]: store not found: {t}/missing.json"),
        ({"store": "{t}/corrupt.json"},
         "error [bad-store]: cannot read store {t}/corrupt.json: {t}/corrupt.json: "
         "not a dualrec-store file"),
        ({"store": "{t}/empty.json"}, "error [bad-store]: store {t}/empty.json has no ratings"),
        ({}, "error [bad-config]: config {t}/config.json names no data.store or data.synthetic"),
        # the default fractions split 5 ratings at 0.4 to 0.6, not at 0.7
        ({"store": "{t}/five.json"},
         "error [bad-args]: insufficient data: 5 interactions split as (4, 1, 0)"),
    ], ids=["missing", "corrupt", "no-ratings", "no-data", "too-few-for-a-fraction"])
    def test_sweep_data_is_opened_as_a_store_flag_before_the_out_dir(self, tmp_path, capsys,
                                                                     data, want):
        (tmp_path / "corrupt.json").write_text('{"format": "x"}')
        save_store(_make_store(["u"], ["p"], []), tmp_path / "empty.json")
        save_store(_make_store([f"u{i}" for i in range(5)], ["p"],
                               [(i, 0, 4, 0, 0, i) for i in range(5)]), tmp_path / "five.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": {k: v.format(t=tmp_path) for k, v in data.items()},
                                      "split": {"folds": 1}}))
        before = sorted(tmp_path.iterdir())
        line = error_line(capsys, ["sweep", "--config", str(config),
                                   "--out-dir", str(tmp_path / "out")])
        assert line == want.format(t=tmp_path)
        assert sorted(tmp_path.iterdir()) == before  # no --out-dir

    @pytest.mark.parametrize("write", [
        lambda path: path.write_bytes(b"DUALREC\x00" + bytes(7)),  # 15 bytes: no fixed header
        lambda path: save_sections(path, "fusion", {}, [("w", [1.0])]),  # no model sections
        lambda path: path.write_bytes(container(None, b"", b"[" * 100_000 + b"]" * 100_000)),
    ], ids=["truncated", "missing-sections", "header-nested-too-deeply"])
    def test_malformed_checkpoint_is_bad_store(self, tmp_path, reviews_file, capsys, write):
        store = tmp_path / "store.json"
        model = tmp_path / "fused.ckpt"
        assert main(["ingest", "--input", str(reviews_file), "--out", str(store)]) == 0
        write(model)
        capsys.readouterr()
        code = main(["evaluate", "--store", str(store), "--model", str(model),
                     "--out", str(tmp_path / "report.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad-store" in err and "Traceback" not in err

    def test_split_table_checkpoints_are_bad_store(self, tmp_path, capsys):
        from test_checkpoint import split_tables

        run_pipeline(tmp_path)
        scored, mf, mlp, fused = (str(tmp_path / name) for name in
                                  ("scored.json", "mf.ckpt", "mlp.ckpt", "fused.ckpt"))
        split_tables(mlp)
        split_tables(fused)
        capsys.readouterr()
        for argv in (["train", "--store", scored, "--mf", mf, "--mlp", mlp,
                      "--out", str(tmp_path / "again.ckpt")],
                     ["evaluate", "--store", scored, "--model", fused,
                      "--out", str(tmp_path / "again.txt")]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error [bad-store]") and "Traceback" not in err, err


    def test_fused_head_narrower_than_its_tower_is_one_bad_store_line(self, tmp_path, capsys):
        from test_checkpoint import edited, narrowed_head

        run_pipeline(tmp_path)
        fused = tmp_path / "fused.ckpt"
        edited(fused, narrowed_head(1))
        line = error_line(capsys, ["evaluate", "--store", str(tmp_path / "scored.json"),
                                   "--model", str(fused), "--out", str(tmp_path / "again.txt")])
        assert line.startswith(f"error [bad-store]: cannot read model {fused}: {fused}: bad "
                               "fusion checkpoint meta: ValueError('predictive_dim 1 differs "
                               "from the last tower width 2')"), line

    def test_fused_global_mean_below_one_star_is_one_bad_store_line(self, tmp_path, capsys):
        from test_checkpoint import edited

        run_pipeline(tmp_path)
        fused = tmp_path / "fused.ckpt"
        edited(fused, lambda meta, arrays: meta.update(global_mean=0.5))
        line = error_line(capsys, ["evaluate", "--store", str(tmp_path / "scored.json"),
                                   "--model", str(fused), "--out", str(tmp_path / "again.txt")])
        assert line == (f"error [bad-store]: cannot read model {fused}: {fused}: fusion meta "
                        "needs a gamma in [0, 1] and a global_mean in [1, 5], got 0.5 and 0.5")

    def test_fused_meta_without_gamma_is_bad_store(self, tmp_path, capsys):
        from test_checkpoint import edited

        run_pipeline(tmp_path)
        fused = tmp_path / "fused.ckpt"
        edited(fused, lambda meta, arrays: meta.update(gamma=None))
        capsys.readouterr()
        code = main(["evaluate", "--store", str(tmp_path / "scored.json"), "--model",
                     str(fused), "--out", str(tmp_path / "again.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [bad-store]") and "Traceback" not in err, err


class TestDeterminismAndSmoke:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["reliability", "--help"]) == 0

    def test_synth_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["synth", "--users", "20", "--products", "15", "--rank", "2",
                "--seed", "3", "--out"]
        main(argv + [str(a)])
        main(argv + [str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_fallback_helpful_max_changes_scores(self, tmp_path, reviews_file):
        store_path = tmp_path / "store.json"
        main(["ingest", "--input", str(reviews_file), "--out", str(store_path)])
        plain, fallback = tmp_path / "plain.tsv", tmp_path / "fallback.tsv"
        main(["reliability", "--store", str(store_path), "--out", str(plain)])
        main(["reliability", "--store", str(store_path), "--out", str(fallback),
              "--fallback-helpful-max"])
        assert plain.read_bytes() != fallback.read_bytes()

    def test_synthetic_pipeline_completes_quickly(self, tmp_path):
        import time

        started = time.perf_counter()
        store = tmp_path / "store.json"
        mf = tmp_path / "mf.ckpt"
        mlp = tmp_path / "mlp.ckpt"
        fused = tmp_path / "fused.ckpt"
        report = tmp_path / "report.txt"
        steps = [
            ["synth", "--users", "50", "--products", "40", "--rank", "2",
             "--seed", "7", "--out", str(store)],
            ["pretrain-mf", "--store", str(store), "--out", str(mf),
             "--k", "4", "--tower", "8,4", "--epochs", "12", "--seed", "7"],
            ["pretrain-mlp", "--store", str(store), "--out", str(mlp),
             "--k", "4", "--tower", "8,4", "--epochs", "12", "--seed", "7"],
            ["train", "--store", str(store), "--mf", str(mf), "--mlp", str(mlp),
             "--epochs", "12", "--seed", "7", "--out", str(fused)],
            ["evaluate", "--store", str(store), "--model", str(fused),
             "--out", str(report)],
        ]
        for argv in steps:
            assert main(argv) == 0, argv
        elapsed = time.perf_counter() - started
        assert report.exists()
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Directory with a synthetic store, default-shaped branch checkpoints,
    MF checkpoints of head width 6 and of latent size 4 and a fused
    checkpoint; and a store of 16 users with an MLP checkpoint of its own."""
    d = tmp_path_factory.mktemp("trained")
    for argv in ("synth --users 12 --products 10 --seed 4 --out {d}/store.json",
                 "synth --users 16 --products 10 --seed 5 --out {d}/store16.json",
                 "pretrain-mlp --store {d}/store16.json --out {d}/mlp16.ckpt --epochs 1",
                 "pretrain-mf --store {d}/store.json --out {d}/mf.ckpt --epochs 1",
                 "pretrain-mf --store {d}/store.json --out {d}/mf6.ckpt --epochs 1 --tower 6",
                 "pretrain-mf --store {d}/store.json --out {d}/mf4.ckpt --epochs 1 --k 4 --tower 8",
                 "pretrain-mlp --store {d}/store.json --out {d}/mlp.ckpt --epochs 1",
                 "train --store {d}/store.json --mf {d}/mf.ckpt --mlp {d}/mlp.ckpt "
                 "--epochs 1 --out {d}/fused.ckpt"):
        assert main(argv.format(d=d).split()) == 0, argv
    return d


def error_line(capsys, argv) -> str:
    """The one line a failing command prints to stderr, after its exit code 1."""
    capsys.readouterr()
    assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert "Traceback" not in err, err
    (line,) = [line for line in err.splitlines() if line.startswith("error [")]
    return line


class TestErrorCategories:
    @pytest.mark.parametrize("argv, want", [
        ("pretrain-mf --store {d}/store.json --out {d}/x.ckpt --lr 1e200",
         "error [training-diverged]: mf-rating training diverged at epoch 1: loss=nan"),
        ("pretrain-mlp --store {d}/store.json --out {d}/x.ckpt --lr 1e200",
         "error [training-diverged]: mlp training diverged at epoch 1: loss=nan"),
        ("train --store {d}/store.json --mf {d}/mf.ckpt --mlp {d}/mlp.ckpt --lr 1e200 "
         "--out {d}/x.ckpt",
         "error [training-diverged]: fusion training diverged at epoch 1: loss=nan"),
        ("pretrain-mf --store {d}/store.json --out {d}/x.ckpt --epochs 1 --lr 1e200",
         "error [training-diverged]: mf-rating training diverged at epoch 0: loss=nan"),
        ("pretrain-mlp --store {d}/store.json --out {d}/x.ckpt --epochs 1 --lr 1e200",
         "error [training-diverged]: mlp training diverged at epoch 0: loss=nan"),
        ("pretrain-mlp --store {d}/store.json --out {d}/x.ckpt --tower 40,8",
         "error [bad-args]: tower widths must be non-increasing from 16, got [40, 8]"),
        ("train --store {d}/store.json --mf {d}/mf6.ckpt --mlp {d}/mlp.ckpt --out {d}/x.ckpt",
         "error [bad-args]: branch head widths differ: mf=6, mlp=8"),
        ("train --store {d}/store.json --mf {d}/mf4.ckpt --mlp {d}/mlp.ckpt --out {d}/x.ckpt",
         "error [bad-args]: branch latent sizes differ: mf=4, mlp=8"),
        ("train --store {d}/store.json --mf {d}/mf.ckpt --out {d}/x.ckpt",
         "error [bad-args]: --mf and --mlp must be given together"),
        ("synth --users 5 --products 5 --rank 9 --out {d}/x.json",
         "error [bad-args]: true_rank exceeds the smaller dimension"),
        ("synth --users 20 --products 15 --noise -0.5 --out {d}/x.json",
         "error [bad-args]: noise_std must be a finite number >= 0, got -0.5"),
        ("synth --users 20 --products 15 --noise nan --out {d}/x.json",
         "error [bad-args]: noise_std must be a finite number >= 0, got nan"),
        ("synth --users 20 --products 15 --noise inf --out {d}/x.json",
         "error [bad-args]: noise_std must be a finite number >= 0, got inf"),
        ("reliability --store {d}/store.json --out {d}/x.tsv --alpha 2",
         "error [bad-args]: alpha must be in [0, 1], got 2.0"),
        ("pretrain-mlp --store {d}/store.json --out {d}/x.ckpt --batch-size -5",
         "error [bad-args]: batch_size must be an integer >= 1, got -5"),
        ("pretrain-mlp --store {d}/store.json --out {d}/x.ckpt --batch-size 0",
         "error [bad-args]: batch_size must be an integer >= 1, got 0"),
        ("pretrain-mlp --store {d}/store.json --out {d}/x.ckpt --epochs -3",
         "error [bad-args]: epochs must be an integer >= 0, got -3"),
        ("pretrain-mlp --store {d}/store.json --out {d}/x.ckpt --lr -1",
         "error [bad-args]: lr must be a finite number >= 0, got -1.0"),
        ("pretrain-mf --store {d}/store.json --out {d}/x.ckpt --tower 0",
         "error [bad-args]: tower widths must be >= 1, got [0]"),
        ("pretrain-mlp --store {d}/store.json --out {d}/x.ckpt --k 0",
         "error [bad-args]: latent_dim must be >= 1"),
    ], ids=["mf-diverges", "mlp-diverges", "fusion-diverges", "mf-diverges-last-epoch",
            "mlp-diverges-last-epoch", "widening-tower", "head-widths-differ",
            "latent-sizes-differ", "mf-without-mlp", "rank-too-large", "negative-noise",
            "nan-noise", "infinite-noise", "alpha-too-large",
            "negative-batch-size", "zero-batch-size", "negative-epochs", "negative-lr",
            "zero-head-width", "zero-latent-dim"])
    def test_command_error_line(self, trained, capsys, argv, want):
        assert error_line(capsys, argv.format(d=trained).split()) == want
        assert not (trained / "x.ckpt").exists()
        # the error line is all a failing command prints: no numpy warnings
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main(argv.format(d=trained).split()) == 1
        assert [str(w.message) for w in seen] == []
        assert capsys.readouterr().err == want + "\n"

    @pytest.mark.parametrize("argv, category", [
        ("reliability --store {d} --out {d}/x.tsv", "input-not-found"),
        ("pretrain-mf --store {d} --out {d}/x.ckpt", "input-not-found"),
        ("train --store {d}/store.json --val-store {d} --out {d}/x.ckpt", "input-not-found"),
        ("evaluate --store {d}/store.json --model {d} --out {d}/x.txt", "input-not-found"),
        ("train --store {d}/store.json --config {d} --out {d}/x.ckpt", "config-not-found"),
        ("ingest --input {d} --out {d}/x.json", "input-not-found"),
        ("predict --store {d}/store.json --model {d}/fused.ckpt --pairs {d} --out {d}/x.tsv",
         "input-not-found"),
    ], ids=["reliability-store", "pretrain-store", "train-val-store", "evaluate-model",
            "train-config", "ingest-input", "predict-pairs"])
    def test_directory_input_is_categorized(self, trained, capsys, argv, category):
        line = error_line(capsys, argv.format(d=trained).split())
        assert line.startswith(f"error [{category}]: "), line

    @pytest.mark.parametrize("argv, flag", [
        ("ingest --input {d}/reviews.jsonl --out {d}", "--out"),
        ("reliability --store {d}/store.json --out {d}", "--out"),
        ("reliability --store {d}/store.json --out {t}/x.tsv --store-out {d}", "--store-out"),
        ("pretrain-mf --store {d}/store.json --out {d} --epochs 1", "--out"),
        ("pretrain-mlp --store {d}/store.json --out {d} --epochs 1", "--out"),
        ("train --store {d}/store.json --mf {d}/mf.ckpt --mlp {d}/mlp.ckpt --out {d}", "--out"),
        ("evaluate --store {d}/store.json --model {d}/fused.ckpt --out {d}", "--out"),
        ("evaluate --store {d}/store.json --model {d}/fused.ckpt --out {t}/x.txt --tsv {d}",
         "--tsv"),
        ("predict --store {d}/store.json --model {d}/fused.ckpt --pairs {t}/pairs.tsv "
         "--out {d}", "--out"),
        ("synth --users 5 --products 5 --out {d}", "--out"),
    ], ids=["ingest", "reliability", "reliability-store-out", "pretrain-mf", "pretrain-mlp",
            "train", "evaluate", "evaluate-tsv", "predict", "synth"])
    def test_directory_output_is_categorized(self, trained, tmp_path, capsys, argv, flag):
        write_reviews(trained / "reviews.jsonl")
        (tmp_path / "pairs.tsv").write_text("U0000\tP00000\n")
        line = error_line(capsys, argv.format(d=trained, t=tmp_path).split())
        assert line == f"error [bad-args]: {flag} names a directory: {trained}"
        assert list(tmp_path.iterdir()) == [tmp_path / "pairs.tsv"]  # nothing else written

    @pytest.mark.parametrize("with_config", [False, True], ids=["config-missing", "config"])
    def test_sweep_out_dir_naming_a_file_is_refused_first(self, tmp_path, capsys, with_config):
        config = sweep_config(tmp_path) if with_config else tmp_path / "missing.json"
        out = tmp_path / "out"
        out.write_text("")
        before = sorted(tmp_path.iterdir())
        argv = ["sweep", "--config", str(config), "--out-dir", str(out)]
        assert error_line(capsys, argv) == f"error [bad-args]: --out-dir names a file: {out}"
        assert sorted(tmp_path.iterdir()) == before and out.read_text() == ""

    @pytest.mark.parametrize("argv, flag", [
        ("synth --users 5 --products 5 --out {f}/x.json", "--out"),
        ("ingest --input {t}/missing.jsonl --out {f}/x.json", "--out"),
        ("reliability --store {t}/missing.json --out {t}/b.tsv --store-out {f}/sub/s.json",
         "--store-out"),
        ("evaluate --store {t}/missing.json --model {t}/missing.ckpt --out {t}/r.txt "
         "--tsv {f}/r.tsv", "--tsv"),
        ("sweep --config {t}/missing.json --out-dir {f}/sub", "--out-dir"),
        ("sweep --config {t}/missing.json --out-dir {f}/sub/deeper", "--out-dir"),
    ], ids=["synth", "ingest", "reliability-store-out", "evaluate-tsv", "sweep", "sweep-deeper"])
    def test_an_output_under_a_file_is_refused_first(self, tmp_path, capsys, argv, flag):
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = argv.format(t=tmp_path, f=afile).split()
        path = argv[argv.index(flag) + 1]
        want = f"error [bad-args]: {flag} {path} lies under a file: {afile}"
        assert error_line(capsys, argv) == want
        assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == ""

    @pytest.mark.parametrize("argv, flag", [
        ("synth --users 5 --products 5 --out {t}/nodir/x.json", "--out"),
        ("ingest --input {t}/missing.jsonl --out {t}/nodir/x.json", "--out"),
        ("reliability --store {t}/missing.json --out {t}/nodir/b.tsv", "--out"),
        ("pretrain-mf --store {t}/missing.json --out {t}/nodir/mf.ckpt", "--out"),
        ("evaluate --store {t}/missing.json --model {t}/missing.ckpt --out {t}/r.txt "
         "--tsv {t}/nodir/r.tsv", "--tsv"),
        ("predict --store {t}/missing.json --model {t}/missing.ckpt --pairs {t}/missing.tsv "
         "--out {t}/nodir/p.tsv", "--out"),
    ], ids=["synth", "ingest", "reliability", "pretrain-mf", "evaluate-tsv", "predict"])
    def test_an_output_in_a_missing_directory_is_refused_first(self, tmp_path, capsys, argv,
                                                               flag):
        argv = argv.format(t=tmp_path).split()
        path = argv[argv.index(flag) + 1]
        want = f"error [bad-args]: {flag} {path}: no such directory: {tmp_path / 'nodir'}"
        assert error_line(capsys, argv) == want
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, want", [
        ("pretrain-mlp --tower 8,x", "--tower takes comma-separated integers, got '8,x'"),
        ("pretrain-mlp --tower ,", "--tower takes comma-separated integers, got ','"),
        ("evaluate --model {t}/missing.ckpt --cutoffs 5,x",
         "--cutoffs takes comma-separated integers, got '5,x'"),
        ("evaluate --model {t}/missing.ckpt --cutoffs 0", "--cutoffs: cutoff must be >= 1, got 0"),
        ("sweep --config {t}/missing.json --train-fracs 0.5,a",
         "--train-fracs takes comma-separated numbers, got '0.5,a'"),
        ("sweep --config {t}/missing.json --train-fracs 0.5,inf",
         "--train-fracs: training fraction must be in (0, 1), got inf"),
        ("sweep --config {t}/missing.json --train-fracs nan",
         "--train-fracs: training fraction must be in (0, 1), got nan"),
        ("sweep --config {t}/missing.json --train-fracs 0.5,1",
         "--train-fracs: training fraction must be in (0, 1), got 1.0"),
    ], ids=["tower-word", "tower-empty", "cutoffs-word", "cutoffs-zero", "train-fracs-word",
            "train-fracs-inf", "train-fracs-nan", "train-fracs-one"])
    def test_list_flag_is_checked_before_any_file_is_read(self, tmp_path, capsys, argv, want):
        command, *flags = argv.format(t=tmp_path).split()
        files = {"pretrain-mlp": "--store {t}/missing.json --out {t}/x.ckpt",
                 "evaluate": "--store {t}/missing.json --out {t}/x.txt",
                 "sweep": "--out-dir {t}/out"}[command].format(t=tmp_path).split()
        assert error_line(capsys, [command, *files, *flags]) == f"error [bad-args]: {want}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, want", [
        ("pretrain-mf --store {t}/missing.json --out {t}/x.ckpt --reg-lambda nan",
         "reg_lambda must be a finite number >= 0, got nan"),
        ("pretrain-mf --store {t}/missing.json --out {t}/x.ckpt --reg-lambda inf",
         "reg_lambda must be a finite number >= 0, got inf"),
        ("pretrain-mf --store {t}/missing.json --out {t}/x.ckpt --reg-lambda -1",
         "reg_lambda must be a finite number >= 0, got -1.0"),
        ("evaluate --store {t}/missing.json --model {t}/missing.ckpt --out {t}/x.txt "
         "--threshold nan",
         "threshold must be a finite number, got nan"),
        ("evaluate --store {t}/missing.json --model {t}/missing.ckpt --out {t}/x.txt "
         "--threshold inf",
         "threshold must be a finite number, got inf"),
        ("evaluate --store {t}/missing.json --model {t}/missing.ckpt --out {t}/x.txt "
         "--threshold=-inf",
         "threshold must be a finite number, got -inf"),
        ("pretrain-mf --store {t}/missing.json --out {t}/x.ckpt --k 0",
         "latent_dim must be >= 1"),
        ("pretrain-mlp --store {t}/missing.json --out {t}/x.ckpt --k 0",
         "latent_dim must be >= 1"),
        ("pretrain-mf --store {t}/missing.json --out {t}/x.ckpt --tower 0",
         "tower widths must be >= 1, got [0]"),
        ("pretrain-mlp --store {t}/missing.json --out {t}/x.ckpt --tower 0",
         "tower widths must be >= 1, got [0]"),
        ("pretrain-mlp --store {t}/missing.json --out {t}/x.ckpt --tower 8,16",
         "tower widths must be non-increasing from 16, got [8, 16]"),
        ("pretrain-mf --store {t}/missing.json --out {t}/x.ckpt --k 4",
         "tower widths must be non-increasing from 8, got [16, 8]"),
    ], ids=["reg-lambda-nan", "reg-lambda-inf", "reg-lambda-negative", "threshold-nan",
            "threshold-inf", "threshold-minus-inf", "latent-dim-zero-mf", "latent-dim-zero-mlp",
            "head-width-zero-mf", "tower-zero-mlp", "widening-tower-mlp",
            "default-tower-too-wide-for-k-mf"])
    def test_a_number_setting_is_checked_before_any_file_is_read(self, tmp_path, capsys, argv,
                                                                 want):
        line = error_line(capsys, argv.format(t=tmp_path).split())
        assert line == f"error [bad-args]: {want}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, want", [
        ("train --store {d}/store16.json --mf {d}/mf.ckpt --mlp {d}/mlp.ckpt --out {t}/x",
         "model {d}/mf.ckpt has 12 users x 10 products, store {d}/store16.json has 16 x 10"),
        ("train --store {d}/store.json --mf {d}/mf.ckpt --mlp {d}/mlp16.ckpt --out {t}/x",
         "model {d}/mlp16.ckpt has 16 users x 10 products, store {d}/store.json has 12 x 10"),
        ("evaluate --store {d}/store16.json --model {d}/fused.ckpt --out {t}/x",
         "model {d}/fused.ckpt has 12 users x 10 products, store {d}/store16.json has 16 x 10"),
        ("predict --store {d}/store16.json --model {d}/fused.ckpt --pairs {t}/pairs.tsv "
         "--out {t}/x",
         "model {d}/fused.ckpt has 12 users x 10 products, store {d}/store16.json has 16 x 10"),
        ("pretrain-mf --store {d}/store.json --val-store {d}/store16.json --out {t}/x",
         "--val-store {d}/store16.json has 16 users x 10 products, store {d}/store.json has "
         "12 x 10"),
    ], ids=["train-both-branches", "train-one-branch", "evaluate", "predict", "val-store"])
    def test_model_that_does_not_fit_the_store_is_refused_first(self, trained, tmp_path,
                                                                 capsys, argv, want):
        (tmp_path / "pairs.tsv").write_text("u0\tp0\n")
        line = error_line(capsys, argv.format(d=trained, t=tmp_path).split())
        assert line == "error [bad-store]: " + want.format(d=trained)
        assert list(tmp_path.iterdir()) == [tmp_path / "pairs.tsv"]  # nothing written

    @pytest.mark.parametrize("argv", [
        "pretrain-mf --store {t}/empty.json --out {t}/x.ckpt",
        "pretrain-mlp --store {t}/empty.json --out {t}/x.ckpt",
        "train --store {t}/empty.json --mf {t}/missing.ckpt --mlp {t}/missing.ckpt --out {t}/x",
        "train --store {t}/empty.json --out {t}/x.ckpt",
        "evaluate --store {t}/empty.json --model {t}/missing.ckpt --out {t}/x.txt",
    ], ids=["pretrain-mf", "pretrain-mlp", "train-branches", "train", "evaluate"])
    def test_a_store_without_ratings_is_refused_before_any_model(self, trained, tmp_path,
                                                                 capsys, argv):
        save_store(restrict(load_store(trained / "store.json"), []), tmp_path / "empty.json")
        before = sorted(tmp_path.iterdir())
        line = error_line(capsys, argv.format(t=tmp_path).split())
        assert line == f"error [bad-store]: store {tmp_path}/empty.json has no ratings"
        assert sorted(tmp_path.iterdir()) == before  # nothing written

    def test_a_store_without_ratings_still_serves_where_no_rating_is_read(self, trained,
                                                                         tmp_path):
        save_store(restrict(load_store(trained / "store.json"), []), tmp_path / "empty.json")
        (tmp_path / "pairs.tsv").write_text("u0\tp0\n")
        for argv in ("reliability --store {t}/empty.json --out {t}/rel.tsv",
                     "predict --store {t}/empty.json --model {d}/fused.ckpt "
                     "--pairs {t}/pairs.tsv --out {t}/preds.tsv",
                     "pretrain-mf --store {d}/store.json --val-store {t}/empty.json "
                     "--epochs 1 --out {t}/mf.ckpt"):
            assert main(argv.format(d=trained, t=tmp_path).split()) == 0, argv
        assert (tmp_path / "rel.tsv").read_text() == "user\tproduct\th\tmost\ttop\td\trel\tlabel\n"

    @pytest.mark.parametrize("argv, model, sections", [
        ("train --store {d}/store.json --mf {t}/mf.ckpt --mlp {d}/mlp.ckpt --out {t}/x",
         "mf.ckpt", ["proj_joint"]),
        ("train --store {d}/store.json --mf {d}/mf.ckpt --mlp {t}/mlp.ckpt --out {t}/x",
         "mlp.ckpt", ["user_emb"]),
        ("evaluate --store {d}/store.json --model {t}/fused.ckpt --out {t}/x",
         "fused.ckpt", ["mlp/user_emb", "concat_w"]),
        ("predict --store {d}/store.json --model {t}/fused.ckpt --pairs {t}/pairs.tsv "
         "--out {t}/x", "fused.ckpt", ["mlp/user_emb", "concat_w"]),
    ], ids=["train-mf-branch", "train-mlp-branch", "evaluate", "predict"])
    def test_non_finite_weights_are_bad_store(self, trained, tmp_path, capsys, argv, model,
                                              sections):
        from test_checkpoint import edited, poisoned

        (tmp_path / "pairs.tsv").write_text("u0\tp0\n")
        for name, values in (("mf.ckpt", {"proj_joint": math.nan}),
                             ("mlp.ckpt", {"user_emb": math.inf}),
                             ("fused.ckpt", {"concat_w": math.nan, "mlp/user_emb": math.inf})):
            shutil.copy(trained / name, tmp_path / name)
            edited(tmp_path / name, poisoned(**values))
        line = error_line(capsys, argv.format(d=trained, t=tmp_path).split())
        path = tmp_path / model
        assert line == (f"error [bad-store]: cannot read model {path}: {path}: "
                        f"sections {sections} hold NaN or infinite values")
        assert not (tmp_path / "x").exists()

    def test_repeated_checkpoint_section_is_bad_store(self, trained, tmp_path, capsys):
        import math

        from test_checkpoint import container, split_container

        header, payload = split_container((trained / "fused.ckpt").read_bytes())
        last = header["sections"][-1]
        header["sections"].append(last)  # the last section again, payload and all
        model = tmp_path / "fused.ckpt"
        model.write_bytes(container(header, payload + payload[-8 * math.prod(last["shape"]):]))
        line = error_line(capsys, ["evaluate", "--store", str(trained / "store.json"),
                                   "--model", str(model), "--out", str(tmp_path / "x.txt")])
        assert line.startswith("error [bad-store]: "), line
        assert "repeated checkpoint section names" in line, line


def test_training_commands_hold_no_defaults_of_their_own(tmp_path):
    """``pretrain-mf``, ``pretrain-mlp`` and ``train --mf --mlp``, each given only
    its required flags, write the bytes the library's phases write under the
    default ``ExperimentConfig()``."""
    from dualrec import fusion, harness, mf_model, mlp_model

    store = str(tmp_path / "store.json")
    assert main(["synth", "--users", "12", "--products", "10", "--seed", "4",
                 "--out", store]) == 0
    mf_path, mlp_path, fused_path = (tmp_path / f"{n}.ckpt" for n in ("mf", "mlp", "fused"))
    for argv in (["pretrain-mf", "--store", store, "--out", str(mf_path)],
                 ["pretrain-mlp", "--store", store, "--out", str(mlp_path)],
                 ["train", "--store", store, "--mf", str(mf_path), "--mlp", str(mlp_path),
                  "--out", str(fused_path)]):
        assert main(argv) == 0, argv
    config, data = harness.ExperimentConfig(), load_store(store)
    mf, mlp = harness.pretrain_mf(config, data), harness.pretrain_mlp(config, data)
    fused = harness.fine_tune(config, fusion.init_fusion(mf, mlp, config.gamma), data)
    want = tmp_path / "want.ckpt"
    for save, model, path in ((mf_model.save_mf, mf, mf_path), (mlp_model.save_mlp, mlp, mlp_path),
                              (fusion.save_fusion, fused, fused_path)):
        save(model, want)
        assert path.read_bytes() == want.read_bytes(), path.name


def test_predict_with_an_empty_pairs_file(trained, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("")
    out = tmp_path / "preds.tsv"
    assert main(["predict", "--store", str(trained / "store.json"), "--model",
                 str(trained / "fused.ckpt"), "--pairs", str(pairs), "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_predict_skips_blank_lines(trained, tmp_path):
    pairs, out = tmp_path / "pairs.tsv", tmp_path / "preds.tsv"
    pairs.write_text("u0\tp1\n\n   \nu2\tp3\n")
    assert main(["predict", "--store", str(trained / "store.json"), "--model",
                 str(trained / "fused.ckpt"), "--pairs", str(pairs), "--out", str(out)]) == 0
    assert [line.split("\t")[:2] for line in out.read_text().splitlines()] == [
        ["u0", "p1"], ["u2", "p3"]]


def test_predict_refuses_a_malformed_pairs_line(trained, tmp_path, capsys):
    pairs, out = tmp_path / "pairs.tsv", tmp_path / "preds.tsv"
    pairs.write_text("u0\tp1\nu2 p3\n")
    line = error_line(capsys, ["predict", "--store", str(trained / "store.json"), "--model",
                               str(trained / "fused.ckpt"), "--pairs", str(pairs),
                               "--out", str(out)])
    assert line == "error [bad-args]: pairs lines must be 'user<TAB>product', got 'u2 p3'"
    assert not out.exists()


def test_predict_drops_a_leading_bom(trained, tmp_path):
    outs = []
    for name, head in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        pairs, out = tmp_path / f"{name}.tsv", tmp_path / f"{name}-preds.tsv"
        pairs.write_bytes(head + b"u0\tp0\nu2\tp3\n")
        assert main(["predict", "--store", str(trained / "store.json"), "--model",
                     str(trained / "fused.ckpt"), "--pairs", str(pairs), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]
    assert outs[0].startswith(b"u0\tp0\t")


def test_predict_refuses_a_pairs_line_that_is_not_utf8(trained, tmp_path, capsys):
    pairs, out = tmp_path / "pairs.tsv", tmp_path / "preds.tsv"
    pairs.write_bytes(b"u0\tp1\nu\xff2\tp3\n")
    line = error_line(capsys, ["predict", "--store", str(trained / "store.json"), "--model",
                               str(trained / "fused.ckpt"), "--pairs", str(pairs),
                               "--out", str(out)])
    assert line == f"error [bad-args]: pairs file {pairs} line 2 is not UTF-8"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "pretrain-mf --store {t}/store.json --out {t}/x.ckpt --epochs 1",
    "train --store {t}/store.json --out {t}/x.ckpt --epochs 1",
], ids=["pretrain-mf", "train"])
def test_a_latent_dim_above_the_store_size_is_refused(tmp_path, capsys, argv):
    assert main(["synth", "--users", "5", "--products", "4", "--density", "0.6",
                 "--out", str(tmp_path / "store.json")]) == 0
    line = error_line(capsys, argv.format(t=tmp_path).split())
    assert line == ("error [bad-args]: latent_dim must be at most the store's 5 users "
                    "and 4 products, got 8")
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("command", ["pretrain-mf", "pretrain-mlp", "train"])
def test_val_store_that_fits_changes_training(trained, tmp_path, command):
    val = tmp_path / "val.json"
    assert main(["synth", "--users", "12", "--products", "10", "--seed", "9",
                 "--out", str(val)]) == 0
    argv = [command, "--store", str(trained / "store.json"), "--epochs", "12", "--lr", "0.05"]
    if command == "train":
        argv += ["--mf", str(trained / "mf.ckpt"), "--mlp", str(trained / "mlp.ckpt")]
    plain, validated = tmp_path / "plain.ckpt", tmp_path / "validated.ckpt"
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--val-store", str(val), "--out", str(validated)]) == 0
    assert validated.read_bytes() != plain.read_bytes()  # early stopping on the val MAE
