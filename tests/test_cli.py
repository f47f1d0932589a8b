import json

import numpy as np
import pytest

from dualrec.checkpoint import save_sections
from dualrec.cli import main
from dualrec.ingest import load_store

from conftest import rated, scored


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

    def test_train_freeze_branches_without_checkpoints(self, tmp_path):
        store = tmp_path / "store.json"
        main(["synth", "--users", "12", "--products", "10", "--seed", "4",
              "--out", str(store)])
        plain, frozen = tmp_path / "plain.ckpt", tmp_path / "frozen.ckpt"
        argv = ["train", "--store", str(store), "--epochs", "1", "--seed", "4", "--out"]
        assert main(argv + [str(plain)]) == 0
        assert main(argv + [str(frozen), "--freeze-branches"]) == 0
        assert plain.read_bytes() != frozen.read_bytes()


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


def run_pipeline(tmp_path, seed="7", epochs="2"):
    """ingest -> reliability -> pretrain x2 -> train -> evaluate."""
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
         "--p", "2", "--epochs", epochs, "--seed", seed],
        ["pretrain-mlp", "--store", str(scored), "--out", str(mlp), "--k", "3",
         "--tower", "6,2", "--epochs", epochs, "--seed", seed],
        ["train", "--store", str(scored), "--mf", str(mf), "--mlp", str(mlp),
         "--gamma", "0.5", "--epochs", epochs, "--seed", seed, "--out", str(fused)],
        ["evaluate", "--store", str(scored), "--model", str(fused),
         "--out", str(report), "--tsv", str(tsv)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return [tmp_path / name for name in
            ("store.json", "rel.tsv", "scored.json", "mf.ckpt", "mlp.ckpt",
             "fused.ckpt", "report.txt", "report.tsv")]


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
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--train-fracs", "0.5,0.7",
                     "--out-dir", str(out_dir)])
        assert code == 0
        summary = (out_dir / "summary.tsv").read_text().strip().split("\n")
        assert summary[0].startswith("train_frac\t")
        assert len(summary) == 3
        assert (out_dir / "report_50.txt").exists()
        assert (out_dir / "report_70.txt").exists()

    @pytest.mark.parametrize("write", [
        lambda path: path.write_bytes(b"DUALREC\x00" + bytes(7)),  # 15 bytes: no fixed header
        lambda path: save_sections(path, "fusion", {}, [("w", [1.0])]),  # no model sections
    ], ids=["truncated", "missing-sections"])
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
             "--k", "4", "--p", "4", "--epochs", "12", "--seed", "7"],
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
