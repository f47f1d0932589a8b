"""The traced benchmark (``perfbench/traced_stage.py``) wraps dualrec
functions by module and name, and ``perfbench/run.py`` reads the phases
the training entry points report to ``on_epoch``. Its counters read the
targets' arguments and results. A refactor that renames or moves one of
them, or changes what a counter reads, would drop a span, a counter or an
``*.epoch_s`` metric without failing a stage; these checks fail instead."""

import importlib
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import traced_stage  # noqa: E402
from dualrec.fusion import init_fusion, init_fusion_random, train_fusion  # noqa: E402
from dualrec.harness import SyntheticSpec, gen_synthetic  # noqa: E402
from dualrec.linalg import AdamState, PairMatrix  # noqa: E402
from dualrec.mf_model import MfHyperparams, train_mf  # noqa: E402
from dualrec.mlp_model import MlpHyperparams, train_mlp  # noqa: E402
from dualrec.training import FitHyperparams  # noqa: E402
from gen_reviews import Shape  # noqa: E402
from tracing import Tracer  # noqa: E402

from conftest import record, store_from  # noqa: E402

TARGETS = [(module, name) for module, names in traced_stage.TARGETS.items() for name in names]


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_every_traced_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"dualrec.{module}"), name, None))


@pytest.mark.parametrize("label", sorted(traced_stage.EPOCH_HOOKED))
def test_every_epoch_hooked_trainer_takes_on_epoch(label):
    module, name = label.split(".")
    fn = getattr(importlib.import_module(f"dualrec.{module}"), name)
    assert "on_epoch" in inspect.signature(fn).parameters


def test_training_reports_the_five_benchmark_phases():
    store = gen_synthetic(SyntheticSpec(12, 10, 2, 0.6, 0.05, seed=1))
    fit = FitHyperparams(batch_size=16, epochs=2, lr=0.01, patience=0)
    seen = []

    def on_epoch(phase, epoch, loss, seconds):
        seen.append((phase, epoch))

    mf = train_mf(store, MfHyperparams(latent_dim=2, predictive_dim=2, fit=fit),
                  on_epoch=on_epoch)
    mlp = train_mlp(store, MlpHyperparams(latent_dim=2, tower=(4, 2), fit=fit),
                    on_epoch=on_epoch)
    train_fusion(init_fusion(mf, mlp), store, fit, on_epoch=on_epoch)
    phases = ("mf-rating", "mf-joint", "mf-head", "mlp", "fusion")
    assert seen == [(phase, epoch) for phase in phases for epoch in range(2)]


def counter_cases(tmp_path) -> dict:
    """Traced label -> (arguments of a tiny call, the counts it should give)."""
    line = json.dumps({"reviewerID": "u", "asin": "p", "overall": 4, "helpful": [1, 2],
                       "unixReviewTime": 5})
    store = store_from([("a", "p1", 4, 0, 0, 1), ("b", "p1", 2, 0, 0, 2),
                        ("a", "p2", 5, 0, 0, 3)])
    model = init_fusion_random(3, 3, 2, (4, 2), 0, 0.5)
    store_path, ckpt_path = tmp_path / "store.json", tmp_path / "model.ckpt"
    return {
        "ingest.parse_reviews": (([line, "{bad", line],), {"records": 2, "skipped": 1}),
        "ingest.build_store": (([record("a", "p1"), record("b", "p1"), record("a", "p2")],),
                               {"max_product_reviews": 2}),
        "ingest.save_store": ((store, store_path), {"bytes": lambda: os.path.getsize(store_path)}),
        "linalg.truncated_svd": ((PairMatrix([0, 2], [1, 3], [1.0, 2.0], (3, 4)), 1),
                                 {"dense_bytes": 3 * 4 * 8}),
        "linalg.adam_step": (({"w": np.zeros(3)}, {"w": np.array([0.0, 1.0, 2.0])},
                              AdamState(lr=0.001)), {"elems": 3, "nonzero": 2}),
        "fusion.predict_batch": ((model, [(0, 0), (2, 1), (-1, 0)]), {"pairs": 3}),
        "checkpoint.save_sections": ((ckpt_path, "fusion", {}, [("w", [1.0, 2.0])]),
                                     {"bytes": lambda: os.path.getsize(ckpt_path)}),
    }


@pytest.mark.parametrize("label", sorted(traced_stage.COUNTERS))
def test_every_counter_reads_a_real_call_of_its_target(label, tmp_path):
    cases = counter_cases(tmp_path)
    assert set(cases) == set(traced_stage.COUNTERS)
    args, want = cases[label]
    module, name = label.split(".")
    tracer = Tracer("run", prefix="t.")
    target = getattr(importlib.import_module(f"dualrec.{module}"), name)
    tracer.wrap(target, label, traced_stage.COUNTERS[label])(*args)
    (span,) = tracer.spans
    want = {key: value() if callable(value) else value for key, value in want.items()}
    assert {key: span.get(key) for key in want} == want


def test_a_traced_benchmark_run_is_correct(monkeypatch, tmp_path):
    """Every stage of a small workload runs under ``traced_stage.py``: a
    stage or output check that fails, a layer without spans or a per-layer
    metric that cannot be computed makes the run incorrect."""
    shape = Shape(150, 60, 2400, hot_counts=(80, 40), predict_users=10, predict_per_user=5)
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(shape, 12))
    monkeypatch.setattr(run, "CALIBRATION_UNITS", 1)
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    cpus = os.sched_getaffinity(0)
    try:  # the run pins this process to one CPU
        result = run.run_workload("tiny", 1, 0.0, trace=True)
    finally:
        os.sched_setaffinity(0, cpus)
    assert result["correct"], result["problems"]
    assert result["problems"] == []
    assert set(result["metrics"]) == set(run.declared_metrics(True))
