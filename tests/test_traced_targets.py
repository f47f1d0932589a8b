"""The traced benchmark (``perfbench/traced_stage.py``) wraps dualrec
functions by module and name, and ``perfbench/run.py`` reads the phases
the training entry points report to ``on_epoch``. A refactor that renames
or moves one of them would drop a span or an ``*.epoch_s`` metric without
failing a stage; these checks fail instead."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import traced_stage  # noqa: E402
from dualrec.fusion import init_fusion, train_fusion  # noqa: E402
from dualrec.harness import SyntheticSpec, gen_synthetic  # noqa: E402
from dualrec.mf_model import MfHyperparams, train_mf  # noqa: E402
from dualrec.mlp_model import MlpHyperparams, train_mlp  # noqa: E402
from dualrec.training import FitHyperparams  # noqa: E402

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
    store = gen_synthetic(SyntheticSpec(12, 10, 2, 0.6, 0.05, seed=1)).store
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
