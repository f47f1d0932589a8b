"""Run one pipeline stage with spans around dualrec's public functions.

Usage: traced_stage.py SPANS_OUT RUN_ID PARENT_ID {cli,split} STAGE_ARGS...

The wrappers are installed from here, at module boundaries: every
binding of a wrapped function in a ``dualrec`` module, including names
imported with ``from ... import``, is replaced by a wrapper that records
a span and returns the function's result unchanged. The stage then runs
exactly as untraced (``dualrec.cli.main`` or the split stage) and the
spans are written to SPANS_OUT when it ends.
"""

import importlib
import os
import sys

import numpy as np

import dualrec.cli
import split_stage
from tracing import Tracer

# Wrapped functions per module: the layers the benchmark reports on.
TARGETS = {
    "ingest": ("parse_reviews", "build_store", "save_store", "load_store", "restrict"),
    "reliability": ("score_store", "attach_scores", "breakdown_rows"),
    "harness": ("split", "evaluate_model"),
    "linalg": ("truncated_svd", "adam_step"),
    "mf_model": ("svd_init", "train_mf"),
    "mlp_model": ("train_mlp",),
    "fusion": ("init_fusion", "train_fusion", "predict_batch"),
    "metrics": ("evaluate_predictions",),
    "checkpoint": ("save_sections", "load_sections"),
}

# Training entry points whose on_epoch hook is chained to the tracer.
EPOCH_HOOKED = {"mf_model.train_mf", "mlp_model.train_mlp", "fusion.train_fusion"}


def _parse_counts(args, kwargs, result):
    return {"records": len(result.records), "skipped": result.n_skipped}


def _store_counts(args, kwargs, result):
    return {"max_product_reviews": max((len(t) for t in result.timelines.values()), default=0)}


def _saved_store_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _saved_sections_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _svd_counts(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return {"dense_bytes": rows * cols * 8}


def _adam_counts(args, kwargs, result):
    grads = args[1]
    return {
        "elems": sum(int(np.size(g)) for g in grads.values()),
        "nonzero": sum(int(np.count_nonzero(g)) for g in grads.values()),
    }


def _predict_counts(args, kwargs, result):
    return {"pairs": len(result)}


COUNTERS = {
    "ingest.parse_reviews": _parse_counts,
    "ingest.build_store": _store_counts,
    "ingest.save_store": _saved_store_bytes,
    "linalg.truncated_svd": _svd_counts,
    "linalg.adam_step": _adam_counts,
    "fusion.predict_batch": _predict_counts,
    "checkpoint.save_sections": _saved_sections_bytes,
}


def _hooked(tracer: Tracer, fn):
    def call(*args, **kwargs):
        kwargs["on_epoch"] = tracer.epoch_hook(kwargs.get("on_epoch"))
        return fn(*args, **kwargs)

    return call


def install(tracer: Tracer) -> None:
    """Replace every dualrec binding of each target with a traced wrapper."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dualrec"]
    for mod_name, names in TARGETS.items():
        module = importlib.import_module(f"dualrec.{mod_name}")
        for name in names:
            original = getattr(module, name)
            label = f"{mod_name}.{name}"
            wrapped = tracer.wrap(original, label, COUNTERS.get(label))
            if label in EPOCH_HOOKED:
                wrapped = _hooked(tracer, wrapped)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapped)


def main(argv) -> int:
    spans_out, run_id, parent_id, kind, *args = argv
    tracer = Tracer(run_id, prefix=f"{parent_id}.", root_parent=parent_id)
    install(tracer)
    entry = split_stage.main if kind == "split" else dualrec.cli.main
    with tracer.span(f"{kind}.main"):
        code = entry(args)
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
