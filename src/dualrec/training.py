"""The training loop and regression head shared by every model.

The linear branch (rating, joint and head phases), the non-linear
branch and the fused head all train the same way: mini-batch Adam over
one permutation of the training examples per epoch, with a per-epoch
learning-rate decay, a divergence check on the full-data loss and
optional early stopping on validation MAE. All of them end in the same
raw-scale linear regression.
"""

import time

import numpy as np

from .ingest import MAX_RATING, InteractionStore, PairArrays
from .linalg import AdamState, TrainingDivergedError, adam_step

__all__ = ["fit", "head_forward", "mean_abs_error", "val_mae"]


def head_forward(theta, head, reg_w, reg_b):
    """Projection ``theta @ head``, then the raw-scale regression."""
    hidden = theta @ head  # (batch, p)
    return hidden, MAX_RATING * (hidden @ reg_w + reg_b)


def mean_abs_error(predict, arrays: PairArrays) -> float:
    """MAE of ``predict(idx_u, idx_p)`` against the raw ratings."""
    return float(np.mean(np.abs(predict(arrays.idx_u, arrays.idx_p) - arrays.raw)))


def val_mae(predict, val_store: InteractionStore | None):
    """Validation MAE as a ``val_loss`` for :func:`fit`; None without pairs."""
    if val_store is None or not len(val_store.ratings):
        return None
    return lambda: mean_abs_error(predict, val_store.rated_arrays)


def fit(weights: dict, batch_grads, full_loss, n: int, hyper, rng, phase: str,
        val_loss=None, on_epoch=None) -> None:
    """Mini-batch Adam over ``n`` examples, updating ``weights`` in place.

    Epoch e runs at learning rate ``hyper.lr * hyper.lr_decay**e`` and
    visits the examples in one permutation drawn from ``rng``, applying
    ``batch_grads(batch)`` per ``hyper.batch_size`` slice. ``full_loss()``
    must then be finite (else :class:`TrainingDivergedError`) and goes to
    ``on_epoch(phase, epoch, loss, seconds)``. With ``val_loss`` and a
    non-zero ``hyper.patience``, training stops once ``val_loss()`` has
    not improved for ``patience`` epochs, and the weights of the best
    epoch are copied back before returning.
    """
    state = AdamState(lr=hyper.lr)
    best_val = np.inf
    best = None
    stall = 0
    for epoch in range(hyper.epochs):
        started = time.perf_counter()
        state.lr = hyper.lr * hyper.lr_decay**epoch
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            adam_step(weights, batch_grads(order[start : start + hyper.batch_size]), state)
        loss = full_loss()
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"{phase} training diverged at epoch {epoch}: loss={loss}")
        if on_epoch is not None:
            on_epoch(phase, epoch, loss, time.perf_counter() - started)
        if val_loss is None or not hyper.patience:
            continue
        val = val_loss()
        if val < best_val - 1e-12:
            best_val = val
            best = {name: w.copy() for name, w in weights.items()}
            stall = 0
        else:
            stall += 1
            if stall >= hyper.patience:
                break
    if best is not None:
        for name, w in weights.items():
            w[...] = best[name]
