"""The training loop and regression head shared by every model.

Every phase (MF rating, joint and head; MLP; fusion) runs :func:`fit`:
mini-batch Adam over one permutation of the training examples per epoch,
with a per-epoch learning-rate decay, a divergence check on each epoch's
batch losses and on the returned weights, and optional early stopping on
validation MAE. The MF head, the MLP branch and the fused model end in the
same raw-scale linear regression and minimise its MAE in one phase,
:func:`fit_mae`, from a model's forward pass ``(idx_u, idx_p) -> (raw,
cache)`` and backward pass ``(cache, d_raw) -> grads``.

Full-data and validation losses are computed chunk by chunk:
:func:`predict_chunked` runs the forward pass over ``CHUNK_PAIRS`` pairs
at a time, so the cache one pass builds is dropped before the next and
scoring memory does not grow with the number of pairs.
"""

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .ingest import MAX_RATING, InteractionStore, PairArrays
from .linalg import AdamState, TrainingDivergedError, adam_step

__all__ = ["CHUNK_PAIRS", "INIT_SCALE", "FitHyperparams", "check_int", "check_nonnegative", "fit",
           "fit_mae", "head_backward", "head_forward", "init_sections", "is_int", "predict_chunked",
           "val_mae"]

CHUNK_PAIRS = 4096  # pairs per scoring forward pass
INIT_SCALE = 0.01  # standard deviation of every randomly initialised weight
_BIASES = ("reg_b", "fusion_b_", "tower_b_")  # zero-initialised sections, by name or prefix


def check_nonnegative(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite number >= 0."""
    if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def is_int(value, low=-math.inf) -> bool:
    """Whether ``value`` is an integer (numpy's too, never a bool) of at least ``low``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def check_int(name: str, value, low: int) -> None:
    """The rule of every size, count and seed: ValueError unless ``is_int(value, low)``."""
    if not is_int(value, low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class FitHyperparams:
    """Settings of one training phase: the loop in :func:`fit`, plus the
    ``seed`` of the generator its caller passes in."""

    batch_size: int = 512
    epochs: int = 12
    lr: float = 0.001
    lr_decay: float = 1.0  # per-epoch multiplicative factor
    seed: int = 0
    patience: int = 3

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("epochs", 0), ("seed", 0), ("patience", 0)):
            check_int(name, getattr(self, name), low)
        check_nonnegative("lr", self.lr)
        if not (isinstance(self.lr_decay, numbers.Real) and 0 < self.lr_decay < math.inf):
            raise ValueError(f"lr_decay must be a finite number > 0, got {self.lr_decay!r}")


def init_sections(shapes: dict, rng, scale: float = INIT_SCALE, given=None) -> dict:
    """Name -> array of every section of ``shapes`` (a model's name -> shape,
    in checkpoint order): ``given[name]`` where ``given`` has it, zeros for a
    bias (``reg_b``, ``fusion_b_*`` or ``tower_b_*``, after any ``mf/`` or
    ``mlp/`` prefix), and otherwise one Gaussian(0, scale) draw from ``rng``,
    drawn in that order."""
    given = given or {}
    return {name: given[name] if name in given
            else np.zeros(shape) if name.rpartition("/")[2].startswith(_BIASES)
            else rng.normal(0.0, scale, shape)
            for name, shape in shapes.items()}


def head_forward(theta, head, reg_w, reg_b):
    """Projection ``theta @ head``, then the raw-scale regression."""
    hidden = theta @ head  # (batch, p)
    raw = hidden @ reg_w
    raw += reg_b
    raw *= MAX_RATING
    return hidden, raw


def head_backward(theta, hidden, head, reg_w, d_raw):
    """Backward pass of :func:`head_forward` for ``d_raw``, the upstream
    derivative of each pair's raw prediction.

    Returns the gradients of ``sum(d_raw * raw)`` with respect to ``head``,
    ``reg_w`` and ``reg_b`` as a dict under those names, and ``d_theta``,
    the derivative with respect to ``theta`` that the branch below takes.
    """
    d_norm = MAX_RATING * d_raw
    d_hidden = d_norm[:, None] * reg_w[None, :]
    grads = {"head": theta.T @ d_hidden, "reg_w": hidden.T @ d_norm,
             "reg_b": np.add.reduce(d_norm, keepdims=True)}
    return grads, d_hidden @ head.T


def predict_chunked(predict, idx_u, idx_p) -> np.ndarray:
    """``predict(idx_u, idx_p)`` as one float64 array, filled slice by slice
    so that only one slice's forward pass is alive at once.

    Slices start at multiples of ``CHUNK_PAIRS`` and are that long, except
    the last, which takes in a remainder shorter than half a chunk. No
    slice is then a matrix of one row or a few dozen, which BLAS multiplies
    with other kernels (gemv, small-matrix kernels) whose rounding differs
    from that of one pass over all pairs.
    """
    n = len(idx_u)
    out = np.empty(n)
    start = 0
    while start < n:
        stop = start + CHUNK_PAIRS if n - start >= CHUNK_PAIRS + CHUNK_PAIRS // 2 else n
        out[start:stop] = predict(idx_u[start:stop], idx_p[start:stop])
        start = stop
    return out


def mean_abs_error(predict, arrays: PairArrays) -> float:
    """MAE of ``predict(idx_u, idx_p)`` against the raw ratings."""
    preds = predict_chunked(predict, arrays.idx_u, arrays.idx_p)
    return float(np.mean(np.abs(preds - arrays.raw)))


def val_mae(predict, val_store: InteractionStore | None):
    """Validation MAE as a ``val_loss`` for :func:`fit`; None without pairs."""
    if val_store is None or not val_store.raw.size:
        return None
    return lambda: mean_abs_error(predict, val_store.rated_arrays)


def _check_loss(phase: str, epoch: int, loss: float) -> None:
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"{phase} training diverged at epoch {epoch}: loss={loss}")


def fit(weights: dict, batch_grads, full_loss, n: int, hyper: FitHyperparams, rng,
        phase: str, val_loss=None, on_epoch=None) -> None:
    """Mini-batch Adam over ``n`` examples, updating ``weights`` in place.

    ``weights`` is a model's whole parameter table. Epoch e runs at learning
    rate ``hyper.lr * hyper.lr_decay**e`` and visits the examples in one
    permutation drawn from ``rng``. Per ``hyper.batch_size`` slice,
    ``batch_grads(batch)`` gives its summed loss before the step and the
    step's gradients, whose names are the arrays that train; the losses'
    total over ``n`` goes to ``on_epoch(phase, epoch, loss, seconds)``. With
    ``val_loss`` and a non-zero ``hyper.patience``, training stops once
    ``val_loss()`` has not improved for ``patience`` epochs, and the best
    epoch's weights are copied back. A non-finite epoch loss or ``full_loss()``
    of the returned weights raises :class:`TrainingDivergedError`.
    """
    state = AdamState(lr=hyper.lr)
    best_val = np.inf
    best = None
    stall = 0
    # a diverging run overflows on its way to the non-finite loss that the
    # checks below report; numpy's warnings about it would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hyper.epochs):
            started = time.perf_counter()
            state.lr = hyper.lr * hyper.lr_decay**epoch
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, hyper.batch_size):
                batch_loss, grads = batch_grads(order[start : start + hyper.batch_size])
                total += batch_loss
                adam_step(weights, grads, state)
            loss = total / n
            _check_loss(phase, epoch, loss)
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
        if hyper.epochs > 0:  # ``epoch`` is the last epoch run
            _check_loss(phase, epoch, full_loss())


def fit_mae(weights: dict, forward, backward, store: InteractionStore, hyper: FitHyperparams,
            rng, phase: str, val_store: InteractionStore | None = None, on_epoch=None) -> None:
    """:func:`fit` on raw-scale MAE over the store's rated pairs.

    ``forward(idx_u, idx_p)`` gives the pairs' raw predictions, an array of
    its own that the batch step overwrites with the residuals, and a cache;
    ``backward(cache, d_raw)`` gives the gradients of ``sum(d_raw * raw)`` for
    the arrays of ``weights`` that train. A batch's loss is its
    ``|preds - raw|`` sum and its ``d_raw`` is ``sign(preds - raw)``.
    """
    idx_u, idx_p, _, raw = store.rated_arrays

    def batch_grads(batch):
        resid, cache = forward(idx_u[batch], idx_p[batch])
        resid -= raw[batch]
        return np.abs(resid).sum(), backward(cache, np.sign(resid))

    def predict(bu, bp):
        return forward(bu, bp)[0]

    fit(weights, batch_grads, lambda: mean_abs_error(predict, store.rated_arrays), idx_u.size,
        hyper, rng, phase, val_loss=val_mae(predict, val_store), on_epoch=on_epoch)
