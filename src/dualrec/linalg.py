"""Numerical kernels shared by the factor and neural models.

Everything operates on plain float64 numpy arrays: a randomized
truncated SVD of a sparse :class:`PairMatrix`,
a numerically stable sigmoid, ReLU, a row scatter-add for embedding
gradients, a minimal Adam optimizer over named parameter dicts, a
central-difference gradient estimator used to cross-check analytic
gradients, and the left-to-right float sum that every reported mean uses.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TrainingDivergedError",
    "PairMatrix",
    "truncated_svd",
    "sigmoid",
    "relu",
    "scatter_rows",
    "AdamState",
    "adam_step",
    "finite_diff_grad",
    "sum_in_order",
]

# Nearest representable neighbours of 0 and 1; sigmoid output is clamped
# into this open interval so saturation never produces an exact 0 or 1.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss becomes NaN or infinite."""


class PairMatrix:
    """Sparse n x m matrix held as (row, col, value) triplets.

    Absent pairs are zero and repeated pairs add up. Supports the two
    products a randomized SVD needs, ``a @ block`` against a dense 2-D
    block and ``a.T``, each in time linear in the number of triplets.
    """

    def __init__(self, rows, cols, values, shape):
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.values = np.asarray(values, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        if not self.rows.shape == self.cols.shape == self.values.shape or self.rows.ndim != 1:
            raise ValueError("rows, cols and values must be 1-D arrays of one length")
        if self.rows.size and not (
            0 <= self.rows.min() and self.rows.max() < self.shape[0]
            and 0 <= self.cols.min() and self.cols.max() < self.shape[1]
        ):
            raise ValueError(f"pair index outside the {self.shape[0]}x{self.shape[1]} matrix")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix contains non-finite entries")

    @property
    def T(self) -> "PairMatrix":
        return PairMatrix(self.cols, self.rows, self.values, self.shape[::-1])

    def __matmul__(self, block) -> np.ndarray:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {block.shape}")
        out = np.empty((self.shape[0], block.shape[1]))
        for k, column in enumerate(block.T.copy()):  # each column contiguous to gather from
            weights = column.take(self.cols)
            weights *= self.values
            out[:, k] = np.bincount(self.rows, weights=weights, minlength=self.shape[0])
        return out


# Randomized SVD settings: extra test vectors beyond the rank, and
# subspace iterations (scikit-learn ``randomized_svd``'s defaults).
_OVERSAMPLES = 10
_POWER_ITERS = 7


def truncated_svd(a: PairMatrix, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-`rank` singular triplets of a PairMatrix.

    Returns (u, s, vt) with u of shape (n, rank), s non-negative and
    non-increasing, vt of shape (rank, m). Randomized range finder with
    subspace iteration (Halko, Martinsson & Tropp 2011, algorithms 4.4
    and 5.1): ``min(rank + 10, n, m)`` Gaussian test vectors, 7 power
    iterations re-orthonormalized after every product, then a small
    dense SVD of the projected block. The matrix is touched only through
    ``a @ x`` and ``a.T @ y``, so it is never densified. The
    test vectors come from a private fixed-seed generator, so the result
    is deterministic and no caller's random stream moves. When
    ``rank + 10 >= min(n, m)`` the range is the whole space and the
    result is the exact SVD up to rounding. Each singular pair's sign is
    fixed so that the largest-magnitude entry of its u column is positive.
    """
    n, m = a.shape
    if not 1 <= rank <= min(n, m):
        raise ValueError(f"rank must be in [1, {min(n, m)}], got {rank}")
    width = min(rank + _OVERSAMPLES, n, m)
    a_t = a.T
    test = np.random.default_rng(0).standard_normal((m, width))
    q, _ = np.linalg.qr(a @ test)
    for _ in range(_POWER_ITERS):
        z, _ = np.linalg.qr(a_t @ q)
        q, _ = np.linalg.qr(a @ z)
    try:
        small_u, s, vt = np.linalg.svd((a_t @ q).T, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD did not converge on a {n}x{m} matrix "
            f"(LAPACK hit its internal iteration limit)"
        ) from exc
    u = (q @ small_u)[:, :rank]
    vt = vt[:rank]
    signs = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(rank)] < 0, -1.0, 1.0)
    return u * signs, s[:rank], vt * signs[:, None]


def sigmoid(x):
    """Logistic function 1 / (1 + e^-x), stable for large |x|.

    Output is clamped to the open interval (0, 1) at float64 resolution,
    so even saturated inputs never return exactly 0 or 1. A 0-d input
    gives a float.
    """
    arr = np.asarray(x, dtype=np.float64)
    e = np.abs(arr, out=np.empty(arr.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)  # e^-x for x >= 0, e^x below: never overflows
    out = np.where(arr >= 0, 1.0, e)
    e += 1.0
    out /= e
    np.maximum(out, _SIG_LO, out=out)
    np.minimum(out, _SIG_HI, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def relu(x, out=None):
    """max(x, 0), into ``out`` when given; the subgradient used elsewhere is
    0 at x = 0."""
    return np.maximum(x, 0.0, out=out)


def scatter_rows(n_rows: int, idx, contrib) -> np.ndarray:
    """(n_rows, K) table whose row r sums the rows of ``contrib`` with ``idx == r``.

    Bit-identical to ``np.add.at`` into zeros: ``np.bincount`` adds each
    bin's weights in input order starting from 0.0, over the flattened
    ``idx * K + k`` cells, and is several times faster. The table is
    float64 for an empty batch too, where ``np.bincount`` gives int64.
    """
    k = contrib.shape[1]
    cells = (np.asarray(idx)[:, None] * k + np.arange(k)).ravel()
    table = np.bincount(cells, weights=contrib.ravel(), minlength=n_rows * k)
    return table.astype(np.float64, copy=False).reshape(n_rows, k)


# Adam's moment decay rates and denominator offset (Kingma & Ba 2015's defaults).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's learning rate, step count and moment accumulators.

    The first :func:`adam_step` fixes the names the state steps and lays
    out its buffers: gradients, both moments and two scratch arrays, each
    one flat array over the names in order, with a view per name shaped
    and ordered like its parameter (a column-major parameter gets a
    column-major view), so that each copy in and each subtraction out runs
    over contiguous memory on both sides. ``m`` and ``v`` map each name to
    its view of the moments.
    """

    lr: float
    t: int = 0
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)
    # the flat buffers g, m, v, step and denom (rows of one array), and the
    # per-name views of g and step
    _flat: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _g: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _step: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _lay_out(self, names: tuple, params: dict) -> None:
        shapes = [params[name].shape for name in names]
        sizes = [math.prod(shape) for shape in shapes]
        starts = [0, *itertools.accumulate(sizes)]
        orders = ["F" if np.isfortran(params[name]) else "C" for name in names]
        self._flat = tuple(np.zeros((5, starts[-1])))

        def views(flat):
            return {name: flat[a : a + n].reshape(shape, order=order)
                    for name, a, n, shape, order in zip(names, starts, sizes, shapes, orders)}

        self._g, self.m, self.v, self._step = map(views, self._flat[:4])


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update over a dict of named float64 arrays, in place.

    Only names present in `grads` are updated, which lets callers freeze
    parameter groups by leaving them out. Every step brings the set of names
    of the state's first step, in any order, or raises ValueError.

    The gradients are copied by name into the state's flat buffer, and the
    update runs once over it, in place, in the per-element order ``m*b1 +
    (1-b1)*g``, ``v*b2 + (1-b2)*g**2``, ``(lr*(m/bc1)) / (sqrt(v/bc2) +
    eps)``; each parameter then subtracts its slice.
    """
    if state._flat is None:
        state._lay_out(tuple(grads), params)
    if grads.keys() != state._g.keys():
        raise ValueError(f"an Adam state steps the names {sorted(state._g)} on every "
                         f"step, got {sorted(grads)}")
    for name, dst in state._g.items():
        g = grads[name]
        if dst.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter "
                             f"{name!r} shape {dst.shape}")
        dst[...] = g
    state.t += 1
    b1, b2 = _BETA1, _BETA2
    g, m, v, step, denom = state._flat
    m *= b1
    np.multiply(g, 1.0 - b1, out=step)
    m += step
    v *= b2
    np.square(g, out=step)
    step *= 1.0 - b2
    v += step
    np.divide(m, 1.0 - b1**state.t, out=step)
    step *= state.lr
    np.divide(v, 1.0 - b2**state.t, out=denom)
    np.sqrt(denom, out=denom)
    denom += _EPS
    step /= denom
    for name, delta in state._step.items():
        p = params[name]
        p -= delta


def finite_diff_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Independent of any analytic gradient code on purpose: this is the
    oracle the test suite checks backpropagation against.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xw = x.copy()
    xf = xw.ravel()
    for k in range(xf.size):
        orig = xf[k]
        xf[k] = orig + step
        hi = f(xw)
        xf[k] = orig - step
        lo = f(xw)
        xf[k] = orig
        flat[k] = (hi - lo) / (2.0 * step)
    return grad


def sum_in_order(values) -> float:
    """The values added left to right, rounding after each addition, as builtin
    ``sum`` does up to Python 3.11; from 3.12 it compensates float rounding,
    which would make a report's last digits depend on the Python version."""
    return functools.reduce(operator.add, values, 0)
