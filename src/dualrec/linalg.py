"""Numerical kernels shared by the factor and neural models.

Everything operates on plain float64 numpy arrays: a randomized
truncated SVD that takes a dense matrix or a sparse :class:`PairMatrix`,
a numerically stable sigmoid, ReLU, a minimal Adam optimizer over named
parameter dicts, and a central-difference gradient estimator used to
cross-check analytic gradients.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TrainingDivergedError",
    "as_matrix",
    "PairMatrix",
    "truncated_svd",
    "sigmoid",
    "sigmoid_grad",
    "relu",
    "AdamState",
    "adam_step",
    "finite_diff_grad",
]

# Nearest representable neighbours of 0 and 1; sigmoid output is clamped
# into this open interval so saturation never produces an exact 0 or 1.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss becomes NaN or infinite."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


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
        for k in range(block.shape[1]):
            out[:, k] = np.bincount(
                self.rows, weights=self.values * block[self.cols, k], minlength=self.shape[0]
            )
        return out


# Randomized SVD settings: extra test vectors beyond the rank, and
# subspace iterations (scikit-learn ``randomized_svd``'s defaults).
_OVERSAMPLES = 10
_POWER_ITERS = 7


def truncated_svd(a, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-`rank` singular triplets of a dense matrix or a PairMatrix.

    Returns (u, s, vt) with u of shape (n, rank), s non-negative and
    non-increasing, vt of shape (rank, m). Randomized range finder with
    subspace iteration (Halko, Martinsson & Tropp 2011, algorithms 4.4
    and 5.1): ``min(rank + 10, n, m)`` Gaussian test vectors, 7 power
    iterations re-orthonormalized after every product, then a small
    dense SVD of the projected block. The matrix is touched only through
    ``a @ x`` and ``a.T @ y``, so a PairMatrix is never densified. The
    test vectors come from a private fixed-seed generator, so the result
    is deterministic and no caller's random stream moves. When
    ``rank + 10 >= min(n, m)`` the range is the whole space and the
    result is the exact SVD up to rounding. Each singular pair's sign is
    fixed so that the largest-magnitude entry of its u column is positive.
    """
    if not isinstance(a, PairMatrix):
        a = as_matrix(a)
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
    so even saturated inputs never return exactly 0 or 1.
    """
    arr = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        pos = 1.0 / (1.0 + np.exp(-arr))
        ex = np.exp(arr)
        neg = ex / (1.0 + ex)
    out = np.clip(np.where(arr >= 0, pos, neg), _SIG_LO, _SIG_HI)
    if out.ndim == 0:
        return float(out)
    return out


def sigmoid_grad(s):
    """Derivative of the sigmoid expressed in terms of its output s."""
    return s * (1.0 - s)


def relu(x):
    """max(x, 0); the subgradient used elsewhere is 0 at x = 0."""
    return np.maximum(x, 0.0)


@dataclass
class AdamState:
    """Adam moment accumulators plus hyperparameters and step count."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update over a dict of named float64 arrays, in place.

    Only names present in `grads` are updated, which lets callers freeze
    parameter groups by omitting them. The step count increments once per
    call regardless of which names are present.
    """
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name, g in grads.items():
        p = params[name]
        if p.shape != np.shape(g):
            raise ValueError(
                f"gradient shape {np.shape(g)} does not match parameter "
                f"{name!r} shape {p.shape}"
            )
        if name not in state.m:  # allocate the moments on a name's first step only
            state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


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
