"""Non-linear branch: embedding tables, fusion layer and ReLU tower.

Each user owns one K-dim embedding row, and likewise each product, both
started from Gaussian noise; reliability does not enter this branch.
The fusion layer applies a KxK fully-connected map and ReLU to a user's
row, and the same to a product's; the two fused vectors are concatenated
into a 2K input that a tower of shrinking ReLU layers maps down to the
p-dim pair embedding. A pxp output projection plus linear regression
produce the rating, trained on raw-scale MAE by :func:`training.fit_mae`
through :func:`_forward_batch` and :func:`_backward_batch`; the fused
model reads only :func:`_embedding_batch`, below the head. Forward and
reverse passes are hand-written numpy; ReLU's subgradient at exactly 0
is 0, and embedding gradients only touch the rows a batch looked up.
"""

import copy
import functools
from dataclasses import dataclass, fields

import numpy as np

from . import checkpoint
from .ingest import InteractionStore
from .linalg import relu, scatter_rows
from .training import (INIT_SCALE, FitHyperparams, fit_mae, head_backward, head_forward,
                       init_sections)

__all__ = [
    "MlpParams",
    "MlpHyperparams",
    "param_dict",
    "check_tower",
    "init_mlp",
    "train_mlp",
    "save_mlp",
    "load_mlp",
]


@dataclass
class MlpParams:
    """All parameters of the non-linear branch (embedding rows are rows).

    The field order is the checkpoint section order, with the tower
    interleaved per layer: ``tower_w_0``, ``tower_b_0``, ``tower_w_1``, ...
    """

    user_emb: np.ndarray  # n x K, one row per user
    prod_emb: np.ndarray  # m x K, one row per product
    fusion_w_user: np.ndarray  # K x K
    fusion_b_user: np.ndarray  # K
    fusion_w_prod: np.ndarray  # K x K
    fusion_b_prod: np.ndarray  # K
    tower_w: list  # layer l: T_{l-1} x T_l
    tower_b: list  # layer l: T_l
    head: np.ndarray  # p x p output projection
    reg_w: np.ndarray  # p regression weights
    reg_b: np.ndarray  # (1,) regression bias

    @property
    def latent_dim(self) -> int:
        return self.user_emb.shape[1]

    @property
    def tower_widths(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.tower_w)

    @property
    def predictive_dim(self) -> int:
        return self.tower_w[-1].shape[1]

    @property
    def n_users(self) -> int:
        return self.user_emb.shape[0]

    @property
    def n_products(self) -> int:
        return self.prod_emb.shape[0]

    def copy(self) -> "MlpParams":
        return copy.deepcopy(self)


@dataclass
class MlpHyperparams:
    latent_dim: int
    tower: tuple = (16, 8)
    init_scale: float = INIT_SCALE
    fit: FitHyperparams = FitHyperparams()

    def __post_init__(self):
        check_tower(self.latent_dim, self.tower)


def check_tower(latent_dim: int, tower_widths) -> list[int]:
    """The tower widths as ints; ValueError unless latent_dim K is at least 1
    and the widths, at least one, are positive and non-increasing from the
    2K concatenation width."""
    if latent_dim < 1:
        raise ValueError("latent_dim must be >= 1")
    widths = [int(w) for w in tower_widths]
    if not widths:
        raise ValueError("tower must have at least one layer")
    if any(w < 1 for w in widths):
        raise ValueError(f"tower widths must be >= 1, got {widths}")
    dims = [2 * latent_dim] + widths
    if any(dims[l + 1] > dims[l] for l in range(len(widths))):
        raise ValueError(f"tower widths must be non-increasing from {2 * latent_dim}, got {widths}")
    return widths


def init_mlp(n_users: int, n_products: int, latent_dim: int, tower_widths, seed: int,
             scale: float = INIT_SCALE) -> MlpParams:
    """Gaussian(0, scale) weights, two summed per embedding entry; zero biases.

    Deterministic under ``seed``. The tower is as :func:`check_tower`
    allows; its last width is the predictive dimension.
    """
    k, widths = latent_dim, check_tower(latent_dim, tower_widths)
    rng = np.random.default_rng(seed)
    # two draws per table keep the init function and every later parameter's RNG stream
    tables = {name: rng.normal(0.0, scale, (n, k)) + rng.normal(0.0, scale, (n, k))
              for name, n in (("user_emb", n_users), ("prod_emb", n_products))}
    shapes = section_shapes(_meta(n_users, n_products, k, widths))
    return params_from_sections(init_sections(shapes, rng, scale, tables), len(widths))


def _embedding_batch(params: MlpParams, idx_u, idx_p):
    """Pair embeddings for index arrays, shape (batch, p), and the cache
    that :func:`_backward_from_theta` reads."""
    k = params.latent_dim
    user = params.user_emb.take(idx_u, axis=0)
    prod = params.prod_emb.take(idx_p, axis=0)
    a_pre = user @ params.fusion_w_user.T
    a_pre += params.fusion_b_user
    b_pre = prod @ params.fusion_w_prod.T
    b_pre += params.fusion_b_prod
    fused = np.empty((len(a_pre), 2 * k))
    relu(a_pre, out=fused[:, :k])
    relu(b_pre, out=fused[:, k:])
    hidden = [fused]
    pres = []
    for w, bias in zip(params.tower_w, params.tower_b):
        pre = hidden[-1] @ w
        pre += bias
        pres.append(pre)
        hidden.append(relu(pre))
    cache = {"idx_u": idx_u, "idx_p": idx_p, "user": user, "prod": prod,
             "a_pre": a_pre, "b_pre": b_pre, "hidden": hidden, "pres": pres}
    return hidden[-1], cache


def _forward_batch(params: MlpParams, idx_u, idx_p):
    """Raw predictions of the branch's own head for index arrays, and the
    cache that :func:`_backward_batch` reads."""
    theta, cache = _embedding_batch(params, idx_u, idx_p)
    cache["head_hidden"], raw = head_forward(theta, params.head, params.reg_w, params.reg_b)
    return raw, cache


def param_dict(params: MlpParams) -> dict:
    """Name -> array of every parameter, in checkpoint section order."""
    out = {}
    for f in fields(params):
        if f.name == "tower_w":
            for l, (w, b) in enumerate(zip(params.tower_w, params.tower_b)):
                out[f"tower_w_{l}"], out[f"tower_b_{l}"] = w, b
        elif f.name != "tower_b":
            out[f.name] = getattr(params, f.name)
    return out


def _bias_grad(d_pre):
    """Column sums of a (batch, width) block, bit for bit ``d_pre.sum(axis=0)``:
    with two or more columns both add each column's rows in order, which
    ``einsum`` does in a third of the time; numpy sums a single column
    pairwise, so that one keeps ``sum``."""
    return np.einsum("bk->k", d_pre) if d_pre.shape[1] > 1 else d_pre.sum(axis=0)


def _backward_from_theta(params: MlpParams, cache: dict, d_theta, tables: bool = True) -> dict:
    """Gradients of every parameter below the pair embedding.

    With ``tables`` false the two embedding tables get no gradient at
    all: their scatter is skipped, not computed and dropped.
    """
    grads = {}
    hidden, pres = cache["hidden"], cache["pres"]
    d_h = d_theta
    for l in range(len(params.tower_w) - 1, -1, -1):
        d_pre = d_h * (pres[l] > 0)
        grads[f"tower_w_{l}"] = hidden[l].T @ d_pre
        grads[f"tower_b_{l}"] = _bias_grad(d_pre)
        d_h = d_pre @ params.tower_w[l].T
    k = params.latent_dim
    d_a = d_h[:, :k] * (cache["a_pre"] > 0)
    d_b = d_h[:, k:] * (cache["b_pre"] > 0)
    grads["fusion_w_user"] = d_a.T @ cache["user"]
    grads["fusion_b_user"] = _bias_grad(d_a)
    grads["fusion_w_prod"] = d_b.T @ cache["prod"]
    grads["fusion_b_prod"] = _bias_grad(d_b)
    if tables:
        grads["user_emb"] = scatter_rows(params.n_users, cache["idx_u"],
                                         d_a @ params.fusion_w_user)
        grads["prod_emb"] = scatter_rows(params.n_products, cache["idx_p"],
                                         d_b @ params.fusion_w_prod)
    return grads


def _backward_batch(params: MlpParams, cache: dict, d_raw) -> dict:
    """Gradients of sum(d_raw * raw_prediction) for every parameter."""
    grads, d_theta = head_backward(cache["hidden"][-1], cache["head_hidden"], params.head,
                                   params.reg_w, d_raw)
    grads.update(_backward_from_theta(params, cache, d_theta))
    return grads


def train_mlp(
    store: InteractionStore,
    hyper: MlpHyperparams,
    val_store: InteractionStore | None = None,
    on_epoch=None,
) -> MlpParams:
    """Train the whole branch with mini-batch Adam on raw-scale MAE.

    Per-example gradients are summed, not averaged, within a batch.
    With a ``val_store``, training stops once validation MAE has not
    improved for ``hyper.fit.patience`` epochs, and the returned weights are
    those of the best validation epoch.
    """
    if not store.raw.size:
        raise ValueError("store has no ratings to train on")
    params = init_mlp(
        store.n_users, store.n_products, hyper.latent_dim, hyper.tower,
        hyper.fit.seed, hyper.init_scale,
    )
    fit_mae(param_dict(params), functools.partial(_forward_batch, params),
            functools.partial(_backward_batch, params), store, hyper.fit,
            np.random.default_rng(hyper.fit.seed), "mlp", val_store, on_epoch)
    return params


def section_shapes(meta: dict) -> dict:
    """Name -> shape of every section that checkpoint ``meta`` implies, in
    :func:`param_dict` order; ValueError for a tower that ``check_tower`` refuses
    and for a ``predictive_dim`` other than the head width, the last tower width."""
    k = meta["latent_dim"]
    check_tower(k, meta["tower"])
    dims = [2 * k] + list(meta["tower"])
    p = dims[-1]
    if meta["predictive_dim"] != p:
        raise ValueError(f"predictive_dim {meta['predictive_dim']!r} differs from the last "
                         f"tower width {p!r}")
    shapes = {"user_emb": (meta["n_users"], k), "prod_emb": (meta["n_products"], k),
              "fusion_w_user": (k, k), "fusion_b_user": (k,), "fusion_w_prod": (k, k),
              "fusion_b_prod": (k,)}
    for l in range(len(dims) - 1):
        shapes[f"tower_w_{l}"], shapes[f"tower_b_{l}"] = (dims[l], dims[l + 1]), (dims[l + 1],)
    shapes.update(head=(p, p), reg_w=(p,), reg_b=(1,))
    return shapes


def params_from_sections(arrays: dict, n_layers: int, prefix: str = "") -> MlpParams:
    """Inverse of :func:`param_dict` over sections named ``prefix + name``."""
    kwargs = {}
    for f in fields(MlpParams):
        if f.name in ("tower_w", "tower_b"):
            kwargs[f.name] = [arrays[f"{prefix}{f.name}_{l}"] for l in range(n_layers)]
        else:
            kwargs[f.name] = arrays[prefix + f.name]
    return MlpParams(**kwargs)


def _meta(n_users: int, n_products: int, latent_dim: int, tower) -> dict:
    """The checkpoint meta of a branch of these sizes, from which :func:`section_shapes`
    reads its layout, for its initializer and every saver, the fused model's too."""
    return {"n_users": n_users, "n_products": n_products, "latent_dim": latent_dim,
            "tower": list(tower), "predictive_dim": tower[-1]}


def save_mlp(params: MlpParams, path) -> None:
    meta = _meta(params.n_users, params.n_products, params.latent_dim, params.tower_widths)
    checkpoint.save_model_sections(path, "mlp", meta, param_dict(params), section_shapes)


def load_mlp(path) -> MlpParams:
    meta, arrays = checkpoint.load_model_sections(path, "mlp", section_shapes)
    return params_from_sections(arrays, len(meta["tower"]))
