"""Non-linear branch: embedding tables, fusion layer and ReLU tower.

Each user owns one K-dim embedding row, and likewise each product. With
``init_from_factors`` the tables start from the sum of the rating and
reliability SVD factors, the one place reliability enters this branch.
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
from .training import FitHyperparams, _pair_arrays, fit_mae, head_backward, head_forward

__all__ = [
    "MlpParams",
    "MlpHyperparams",
    "param_dict",
    "init_mlp",
    "mlp_backward",
    "mlp_predict",
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
    init_scale: float = 0.01
    init_from_factors: bool = False
    fit: FitHyperparams = FitHyperparams()

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")


def init_mlp(
    n_users: int,
    n_products: int,
    latent_dim: int,
    tower_widths,
    seed: int,
    scale: float = MlpHyperparams.init_scale,
) -> MlpParams:
    """Gaussian(0, scale) weights, two summed per embedding entry; zero biases.

    Deterministic under ``seed``. Tower widths must be positive and
    non-increasing starting from the 2K concatenation width; the last
    width is the predictive dimension.
    """
    widths = [int(w) for w in tower_widths]
    if not widths:
        raise ValueError("tower must have at least one layer")
    if any(w < 1 for w in widths):
        raise ValueError(f"tower widths must be >= 1, got {widths}")
    dims = [2 * latent_dim] + widths
    if any(dims[l + 1] > dims[l] for l in range(len(widths))):
        raise ValueError(f"tower widths must be non-increasing from {2 * latent_dim}, got {widths}")

    rng = np.random.default_rng(seed)
    k = latent_dim
    p = widths[-1]
    return MlpParams(
        # two draws per table keep the init function and every later parameter's RNG stream
        user_emb=rng.normal(0.0, scale, (n_users, k)) + rng.normal(0.0, scale, (n_users, k)),
        prod_emb=rng.normal(0.0, scale, (n_products, k)) + rng.normal(0.0, scale, (n_products, k)),
        fusion_w_user=rng.normal(0.0, scale, (k, k)),
        fusion_b_user=np.zeros(k),
        fusion_w_prod=rng.normal(0.0, scale, (k, k)),
        fusion_b_prod=np.zeros(k),
        tower_w=[rng.normal(0.0, scale, (dims[l], dims[l + 1])) for l in range(len(widths))],
        tower_b=[np.zeros(w) for w in widths],
        head=rng.normal(0.0, scale, (p, p)),
        reg_w=rng.normal(0.0, scale, p),
        reg_b=np.zeros(1),
    )


def _embedding_batch(params: MlpParams, idx_u, idx_p):
    """Pair embeddings for index arrays, shape (batch, p), and the cache
    that :func:`_backward_from_theta` reads."""
    user = params.user_emb[idx_u]
    prod = params.prod_emb[idx_p]
    a_pre = user @ params.fusion_w_user.T + params.fusion_b_user
    b_pre = prod @ params.fusion_w_prod.T + params.fusion_b_prod
    a = relu(a_pre)
    b = relu(b_pre)
    hidden = [np.concatenate([a, b], axis=1)]
    pres = []
    for w, bias in zip(params.tower_w, params.tower_b):
        pre = hidden[-1] @ w + bias
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
        grads[f"tower_b_{l}"] = d_pre.sum(axis=0)
        d_h = d_pre @ params.tower_w[l].T
    k = params.latent_dim
    d_a = d_h[:, :k] * (cache["a_pre"] > 0)
    d_b = d_h[:, k:] * (cache["b_pre"] > 0)
    grads["fusion_w_user"] = d_a.T @ cache["user"]
    grads["fusion_b_user"] = d_a.sum(axis=0)
    grads["fusion_w_prod"] = d_b.T @ cache["prod"]
    grads["fusion_b_prod"] = d_b.sum(axis=0)
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


def mlp_predict(params: MlpParams, i: int, j: int) -> float:
    """Raw-scale rating prediction from the branch's own head."""
    return float(_forward_batch(params, *_pair_arrays(params, i, j))[0][0])


def mlp_backward(params: MlpParams, i: int, j: int, loss_grad: float) -> dict:
    """Gradients of ``loss_grad * raw_prediction(i, j)`` for all fields.

    ``loss_grad`` is the upstream derivative with respect to the raw
    prediction. Embedding gradients come back as full tables with only
    the looked-up rows non-zero.
    """
    _, cache = _forward_batch(params, *_pair_arrays(params, i, j))
    return _backward_batch(params, cache, np.array([float(loss_grad)]))


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
    if not len(store.ratings):
        raise ValueError("store has no ratings to train on")
    params = init_mlp(
        store.n_users, store.n_products, hyper.latent_dim, hyper.tower,
        hyper.fit.seed, hyper.init_scale,
    )
    if hyper.init_from_factors:
        from .mf_model import svd_init

        (w, z), (e, f) = svd_init(store, hyper.latent_dim)
        params.user_emb = (w + e).T.copy()
        params.prod_emb = (z + f).T.copy()

    fit_mae(param_dict(params), functools.partial(_forward_batch, params),
            functools.partial(_backward_batch, params), store, hyper.fit,
            np.random.default_rng(hyper.fit.seed), "mlp", val_store, on_epoch)
    return params


def section_shapes(meta: dict) -> dict:
    """Name -> shape of every section that checkpoint ``meta`` implies."""
    k, p = meta["latent_dim"], meta["predictive_dim"]
    dims = [2 * k] + list(meta["tower"])
    shapes = {"user_emb": (meta["n_users"], k), "prod_emb": (meta["n_products"], k),
              "fusion_w_user": (k, k), "fusion_b_user": (k,), "fusion_w_prod": (k, k),
              "fusion_b_prod": (k,), "head": (p, p), "reg_w": (p,), "reg_b": (1,)}
    for l in range(len(dims) - 1):
        shapes[f"tower_w_{l}"], shapes[f"tower_b_{l}"] = (dims[l], dims[l + 1]), (dims[l + 1],)
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


def save_mlp(params: MlpParams, path) -> None:
    meta = {
        "n_users": params.n_users,
        "n_products": params.n_products,
        "latent_dim": params.latent_dim,
        "tower": list(params.tower_widths),
        "predictive_dim": params.predictive_dim,
    }
    checkpoint.save_model_sections(path, "mlp", meta, param_dict(params), section_shapes)


def load_mlp(path) -> MlpParams:
    meta, arrays = checkpoint.load_model_sections(path, "mlp", section_shapes)
    return params_from_sections(arrays, len(meta["tower"]))
