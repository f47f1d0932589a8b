"""Linear-kernel branch: factor training and its prediction head.

Two factor models are trained on the sparse store. The rating objective
fits sigmoid(w_i . z_j) to the normalized ratings; the joint objective
shares one user matrix between the ratings and the reliability scores,
fitting sigmoid(e_i . z_j) to ratings and sigmoid(e_i . f_j) to
reliability simultaneously. Both use squared error over the observed
entries plus count-weighted L2 regularization, minimized with mini-batch
Adam from an SVD warm start computed over the observed pairs only.

On top of the trained factors sits a small head: two KxK projections mix
the elementwise products of the rating-branch and joint-branch factors
into one K-dim pair embedding, which a Kxp output projection and a linear
regression turn into a rating. The head is trained with MAE against the
raw ratings, factors frozen, through the branch's forward and backward
pass (:func:`_forward_batch`, :func:`_backward_batch`) and
:func:`training.fit_mae`.
"""

import copy
import functools
from dataclasses import dataclass, fields

import numpy as np

from . import checkpoint
from .ingest import MAX_RATING, MIN_RATING, InteractionStore
from .linalg import PairMatrix, scatter_rows, sigmoid, truncated_svd
from .mlp_model import MlpHyperparams
from .training import (CHUNK_PAIRS, FitHyperparams, fit, fit_mae, head_backward, head_forward,
                       val_mae)

__all__ = [
    "MfParams",
    "MfHyperparams",
    "param_dict",
    "svd_init",
    "rating_loss",
    "rating_loss_grads",
    "reliability_loss",
    "reliability_loss_grads",
    "joint_loss",
    "joint_loss_grads",
    "train_mf",
    "factor_predict",
    "save_mf",
    "load_mf",
]

_INIT_SCALE = 0.01  # standard deviation of the random projection and head weights


@dataclass
class MfParams:
    """All parameters of the linear branch.

    Factor matrices store one column per user/product (shape K x n or
    K x m). ``user_rating``/``prod_rating`` come from the rating
    objective; ``user_joint``/``prod_joint``/``prod_rel`` from the joint
    objective, where ``user_joint`` is the shared user matrix and
    ``prod_rel`` only ever meets the reliability data. The field order is
    the checkpoint section order.
    """

    user_rating: np.ndarray
    prod_rating: np.ndarray
    user_joint: np.ndarray
    prod_joint: np.ndarray
    prod_rel: np.ndarray
    proj_rating: np.ndarray  # K x K mixer for the rating-branch product
    proj_joint: np.ndarray  # K x K mixer for the joint-branch product
    head: np.ndarray  # K x p output projection
    reg_w: np.ndarray  # p regression weights
    reg_b: np.ndarray  # (1,) regression bias

    @property
    def latent_dim(self) -> int:
        return self.user_rating.shape[0]

    @property
    def predictive_dim(self) -> int:
        return self.head.shape[1]

    @property
    def n_users(self) -> int:
        return self.user_rating.shape[1]

    @property
    def n_products(self) -> int:
        return self.prod_rating.shape[1]

    def copy(self) -> "MfParams":
        return copy.deepcopy(self)


@dataclass
class MfHyperparams:
    latent_dim: int
    predictive_dim: int = MlpHyperparams.tower[-1]  # the MLP branch's, as fusion needs
    reg_lambda: float = 0.1
    fit: FitHyperparams = FitHyperparams()

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.predictive_dim < 1:
            raise ValueError("predictive_dim must be >= 1")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")


def param_dict(params: MfParams) -> dict:
    """Name -> array of every parameter, in checkpoint section order."""
    return {f.name: getattr(params, f.name) for f in fields(params)}


def svd_init(store: InteractionStore, latent_dim: int):
    """SVD warm starts for both factor models.

    Missing entries are treated as zero for the decomposition only; the
    observed pairs go to :func:`truncated_svd` as a sparse
    :class:`PairMatrix`, so no users x products array is built.
    Returns ((W, Z), (E, F)): W = (U sqrt(S))^T and Z = sqrt(S) V^T from
    the rating matrix, and the same recipe on the reliability matrix.
    """
    shape = (store.n_users, store.n_products)

    def decompose(pairs):
        u, s, vt = truncated_svd(PairMatrix(*pairs[:3], shape), latent_dim)
        root = np.sqrt(s)
        return (u * root).T, root[:, None] * vt

    return decompose(store.rated_arrays), decompose(store.scored_arrays)


def _sq_data_term(u_blk, v_blk, targets):
    """Squared-error data term and the per-pair residual coefficient of
    the pairs' gathered K x batch factor blocks.

    The coefficient is d(term)/d(u_i . v_j), i.e. 2 (pred - target)
    pred (1 - pred) with pred = sigmoid(u_i . v_j).
    """
    dots = np.einsum("kb,kb->b", u_blk, v_blk)
    preds = sigmoid(dots)
    resid = preds - targets
    coef = 2.0 * resid * preds * (1.0 - preds)
    return float(np.sum(resid**2)), coef


def _scatter_cols(n_cols: int, idx, contrib):
    """Accumulate per-pair K-vectors into the indexed columns of a K x n_cols table."""
    return scatter_rows(n_cols, idx, contrib).T


# Each factor objective is a table of squared pair terms: (user factor,
# product factor, the store's pairs the two fit). A factor that appears
# in several terms is regularized once per term it appears in.
_RATING = (("user_rating", "prod_rating", "rated_arrays"),)
_RELIABILITY = (("user_joint", "prod_rel", "scored_arrays"),)
_JOINT = (("user_joint", "prod_joint", "rated_arrays"),) + _RELIABILITY


def _pair_loss_grads(u_mat, v_mat, idx_u, idx_p, targets, reg_lambda):
    """Loss and gradients of one squared data term with per-pair L2.

    The count-weighted regularizer equals a per-observed-pair penalty
    lambda (|u_i|^2 + |v_j|^2), which is the form used here so that
    mini-batches of pairs sum exactly to the full objective.
    """
    u_blk, v_blk = u_mat[:, idx_u], v_mat[:, idx_p]
    term, coef = _sq_data_term(u_blk, v_blk, targets)
    u_cols, v_cols = u_blk.T, v_blk.T
    reg = reg_lambda * float(np.sum(u_cols**2) + np.sum(v_cols**2))
    du = _scatter_cols(u_mat.shape[1], idx_u, coef[:, None] * v_cols + 2.0 * reg_lambda * u_cols)
    dv = _scatter_cols(v_mat.shape[1], idx_p, coef[:, None] * u_cols + 2.0 * reg_lambda * v_cols)
    return term + reg, (du, dv)


def _terms_loss(params: MfParams, store: InteractionStore, terms, reg_lambda) -> float:
    """Value of the objective ``terms`` over the store's pairs, summed
    ``CHUNK_PAIRS`` pairs at a time so that the gathered blocks stay small."""
    total = 0.0
    for u, v, view in terms:
        pairs = getattr(store, view)[:3]
        total += sum(_pair_loss_grads(getattr(params, u), getattr(params, v),
                                      *(a[s : s + CHUNK_PAIRS] for a in pairs), reg_lambda)[0]
                     for s in range(0, pairs[0].size, CHUNK_PAIRS))
    return total


def _terms_grads(params: MfParams, store: InteractionStore, terms, reg_lambda, rows=None):
    """Value and factor gradients of the objective ``terms``.

    With ``rows``, term t sums over only its pairs at positions
    ``rows[t]``. A factor in several terms gets the sum of their gradients.
    """
    loss, grads = 0.0, {}
    for t, (u, v, view) in enumerate(terms):
        pairs = getattr(store, view)[:3]
        if rows is not None:
            pairs = [a[rows[t]] for a in pairs]
        term, (du, dv) = _pair_loss_grads(getattr(params, u), getattr(params, v), *pairs,
                                          reg_lambda)
        loss += term
        for name, g in ((u, du), (v, dv)):
            grads[name] = grads[name] + g if name in grads else g
    return loss, grads


def rating_loss(params: MfParams, store: InteractionStore, reg_lambda: float) -> float:
    """Rating objective over the observed ratings."""
    return _terms_loss(params, store, _RATING, reg_lambda)


def rating_loss_grads(params: MfParams, store: InteractionStore, reg_lambda: float):
    """Rating objective value plus gradients for its two factor blocks."""
    return _terms_grads(params, store, _RATING, reg_lambda)


def reliability_loss(params: MfParams, store: InteractionStore, reg_lambda: float) -> float:
    """Reliability-only objective over the scored pairs."""
    return _terms_loss(params, store, _RELIABILITY, reg_lambda)


def reliability_loss_grads(params: MfParams, store: InteractionStore, reg_lambda: float):
    return _terms_grads(params, store, _RELIABILITY, reg_lambda)


def joint_loss(params: MfParams, store: InteractionStore, reg_lambda: float) -> float:
    """Joint objective: shared user factors fit ratings and reliability.

    Each factor's regularization weight is the number of residual terms
    it appears in, so the shared user factors are weighted by their
    rating count plus their reliability count.
    """
    return _terms_loss(params, store, _JOINT, reg_lambda)


def joint_loss_grads(params: MfParams, store: InteractionStore, reg_lambda: float):
    return _terms_grads(params, store, _JOINT, reg_lambda)


def _fit_factors(params: MfParams, store, terms, hyper, rng, phase, val_store, on_epoch):
    """Mini-batch Adam over the objective ``terms``, in place: the factors
    the terms name train, and every other array keeps its values.

    Each epoch permutes the pairs of all terms together. Validation MAE
    reads the first term's factors.
    """
    sizes = [getattr(store, view).idx_u.size for *_, view in terms]
    kinds = np.repeat(np.arange(len(terms)), sizes)
    starts = np.cumsum(sizes) - sizes

    def batch_grads(batch):
        kind = kinds[batch]
        rows = [batch[kind == t] - starts[t] for t in range(len(terms))]
        return _terms_grads(params, store, terms, hyper.reg_lambda, rows)

    u_mat, v_mat = getattr(params, terms[0][0]), getattr(params, terms[0][1])

    def predict(idx_u, idx_p):
        return MAX_RATING * sigmoid(np.einsum("kb,kb->b", u_mat[:, idx_u], v_mat[:, idx_p]))

    fit(param_dict(params), batch_grads,
        lambda: _terms_loss(params, store, terms, hyper.reg_lambda), kinds.size, hyper.fit, rng,
        phase, val_loss=val_mae(predict, val_store), on_epoch=on_epoch)


def _embedding_batch(params: MfParams, idx_u, idx_p):
    """Pair embeddings for index arrays, shape (batch, K), and the cache
    that :func:`_backward_from_theta` reads."""
    rating = (params.user_rating[:, idx_u] * params.prod_rating[:, idx_p]).T
    joint = (params.user_joint[:, idx_u] * params.prod_joint[:, idx_p]).T
    theta = rating @ params.proj_rating.T + joint @ params.proj_joint.T
    return theta, {"idx_u": idx_u, "idx_p": idx_p, "rating": rating, "joint": joint}


def _backward_from_theta(params: MfParams, cache: dict, d_theta, tables: bool) -> dict:
    """Gradients of the two projections under the pair embedding and, with
    ``tables``, of the four factor tables they mix; without ``tables`` the
    tables get no gradient at all: their scatter is skipped."""
    grads = {"proj_rating": d_theta.T @ cache["rating"], "proj_joint": d_theta.T @ cache["joint"]}
    if tables:
        idx_u, idx_p = cache["idx_u"], cache["idx_p"]
        for user, prod, proj in (("user_rating", "prod_rating", params.proj_rating),
                                 ("user_joint", "prod_joint", params.proj_joint)):
            d_prod = d_theta @ proj
            u_cols = getattr(params, user)[:, idx_u].T
            v_cols = getattr(params, prod)[:, idx_p].T
            grads[user] = _scatter_cols(params.n_users, idx_u, d_prod * v_cols)
            grads[prod] = _scatter_cols(params.n_products, idx_p, d_prod * u_cols)
    return grads


def _forward_batch(params: MfParams, idx_u, idx_p):
    """Raw predictions of the branch's own head for index arrays, and the
    cache that :func:`_backward_batch` reads."""
    theta, cache = _embedding_batch(params, idx_u, idx_p)
    cache["head_hidden"], raw = head_forward(theta, params.head, params.reg_w, params.reg_b)
    cache["theta"] = theta
    return raw, cache


def _backward_batch(params: MfParams, cache: dict, d_raw) -> dict:
    """Gradients of sum(d_raw * raw_prediction) for the head and the two
    projections; the factor tables stay frozen and get none."""
    grads, d_theta = head_backward(cache["theta"], cache["head_hidden"], params.head,
                                   params.reg_w, d_raw)
    grads.update(_backward_from_theta(params, cache, d_theta, tables=False))
    return grads


def train_mf(
    store: InteractionStore,
    hyper: MfHyperparams,
    val_store: InteractionStore | None = None,
    on_epoch=None,
) -> MfParams:
    """Train the full linear branch.

    Runs the rating objective, then the joint objective, then the MAE
    head, each with mini-batch Adam. With a ``val_store``, any phase
    stops early once its validation MAE has not improved for
    ``hyper.fit.patience`` consecutive epochs, and each phase ends on the
    weights of its best validation epoch. Deterministic for a fixed
    seed. Raises :class:`TrainingDivergedError` on NaN/inf losses.
    """
    if not len(store.ratings):
        raise ValueError("store has no ratings to train on")
    rng = np.random.default_rng(hyper.fit.seed)
    (w, z), (e, f) = svd_init(store, hyper.latent_dim)
    k, p = hyper.latent_dim, hyper.predictive_dim
    params = MfParams(
        user_rating=w.copy(),
        prod_rating=z.copy(),
        user_joint=e.copy(),
        prod_joint=z.copy(),
        prod_rel=f.copy(),
        proj_rating=rng.normal(0.0, _INIT_SCALE, (k, k)),
        proj_joint=rng.normal(0.0, _INIT_SCALE, (k, k)),
        head=rng.normal(0.0, _INIT_SCALE, (k, p)),
        reg_w=rng.normal(0.0, _INIT_SCALE, p),
        reg_b=np.zeros(1),
    )

    _fit_factors(params, store, _RATING, hyper, rng, "mf-rating", val_store, on_epoch)
    _fit_factors(params, store, _JOINT, hyper, rng, "mf-joint", val_store, on_epoch)
    fit_mae(param_dict(params), functools.partial(_forward_batch, params),
            functools.partial(_backward_batch, params), store, hyper.fit, rng, "mf-head",
            val_store, on_epoch)
    return params


def factor_predict(params: MfParams, idx_u, idx_p, branch: str = "joint") -> np.ndarray:
    """Raw-scale predictions straight from one factor model.

    ``branch="joint"`` uses sigmoid(e_i . z_j), ``branch="rating"`` uses
    sigmoid(w_i . z_j); both are rescaled and clamped to the 1..5 range.
    """
    if branch == "joint":
        u_mat, v_mat = params.user_joint, params.prod_joint
    elif branch == "rating":
        u_mat, v_mat = params.user_rating, params.prod_rating
    else:
        raise ValueError(f"unknown branch {branch!r}")
    idx_u = np.asarray(idx_u, dtype=np.intp)
    idx_p = np.asarray(idx_p, dtype=np.intp)
    for idx, n in ((idx_u, params.n_users), (idx_p, params.n_products)):
        if np.any((idx < 0) | (idx >= n)):
            raise IndexError(f"index outside a factor table of {n} columns")
    dots = np.einsum("kb,kb->b", u_mat[:, idx_u], v_mat[:, idx_p])
    return np.clip(MAX_RATING * sigmoid(dots), float(MIN_RATING), float(MAX_RATING))


def section_shapes(meta: dict) -> dict:
    """Name -> shape of every section that checkpoint ``meta`` implies."""
    n, m = meta["n_users"], meta["n_products"]
    k, p = meta["latent_dim"], meta["predictive_dim"]
    return {"user_rating": (k, n), "prod_rating": (k, m), "user_joint": (k, n),
            "prod_joint": (k, m), "prod_rel": (k, m), "proj_rating": (k, k),
            "proj_joint": (k, k), "head": (k, p), "reg_w": (p,), "reg_b": (1,)}


def params_from_sections(arrays: dict, prefix: str = "") -> MfParams:
    return MfParams(**{f.name: arrays[prefix + f.name] for f in fields(MfParams)})


def save_mf(params: MfParams, path) -> None:
    meta = {
        "n_users": params.n_users,
        "n_products": params.n_products,
        "latent_dim": params.latent_dim,
        "predictive_dim": params.predictive_dim,
    }
    checkpoint.save_model_sections(path, "mf", meta, param_dict(params), section_shapes)


def load_mf(path) -> MfParams:
    _, arrays = checkpoint.load_model_sections(path, "mf", section_shapes)
    return params_from_sections(arrays)
