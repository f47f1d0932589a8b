"""Linear-kernel branch: factor training and its prediction head.

Two factor models are trained on the sparse store. The rating objective
fits sigmoid(w_i . z_j) to the normalized ratings; the joint objective
shares one user matrix between the ratings and the reliability scores,
fitting sigmoid(e_i . z_j) to ratings and sigmoid(e_i . f_j) to
reliability simultaneously. Both use squared error over the observed
entries plus count-weighted L2 regularization, minimized with mini-batch
Adam from an SVD warm start computed over the observed pairs only. The
factor tables are K x n arrays, one column per user or product, stored
column-major (Fortran order): a batch gathers each pair's K factors in
one piece (:func:`_cols`). Their gradient tables have the same layout
(:func:`_scatter_cols`), and so does Adam's view of each table, so the
optimizer copies a gradient into its flat buffer in one contiguous pass.

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
from .training import (CHUNK_PAIRS, FitHyperparams, check_nonnegative, fit, fit_mae,
                       head_backward, head_forward, init_sections, val_mae)

__all__ = [
    "MfParams",
    "MfHyperparams",
    "param_dict",
    "svd_init",
    "RATING",
    "RELIABILITY",
    "JOINT",
    "train_mf",
    "factor_predict",
    "save_mf",
    "load_mf",
]

@dataclass
class MfParams:
    """All parameters of the linear branch.

    Factor matrices store one column per user/product (shape K x n or
    K x m); the term tables say which objective fits each. The field
    order is the checkpoint section order.
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
    predictive_dim: int  # fusion needs the MLP branch's, its last tower width
    reg_lambda: float = 0.1
    fit: FitHyperparams = FitHyperparams()

    def __post_init__(self):
        for name in ("latent_dim", "predictive_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        check_nonnegative("reg_lambda", self.reg_lambda)


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
    ValueError for a ``latent_dim`` above the store's users or products.
    """
    shape = (store.n_users, store.n_products)
    if latent_dim > min(shape):
        raise ValueError(f"latent_dim must be at most the store's {shape[0]} users and "
                         f"{shape[1]} products, got {latent_dim}")

    def decompose(pairs):
        u, s, vt = truncated_svd(PairMatrix(*pairs[:3], shape), latent_dim)
        root = np.sqrt(s)
        return (u * root).T, root[:, None] * vt

    return decompose(store.rated_arrays), decompose(store.scored_arrays)


def _cols(table, idx):
    """Columns ``idx`` of a (K, n) factor table as a (K, batch) block whose
    pairs are contiguous in memory: a row gather from the transpose, which
    for a column-major table reads each column in one piece."""
    return table.T.take(idx, axis=0).T


def _scatter_cols(n_cols: int, idx, contrib):
    """Column-major (K, n_cols) table whose column c sums the columns of the
    (K, batch) block ``contrib`` with ``idx == c``: :func:`scatter_rows` of
    the transposes, bit-identical to ``np.add.at`` into zeros, in the layout
    of the factor tables and of Adam's view of them."""
    return scatter_rows(n_cols, idx, contrib.T).T


# Each factor objective is a table of squared pair terms: (user factor,
# product factor, the store's pairs the two fit). A factor that appears
# in several terms is regularized once per term it appears in. A table's
# first term is the factor model that :func:`factor_predict` scores.
RATING = (("user_rating", "prod_rating", "rated_arrays"),)
RELIABILITY = (("user_joint", "prod_rel", "scored_arrays"),)
# The shared user factors fit ratings and reliability: their regularization
# weight is their rating count plus their reliability count.
JOINT = (("user_joint", "prod_joint", "rated_arrays"),) + RELIABILITY

# The factor tables, each once, and the head's two projections with the
# factor pairs whose elementwise products they mix.
_FACTOR_TABLES = tuple(dict.fromkeys(name for *pair, _ in RATING + JOINT for name in pair))
_HEAD_PAIRS = (("proj_rating", RATING[0][:2]), ("proj_joint", JOINT[0][:2]))


def _pair_loss(u_blk, v_blk, targets, reg_lambda):
    """Value of one squared data term with per-pair L2 over the pairs'
    gathered K x batch factor blocks, with the pairs' predictions
    sigmoid(u_i . v_j) and residuals.

    The count-weighted regularizer equals a per-observed-pair penalty
    lambda (|u_i|^2 + |v_j|^2), which is the form used here so that
    mini-batches of pairs sum exactly to the full objective.
    """
    preds = sigmoid(np.einsum("kb,kb->b", u_blk, v_blk))
    resid = preds - targets
    reg = reg_lambda * float((u_blk * u_blk).sum() + (v_blk * v_blk).sum())
    return float((resid * resid).sum()) + reg, preds, resid


def _pair_loss_grads(u_mat, v_mat, idx_u, idx_p, targets, reg_lambda):
    """Value of :func:`_pair_loss` and its gradients for the two factor tables.

    The per-pair coefficient is d(term)/d(u_i . v_j), i.e. 2 (pred - target)
    pred (1 - pred).
    """
    u_blk, v_blk = _cols(u_mat, idx_u), _cols(v_mat, idx_p)
    loss, preds, resid = _pair_loss(u_blk, v_blk, targets, reg_lambda)
    coef = 2.0 * resid
    coef *= preds
    np.subtract(1.0, preds, out=preds)
    coef *= preds
    reg2 = 2.0 * reg_lambda
    du = coef * v_blk
    du += reg2 * u_blk
    dv = coef * u_blk
    dv += reg2 * v_blk
    return loss, (_scatter_cols(u_mat.shape[1], idx_u, du),
                  _scatter_cols(v_mat.shape[1], idx_p, dv))


def objective_loss(params: MfParams, store: InteractionStore, terms, reg_lambda) -> float:
    """Value of the objective ``terms`` over the store's pairs, summed
    ``CHUNK_PAIRS`` pairs at a time so that the gathered blocks stay small."""
    total = 0.0
    for u, v, view in terms:
        u_mat, v_mat = getattr(params, u), getattr(params, v)
        idx_u, idx_p, targets = getattr(store, view)[:3]
        total += sum(_pair_loss(_cols(u_mat, idx_u[s : s + CHUNK_PAIRS]),
                                _cols(v_mat, idx_p[s : s + CHUNK_PAIRS]),
                                targets[s : s + CHUNK_PAIRS], reg_lambda)[0]
                     for s in range(0, idx_u.size, CHUNK_PAIRS))
    return total


def objective_grads(params: MfParams, store: InteractionStore, terms, reg_lambda, rows=None):
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
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
    return loss, grads


def _factor_scores(params: MfParams, terms, idx_u, idx_p):
    """MAX_RATING * sigmoid(u_i . v_j) of the first term's factors: the
    raw-scale prediction of the objective ``terms``, unclamped."""
    u, v, _ = terms[0]
    u_blk, v_blk = _cols(getattr(params, u), idx_u), _cols(getattr(params, v), idx_p)
    return MAX_RATING * sigmoid(np.einsum("kb,kb->b", u_blk, v_blk))


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
        if len(terms) == 1:  # every pair is the one term's
            rows = [batch]
        else:
            kind = kinds[batch]
            rows = [batch[kind == t] - starts[t] for t in range(len(terms))]
        return objective_grads(params, store, terms, hyper.reg_lambda, rows)

    fit(param_dict(params), batch_grads,
        lambda: objective_loss(params, store, terms, hyper.reg_lambda), kinds.size, hyper.fit,
        rng, phase, val_loss=val_mae(functools.partial(_factor_scores, params, terms), val_store),
        on_epoch=on_epoch)


def _embedding_batch(params: MfParams, idx_u, idx_p):
    """Pair embeddings for index arrays, shape (batch, K), and the cache
    that :func:`_backward_from_theta` reads. Each projection mixes the
    (batch, K) elementwise products of its pair's factor columns."""
    rating, joint = [(_cols(getattr(params, user), idx_u) * _cols(getattr(params, prod), idx_p)).T
                     for _, (user, prod) in _HEAD_PAIRS]
    theta = rating @ params.proj_rating.T
    theta += joint @ params.proj_joint.T
    return theta, {"idx_u": idx_u, "idx_p": idx_p, "products": (rating, joint)}


def _backward_from_theta(params: MfParams, cache: dict, d_theta, tables: bool) -> dict:
    """Gradients of the two projections under the pair embedding and, with
    ``tables``, of the four factor tables they mix; without ``tables`` the
    tables get no gradient at all: their scatter is skipped."""
    grads = {proj: d_theta.T @ products
             for (proj, _), products in zip(_HEAD_PAIRS, cache["products"])}
    if tables:
        idx_u, idx_p = cache["idx_u"], cache["idx_p"]
        for proj, (user, prod) in _HEAD_PAIRS:
            d_prod = (d_theta @ getattr(params, proj)).T
            u_blk = _cols(getattr(params, user), idx_u)
            v_blk = _cols(getattr(params, prod), idx_p)
            grads[user] = _scatter_cols(params.n_users, idx_u, d_prod * v_blk)
            grads[prod] = _scatter_cols(params.n_products, idx_p, d_prod * u_blk)
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
    if not store.raw.size:
        raise ValueError("store has no ratings to train on")
    rng = np.random.default_rng(hyper.fit.seed)
    (w, z), (e, f) = svd_init(store, hyper.latent_dim)
    meta = _meta(store.n_users, store.n_products, hyper.latent_dim, hyper.predictive_dim)
    # each table its own copy of z: asfortranarray would not copy an F-ordered one
    tables = {"user_rating": w, "prod_rating": z.copy(order="F"), "user_joint": e,
              "prod_joint": z.copy(order="F"), "prod_rel": f}
    params = params_from_sections(init_sections(section_shapes(meta), rng, given=tables))

    _fit_factors(params, store, RATING, hyper, rng, "mf-rating", val_store, on_epoch)
    _fit_factors(params, store, JOINT, hyper, rng, "mf-joint", val_store, on_epoch)
    fit_mae(param_dict(params), functools.partial(_forward_batch, params),
            functools.partial(_backward_batch, params), store, hyper.fit, rng, "mf-head",
            val_store, on_epoch)
    return params


def factor_predict(params: MfParams, idx_u, idx_p, terms=JOINT) -> np.ndarray:
    """Raw-scale predictions straight from the factor model of the first
    term of ``terms``: ``JOINT`` scores sigmoid(e_i . z_j), ``RATING``
    sigmoid(w_i . z_j), each rescaled and clamped to the 1..5 range.
    """
    idx_u = np.asarray(idx_u, dtype=np.intp)
    idx_p = np.asarray(idx_p, dtype=np.intp)
    for idx, n in ((idx_u, params.n_users), (idx_p, params.n_products)):
        if np.any((idx < 0) | (idx >= n)):
            raise IndexError(f"index outside a factor table of {n} columns")
    return np.clip(_factor_scores(params, terms, idx_u, idx_p), float(MIN_RATING),
                   float(MAX_RATING))


def section_shapes(meta: dict) -> dict:
    """Name -> shape of every section that checkpoint ``meta`` implies;
    ValueError for a latent size or head width below 1."""
    n, m = meta["n_users"], meta["n_products"]
    k, p = meta["latent_dim"], meta["predictive_dim"]
    if k < 1 or p < 1:
        raise ValueError(f"latent_dim and predictive_dim must be >= 1, got {k} and {p}")
    return {"user_rating": (k, n), "prod_rating": (k, m), "user_joint": (k, n),
            "prod_joint": (k, m), "prod_rel": (k, m), "proj_rating": (k, k),
            "proj_joint": (k, k), "head": (k, p), "reg_w": (p,), "reg_b": (1,)}


def params_from_sections(arrays: dict, prefix: str = "") -> MfParams:
    """The branch from sections named ``prefix + name``, factor tables column-major."""
    return MfParams(**{f.name: np.asfortranarray(arrays[prefix + f.name])
                       if f.name in _FACTOR_TABLES else arrays[prefix + f.name]
                       for f in fields(MfParams)})


def _meta(n_users: int, n_products: int, latent_dim: int, predictive_dim: int) -> dict:
    """The checkpoint meta of a branch of these sizes, for its initializer and its saver."""
    return {"n_users": n_users, "n_products": n_products, "latent_dim": latent_dim,
            "predictive_dim": predictive_dim}


def save_mf(params: MfParams, path) -> None:
    meta = _meta(params.n_users, params.n_products, params.latent_dim, params.predictive_dim)
    checkpoint.save_model_sections(path, "mf", meta, param_dict(params), section_shapes)


def load_mf(path) -> MfParams:
    _, arrays = checkpoint.load_model_sections(path, "mf", section_shapes)
    return params_from_sections(arrays)
