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
raw ratings, factors frozen.
"""

import copy
import functools
from dataclasses import dataclass, fields

import numpy as np

from . import checkpoint
from .ingest import MAX_RATING, InteractionStore
from .linalg import PairMatrix, scatter_rows, sigmoid, truncated_svd
from .training import CHUNK_PAIRS, FitHyperparams, fit, head_forward, mean_abs_error, val_mae

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
    "mf_embedding",
    "mf_predict",
    "factor_predict",
    "save_mf",
    "load_mf",
]


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
    predictive_dim: int = 8
    reg_lambda: float = 0.1
    init_scale: float = 0.01
    fit: FitHyperparams = FitHyperparams()

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
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


def _sq_data_term(u_mat, v_mat, idx_u, idx_p, targets):
    """Squared-error data term and the per-pair residual coefficient.

    The coefficient is d(term)/d(u_i . v_j), i.e. 2 (pred - target)
    pred (1 - pred) with pred = sigmoid(u_i . v_j).
    """
    if idx_u.size == 0:
        return 0.0, np.zeros(0)
    dots = np.einsum("kb,kb->b", u_mat[:, idx_u], v_mat[:, idx_p])
    preds = sigmoid(dots)
    resid = preds - targets
    coef = 2.0 * resid * preds * (1.0 - preds)
    return float(np.sum(resid**2)), coef


def _scatter_cols(n_cols: int, idx, contrib):
    """Accumulate per-pair K-vectors into the indexed columns of a K x n_cols table."""
    return scatter_rows(n_cols, idx, contrib).T


def rating_loss(params: MfParams, store: InteractionStore, reg_lambda: float) -> float:
    """Rating objective over the observed ratings."""
    return _pair_loss_value(
        params.user_rating, params.prod_rating, *store.rated_arrays[:3], reg_lambda
    )


def rating_loss_grads(params: MfParams, store: InteractionStore, reg_lambda: float):
    """Rating objective value plus gradients for its two factor blocks."""
    loss, grads = _pair_loss_grads(
        params.user_rating, params.prod_rating, *store.rated_arrays[:3], reg_lambda
    )
    return loss, {"user_rating": grads[0], "prod_rating": grads[1]}


def _pair_loss_grads(u_mat, v_mat, idx_u, idx_p, targets, reg_lambda):
    """Loss and gradients of one squared data term with per-pair L2.

    The count-weighted regularizer equals a per-observed-pair penalty
    lambda (|u_i|^2 + |v_j|^2), which is the form used here so that
    mini-batches of pairs sum exactly to the full objective.
    """
    term, coef = _sq_data_term(u_mat, v_mat, idx_u, idx_p, targets)
    u_cols = u_mat[:, idx_u].T
    v_cols = v_mat[:, idx_p].T
    reg = reg_lambda * float(np.sum(u_cols**2) + np.sum(v_cols**2))
    du = _scatter_cols(u_mat.shape[1], idx_u, coef[:, None] * v_cols + 2.0 * reg_lambda * u_cols)
    dv = _scatter_cols(v_mat.shape[1], idx_p, coef[:, None] * u_cols + 2.0 * reg_lambda * v_cols)
    return term + reg, (du, dv)


def _pair_loss_value(u_mat, v_mat, idx_u, idx_p, targets, reg_lambda):
    """Loss of one squared data term with per-pair L2, no gradients.

    Evaluated ``CHUNK_PAIRS`` pairs at a time so the gathered column
    blocks stay cache-resident regardless of how many pairs are observed.
    """
    total = 0.0
    for start in range(0, idx_u.size, CHUNK_PAIRS):
        sl = slice(start, start + CHUNK_PAIRS)
        term, _ = _sq_data_term(u_mat, v_mat, idx_u[sl], idx_p[sl], targets[sl])
        total += term + reg_lambda * float(
            np.sum(u_mat[:, idx_u[sl]] ** 2) + np.sum(v_mat[:, idx_p[sl]] ** 2)
        )
    return total


def reliability_loss(params: MfParams, store: InteractionStore, reg_lambda: float) -> float:
    """Reliability-only objective over the scored pairs."""
    return _pair_loss_value(
        params.user_joint, params.prod_rel, *store.scored_arrays[:3], reg_lambda
    )


def reliability_loss_grads(params: MfParams, store: InteractionStore, reg_lambda: float):
    loss, grads = _pair_loss_grads(
        params.user_joint, params.prod_rel, *store.scored_arrays[:3], reg_lambda
    )
    return loss, {"user_joint": grads[0], "prod_rel": grads[1]}


def joint_loss(params: MfParams, store: InteractionStore, reg_lambda: float) -> float:
    """Joint objective: shared user factors fit ratings and reliability.

    Each factor's regularization weight is the number of residual terms
    it appears in, so the shared user factors are weighted by their
    rating count plus their reliability count.
    """
    return _pair_loss_value(
        params.user_joint, params.prod_joint, *store.rated_arrays[:3], reg_lambda
    ) + reliability_loss(params, store, reg_lambda)


def joint_loss_grads(params: MfParams, store: InteractionStore, reg_lambda: float):
    loss_r, (de_r, dz) = _pair_loss_grads(
        params.user_joint, params.prod_joint, *store.rated_arrays[:3], reg_lambda
    )
    loss_s, rel = reliability_loss_grads(params, store, reg_lambda)
    grads = {"user_joint": de_r + rel["user_joint"], "prod_joint": dz, "prod_rel": rel["prod_rel"]}
    return loss_r + loss_s, grads


def _fit_factors(params: MfParams, terms, hyper, rng, phase, val_store, on_epoch):
    """Mini-batch Adam over a sum of squared pair terms, in place.

    ``terms`` lists (user factor name, product factor name, PairArrays);
    each epoch permutes the pairs of all terms together. Validation MAE
    reads the first term's factors.
    """
    weights = {}
    for u_name, v_name, _ in terms:
        weights[u_name] = getattr(params, u_name)
        weights[v_name] = getattr(params, v_name)
    kinds = np.concatenate([np.full(a.idx_u.size, t) for t, (_, _, a) in enumerate(terms)])
    all_u = np.concatenate([a.idx_u for _, _, a in terms])
    all_p = np.concatenate([a.idx_p for _, _, a in terms])
    all_vals = np.concatenate([a.values for _, _, a in terms])

    def batch_grads(batch):
        grads = {}
        for t, (u_name, v_name, _) in enumerate(terms):
            rows = batch[kinds[batch] == t]
            _, (du, dv) = _pair_loss_grads(
                weights[u_name], weights[v_name],
                all_u[rows], all_p[rows], all_vals[rows], hyper.reg_lambda,
            )
            for name, g in ((u_name, du), (v_name, dv)):
                grads[name] = grads[name] + g if name in grads else g
        return grads

    def full_loss():
        return sum(
            _pair_loss_value(weights[u], weights[v], *a[:3], hyper.reg_lambda)
            for u, v, a in terms
        )

    u_mat, v_mat = weights[terms[0][0]], weights[terms[0][1]]

    def predict(idx_u, idx_p):
        return MAX_RATING * sigmoid(np.einsum("kb,kb->b", u_mat[:, idx_u], v_mat[:, idx_p]))

    fit(weights, batch_grads, full_loss, all_u.size, hyper.fit, rng, phase,
        val_loss=val_mae(predict, val_store), on_epoch=on_epoch)


def _embedding_batch(params: MfParams, idx_u, idx_p):
    """Pair embeddings for index arrays; shape (batch, K)."""
    rating = (params.user_rating[:, idx_u] * params.prod_rating[:, idx_p]).T
    joint = (params.user_joint[:, idx_u] * params.prod_joint[:, idx_p]).T
    return rating @ params.proj_rating.T + joint @ params.proj_joint.T, rating, joint


def _predict_batch(params: MfParams, idx_u, idx_p):
    theta, _, _ = _embedding_batch(params, idx_u, idx_p)
    return head_forward(theta, params.head, params.reg_w, params.reg_b)[1]


def _fit_head(params: MfParams, store, hyper, rng, val_store, on_epoch):
    """MAE head training with frozen factors (the ``user_*``/``prod_*`` tables)."""
    idx_u, idx_p, _, raw = store.rated_arrays
    weights = {name: w for name, w in param_dict(params).items()
               if not name.startswith(("user_", "prod_"))}

    def batch_grads(batch):
        bu, bp, target = idx_u[batch], idx_p[batch], raw[batch]
        theta, rating, joint = _embedding_batch(params, bu, bp)
        hidden, preds = head_forward(theta, params.head, params.reg_w, params.reg_b)
        sign = np.sign(preds - target) * MAX_RATING
        d_hidden = sign[:, None] * params.reg_w[None, :]
        d_theta = d_hidden @ params.head.T
        return {
            "proj_rating": d_theta.T @ rating,
            "proj_joint": d_theta.T @ joint,
            "head": theta.T @ d_hidden,
            "reg_w": hidden.T @ sign,
            "reg_b": np.array([np.sum(sign)]),
        }

    predict = functools.partial(_predict_batch, params)
    fit(weights, batch_grads, lambda: mean_abs_error(predict, store.rated_arrays),
        idx_u.size, hyper.fit, rng, "mf-head", val_loss=val_mae(predict, val_store),
        on_epoch=on_epoch)


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
        proj_rating=rng.normal(0.0, hyper.init_scale, (k, k)),
        proj_joint=rng.normal(0.0, hyper.init_scale, (k, k)),
        head=rng.normal(0.0, hyper.init_scale, (k, p)),
        reg_w=rng.normal(0.0, hyper.init_scale, p),
        reg_b=np.zeros(1),
    )

    rated, scored = store.rated_arrays, store.scored_arrays
    _fit_factors(params, [("user_rating", "prod_rating", rated)],
                 hyper, rng, "mf-rating", val_store, on_epoch)
    _fit_factors(params, [("user_joint", "prod_joint", rated), ("user_joint", "prod_rel", scored)],
                 hyper, rng, "mf-joint", val_store, on_epoch)
    _fit_head(params, store, hyper, rng, val_store, on_epoch)
    return params


def mf_embedding(params: MfParams, i: int, j: int) -> np.ndarray:
    """K-dim pair embedding mixing both factor models' interactions."""
    if not (0 <= i < params.n_users and 0 <= j < params.n_products):
        raise IndexError(f"pair ({i}, {j}) out of range")
    theta, _, _ = _embedding_batch(params, np.array([i]), np.array([j]))
    return theta[0]


def mf_predict(params: MfParams, i: int, j: int) -> float:
    """Raw-scale rating prediction from the linear branch's own head."""
    theta = mf_embedding(params, i, j)
    _, pred = head_forward(theta[None, :], params.head, params.reg_w, params.reg_b)
    return float(pred[0])


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
    dots = np.einsum("kb,kb->b", u_mat[:, idx_u], v_mat[:, idx_p])
    return np.clip(MAX_RATING * sigmoid(dots), 1.0, float(MAX_RATING))


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
