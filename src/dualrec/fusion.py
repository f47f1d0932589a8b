"""Blended head over the linear and non-linear branches.

The fused model concatenates the two branch pair embeddings, applies a
p x (K + p) weight matrix and a final linear regression. At
initialization the weight matrix is assembled blockwise from the two
pre-trained branch heads, scaled by ``gamma`` and ``1 - gamma``, so the
blend constant decides how much each branch contributes before
fine-tuning; the regression head starts from the average of the two
branch regression heads. Fine-tuning backpropagates raw-scale MAE into
the fused head and each branch's dense layers (the MF projections, the
MLP fusion layers and tower). The pre-trained user and product embedding
tables stay fixed: no gradient is computed for them. Only a model built
from random noise (:func:`init_fusion_random`, a library-only baseline)
trains its tables as well.
"""

import copy
import functools
from dataclasses import dataclass

import numpy as np

from . import checkpoint, mf_model, mlp_model
from .ingest import MAX_RATING, MIN_RATING, InteractionStore
from .reliability import check_unit
from .training import (INIT_SCALE, FitHyperparams, fit_mae, head_backward, head_forward,
                       init_sections, predict_chunked)
from .mf_model import MfParams
from .mlp_model import MlpParams

__all__ = [
    "FusionModel",
    "init_fusion",
    "init_fusion_random",
    "param_dict",
    "train_fusion",
    "predict_batch",
    "save_fusion",
    "load_fusion",
]

DEFAULT_GAMMA = 0.5  # the blend weight of the MF branch at initialization


@dataclass
class FusionModel:
    mf: MfParams
    mlp: MlpParams
    concat_w: np.ndarray  # p x (K + p), left block reads the MF embedding
    reg_w: np.ndarray  # p
    reg_b: np.ndarray  # (1,)
    gamma: float
    global_mean: float = 3.0  # raw-scale fallback for unknown indices
    train_tables: bool = False  # fine-tuning updates the embedding tables too

    @property
    def latent_dim(self) -> int:
        return self.mf.latent_dim

    def copy(self) -> "FusionModel":
        return copy.deepcopy(self)


def init_fusion(mf: MfParams, mlp: MlpParams, gamma: float = DEFAULT_GAMMA) -> FusionModel:
    """Assemble the fused model from two pre-trained branches.

    ``concat_w`` gets the MF head (transposed) times gamma on the left
    and the MLP head times (1 - gamma) on the right; the regression head
    is the average of the branch regression heads. Branch parameters are
    deep-copied so later fine-tuning cannot disturb the inputs; the
    pre-trained embedding tables do not train. ValueError unless gamma is
    in [0, 1] and the two branches agree on head width, on latent size and
    on users x products.
    """
    check_unit("gamma", gamma)
    if mf.predictive_dim != mlp.predictive_dim:
        raise ValueError(
            f"branch head widths differ: mf={mf.predictive_dim}, mlp={mlp.predictive_dim}"
        )
    if mf.latent_dim != mlp.latent_dim:  # the checkpoint meta holds one latent_dim
        raise ValueError(f"branch latent sizes differ: mf={mf.latent_dim}, mlp={mlp.latent_dim}")
    if (mf.n_users, mf.n_products) != (mlp.n_users, mlp.n_products):
        raise ValueError(f"branch tables differ: mf has {mf.n_users} users x {mf.n_products} "
                         f"products, mlp {mlp.n_users} x {mlp.n_products}")
    concat_w = np.hstack([gamma * mf.head.T, (1.0 - gamma) * mlp.head.T])
    return FusionModel(
        mf=mf.copy(),
        mlp=mlp.copy(),
        concat_w=concat_w,
        reg_w=(mf.reg_w + mlp.reg_w) / 2.0,
        reg_b=(mf.reg_b + mlp.reg_b) / 2.0,
        gamma=gamma,
    )


def init_fusion_random(n_users: int, n_products: int, latent_dim: int, tower_widths, seed: int,
                       gamma: float = DEFAULT_GAMMA, scale: float = INIT_SCALE) -> FusionModel:
    """Fused model with every parameter freshly Gaussian-initialized.

    The no-pre-training baseline: factor matrices, both branch stacks and
    the fused head all start from Gaussian(0, scale) noise, and
    fine-tuning trains the embedding tables with everything else. The MLP
    branch is :func:`mlp_model.init_mlp` under ``seed + 1``; every other
    section is drawn under ``seed``. ValueError unless gamma is in [0, 1].
    """
    check_unit("gamma", gamma)
    mlp = mlp_model.init_mlp(n_users, n_products, latent_dim, tower_widths, seed + 1, scale)
    meta = mlp_model._meta(mlp.n_users, mlp.n_products, mlp.latent_dim, mlp.tower_widths)
    given = {"mlp/" + name: a for name, a in mlp_model.param_dict(mlp).items()}
    arrays = init_sections(_section_shapes(meta), np.random.default_rng(seed), scale, given)
    return _from_sections(meta, arrays, gamma, train_tables=True)


def _forward_batch(model: FusionModel, idx_u, idx_p):
    """Raw predictions for index arrays from each branch's pair embedding,
    never a branch's own head, and the cache :func:`_grads_batch` reads."""
    theta_mf, mf_cache = mf_model._embedding_batch(model.mf, idx_u, idx_p)
    theta_mlp, mlp_cache = mlp_model._embedding_batch(model.mlp, idx_u, idx_p)
    concat = np.concatenate([theta_mf, theta_mlp], axis=1)
    hidden, raw = head_forward(concat, model.concat_w.T, model.reg_w, model.reg_b)
    cache = {"mf_cache": mf_cache, "mlp_cache": mlp_cache, "concat": concat,
             "hidden": hidden, "idx_u": idx_u, "idx_p": idx_p}
    return raw, cache


def predict_batch(model: FusionModel, pairs) -> list[float]:
    """Raw predictions clamped to [1, 5], in input order.

    ``pairs`` is a sequence of (user, product) indices or an (n, 2)
    integer array. Pairs with an out-of-range user or product index fall
    back to the model's global training mean. Known pairs are scored
    ``CHUNK_PAIRS`` at a time, and each chunk's forward cache is dropped
    before the next.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    idx_u, idx_p = pairs[:, 0], pairs[:, 1]
    known = (idx_u >= 0) & (idx_u < model.mf.n_users) & (idx_p >= 0) & (idx_p < model.mf.n_products)
    out = np.full(len(pairs), model.global_mean)
    out[known] = predict_chunked(lambda bu, bp: _forward_batch(model, bu, bp)[0],
                                 idx_u[known], idx_p[known])
    return np.clip(out, MIN_RATING, MAX_RATING).tolist()


def param_dict(model: FusionModel) -> dict:
    """Name -> array of every parameter, in checkpoint section order: each
    branch's under ``mf/`` and ``mlp/``, then the fused head's."""
    out = {"mf/" + name: a for name, a in mf_model.param_dict(model.mf).items()}
    out.update({"mlp/" + name: a for name, a in mlp_model.param_dict(model.mlp).items()})
    out.update(concat_w=model.concat_w, reg_w=model.reg_w, reg_b=model.reg_b)
    return out


def _grads_batch(model: FusionModel, cache: dict, d_raw) -> dict:
    """Gradients of sum(d_raw * raw) for the arrays fine-tuning trains: the
    fused head, each branch's dense layers, and with ``model.train_tables``
    the embedding tables too. Fixed tables get no scatter: their gradients
    are never computed.
    """
    head_grads, d_concat = head_backward(cache["concat"], cache["hidden"], model.concat_w.T,
                                         model.reg_w, d_raw)
    grads = {"concat_w": head_grads.pop("head").T, **head_grads}
    k = model.latent_dim
    for prefix, branch, params, d_theta in (
            ("mf", mf_model, model.mf, d_concat[:, :k]),
            ("mlp", mlp_model, model.mlp, d_concat[:, k:])):
        branch_grads = branch._backward_from_theta(params, cache[prefix + "_cache"], d_theta,
                                                   model.train_tables)
        grads.update({f"{prefix}/{name}": g for name, g in branch_grads.items()})
    return grads


def train_fusion(
    model: FusionModel,
    store: InteractionStore,
    hyper: FitHyperparams,
    val_store: InteractionStore | None = None,
    on_epoch=None,
) -> FusionModel:
    """Fine-tune a copy of the model with raw-scale MAE.

    The input model is left untouched. The fused head (concat weights
    plus regression) trains, and so do the branches' dense layers: the
    MF projections ``proj_rating`` and ``proj_joint``, and the MLP fusion
    layers and tower. The embedding tables train only when
    ``model.train_tables`` is set, as :func:`init_fusion_random` does;
    the pre-trained tables of an :func:`init_fusion` model stay as they
    are. Early stopping mirrors
    the branch trainers: with a ``val_store``, training stops once
    validation MAE has not improved for ``hyper.patience`` epochs, and
    the returned model has the weights of the best validation epoch.
    """
    model = model.copy()
    model.global_mean = store.global_mean_raw()  # ValueError for a store without ratings
    fit_mae(param_dict(model), functools.partial(_forward_batch, model),
            functools.partial(_grads_batch, model), store, hyper,
            np.random.default_rng(hyper.seed), "fusion", val_store, on_epoch)
    return model


def save_fusion(model: FusionModel, path) -> None:
    mlp = model.mlp  # the branches agree on every size, so the MLP's meta is the whole model's
    meta = {**mlp_model._meta(mlp.n_users, mlp.n_products, mlp.latent_dim, mlp.tower_widths),
            "gamma": model.gamma, "global_mean": model.global_mean}
    checkpoint.save_model_sections(path, "fusion", meta, param_dict(model), _section_shapes)


def _section_shapes(meta: dict) -> dict:
    """Name -> shape of every section that checkpoint ``meta`` implies."""
    shapes = {"mf/" + name: s for name, s in mf_model.section_shapes(meta).items()}
    shapes.update({"mlp/" + name: s for name, s in mlp_model.section_shapes(meta).items()})
    k, p = meta["latent_dim"], shapes["mlp/reg_w"][0]
    shapes.update(concat_w=(p, k + p), reg_w=(p,), reg_b=(1,))
    return shapes


def load_fusion(path) -> FusionModel:
    meta, arrays = checkpoint.load_model_sections(path, "fusion", _section_shapes)
    gamma, mean = meta.get("gamma"), meta.get("global_mean")
    numeric = not set(map(type, (gamma, mean))) - {int, float}
    if not (numeric and 0 <= gamma <= 1 and MIN_RATING <= mean <= MAX_RATING):
        raise ValueError(f"{path}: fusion meta needs a gamma in [0, 1] and a global_mean in "
                         f"[{MIN_RATING}, {MAX_RATING}], got {gamma!r} and {mean!r}")
    return _from_sections(meta, arrays, float(gamma), global_mean=float(mean))


def _from_sections(meta: dict, arrays: dict, gamma: float, **fields) -> FusionModel:
    """The fused model of checkpoint ``meta`` from its sections, with
    ``gamma`` and the other :class:`FusionModel` ``fields`` given."""
    return FusionModel(mf=mf_model.params_from_sections(arrays, prefix="mf/"),
                       mlp=mlp_model.params_from_sections(arrays, len(meta["tower"]), "mlp/"),
                       concat_w=arrays["concat_w"], reg_w=arrays["reg_w"], reg_b=arrays["reg_b"],
                       gamma=gamma, **fields)
