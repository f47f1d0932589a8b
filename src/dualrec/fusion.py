"""Blended head over the linear and non-linear branches.

The fused model concatenates the two branch pair embeddings, applies a
p x (K + p) weight matrix and a final linear regression. At
initialization the weight matrix is assembled blockwise from the two
pre-trained branch heads, scaled by ``gamma`` and ``1 - gamma``, so the
blend constant decides how much each branch contributes before
fine-tuning; the regression head starts from the average of the two
branch regression heads. Fine-tuning backpropagates raw-scale MAE
through everything (both branches included) unless the branches are
frozen.
"""

import copy
from dataclasses import dataclass

import numpy as np

from . import checkpoint, mf_model, mlp_model
from .ingest import MAX_RATING, InteractionStore
from .training import fit, head_forward, mean_abs_error, val_mae
from .mf_model import MfParams
from .mlp_model import MlpParams

__all__ = [
    "FusionModel",
    "FusionHyperparams",
    "init_fusion",
    "init_fusion_random",
    "fused_predict",
    "train_fusion",
    "predict_batch",
    "save_fusion",
    "load_fusion",
]

MIN_RATING = 1.0


@dataclass
class FusionModel:
    mf: MfParams
    mlp: MlpParams
    concat_w: np.ndarray  # p x (K + p), left block reads the MF embedding
    reg_w: np.ndarray  # p
    reg_b: np.ndarray  # (1,)
    gamma: float
    global_mean: float = 3.0  # raw-scale fallback for unknown indices

    @property
    def latent_dim(self) -> int:
        return self.mf.latent_dim

    @property
    def predictive_dim(self) -> int:
        return self.mlp.predictive_dim

    def copy(self) -> "FusionModel":
        return copy.deepcopy(self)


@dataclass
class FusionHyperparams:
    batch_size: int = 512
    epochs: int = 12
    lr: float = 0.001
    lr_decay: float = 1.0  # per-epoch multiplicative factor
    seed: int = 0
    patience: int = 3


def init_fusion(mf: MfParams, mlp: MlpParams, gamma: float = 0.5) -> FusionModel:
    """Assemble the fused model from two pre-trained branches.

    ``concat_w`` gets the MF head (transposed) times gamma on the left
    and the MLP head times (1 - gamma) on the right; the regression head
    is the average of the branch regression heads. Branch parameters are
    deep-copied so later fine-tuning cannot disturb the inputs.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if mf.predictive_dim != mlp.predictive_dim:
        raise ValueError(
            f"branch head widths differ: mf={mf.predictive_dim}, mlp={mlp.predictive_dim}"
        )
    concat_w = np.hstack([gamma * mf.head.T, (1.0 - gamma) * mlp.head.T])
    return FusionModel(
        mf=mf.copy(),
        mlp=mlp.copy(),
        concat_w=concat_w,
        reg_w=(mf.reg_w + mlp.reg_w) / 2.0,
        reg_b=(mf.reg_b + mlp.reg_b) / 2.0,
        gamma=gamma,
    )


def init_fusion_random(
    n_users: int,
    n_products: int,
    latent_dim: int,
    tower_widths,
    seed: int,
    gamma: float = 0.5,
    scale: float = 0.01,
) -> FusionModel:
    """Fused model with every parameter freshly Gaussian-initialized.

    The no-pre-training baseline: factor matrices, both branch stacks and
    the fused head all start from Gaussian(0, scale) noise.
    """
    rng = np.random.default_rng(seed)
    k = latent_dim
    p = int(tower_widths[-1])
    mf = MfParams(
        user_rating=rng.normal(0.0, scale, (k, n_users)),
        prod_rating=rng.normal(0.0, scale, (k, n_products)),
        user_joint=rng.normal(0.0, scale, (k, n_users)),
        prod_joint=rng.normal(0.0, scale, (k, n_products)),
        prod_rel=rng.normal(0.0, scale, (k, n_products)),
        proj_rating=rng.normal(0.0, scale, (k, k)),
        proj_joint=rng.normal(0.0, scale, (k, k)),
        head=rng.normal(0.0, scale, (k, p)),
        reg_w=rng.normal(0.0, scale, p),
        reg_b=np.zeros(1),
    )
    mlp = mlp_model.init_mlp(n_users, n_products, k, tower_widths, seed + 1, scale)
    return FusionModel(
        mf=mf,
        mlp=mlp,
        concat_w=rng.normal(0.0, scale, (p, k + p)),
        reg_w=rng.normal(0.0, scale, p),
        reg_b=np.zeros(1),
        gamma=gamma,
    )


def _forward_batch(model: FusionModel, idx_u, idx_p):
    theta_mf, rating, joint = mf_model._embedding_batch(model.mf, idx_u, idx_p)
    theta_mlp, mlp_cache = mlp_model._forward_batch(model.mlp, idx_u, idx_p)
    concat = np.concatenate([theta_mf, theta_mlp], axis=1)
    hidden, raw = head_forward(concat, model.concat_w.T, model.reg_w, model.reg_b)
    cache = {
        "rating": rating,
        "joint": joint,
        "mlp_cache": mlp_cache,
        "concat": concat,
        "hidden": hidden,
        "idx_u": idx_u,
        "idx_p": idx_p,
    }
    return raw, cache


def fused_predict(model: FusionModel, i: int, j: int) -> float:
    """Unclamped raw-scale prediction for one known index pair."""
    if not (0 <= i < model.mf.n_users and 0 <= j < model.mf.n_products):
        raise IndexError(f"pair ({i}, {j}) out of range")
    raw, _ = _forward_batch(model, np.array([i]), np.array([j]))
    return float(raw[0])


def predict_batch(model: FusionModel, pairs) -> list[float]:
    """Raw predictions clamped to [1, 5], in input order.

    Pairs with an out-of-range user or product index fall back to the
    model's global training mean.
    """
    pairs = list(pairs)
    out = [model.global_mean] * len(pairs)
    known = [
        k for k, (i, j) in enumerate(pairs)
        if 0 <= i < model.mf.n_users and 0 <= j < model.mf.n_products
    ]
    if known:
        idx_u = np.array([pairs[k][0] for k in known], dtype=np.intp)
        idx_p = np.array([pairs[k][1] for k in known], dtype=np.intp)
        raw, _ = _forward_batch(model, idx_u, idx_p)
        for k, value in zip(known, raw):
            out[k] = float(value)
    return [min(max(v, MIN_RATING), float(MAX_RATING)) for v in out]


# Branch parameters the fused forward pass never reads: each branch's own
# head, which the fused head bypasses, and the reliability-only factors.
_UNREAD = ("head", "reg_w", "reg_b", "prod_rel")


def _branch_entries(prefix: str, table: dict) -> dict:
    """``prefix + name`` -> array for the branch entries the fused forward pass reads."""
    return {prefix + name: a for name, a in table.items() if name not in _UNREAD}


def _param_dict(model: FusionModel, freeze_branches: bool) -> dict:
    """The arrays fine-tuning trains: the fused head, and unless the
    branches are frozen, every branch parameter the forward pass reads."""
    out = {"concat_w": model.concat_w, "reg_w": model.reg_w, "reg_b": model.reg_b}
    if not freeze_branches:
        out.update(_branch_entries("mf/", mf_model.param_dict(model.mf)))
        out.update(_branch_entries("mlp/", mlp_model.param_dict(model.mlp)))
    return out


def _grads_batch(model: FusionModel, cache: dict, d_raw, freeze_branches: bool) -> dict:
    """Gradients of sum(d_raw * raw) for the trainable parameter dict."""
    d_norm = MAX_RATING * d_raw
    d_hidden = d_norm[:, None] * model.reg_w[None, :]
    grads = {
        "concat_w": d_hidden.T @ cache["concat"],
        "reg_w": cache["hidden"].T @ d_norm,
        "reg_b": np.array([np.sum(d_norm)]),
    }
    if freeze_branches:
        return grads
    d_concat = d_hidden @ model.concat_w
    k = model.latent_dim
    d_theta_mf = d_concat[:, :k]

    mf = model.mf
    idx_u, idx_p = cache["idx_u"], cache["idx_p"]
    d_rating = d_theta_mf @ mf.proj_rating
    d_joint = d_theta_mf @ mf.proj_joint
    mf_grads = {
        "proj_rating": d_theta_mf.T @ cache["rating"],
        "proj_joint": d_theta_mf.T @ cache["joint"],
    }
    for user, prod, d_prod in (("user_rating", "prod_rating", d_rating),
                               ("user_joint", "prod_joint", d_joint)):
        u_cols = getattr(mf, user)[:, idx_u].T
        v_cols = getattr(mf, prod)[:, idx_p].T
        mf_grads[user] = mf_model._scatter_cols(mf.n_users, k, idx_u, d_prod * v_cols)
        mf_grads[prod] = mf_model._scatter_cols(mf.n_products, k, idx_p, d_prod * u_cols)
    grads.update(_branch_entries("mf/", mf_grads))

    mlp_grads = mlp_model._zero_grads(model.mlp)
    mlp_model._backward_from_theta(model.mlp, cache["mlp_cache"], d_concat[:, k:], mlp_grads)
    grads.update(_branch_entries("mlp/", mlp_grads))
    return grads


def train_fusion(
    model: FusionModel,
    store: InteractionStore,
    hyper: FusionHyperparams,
    val_store: InteractionStore | None = None,
    freeze_branches: bool = False,
    on_epoch=None,
) -> FusionModel:
    """Fine-tune a copy of the model end to end with raw-scale MAE.

    The input model is left untouched. With ``freeze_branches`` only the
    fused head (concat weights plus regression) trains. Early stopping
    mirrors the branch trainers: with a ``val_store``, training stops
    once validation MAE has not improved for ``hyper.patience`` epochs,
    and the returned model has the weights of the best validation epoch.
    """
    model = model.copy()
    model.global_mean = store.global_mean_raw()  # ValueError for a store without ratings

    idx_u, idx_p, _, raw = store.rated_arrays

    def batch_grads(batch):
        preds, cache = _forward_batch(model, idx_u[batch], idx_p[batch])
        return _grads_batch(model, cache, np.sign(preds - raw[batch]), freeze_branches)

    def predict(bu, bp):
        return _forward_batch(model, bu, bp)[0]

    fit(_param_dict(model, freeze_branches), batch_grads,
        lambda: mean_abs_error(predict, store.rated_arrays), idx_u.size, hyper,
        np.random.default_rng(hyper.seed), "fusion", val_loss=val_mae(predict, val_store),
        on_epoch=on_epoch)
    return model


def save_fusion(model: FusionModel, path) -> None:
    sections = {"mf/" + name: a for name, a in mf_model.param_dict(model.mf).items()}
    sections.update({"mlp/" + name: a for name, a in mlp_model.param_dict(model.mlp).items()})
    sections.update(concat_w=model.concat_w, reg_w=model.reg_w, reg_b=model.reg_b)
    meta = {
        "n_users": model.mf.n_users,
        "n_products": model.mf.n_products,
        "latent_dim": model.latent_dim,
        "predictive_dim": model.predictive_dim,
        "tower": list(model.mlp.tower_widths),
        "gamma": model.gamma,
        "global_mean": model.global_mean,
    }
    checkpoint.save_model_sections(path, "fusion", meta, sections, _section_shapes)


def _section_shapes(meta: dict) -> dict:
    """Name -> shape of every section that checkpoint ``meta`` implies."""
    shapes = {"mf/" + name: s for name, s in mf_model.section_shapes(meta).items()}
    shapes.update({"mlp/" + name: s for name, s in mlp_model.section_shapes(meta).items()})
    k, p = meta["latent_dim"], shapes["mlp/reg_w"][0]
    shapes.update(concat_w=(p, k + p), reg_w=(p,), reg_b=(1,))
    return shapes


def load_fusion(path) -> FusionModel:
    meta, arrays = checkpoint.load_model_sections(path, "fusion", _section_shapes)
    scalars = [meta.get("gamma"), meta.get("global_mean")]
    if set(map(type, scalars)) - {int, float}:
        raise ValueError(f"{path}: fusion meta needs a numeric gamma and global_mean: {scalars}")
    return FusionModel(
        mf=mf_model.params_from_sections(arrays, prefix="mf/"),
        mlp=mlp_model.params_from_sections(arrays, len(meta["tower"]), prefix="mlp/"),
        concat_w=arrays["concat_w"],
        reg_w=arrays["reg_w"],
        reg_b=arrays["reg_b"],
        gamma=float(meta["gamma"]),
        global_mean=float(meta["global_mean"]),
    )
