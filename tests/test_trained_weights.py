"""Golden bytes of trained checkpoints.

The MF branch, the MLP branch and the fine-tuned fused model are trained
on a small seeded synthetic store, and each saved checkpoint's sha256 is
compared with a recorded digest. Every training phase takes several
mini-batch steps per epoch, and the store carries reliability scores, so
the joint factor phase fits scored pairs too. A change to a training
kernel that moves one rounding of one step shows up here.
"""

import hashlib

from dualrec import harness
from dualrec.fusion import init_fusion, save_fusion
from dualrec.harness import ExperimentConfig, SyntheticSpec, gen_synthetic
from dualrec.mf_model import save_mf
from dualrec.mlp_model import save_mlp

GOLDEN = {
    "mf.ckpt": "dd208df970e31cdc936e8b8228405b6c90ad6c694a4f2dd8a5a396434659de85",
    "mlp.ckpt": "0933e1efef7df4730bf3f3bf45c573580412935af0718d7ec149b9855db398c7",
    "fused.ckpt": "bd02aa2f2571f2aa52f60d12717ef8de8b36aeb049c09823bcef2512f06e3d45",
}


def test_trained_checkpoints_keep_their_bytes(tmp_path):
    store = gen_synthetic(SyntheticSpec(120, 80, 3, 0.25, 0.05, seed=4))
    # several 64-pair steps per epoch in each phase, scored pairs for mf-joint
    assert store.rated_arrays.idx_u.size >= 20 * 64 and store.scored_arrays.idx_u.size >= 20 * 64
    config = ExperimentConfig(latent_dim=4, tower=(8, 4), batch_size=64, epochs_mf=3,
                              epochs_mlp=3, epochs_fusion=3, lr=0.01, seed=2)
    mf = harness.pretrain_mf(config, store)
    mlp = harness.pretrain_mlp(config, store)
    fused = harness.fine_tune(config, init_fusion(mf, mlp, config.gamma), store)
    save_mf(mf, tmp_path / "mf.ckpt")
    save_mlp(mlp, tmp_path / "mlp.ckpt")
    save_fusion(fused, tmp_path / "fused.ckpt")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
