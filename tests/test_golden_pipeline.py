"""Golden bytes of the pipeline's scoring outputs.

``run_pipeline`` ingests a seeded review file, scores its reliability,
pre-trains both branches, fine-tunes the fused model and evaluates it;
one ``predict`` then scores a few key pairs, among them an unknown user
and an unknown product. Each output's sha256 is compared with a recorded
digest, so a change anywhere in the pipeline that moves a byte of a
checkpoint, a report or a prediction shows up here.
"""

import hashlib

from dualrec.cli import main

from test_cli import run_pipeline

GOLDEN = {
    "mf.ckpt": "2b02e17bd0ccc0db67b46ba4332705c1a393cfaf8b1b0bec9b6aa9a81eb244b6",
    "mlp.ckpt": "2e419825ca19c7a16d9033d953788c52d339e47c63f288a583899f9fe0ba25d4",
    "fused.ckpt": "f0767552377965d476eff11c45784199789701f879f2672b720159cd998b47f8",
    "report.txt": "7dba9c9d5bd2a9f60c568735e33d1fb0d38224d8ddd45c942745680dbe0e6b92",
    "report.tsv": "fe39227cc6aae710d7dff7257df9decd0a1c1eead58ec10b8f612f3a9fd7c763",
    "preds.tsv": "eac65f4afd27c4bc7dd294919b56d0b7483ea87c1b56f223f884df32a0276951",
}


def test_pipeline_outputs_keep_their_bytes(tmp_path):
    run_pipeline(tmp_path, seed="11", epochs="2")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("U0001\tP00001\nU0007\tP00004\nGHOST\tP00002\nU0003\tGHOST\n")
    assert main(["predict", "--model", str(tmp_path / "fused.ckpt"),
                 "--store", str(tmp_path / "scored.json"), "--pairs", str(pairs),
                 "--out", str(tmp_path / "preds.tsv")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
