"""Golden bytes of the pipeline's scoring outputs.

``run_pipeline`` ingests a seeded review file, scores its reliability,
pre-trains both branches, fine-tunes the fused model and evaluates it;
one ``predict`` then scores a few key pairs, among them an unknown user
and an unknown product. Each output's sha256 is compared with a recorded
digest, so a change anywhere in the pipeline that moves a byte of a
checkpoint, a report or a prediction shows up here.

Training runs at a learning rate and batch size under which two epochs
move the predictions off the rating floor: at the defaults every
prediction of this small store clamps to 1.0, and the digests would pin
only that.

Each step runs twice over: in-process through ``cli.main``, and as one
``python -m dualrec`` process, the path the benchmark takes. Both must
write the same bytes.
"""

import hashlib

import pytest

from dualrec.cli import main
from dualrec.fusion import load_fusion, predict_batch
from dualrec.ingest import load_store

from test_cli import run_pipeline
from test_process_entry import run_module

GOLDEN = {
    "mf.ckpt": "780924cc1249ed254ecac82b7e0078248266efaa01ddca58fe342c435937770d",
    "mlp.ckpt": "98a7f2af04be3539e10e895dffcf23a35b578f1d151c3f63096574eed27a8a7a",
    "fused.ckpt": "a39d5374264d129a459ebd24081d4825b9d1b615f17fb5a69d3912d6cfb74ce1",
    "report.txt": "9f484a7d87b4edf94c20f1ea9c2ab5ef1487a8aec4ce5661c5c43f8eb8b26c1e",
    "report.tsv": "259ff8e41b7bc3a0689b76ba9908ae7c137f341e04c56cf9a38b1b1c759d5935",
    "preds.tsv": "508b236d219a1355eedddabb68cc7fb48bc3f580fd6fea17fb1d5c685b491ce9",
}


FAST = ["--lr", "0.05", "--batch-size", "16"]
FLAGS = {"pretrain-mf": FAST, "pretrain-mlp": FAST, "train": ["--lr", "0.05"]}


def in_subprocess(argv) -> int:
    return run_module(argv).returncode


@pytest.mark.parametrize("run", [main, in_subprocess], ids=["in-process", "subprocess"])
def test_pipeline_outputs_keep_their_bytes(tmp_path, run):
    run_pipeline(tmp_path, seed="11", epochs="2", flags=FLAGS, run=run)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("U0001\tP00001\nU0007\tP00004\nGHOST\tP00002\nU0003\tGHOST\n")
    assert run(["predict", "--model", str(tmp_path / "fused.ckpt"),
                 "--store", str(tmp_path / "scored.json"), "--pairs", str(pairs),
                 "--out", str(tmp_path / "preds.tsv")]) == 0
    store = load_store(tmp_path / "scored.json")
    preds = predict_batch(load_fusion(tmp_path / "fused.ckpt"),
                          list(zip(store.user.tolist(), store.product.tolist())))
    assert all(1.0 < pred < 5.0 for pred in preds), (min(preds), max(preds))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
