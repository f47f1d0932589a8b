"""Golden bytes of the store files the pipeline writes.

The hashes were recorded from a fixed seeded review file, so any change
to how a store is built, scored, split or saved that moves a byte of
these files shows up here.
"""

import hashlib
import json

import numpy as np

from dualrec import harness
from dualrec.cli import main
from dualrec.ingest import load_store, save_store

GOLDEN = {
    "store.json": "1ba21324cab13d84183690779ae2bbf36f8a56432fdcea515ecc5925fb6ebbab",
    "rel.tsv": "6e7f6a9d4e036c6f571f0a9033ff25e603918e4791235f3d2e61bb65993cf1c6",
    "scored.json": "29f301dce2f2efd5b5c5eda7bb168989116b31303dd39116018d063d0e7adda3",
    "train.json": "cf8d601e79d61abdae84fd570da1f1559ca2ee185d2ca432c002398b4cbe8121",
    "val.json": "2eaf9bb6a8bb6193774750c225a6194a48453814507011a5f3579808d8fe6b28",
    "test.json": "67530f686ff1c547572bb67c91164302d62d5734c8c5ff24bf84f1c924a7f2de",
    "synth.json": "d907ffd2cefcc0133a7847daeff00aeba395ba8f732fa1ee05d1a9b1576fe758",
    "synth-continuous.json": "ff323a7ce74c1e443ccfadf3780fdc3588ec93dbdb15a25143c76a2ccea5e937",
}

# The same store scored under the non-default reliability flags.
GOLDEN_SCORED = {
    "--fallback-helpful-max": {
        "rel.tsv": "bd75775c160f6a5bab6a4103bbcec82541b5fc759875dacef6ca63cf98359496",
        "scored.json": "d57c44a2123eb2ac77c8cf57fec893b9360a1555863150726fdf77b4f17410ac",
    },
    "--alpha 0.3 --threshold 0.2": {
        "rel.tsv": "1413e8679e6c151f5633f1f38db4b42565eeecbf41940093c993d1f166c16814",
        "scored.json": "69bb9252a621e79e171f65562987b41108b0092b828b024a3f7c6b8670716075",
    },
}


def write_rereviewed(path, n_lines=90, seed=3):
    """Review file whose pairs are often re-reviewed and whose times often tie."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lines):
        total = int(rng.integers(0, 6))
        lines.append(json.dumps({
            "reviewerID": f"U{int(rng.integers(0, 14)):03d}",
            "asin": f"P{int(rng.integers(0, 6)):03d}",
            "overall": int(rng.integers(1, 6)),
            "helpful": [int(rng.integers(0, total + 1)), total],
            "unixReviewTime": 1_000 + int(rng.integers(0, 12)),
        }))
    path.write_text("\n".join(lines) + "\n")
    return path


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_store_files_keep_their_bytes(tmp_path):
    p = lambda name: tmp_path / name  # noqa: E731
    reviews = write_rereviewed(p("reviews.jsonl"))
    assert main(["ingest", "--input", str(reviews), "--out", str(p("store.json"))]) == 0
    assert main(["reliability", "--store", str(p("store.json")), "--out", str(p("rel.tsv")),
                 "--store-out", str(p("scored.json"))]) == 0
    (folds,) = harness.split(load_store(p("scored.json")), harness.SplitSpec(seed=5))
    for name, part in zip(("train", "val", "test"), folds):
        save_store(part, p(f"{name}.json"))
    synth = ["synth", "--users", "50", "--products", "40", "--seed", "7", "--out"]
    assert main(synth + [str(p("synth.json"))]) == 0
    assert main(synth + [str(p("synth-continuous.json")), "--no-quantize"]) == 0
    assert {name: sha256(p(name)) for name in GOLDEN} == GOLDEN


def test_scores_keep_their_bytes_under_every_flag(tmp_path):
    p = lambda name: tmp_path / name  # noqa: E731
    reviews = write_rereviewed(p("reviews.jsonl"))
    assert main(["ingest", "--input", str(reviews), "--out", str(p("store.json"))]) == 0
    got = {}
    for flags in GOLDEN_SCORED:
        assert main(["reliability", "--store", str(p("store.json")), "--out", str(p("rel.tsv")),
                     "--store-out", str(p("scored.json"))] + flags.split()) == 0
        got[flags] = {name: sha256(p(name)) for name in ("rel.tsv", "scored.json")}
    assert got == GOLDEN_SCORED
