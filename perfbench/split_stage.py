"""Split stage of the benchmarked pipeline.

The ``dualrec`` CLI has no split subcommand, so this stage calls the
library the way a user's script would: load the scored store, split it
with ``harness.split`` and save the train, validation and test stores.

Usage: split_stage.py STORE OUT_PREFIX SEED
writes OUT_PREFIX{train,val,test}.json.
"""

import sys

from dualrec import harness, ingest


def main(argv) -> int:
    store_path, prefix, seed = argv
    store = ingest.load_store(store_path)
    (folds,) = harness.split(store, harness.SplitSpec(seed=int(seed)))
    for name, part in zip(("train", "val", "test"), folds):
        ingest.save_store(part, f"{prefix}{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
