"""Sha256 of every output of the benchmark's stage sequence, run once and untimed.

    python3 tools/stage_digests.py WORKLOAD SEED

Generates WORKLOAD's reviews at SEED as ``perfbench/run.py`` does, runs
its stage sequence (``Bench.stage_args``: ingest, reliability, split,
pretrain-mf, pretrain-mlp, train, evaluate, predict) once, each stage in
a fresh process as an untraced repetition runs it, and prints one JSON
object that maps each output file, and the ``.cols`` copy beside each
store among them, to its sha256. Two checkouts that print the same
object write the same bytes. The work directory is made under
``.perfbench_work/`` and removed afterwards.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def stage_digests(workload: str, seed: int) -> dict:
    """Output file name -> sha256 of one run of the stage sequence."""
    bench = run.Bench(workload, seed)
    try:
        out = os.path.join(bench.work, "out")
        os.makedirs(out)
        for stage, kind, args in bench.stage_args(out):
            split = [os.path.join(PERFBENCH, "split_stage.py")]
            entry = split if kind == "split" else ["-m", "dualrec"]
            proc = subprocess.run([sys.executable, *entry, *args], cwd=out, env=bench.env,
                                  capture_output=True, text=True)
            if proc.returncode:
                raise SystemExit(f"stage {stage} exited {proc.returncode}:\n{proc.stdout}"
                                 f"{proc.stderr}")
        digests = {}
        for name in run.OUTPUTS:
            digests[name] = sha256_of(os.path.join(out, name))
            copy = name + ".cols"  # ingest.COPY_SUFFIX: a saved store's columnar copy
            if os.path.exists(os.path.join(out, copy)):
                digests[copy] = sha256_of(os.path.join(out, copy))
        return digests
    finally:
        bench.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(run.WORKLOADS))
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    print(json.dumps(stage_digests(args.workload, args.seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
