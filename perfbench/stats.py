"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/stats.py --workload hot --seeds 1-10 [--trace 1] [--out FILE]

Runs ``run.py`` once per seed, as a fresh process, and prints for every
metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the
median. End-to-end metrics also show their bound from BENCHMARK.json.
``--out`` appends the summary, the machine and every run's values to FILE
as one JSON line; ``perfbench/baseline.jsonl`` was made that way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(out.stdout[-3000:], out.stderr[-3000:], file=sys.stderr)
            return 1
        runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: done", flush=True)

    summary = {}
    for name in runs[0]:
        if name == "seed":
            continue
        summary[name] = summarise([run[name] for run in runs])
        bound = bounds.get(name)
        ratio = f"{summary[name]['spread'] / bound:6.2f} of bound {bound}" if bound else ""
        print(f"{name:40s} median {summary[name]['median']:>14.6g}  "
              f"spread {summary[name]['spread']:7.4f}  {ratio}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "trace": args.trace,
                                 "seconds": seconds, "machine": machine(),
                                 "summary": summary, "runs": runs}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
