"""Staged pipeline benchmark for dualrec.

Runs the pipeline a user runs, one fresh process per stage: ``dualrec
ingest``, ``reliability``, a split script, ``pretrain-mf``,
``pretrain-mlp``, ``train``, ``evaluate`` and ``predict``, on review
files made by a seeded generator. The whole sequence repeats for as long
as another repetition fits in ``--seconds`` (at least twice), and
every metric is the median over the repetitions. Times are scaled to a
reference host speed measured between the stages (``hostspeed.py``).
Every output is checked on every repetition, and repetitions must write
byte-identical files.

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 32

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` untraced and traced repetitions alternate in the order
untraced, traced, traced, untraced, so that slow drift cancels. The
result then holds the per-layer metrics: each stage's time from the
untraced repetitions, the layer metrics from the traced ones,
which run each stage through ``traced_stage.py``, and the tracing
overhead, the median ratio of pipeline times over adjacent pairs.
``--all`` runs every workload both ways and prints every metric with
its unit. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check failed. Metric names and units come from
``BENCHMARK.json`` at the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import gen_reviews
import hostspeed
import tracing
from gen_reviews import Shape

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

LR = "0.01"
MIN_REPS = 2
MIN_TRACED_REPS = 2  # one untraced and one traced, back to back
STAGE_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0
# One BLAS thread per stage process: with two, OpenBLAS's spinning
# threads made stage times on a 2-CPU machine much noisier.
BLAS_THREADS = 1
# Units of host-speed calibration run before every stage and after the last.
CALIBRATION_UNITS = 24
CPUS = sorted(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    shape: Shape
    epochs: int  # per training phase; fixed, since no validation store is given


# Scaled from the reference sizes so that the property that defines each
# workload shows in its measured stage shares (see README.md).
WORKLOADS = {
    # uniform popularity; enough epochs that the three training stages
    # take the largest share; the reference for per-rating costs
    "uniform": Workload(Shape(1000, 1000, 24000, predict_users=600, predict_per_user=60), 12),
    # a long tail plus hot products with doubling review counts; store
    # IO, split and reliability dominate, training and SVD are small
    "hot": Workload(Shape(4000, 300, 36000, hot_counts=(4000, 2000, 1000)), 2),
    # uniform's ratings and epochs over four times the users: growth over
    # uniform is cost that follows users x products or table size
    "wide": Workload(Shape(4000, 1000, 24000, predict_users=600, predict_per_user=60), 12),
}

TRAINING_PHASES = 5  # mf-rating, mf-joint, mf-head, mlp, fusion

# Output file -> the stage that writes it; repetitions must agree byte for byte.
OUTPUTS = {
    "store.json": "ingest", "scored.json": "reliability", "breakdown.tsv": "reliability",
    "train.json": "split", "val.json": "split", "test.json": "split",
    "mf.ckpt": "pretrain_mf", "mlp.ckpt": "pretrain_mlp", "fused.ckpt": "train",
    "report.txt": "evaluate", "preds.tsv": "predict",
}

# The modules a traced run must show spans for.
LAYERS = ("ingest", "reliability", "harness", "linalg", "mf_model", "mlp_model", "fusion",
          "metrics", "checkpoint")


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(CPUS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def run_child(cmd, cwd, env, timeout, log_path):
    """Run one process to completion; returns (exit code, seconds, peak RSS in MB)."""
    with open(log_path, "w", encoding="utf-8") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def measure_setup(env, cwd) -> float:
    """Seconds from starting a fresh interpreter to ``import dualrec`` done."""
    code = "import time, dualrec; print(time.perf_counter_ns())"
    started = time.perf_counter_ns()
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return (int(out.stdout) - started) / 1e9


@dataclass
class Rep:
    """One repetition of the stage sequence."""

    traced: bool
    stage_s: dict = field(default_factory=dict)
    pipeline_s: float = 0.0
    setup_s: list = field(default_factory=list)
    calibration: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    epochs: list = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran this repetition."""
        return hostspeed.slowdown(self.calibration)

    @property
    def pipeline_ref_s(self) -> float:
        return self.pipeline_s / self.slowdown


class Bench:
    """One benchmark run: a workload, a seed, a work directory."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.seed = seed
        self.env = child_env()
        os.makedirs(WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=WORK)
        self.reviews_path = os.path.join(self.work, "reviews.jsonl")
        self.pairs_path = os.path.join(self.work, "pairs.tsv")
        self.epochs = WORKLOADS[workload].epochs
        reviews = gen_reviews.generate(WORKLOADS[workload].shape, seed)
        gen_reviews.write(reviews, self.reviews_path, self.pairs_path)
        self.pairs = reviews.pairs
        self.counts = {
            "records": reviews.n_records, "skipped": reviews.n_malformed,
            "ratings": reviews.n_ratings, "max_product_reviews": reviews.max_product_reviews,
        }

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def stage_args(self, d: str) -> list:
        """(stage, kind, arguments) of the sequence, writing into directory ``d``."""
        p = lambda name: os.path.join(d, name)  # noqa: E731
        seed = str(self.seed)
        train = ["--epochs", str(self.epochs), "--lr", LR, "--seed", seed]
        return [
            ("ingest", "cli", ["--verbose", "ingest", "--input", self.reviews_path,
                               "--out", p("store.json")]),
            ("reliability", "cli", ["reliability", "--store", p("store.json"),
                                    "--out", p("breakdown.tsv"), "--store-out",
                                    p("scored.json"), "--threads", "1"]),
            ("split", "split", [p("scored.json"), p(""), seed]),
            ("pretrain_mf", "cli", ["pretrain-mf", "--store", p("train.json"),
                                    "--out", p("mf.ckpt")] + train),
            ("pretrain_mlp", "cli", ["pretrain-mlp", "--store", p("train.json"),
                                     "--out", p("mlp.ckpt")] + train),
            ("train", "cli", ["train", "--store", p("train.json"), "--mf", p("mf.ckpt"),
                              "--mlp", p("mlp.ckpt"), "--out", p("fused.ckpt")] + train),
            ("evaluate", "cli", ["evaluate", "--store", p("test.json"),
                                 "--model", p("fused.ckpt"), "--out", p("report.txt")]),
            ("predict", "cli", ["predict", "--model", p("fused.ckpt"), "--store",
                                p("scored.json"), "--pairs", self.pairs_path,
                                "--out", p("preds.tsv")]),
        ]

    def run_rep(self, index: int, traced: bool, deadline: float, sample_setup=False) -> Rep:
        """One repetition. Host speed is sampled before every stage and after
        the last. With ``sample_setup``, ``import dualrec`` is also timed in
        a fresh interpreter before every other stage, so that ``setup_s``
        is sampled across the run like the pipeline. Both are left out of
        ``pipeline_s``."""
        rep = Rep(traced=traced)
        d = os.path.join(self.work, f"rep{index}")
        os.makedirs(d)
        tracer = tracing.Tracer(f"{self.name}-s{self.seed}-rep{index}", prefix=f"r{index}.")
        started = time.perf_counter()
        paused = 0.0
        with tracer.span("pipeline"):
            for position, (stage, kind, args) in enumerate(self.stage_args(d)):
                before = time.perf_counter()
                rep.calibration += hostspeed.sample(CALIBRATION_UNITS)
                if sample_setup and position % 2 == 0:
                    rep.setup_s.append(measure_setup(self.env, d))
                paused += time.perf_counter() - before
                timeout = max(1.0, min(STAGE_TIMEOUT_S, deadline - time.perf_counter()))
                rep.attempted += 1
                with tracer.span(f"stage.{stage}") as span:
                    if traced:
                        cmd = [sys.executable, os.path.join(HERE, "traced_stage.py"),
                               os.path.join(d, f"spans-{stage}.json"), tracer.run_id,
                               span["id"], kind]
                    elif kind == "split":
                        cmd = [sys.executable, os.path.join(HERE, "split_stage.py")]
                    else:
                        cmd = [sys.executable, "-m", "dualrec"]
                    code, seconds, rss = run_child(cmd + args, d, self.env, timeout,
                                                   os.path.join(d, f"{stage}.log"))
                rep.stage_s[stage] = seconds
                rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
                if code != 0:
                    rep.failed.add(stage)
                    with open(os.path.join(d, f"{stage}.log"), encoding="utf-8") as fh:
                        tail = fh.read()[-500:]
                    rep.problems.append(f"{stage} exited {code}: {tail}")
                    break
            before = time.perf_counter()
            rep.calibration += hostspeed.sample(CALIBRATION_UNITS)
            paused += time.perf_counter() - before
        rep.pipeline_s = time.perf_counter() - started - paused
        if not rep.failed:
            self.check(rep, d)
        if traced:
            rep.spans = list(tracer.spans)
            for stage in rep.stage_s:
                path = os.path.join(d, f"spans-{stage}.json")
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        doc = json.load(fh)
                    rep.spans += doc["spans"]
                    rep.epochs += doc["epochs"]
        for name in OUTPUTS:
            path = os.path.join(d, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    rep.digests[name] = hashlib.sha256(fh.read()).hexdigest()
        shutil.rmtree(d, ignore_errors=True)
        return rep

    def check(self, rep: Rep, d: str) -> None:
        """Run every stage's output check; a failed check fails its stage."""
        p = lambda name: os.path.join(d, name)  # noqa: E731

        def fail(stage, problems):
            if problems:
                rep.failed.add(stage)
                rep.problems += [f"{stage}: {problem}" for problem in problems]

        with open(p("ingest.log"), encoding="utf-8") as fh:
            fail("ingest", checks.ingest_log(fh.read(), self.counts["records"],
                                             self.counts["skipped"], self.counts["ratings"]))
        problems, zero, reliable = checks.breakdown(p("breakdown.tsv"), self.counts["ratings"])
        scored = checks.load_store_doc(p("scored.json"))
        fail("reliability", problems + checks.scored_store(scored, self.counts["ratings"]))
        rep.values.update(zero_share=zero, reliable_share=reliable)
        parts = [checks.load_store_doc(p(f"{name}.json")) for name in ("train", "val", "test")]
        fail("split", checks.split_parts(scored, parts))
        for stage, name in (("pretrain_mf", "mf.ckpt"), ("pretrain_mlp", "mlp.ckpt"),
                            ("train", "fused.ckpt")):
            with open(p(name), "rb") as fh:
                fail(stage, [] if fh.read(8) == b"DUALREC\x00" else [f"{name} is no checkpoint"])
        problems, mae, ndcg = checks.report(p("report.txt"), parts[0], parts[2])
        fail("evaluate", problems)
        fail("predict", checks.predictions(p("preds.tsv"), self.pairs))
        rep.values.update(test_mae=mae, test_ndcg=ndcg, n_train=len(parts[0]["entries"]))

    def end_to_end(self, reps: list) -> dict:
        """Medians over the repetitions; times are at the reference host speed."""
        med = statistics.median
        per_rep = self.epochs * TRAINING_PHASES
        return {
            "setup_s": med(s / r.slowdown for r in reps for s in r.setup_s),
            "pipeline_s": med(r.pipeline_ref_s for r in reps),
            "train_ratings_per_s": med(
                r.values["n_train"] * per_rep * r.slowdown
                / (r.stage_s["pretrain_mf"] + r.stage_s["pretrain_mlp"] + r.stage_s["train"])
                for r in reps
            ),
            "peak_rss_mb": med(r.peak_rss_mb for r in reps),
            "test_mae": med(r.values["test_mae"] for r in reps),
            "test_ndcg": med(r.values["test_ndcg"] for r in reps),
        }


def stage_metrics(reps: list) -> dict:
    """Median seconds of each stage process at the reference host speed, the
    host's median slowdown and the median wall-clock pipeline time."""
    out = {f"{stage}_s": statistics.median(r.stage_s[stage] / r.slowdown for r in reps)
           for stage in reps[0].stage_s}
    out["host.slowdown"] = statistics.median(r.slowdown for r in reps)
    out["pipeline_wall_s"] = statistics.median(r.pipeline_s for r in reps)
    return out


def layer_metrics(rep: Rep) -> dict:
    """Per-layer metrics of one traced repetition, from its spans."""
    spans = rep.spans
    selfs = tracing.self_times(spans)

    def total(name):
        return sum(tracing.durations_s(spans, name))

    def self_total(name):
        return sum(selfs[s["id"]] for s in spans if s["name"] == name)

    def counts(name, key):
        return [s[key] for s in spans if s["name"] == name]

    def epoch_median(phase):
        return statistics.median(e["seconds"] for e in rep.epochs if e["phase"] == phase)

    out = {}
    for name in ("ingest.parse_reviews", "ingest.build_store", "ingest.save_store",
                 "ingest.load_store", "ingest.restrict", "reliability.score_store",
                 "reliability.attach_scores", "reliability.breakdown_rows", "harness.split",
                 "harness.evaluate_model", "linalg.truncated_svd", "linalg.adam_step",
                 "mf_model.svd_init", "mf_model.train_mf", "mlp_model.train_mlp",
                 "fusion.init_fusion", "fusion.train_fusion", "fusion.predict_batch",
                 "metrics.evaluate_predictions", "checkpoint.save_sections",
                 "checkpoint.load_sections"):
        out[f"{name}_s"] = total(name)
    for name in ("harness.split", "harness.evaluate_model", "mf_model.svd_init",
                 "mf_model.train_mf", "mlp_model.train_mlp", "fusion.train_fusion"):
        out[f"{name}_self_s"] = self_total(name)

    out["ingest.records"] = sum(counts("ingest.parse_reviews", "records"))
    out["ingest.skipped"] = sum(counts("ingest.parse_reviews", "skipped"))
    out["ingest.max_product_reviews"] = max(counts("ingest.build_store", "max_product_reviews"))
    ingest_stage = tracing.descendants(spans, "stage.ingest")
    out["ingest.store_bytes"] = sum(s["bytes"] for s in ingest_stage
                                    if s["name"] == "ingest.save_store")
    out["reliability.zero_share"] = rep.values["zero_share"]
    out["reliability.reliable_share"] = rep.values["reliable_share"]

    steps_ms = sorted(1e3 * s for s in tracing.durations_s(spans, "linalg.adam_step"))
    elems = sum(counts("linalg.adam_step", "elems"))
    out["linalg.svd_dense_bytes"] = max(counts("linalg.truncated_svd", "dense_bytes"))
    out["linalg.adam_step_calls"] = len(steps_ms)
    out["linalg.adam_step_p50_ms"] = float(np.percentile(steps_ms, 50))
    out["linalg.adam_step_p99_ms"] = float(np.percentile(steps_ms, 99))
    out["linalg.adam_elems_per_step"] = elems / len(steps_ms)
    out["linalg.adam_useful_ratio"] = sum(counts("linalg.adam_step", "nonzero")) / elems

    for phase in ("mf-rating", "mf-joint", "mf-head"):
        out[f"mf_model.epoch_s.{phase}"] = epoch_median(phase)
    out["mlp_model.epoch_s"] = epoch_median("mlp")
    out["fusion.epoch_s"] = epoch_median("fusion")
    out["checkpoint.bytes"] = sum(counts("checkpoint.save_sections", "bytes"))
    # every time at the reference host speed, as the end-to-end metrics are
    for key in out:
        if key.endswith(("_s", "_ms")) or ".epoch_s." in key:
            out[key] /= rep.slowdown
    out["fusion.predict_pairs_per_s"] = (
        sum(counts("fusion.predict_batch", "pairs")) / out["fusion.predict_batch_s"]
    )
    return out


def overhead_ratio(reps: list) -> float:
    """Median over adjacent (untraced, traced) pairs of traced over untraced
    pipeline time, each at the reference host speed.

    Repetitions 2k and 2k+1 are one pair: one of each kind, run back to
    back, so slow drift over the run does not enter the ratio.
    """
    ratios = []
    for a, b in zip(reps[0::2], reps[1::2]):
        traced, plain = (a, b) if a.traced else (b, a)
        ratios.append(traced.pipeline_ref_s / plain.pipeline_ref_s)
    return statistics.median(ratios)


def trace_problems(reps: list) -> list:
    """Span-tree checks: sound nesting, self time >= 0, every layer present."""
    problems = []
    for rep in reps:
        problems += tracing.nesting_errors(rep.spans)
        problems += [f"span {k} has negative self time {v}"
                     for k, v in tracing.self_times(rep.spans).items() if v < 0]
        seen = {s["name"].split(".")[0] for s in rep.spans}
        problems += [f"no spans for module {layer}" for layer in LAYERS if layer not in seen]
    return problems


def determinism(reps: list) -> None:
    """Every repetition must write the same bytes as the first."""
    first = reps[0].digests
    for rep in reps[1:]:
        for name, digest in rep.digests.items():
            if name in first and digest != first[name]:
                rep.failed.add(OUTPUTS[name])
                rep.problems.append(f"{name} differs from the first repetition")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    # The stages and the host-speed calibration share one CPU, so that the
    # calibration sees the contention the stages see.
    os.sched_setaffinity(0, {CPUS[-1]})
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    bench = Bench(workload, seed)
    try:
        measure_setup(bench.env, bench.work)  # warm-up: file cache, first-run costs
        reps = []
        longest = 0.0
        min_reps = MIN_TRACED_REPS if trace else MIN_REPS
        # start another repetition only while it is expected to end in time
        while (len(reps) < min_reps
               or time.perf_counter() + longest - started <= seconds):
            if time.perf_counter() + longest > deadline:
                break
            traced = trace and len(reps) % 4 in (1, 2)  # untraced, traced, traced, untraced
            rep_started = time.perf_counter()
            rep = bench.run_rep(len(reps), traced, deadline, sample_setup=not trace)
            reps.append(rep)
            longest = max(longest, time.perf_counter() - rep_started)
            if rep.failed:
                break
        determinism(reps)
    finally:
        bench.close()

    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.failed) for r in reps)
    problems = [p for r in reps for p in r.problems]
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    metrics = {}
    if not failed:
        if trace:
            problems += trace_problems(traced)
            per_rep = [layer_metrics(r) for r in traced]
            metrics = stage_metrics(plain)
            metrics.update({k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]})
            metrics["trace_overhead_ratio"] = overhead_ratio(reps)
            span_file = os.path.join(WORK, f"spans-{workload}-s{seed}.json")
            with open(span_file, "w", encoding="utf-8") as fh:
                json.dump({"spans": [s for r in traced for s in r.spans],
                           "epochs": [e for r in traced for e in r.epochs]}, fh)
        else:
            metrics = bench.end_to_end(plain)
    return {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "repetitions": [(round(r.pipeline_s, 3), round(r.slowdown, 3),
                         "traced" if r.traced else "plain") for r in reps],
    }


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(result: dict, units: dict) -> str:
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in result["metrics"]}
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed")}
                      | {"metrics": metrics})


def report(workload: str, trace: bool, result: dict, units: dict) -> bool:
    """Print every metric with its unit; returns whether the run is correct."""
    print(f"# workload={workload} trace={int(trace)} machine={json.dumps(machine())}")
    print(f"# repetitions (wall-clock pipeline s, slowdown, kind): {result['repetitions']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    missing = sorted(set(units) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(units))
    if result["correct"] and (missing or extra):
        print(f"CHECK FAILED: metrics missing {missing}, undeclared {extra}")
        result["correct"] = False
    for name, unit in units.items():
        if name in result["metrics"]:
            print(f"{workload:8s} {name:40s} {result['metrics'][name]:>16.6g} {unit}")
    return result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, traced and not")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dualrec", "__init__.py")):
        print(f"error: no dualrec sources under {SRC}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.all
            else [(args.workload, bool(args.trace))])
    ok = True
    for workload, trace in runs:
        units = declared_metrics(trace)
        result = run_workload(workload, args.seed, args.seconds, trace)
        ok = report(workload, trace, result, units) and ok
    if args.all:
        print(json.dumps({"correct": ok, "workloads": sorted(WORKLOADS)}))
    else:
        print(result_line(result, units))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
