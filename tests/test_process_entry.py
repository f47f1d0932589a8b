"""The process entry, ``dualrec.__main__.run``: ``python -m dualrec`` and the
console script run one command per process through it. It freezes the
import-time heap before the command runs, and it is the only code that
freezes (``tests/test_source_rules.py``): ``cli.main`` run in-process
leaves the caller's heap collectable."""

import gc
import os
import pathlib
import subprocess
import sys

import dualrec
from dualrec.cli import main

from test_cli import write_reviews

SRC = pathlib.Path(dualrec.__file__).parent


def run_python(args, env=None) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh process that imports this ``dualrec``, text
    output captured; ``env`` defaults to this process's environment."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=120)


def run_module(argv, env=None) -> subprocess.CompletedProcess:
    """``python -m dualrec ARGV`` in a fresh process."""
    return run_python(["-m", "dualrec", *argv], env)


def test_main_in_process_freezes_nothing(tmp_path):
    before = gc.get_freeze_count()
    assert main(["synth", "--users", "6", "--products", "5", "--out",
                 str(tmp_path / "s.json")]) == 0
    assert main(["reliability", "--store", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "r.tsv")]) == 0
    assert gc.get_freeze_count() == before


def test_the_process_entry_freezes_then_runs_the_command():
    code = ("import gc, sys\nfrom dualrec.__main__ import run\n"
            "sys.argv = ['dualrec', '--help']\ncode = run()\n"
            "print(code, gc.get_freeze_count() > 0)")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True"


def test_a_missing_store_is_one_error_line(tmp_path):
    proc = run_module(["reliability", "--store", tmp_path / "nope.json",
                       "--out", tmp_path / "r.tsv"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error [input-not-found]"), proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_verbose_ingest_logs_its_summary_before_the_process_exits(tmp_path):
    reviews = write_reviews(tmp_path / "reviews.jsonl")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = run_module(["--verbose", "ingest", "--input", reviews,
                       "--out", tmp_path / "store.json"], env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("INFO ingested 120 records (0 skipped) -> ")
