"""The process entry, ``dualrec.__main__.run``: ``python -m dualrec`` and the
console script run one command per process through it. It freezes the
import-time heap before the command runs, and it is the only code that
freezes: ``cli.main`` run in-process leaves the caller's heap collectable."""

import ast
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


def gc_freezes(path) -> list:
    """(enclosing top-level name, line) of each ``gc.freeze`` in a source file,
    also when imported by name; None names module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "freeze"
                    and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                found.append((owner, node.lineno))
            elif (isinstance(node, ast.ImportFrom) and node.module == "gc"
                  and "freeze" in {alias.name for alias in node.names}):
                found.append((owner, node.lineno))
    return found


def test_the_scan_sees_each_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import gc\ngc.freeze()\n"
                      "def f():\n    gc.freeze()\n"
                      "class C:\n    def m(self):\n        from gc import freeze\n"
                      "gc.unfreeze()\n")
    assert gc_freezes(source) == [(None, 2), ("f", 4), ("C", 7)]


def test_only_the_process_entry_freezes():
    found = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
             for owner, _ in gc_freezes(path)}
    assert found == {("__main__.py", "run")}


def main_guards(path) -> list:
    """Line of each ``__name__ == "__main__"`` comparison in a source file, either way round."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and {ast.dump(side) for side in (node.left, *node.comparators)}
            >= {ast.dump(ast.Name("__name__", ast.Load())), ast.dump(ast.Constant("__main__"))}]


def test_the_guard_scan_sees_each_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text('if __name__ == "__main__":\n    pass\n'
                      "def f():\n    return '__main__' == __name__\n"
                      'name = "__main__"\nif __name__ == name:\n    pass\n')
    assert main_guards(source) == [1, 4]


def test_only_the_process_entry_holds_a_main_guard():
    # a second guard, say in cli.py, would run a command without run()'s freeze
    found = {path.name for path in sorted(SRC.glob("*.py")) if main_guards(path)}
    assert found == {"__main__.py"}


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
