"""In-memory spans recorded around calls into a program's functions.

A span is a dict with ``id``, ``parent``, ``run``, ``name``, ``start_ns``
and ``end_ns`` (``time.perf_counter_ns``, which on Linux reads the
system-wide monotonic clock, so spans from different processes of one
machine share a time base) plus any counters attached at the boundary.
Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

import functools
import inspect
import json
import time
from contextlib import contextmanager

__all__ = ["Tracer", "self_times", "nesting_errors", "durations_s", "descendants"]


class Tracer:
    """Records nested spans for one process of one benchmark run.

    ``prefix`` makes span ids unique across the processes of a run, and
    ``root_parent`` is the id of the span, recorded elsewhere, that the
    outermost span of this process belongs to.
    """

    def __init__(self, run_id: str, prefix: str, root_parent=None):
        self.run_id = run_id
        self.prefix = prefix
        self.spans = []
        self.epochs = []
        self._stack = [root_parent]
        self._next = 0

    @property
    def current(self):
        return self._stack[-1]

    def _open(self, name: str) -> dict:
        span = {
            "id": f"{self.prefix}{self._next}",
            "parent": self._stack[-1],
            "run": self.run_id,
            "name": name,
        }
        self._next += 1
        self._stack.append(span["id"])
        span["start_ns"] = time.perf_counter_ns()
        return span

    def _close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, fn, name: str, counters=None):
        """``fn`` inside a span named ``name``; its result is returned as is.

        ``counters(args, kwargs, result)`` returns a dict of counts that
        is attached to the span; it runs after the span has closed. A
        generator function gets a generator that yields the same items,
        and its span runs from the first item to exhaustion.
        """
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                record = self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(record)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counters is not None:
                record.update(counters(args, kwargs, result))
            return result

        return wrapper

    def epoch_hook(self, on_epoch):
        """An ``on_epoch(phase, epoch, loss, seconds)`` hook that records, then chains."""

        def hook(phase, epoch, loss, seconds):
            self.epochs.append({
                "run": self.run_id, "parent": self.current, "phase": phase,
                "epoch": epoch, "loss": loss, "seconds": seconds,
            })
            if on_epoch is not None:
                on_epoch(phase, epoch, loss, seconds)

        return hook

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "epochs": self.epochs}, fh)


def _covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> self seconds: duration minus the time its children cover.

    Child intervals are clipped to the parent, so a malformed child can
    never push self time below zero; :func:`nesting_errors` reports it.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = _covered_ns(
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(span["id"], ())
            if c["end_ns"] > start and c["start_ns"] < end
        )
        out[span["id"]] = (end - start - covered) / 1e9
    return out


def nesting_errors(spans) -> list:
    """Problems with the span tree: unknown parents, inverted or escaping spans."""
    by_id = {span["id"]: span for span in spans}
    errors = []
    if len(by_id) != len(spans):
        errors.append("duplicate span ids")
    for span in spans:
        if span["end_ns"] < span["start_ns"]:
            errors.append(f"span {span['id']} ({span['name']}) ends before it starts")
        parent = span["parent"]
        if parent is None:
            continue
        if parent not in by_id:
            errors.append(f"span {span['id']} ({span['name']}) has unknown parent {parent}")
            continue
        outer = by_id[parent]
        if span["start_ns"] < outer["start_ns"] or span["end_ns"] > outer["end_ns"]:
            errors.append(
                f"span {span['id']} ({span['name']}) extends outside its parent "
                f"{parent} ({outer['name']})"
            )
    return errors


def durations_s(spans, name: str) -> list:
    """Durations in seconds of every span with this name."""
    return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans if s["name"] == name]


def descendants(spans, name: str) -> list:
    """Every span below a span with this name, at any depth."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = []
    todo = [s["id"] for s in spans if s["name"] == name]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child["id"])
    return out
