"""How fast the host's core runs right now, from a fixed unit of work.

On a shared virtual machine a core's speed need not be constant. On the
machine the benchmark was built on, a fixed loop ran at one of two
speeds about twice apart, switching every few tens of milliseconds, with
slow stretches of up to 9 s, and the share of slow time drifted from one
minute to the next. Wall-clock times of the same work taken minutes
apart then differ by more than any bound a benchmark can set, however
long each run is.

The benchmark therefore times this unit of work, which does not depend
on the program under test, in short blocks between the pipeline's
stages, on the same CPU as the stages. The slowdown of a repetition is
the mean time of a unit in it over ``REF_UNIT_S``, and the benchmark
divides wall-clock times by it: the result is the time the work would
have taken at the reference speed. The unit mixes interpreted Python on
dicts, strings and JSON (about 60% of its time) with numpy gathers,
small matmuls and scatter-adds. Work that slows less than the unit on a
slow core, such as large BLAS calls, is over-corrected a little.
"""

import json
import time

import numpy as np

__all__ = ["unit", "sample", "slowdown", "REF_UNIT_S"]

# Seconds one unit takes at the faster of the two core speeds of the
# machine the benchmark was built on (2.0 GHz Xeon vCPU, Python 3.11,
# numpy 2.4, OpenBLAS with one thread): the fifth percentile of 1,000
# units there.
REF_UNIT_S = 0.0095

_rng = np.random.default_rng(0)
_DOC = {f"B{p:09d}": [[f"A{(p * 7919 + k) % 100003:012X}", float(k % 5 + 1), [k % 3, k % 7]]
                      for k in range(12)] for p in range(300)}
_TABLE = _rng.normal(size=(8000, 16))
_ROWS = _rng.integers(0, 8000, 8000)
_W = _rng.normal(size=(16, 16))


def _python_work() -> int:
    """Interpreted work: a JSON round trip and dict updates, like store IO."""
    counts: dict = {}
    for rows in json.loads(json.dumps(_DOC)).values():
        for user, rating, _ in rows:
            counts[user] = counts.get(user, 0.0) + rating
    return len(counts)


def _array_work() -> float:
    """Array work: a gather, a small matmul and a scatter-add, like a training step."""
    gathered = _TABLE[_ROWS] @ _W
    grad = np.zeros_like(_TABLE)
    np.add.at(grad, _ROWS, np.tanh(gathered))
    return float(grad[0, 0])


def unit() -> float:
    """One unit of work; returns a value so that nothing is optimised away."""
    return _python_work() + _array_work()


def sample(n: int) -> list:
    """Seconds taken by each of ``n`` units run back to back."""
    out = []
    for _ in range(n):
        started = time.perf_counter()
        unit()
        out.append(time.perf_counter() - started)
    return out


def slowdown(samples) -> float:
    """Mean unit time over the reference: 1.0 at the reference speed."""
    return sum(samples) / len(samples) / REF_UNIT_S
