"""Reference tasks that measure the speed of the host, not of the program.

The host this benchmark was built on changes speed in phases (see
README): the same operation can take 60% longer for seconds at a time,
and process CPU time slows exactly as much as wall time, so the phases
are a slower processor, not lost scheduling.  ``reference_s`` times a
fixed task made of what the program spends its time on: a recursive walk
over a tree of tuples (as ``expr.evaluate`` walks its trees), building
such a tree, and small ``einsum`` tensor products (as ``curvature`` does).
It shares no code with the program, so no change to the program moves
it.  The end-to-end times are reported at a fixed reference speed:
each measured time is scaled by ``NOMINAL_S / reference``.

``ref_loop_ms`` is the plain pure-Python loop the traced run reports as
``host.ref_loop_ms``.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the reference task's time on the host the benchmark was built on
# (Python 3.11, numpy 2.4).  Any constant would do: it only sets the
# speed the scaled figures are quoted at, and keeps them near the raw ones.
NOMINAL_S = 1.0e-3
REPEATS = 3


def _tree(depth: int):
    if depth == 0:
        return ("c", 1.0001)
    sub = _tree(depth - 1)
    return ("+" if depth % 2 else "*", sub, ("s", sub if depth < 4 else ("c", 0.5)))


def _walk(t) -> float:
    kind = t[0]
    if kind == "c":
        return t[1]
    if kind == "s":
        return math.sin(_walk(t[1]))
    a, b = _walk(t[1]), _walk(t[2])
    return a + b if kind == "+" else a * b


_TREE = _tree(9)
_A = np.arange(64.0).reshape(4, 4, 4) / 64.0


def _task() -> float:
    t0 = time.perf_counter()
    for _ in range(4):
        _walk(_TREE)
        _walk(_tree(7))
        for _ in range(30):
            float(np.max(np.abs(np.einsum("ijk,kl->ijl", _A, _A[0]))))
    return time.perf_counter() - t0


def reference_s() -> float:
    """Seconds the reference task takes now: the fastest of a few runs,
    so that one interruption does not count as a slow phase."""
    return min(_task() for _ in range(REPEATS))


def ref_loop_ms() -> float:
    """A fixed pure-Python loop: it moves with the host, not the program."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(20000):
        acc += (k % 7) * 0.5 - (k % 3)
    return 1e3 * (time.perf_counter() - t0)
