"""Host speed, read from a fixed reference kernel.

A shared host can run the same code much slower for seconds to minutes at
a time (on the 2-vCPU VM this benchmark was tuned on, by up to 70%), so raw
times from runs minutes apart are not comparable. The benchmark therefore
brackets each timed call with two runs of a small pure-Python kernel that
does not touch tough2f, and scales the call's duration by the mean of the
two kernel times: ``scale`` gives the call's duration on a host that runs
the kernel in NOMINAL_S seconds. A change to tough2f does not change the
kernel, so it moves the scaled times exactly as it moves the raw ones.

The kernel is a depth-first search over a fixed random graph held in sets,
the kind of work the package's own searches do. It runs with the cyclic
garbage collector off, so its time does not depend on the size of the
program's heap.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

NOMINAL_S = 0.003
ORDER = 60
ROUNDS = 8


def _graph() -> list:
    rng = random.Random(0)
    adj = [set() for _ in range(ORDER)]
    for u in range(ORDER):
        for v in range(u + 1, ORDER):
            if rng.random() < 0.15:
                adj[u].add(v)
                adj[v].add(u)
    return adj


_ADJ = _graph()


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for r in range(ROUNDS):
            for s in range(0, ORDER, 6):
                seen = {s}
                stack = [s]
                while stack:
                    for v in _ADJ[stack.pop()]:
                        if v not in seen and (v + r) % 9:
                            seen.add(v)
                            stack.append(v)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel runs of ``before`` and ``after``
    seconds, as seconds on a host that runs the kernel in NOMINAL_S."""
    return seconds * NOMINAL_S * 2 / (before + after)
