"""The host's current speed, read from a fixed pure-Python workload.

The benchmark runs on shared virtual machines whose speed changes by 1.4 to
1.6 times, in bursts of seconds and in states lasting minutes, with no
steal time to show for it (the process's CPU time changes with its wall
time).  So every latency the benchmark reports is scaled to a nominal host
speed: it is multiplied by ``NOMINAL_S`` over the time of ``work()``
measured right before and right after it.  ``work()`` uses only the
standard library (tuples, sorting, dicts, frozensets, strings: the kind
of work quivercuts does), so no change to the program moves it.
"""

from __future__ import annotations

import gc
import time

# A round figure near the time of one call of work() on the machine whose
# results README.md reports, in its faster state (1.5-1.7 ms in the slower,
# more common one).
NOMINAL_S = 1.0e-3
CALLS = 5


def work() -> int:
    rows = sorted((i * 7919 % 1009, i) for i in range(1200))
    table: dict[int, list[int]] = {}
    for key, value in rows:
        table.setdefault(key, []).append(value)
    groups = {frozenset(values) for values in table.values()}
    return len(",".join(str(sum(group)) for group in groups)) + len(table)


def sample() -> float:
    """Seconds of one call of ``work()``: the median of ``CALLS`` calls, with collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[CALLS // 2]


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two samples, at the nominal host speed."""
    return seconds * NOMINAL_S * 2 / (before + after)
