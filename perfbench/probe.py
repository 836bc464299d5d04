"""Set-up alone, in a fresh process, for timing by run.py:

    python3 -S perfbench/probe.py <workload>

After set-up it prints the time of ``reference.work()``, read in this process (the median
of three ``reference.sample()`` calls), and the seconds that reading took.
Exits with status 1 when an input document differs from its pinned digest.
"""

import statistics
import sys
import time

import bootstrap

bootstrap.use_checkout_source()

import harness  # noqa: E402
import reference  # noqa: E402

mismatched = harness.setup(sys.argv[1])[3]
start = time.perf_counter()
work_s = statistics.median(reference.sample() for _ in range(3))
print(work_s, time.perf_counter() - start)
sys.exit(1 if mismatched else 0)
