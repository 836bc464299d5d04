"""The quivercuts benchmark: one closed-loop client running CLI jobs in-process.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Workloads: enumerate, lattice, inspect (see catalogue.py and README.md).
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced phase and the tracing overhead, and the spans are written to
``perfbench/out/``.  Every job's exit code and stdout are checked against
``pinned.json``; any mismatch makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time

import bootstrap

bootstrap.use_checkout_source()

import catalogue  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

# A regression that needs more memory than this shows as failed jobs
# (MemoryError) instead of getting the process killed.
MEMORY_LIMIT_BYTES = 2 << 30
# The 90th percentile falls among the latencies of a few jobs, and three
# samples of each steady it.  With over 70 jobs a round, a run has more
# than ten latencies above it.
MIN_ROUNDS = 3
# Set-up is measured this many times in fresh processes; the median is reported.
SETUP_SAMPLES = 9
END_TO_END = (
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
OUT_DIR = bootstrap.ROOT / "perfbench" / "out"
PROBE = bootstrap.ROOT / "perfbench" / "probe.py"


def limit_memory() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds from the start of a fresh process to the end of its set-up.

    Returns the samples at the nominal host speed and as measured.  Each is
    scaled by the time of ``reference.work()`` that the probe reads in its
    own process after set-up: a reading taken here, after waiting for the
    probe, would catch this process's CPU coming out of idle.  The probe runs with ``-S``: the
    package is stdlib-only, and the site-packages start-up hooks of the host
    would only add their own noise.
    """
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # a digest mismatch fails the run through the in-process set-up
        probe = subprocess.run([sys.executable, "-S", str(PROBE), workload], stdout=subprocess.PIPE, text=True)
        work_s, reading = map(float, probe.stdout.split())
        raw.append(time.perf_counter() - start - reading)
        scaled.append(reference.scale(raw[-1], work_s, work_s))
    return scaled, raw


def latency_summary(latencies: list[float]) -> dict[str, float]:
    """Median and 90th percentile in ms over the jobs that completed."""
    done = [x for x in latencies if x == x] or [0.0]  # NaN marks a job that raised
    p90 = statistics.quantiles(done, n=10)[8] if len(done) >= 2 else done[0]
    return {
        "job_p50_ms": statistics.median(done) * 1e3,
        "job_p90_ms": p90 * 1e3,
        "above_p90": sum(1 for x in done if x > p90),
        "samples": len(done),
    }


def report(workload: str, seed: int, phases: list[harness.Phase], mismatched: list[str]) -> None:
    """Human-readable lines ahead of the JSON result."""
    for name in mismatched:
        print(f"input document differs from its pinned digest: {name}")
    for phase in phases:
        for failure in phase.failed[:20]:
            print(f"failed job: {failure}")
        print(
            f"{workload} seed {seed}: {phase.attempted} jobs in {phase.rounds} rounds, {phase.wall:.2f} s; "
            f"failed_ratio {len(phase.failed) / phase.attempted:g} ({len(phase.failed)}/{phase.attempted})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalogue.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit_memory()
    rng = random.Random(args.seed)
    if args.trace:
        tracer = spans.Tracer()
        with spans.tracing(tracer):
            pinned, jobs, documents, mismatched = harness.setup(args.workload)
        untraced = harness.run_phase(jobs, documents, pinned, rng, args.seconds / 2)

        def on_job(index: int) -> None:
            tracer.job = index

        with spans.tracing(tracer):
            traced = harness.run_phase(jobs, documents, pinned, rng, args.seconds / 2, on_job=on_job)
        phases = [untraced, traced]
        metrics = spans.layer_metrics(tracer.spans, traced.attempted)
        untraced_rate = untraced.attempted / untraced.busy
        traced_rate = traced.attempted / traced.busy
        metrics["trace.untraced_jobs_per_s"] = untraced_rate
        metrics["trace.traced_jobs_per_s"] = traced_rate
        metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1) * 100
        units = dict(spans.PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        setup_samples, setup_raw = measure_setup(args.workload)
        pinned, jobs, documents, mismatched = harness.setup(args.workload)
        phase = harness.run_phase(jobs, documents, pinned, rng, args.seconds, MIN_ROUNDS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases = [phase]
        latency = latency_summary(phase.latencies)
        completed = phase.attempted - len(phase.failed)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "job_p50_ms": latency["job_p50_ms"],
            "job_p90_ms": latency["job_p90_ms"],
            "jobs_per_s": completed / phase.busy,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        raw = latency_summary(phase.raw)
        print(
            f"latency over {latency['samples']} samples, {latency['above_p90']} above p90; "
            f"set-up samples {', '.join(f'{s:.3f}' for s in setup_samples)} s"
        )
        print(
            f"as measured, before scaling to the nominal host speed: setup_s {statistics.median(setup_raw):.4f}, "
            f"job_p50_ms {raw['job_p50_ms']:.3f}, job_p90_ms {raw['job_p90_ms']:.2f}, "
            f"jobs_per_s {completed / phase.wall:.3f}; reference.work() median {statistics.median(phase.work_s) * 1e3:.3f} ms"
        )

    report(args.workload, args.seed, phases, mismatched)
    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failed) for p in phases)
    correct = failed == 0 and not mismatched
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
