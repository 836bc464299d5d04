"""Closed-loop job runner: one client, in-process CLI calls, pinned outputs.

Each job calls ``quivercuts.cli.main(argv)`` in this process with stdin,
stdout and stderr redirected to in-memory text, so a job's latency is the
program's own work without process start-up.  The next job starts only
after the previous one has finished and been checked.
"""

from __future__ import annotations

import gc
import hashlib
import io
import sys
import time
from dataclasses import dataclass, field

import catalogue
import reference


def call_cli(argv: tuple[str, ...], stdin: str) -> tuple[int, str]:
    """Run one CLI invocation in-process; return (exit code, stdout)."""
    from quivercuts import cli  # looked up per call, so an installed tracer is seen

    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, io.StringIO()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup(workload: str):
    """Import the CLI, load the catalogue and pins, and build the input documents.

    Returns (pinned, jobs, documents, names of documents whose digest differs).
    """
    import quivercuts.cli  # noqa: F401  (part of what set-up pays for)

    pinned = catalogue.load_pinned()
    jobs = catalogue.catalogue(workload, pinned["arguments"])
    documents, mismatched = build_documents(workload, pinned)
    return pinned, jobs, documents, mismatched


def build_documents(workload: str, pinned: dict) -> tuple[dict[str, str], list[str]]:
    """Build a workload's input documents; return them and the names whose digest differs."""
    documents: dict[str, str] = {}
    mismatched = []
    for name, source in catalogue.document_sources(workload).items():
        if isinstance(source, str):
            text = source
        else:
            code, text = call_cli(source, "")
            if code != 0:
                mismatched.append(name)
        documents[name] = text
        if pinned["documents"].get(name) != digest(text):
            mismatched.append(name)
    return documents, mismatched


def run_job(job: catalogue.Job, documents: dict[str, str]) -> tuple[float, list[tuple[int, str]]]:
    """Run every stage of ``job``; return its latency in seconds and each stage's result."""
    results = []
    stdin = documents[job.document] if job.document is not None else ""
    start = time.perf_counter()
    for argv in job.stages:
        code, stdin = call_cli(argv, stdin)
        results.append((code, stdin))
    return time.perf_counter() - start, results


def record(results: list[tuple[int, str]]) -> list[dict]:
    """The pinned form of a job's stage results."""
    return [{"exit": code, "sha256": digest(stdout)} for code, stdout in results]


def verify(job: catalogue.Job, results: list[tuple[int, str]], pinned: dict) -> bool:
    """True iff every stage matches its pinned exit code and stdout, and any headline holds."""
    if pinned["jobs"].get(job.id) != record(results):
        return False
    headline = catalogue.HEADLINES.get(job.id)
    return headline is None or headline(results[-1][1])


@dataclass
class Phase:
    """The outcome of one timed phase."""

    latencies: list[float] = field(default_factory=list)  # at the nominal host speed; NaN if raised
    raw: list[float] = field(default_factory=list)  # as measured; NaN if raised
    failed: list[str] = field(default_factory=list)
    work_s: list[float] = field(default_factory=list)  # reference.sample() before the first job and after each
    busy: float = 0.0  # seconds spent in jobs, raised ones too, at the nominal host speed
    rounds: int = 0
    wall: float = 0.0  # seconds spent running jobs; checks, collections and speed samples excluded

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_phase(
    jobs: list[catalogue.Job],
    documents: dict[str, str],
    pinned: dict,
    rng: "random.Random",
    seconds: float,
    min_rounds: int = 1,
    on_job=None,
) -> Phase:
    """Run whole shuffled rounds of ``jobs`` for about ``seconds`` of wall time.

    Rounds are never cut short, so every run measures the same job mix; a
    new round starts while fewer than ``min_rounds`` have run, or while that
    brings the end nearer to ``seconds`` (counted with the checks,
    collections and speed samples, so a run lasts about ``seconds``).
    ``on_job(index)`` is called before each job.

    Between jobs, outside the timed region, the garbage
    collector runs, so that no job pays for the garbage of the one before
    and each job's own collections do not depend on the order drawn; then
    the host's speed is sampled, and each latency is scaled by the samples
    taken right before and right after its job (see reference.py).
    """
    phase = Phase()
    gc.collect()
    gc.freeze()  # set-up objects live for the whole run
    start = time.perf_counter()
    phase.work_s.append(reference.sample())
    excluded = time.perf_counter() - start
    while True:
        for job in catalogue.job_order(jobs, rng):
            if on_job is not None:
                on_job(phase.attempted)
            start_job = time.perf_counter()
            try:
                latency, results = run_job(job, documents)
            except Exception as exc:  # a raise or MemoryError is a failed job, not a crash
                latency, results = time.perf_counter() - start_job, None
                phase.failed.append(f"{job.id}: {type(exc).__name__}: {exc}")
            t = time.perf_counter()
            raised = results is None
            if not raised and not verify(job, results, pinned):
                phase.failed.append(f"{job.id}: output differs from the pinned result")
            del results
            gc.collect()
            phase.work_s.append(reference.sample())
            excluded += time.perf_counter() - t
            scaled = reference.scale(latency, *phase.work_s[-2:])
            phase.busy += scaled
            phase.raw.append(float("nan") if raised else latency)
            phase.latencies.append(float("nan") if raised else scaled)
        phase.rounds += 1
        elapsed = time.perf_counter() - start
        if phase.rounds >= min_rounds and elapsed + elapsed / phase.rounds / 2 >= seconds:
            break
    phase.wall = time.perf_counter() - start - excluded
    gc.unfreeze()
    return phase
