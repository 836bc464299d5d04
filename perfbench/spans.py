"""Spans around the public functions of each quivercuts layer, installed from outside.

``tracing(tracer)`` wraps every public function defined in a layer module
(``quivercuts.<layer>``) and every function the package exports, then
rebinds each ``quivercuts`` module global that refers to one of them, so a
call made inside the package (``check -> has_enough_cuts ->
enumerate_cuts``) goes through the wrapper and gets its parent link.  On
exit every attribute is restored to the original object.  Nothing in
``src/`` is edited; a function a later refactor removes simply yields no
span.

Spans are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("cli", "tensor", "docio", "model", "cuts", "mutation", "canvas", "coset")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    job: int | None  # index of the job in the traced phase; None during set-up
    parent: int | None  # index of the enclosing span
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0  # time covered by direct child spans
    size_in: int | None = None  # length of a leading str argument (document text)
    size_out: int | None = None  # length of the result, edges of a graph, cosets defined
    closed: bool | None = None  # EnumerationResult.closed

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


def _size_of(result) -> int | None:
    if isinstance(result, (str, list, tuple, frozenset, set, dict)):
        return len(result)
    edges = getattr(result, "edges", None)  # MutationGraph
    if edges is not None:
        return len(edges)
    return getattr(result, "defined_cosets", None)  # EnumerationResult


class Tracer:
    """Collects spans; ``job`` tags the spans of the job being run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.job, stack[-1] if stack else None, time.perf_counter_ns())
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_ns += span.end_ns - span.start_ns
            if args and isinstance(args[0], str):
                span.size_in = len(args[0])
            span.size_out = _size_of(result)
            span.closed = getattr(result, "closed", None)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _modules() -> list:
    modules = [importlib.import_module("quivercuts")]
    for layer in LAYERS:
        try:
            modules.append(importlib.import_module(f"quivercuts.{layer}"))
        except ModuleNotFoundError:
            continue  # a layer a later refactor removes yields no spans
    return modules


@contextmanager
def tracing(tracer: Tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    modules = _modules()
    package = modules[0]
    wrappers = {}
    for module in modules:
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value) or value in wrappers:
                continue
            defined_here = value.__module__ == module.__name__
            exported = module is package and value.__module__.startswith("quivercuts.")
            if defined_here or exported:
                layer = value.__module__.rsplit(".", 1)[1]
                wrappers[value] = tracer.wrap(f"{layer}.{value.__name__}", value)
    saved = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    try:
        yield tracer
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


# Per-layer metrics: (name, unit).  Times are self times (a span's duration
# less its child spans) summed over the traced phase and divided by its job
# count; sizes and counts come from arguments and return values.
PER_LAYER = (
    ("cli.self_ms", "ms/job"),
    ("tensor.build_ms", "ms/job"),
    ("tensor.setup_build_ms", "ms"),
    ("docio.parse_ms", "ms/job"),
    ("docio.parse_kb", "kB/job"),
    ("docio.serialize_ms", "ms/job"),
    ("docio.export_ms", "ms/job"),
    ("docio.export_mb", "MB/job"),
    ("model.validate_ms", "ms/job"),
    ("model.basis_ms", "ms/job"),
    ("cuts.enumerate_ms", "ms/job"),
    ("cuts.cuts_per_s", "1/s"),
    ("cuts.enumerations_per_job", "count"),
    ("cuts.enough_ms", "ms/job"),
    ("cuts.compat_ms", "ms/job"),
    ("cuts.is_cut_ms", "ms/job"),
    ("mutation.graph_ms", "ms/job"),
    ("mutation.edges", "count/job"),
    ("mutation.edges_per_s", "1/s"),
    ("mutation.mutate_ms", "ms/job"),
    ("canvas.h1_ms", "ms/job"),
    ("canvas.verdict_ms", "ms/job"),
    ("coset.enum_ms", "ms/job"),
    ("coset.defined", "count/job"),
    ("coset.cosets_per_s", "1/s"),
    ("coset.closed_ratio", "ratio"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.traced_jobs_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    """Every per-layer metric except the ``trace.*`` overhead figures.

    ``jobs`` is the number of jobs in the traced phase; spans with
    ``job is None`` belong to set-up.
    """
    in_jobs = [s for s in spans if s.job is not None]

    def select(*names: str) -> list[Span]:
        return [s for s in in_jobs if s.name in names]

    def self_s(selected: list[Span]) -> float:
        return sum(s.self_ns for s in selected) / 1e9

    def per_job_ms(selected: list[Span]) -> float:
        return _ratio(self_s(selected) * 1e3, jobs)

    def per_job(total: float) -> float:
        return _ratio(total, jobs)

    parse = select("docio.parse_quiver_document")
    export = select("docio.mutation_graph_to_json", "docio.mutation_graph_to_dot", "docio.quiver_to_dot")
    enumerate_ = select("cuts.enumerate_cuts")
    graph = select("mutation.mutation_graph")
    coset = select("coset.enumerate_trivial_subgroup")
    cuts_found = sum(s.size_out or 0 for s in enumerate_)
    edges = sum(s.size_out or 0 for s in graph)
    defined = sum(s.size_out or 0 for s in coset)
    enumerating_jobs = len({s.job for s in enumerate_})
    return {
        "cli.self_ms": per_job_ms([s for s in in_jobs if s.layer == "cli"]),
        "tensor.build_ms": per_job_ms([s for s in in_jobs if s.layer == "tensor"]),
        "tensor.setup_build_ms": sum(s.self_ns for s in spans if s.job is None and s.layer == "tensor") / 1e6,
        "docio.parse_ms": per_job_ms(parse),
        "docio.parse_kb": per_job(sum(s.size_in or 0 for s in parse) / 1e3),
        "docio.serialize_ms": per_job_ms(select("docio.serialize_quiver_document")),
        "docio.export_ms": per_job_ms(export),
        "docio.export_mb": per_job(sum(s.size_out or 0 for s in export) / 1e6),
        "model.validate_ms": per_job_ms(select("model.validate")),
        "model.basis_ms": per_job_ms(select("model.cycle_space_basis", "model.spanning_tree")),
        "cuts.enumerate_ms": per_job_ms(enumerate_),
        "cuts.cuts_per_s": _ratio(cuts_found, self_s(enumerate_)),
        "cuts.enumerations_per_job": _ratio(len(enumerate_), enumerating_jobs),
        "cuts.enough_ms": per_job_ms(select("cuts.has_enough_cuts")),
        "cuts.compat_ms": per_job_ms(select("cuts.is_fully_compatible", "cuts.are_compatible")),
        "cuts.is_cut_ms": per_job_ms(select("cuts.is_cut")),
        "mutation.graph_ms": per_job_ms(graph),
        "mutation.edges": per_job(edges),
        "mutation.edges_per_s": _ratio(edges, self_s(graph)),
        "mutation.mutate_ms": per_job_ms(
            select("mutation.mutate_plus", "mutation.mutate_minus", "mutation.strict_sources", "mutation.strict_sinks")
        ),
        "canvas.h1_ms": per_job_ms(select("canvas.h1", "canvas.pi1_presentation", "canvas.smith_diagonal")),
        "canvas.verdict_ms": per_job_ms(select("canvas.is_simply_connected")),
        "coset.enum_ms": per_job_ms(coset),
        "coset.defined": per_job(defined),
        "coset.cosets_per_s": _ratio(defined, self_s(coset)),
        "coset.closed_ratio": _ratio(sum(1 for s in coset if s.closed), len(coset)),
    }
