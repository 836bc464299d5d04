"""Tests of the benchmark itself: jobs, pinned outputs, seeds and tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import catalogue
import harness
import reference
import run
import spans

import quivercuts

TINY = {
    "enumerate": ("count:B2:2>1xB2:2>1+split", "list:A3:1<2>3xB2:2>1", "count:A2xE6"),
    "lattice": ("json:A2xA2", "dot:B2:2>1xB2:2>1+split", "json:C2xG2"),
    "inspect": (
        "check:A3:1<2>3xB2:2>1",
        "check@5000:vonDyck(2,3,5)",
        "check@5000:vonDyck(2,3,4)",
        "validate:vonDyck(3,4,5)",
        "mutate-plus:A4xA4",
        "mutate-minus:A4xA4",
        "truncate:B2:2>1xB2:2>1+split",
    ),
}


@pytest.fixture(scope="module", params=catalogue.WORKLOADS)
def workload(request):
    pinned, jobs, documents, mismatched = harness.setup(request.param)
    assert mismatched == []
    return request.param, pinned, {job.id: job for job in jobs}, documents


def test_tiny_job_list_runs_without_failures(workload):
    name, pinned, jobs, documents = workload
    tiny = [jobs[job_id] for job_id in TINY[name]]
    phase = harness.run_phase(tiny, documents, pinned, random.Random(0), seconds=0)
    assert phase.rounds == 1
    assert phase.attempted == len(tiny)
    assert phase.failed == []
    assert len(phase.raw) == len(phase.latencies) == len(phase.work_s) - 1
    for raw, scaled, before, after in zip(phase.raw, phase.latencies, phase.work_s, phase.work_s[1:]):
        assert scaled == pytest.approx(reference.scale(raw, before, after))
    assert phase.busy == pytest.approx(sum(phase.latencies))


def test_latency_is_scaled_to_the_nominal_host_speed():
    nominal = reference.NOMINAL_S
    assert reference.scale(0.5, nominal, nominal) == pytest.approx(0.5)
    assert reference.scale(0.5, 2 * nominal, 2 * nominal) == pytest.approx(0.25)
    assert reference.scale(0.5, nominal, 3 * nominal) == pytest.approx(0.25)
    assert 0 < reference.sample() < 1


def test_output_that_differs_from_its_pin_is_a_failed_job(workload):
    name, pinned, jobs, documents = workload
    job = jobs[TINY[name][0]]
    tampered = dict(pinned, jobs=dict(pinned["jobs"]))
    tampered["jobs"][job.id] = [dict(stage, sha256="0" * 64) for stage in pinned["jobs"][job.id]]
    phase = harness.run_phase([job], documents, tampered, random.Random(0), seconds=0)
    assert len(phase.failed) == 1


def test_headline_values_are_checked():
    assert catalogue.HEADLINES[f"count:{catalogue.SPLIT}"]("7\n")
    assert not catalogue.HEADLINES["count:F4xE6"]("16598\n")
    dot = "graph {\n" + "  n0 [label=\"a\"];\n" * 16599 + "  n0 -- n1 [label=\"1\"];\n" * 75299 + "}\n"
    assert catalogue.HEADLINES["dot:F4xE6"](dot)
    assert not catalogue.HEADLINES["dot:F4xE6"](dot.replace("--", "->", 1))


def test_every_catalogue_job_is_pinned():
    pinned = catalogue.load_pinned()
    for name in catalogue.WORKLOADS:
        ids = [job.id for job in catalogue.catalogue(name, pinned["arguments"])]
        assert len(ids) == len(set(ids))
        assert all(job_id in pinned["jobs"] for job_id in ids)
    assert set(catalogue.HEADLINES) <= set(pinned["jobs"])


def test_same_seed_same_jobs_and_other_seed_reorders_the_same_catalogue():
    jobs = catalogue.catalogue("enumerate")

    def draw(seed):
        rng = random.Random(seed)
        return [job.id for _ in range(3) for job in catalogue.job_order(jobs, rng)]

    assert draw(7) == draw(7)
    assert draw(8) != draw(7)
    assert sorted(draw(8)) == sorted(draw(7))
    assert sorted(draw(7)[: len(jobs)]) == sorted(job.id for job in jobs)


def _module_state():
    modules = [quivercuts] + [sys.modules[f"quivercuts.{layer}"] for layer in spans.LAYERS]
    return {(module.__name__, attr): value for module in modules for attr, value in vars(module).items()}


def test_tracing_off_leaves_every_module_attribute_identical():
    before = _module_state()
    with spans.tracing(spans.Tracer()):
        during = _module_state()
        assert during[("quivercuts.cuts", "enumerate_cuts")] is not before[("quivercuts.cuts", "enumerate_cuts")]
        assert during[("quivercuts.cli", "enumerate_cuts")] is during[("quivercuts.cuts", "enumerate_cuts")]
        assert during[("quivercuts", "enumerate_cuts")] is during[("quivercuts.cuts", "enumerate_cuts")]
    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_from_check_through_enough_cuts_to_enumeration():
    documents, _ = harness.build_documents("inspect", catalogue.load_pinned())
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        tracer.job = 0
        code, out = harness.call_cli(("check",), documents["A3:1<2>3xB2:2>1"])
    assert code == 0 and out.startswith("covered: yes\n")
    found = tracer.spans
    chains = set()
    for span in found:
        if span.name == "cuts.enumerate_cuts":
            parent = found[span.parent]
            chains.add((found[parent.parent].name, parent.name))
    assert ("cli.main", "cuts.has_enough_cuts") in chains
    assert ("cli.main", "cuts.is_fully_compatible") in chains
    assert all(span.self_ns >= 0 and span.end_ns >= span.start_ns for span in found)
    metrics = spans.layer_metrics(found, jobs=1)
    assert metrics["cuts.enumerations_per_job"] == 2
    assert metrics["cuts.cuts_per_s"] > 0 and metrics["cli.self_ms"] > 0


def test_absent_spans_give_zero_metrics_not_errors():
    names = [name for name, _ in spans.PER_LAYER if not name.startswith("trace.")]
    metrics = spans.layer_metrics([], jobs=1)
    assert sorted(metrics) == sorted(names)
    assert all(value == 0 for value in metrics.values())


def test_benchmark_json_names_the_metrics_the_command_prints():
    bench = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(catalogue.WORKLOADS)


def test_workload_process_caps_its_address_space():
    code = "import resource, run; run.limit_memory(); print(resource.getrlimit(resource.RLIMIT_AS)[0])"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(run.__file__).parent, capture_output=True, text=True, check=True
    )
    assert 0 < int(out.stdout) <= run.MEMORY_LIMIT_BYTES
