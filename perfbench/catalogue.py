"""The job catalogue of each workload, its input documents and headline checks.

A job is a short pipeline of ``quivercuts`` CLI calls: the first stage reads
a named input document (or nothing), each later stage reads the stdout of
the stage before it.  A workload run is a seeded sequence of whole shuffled
passes ("rounds") over its catalogue, so every seed measures the same job
mix in a different order, and the pinned outputs in ``pinned.json`` cover
every seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned.json")

WORKLOADS = ("enumerate", "lattice", "inspect")

# Dynkin factors of the tensor products.  Orientations are written out where
# the cut count depends on them (see README.md at the repository root).
SPECS = ("A2", "A3:1<2>3", "B2:2>1", "C2", "G2", "A4", "D4", "F4", "E6", "E7")

# Left out until cuts can be counted without listing them: E6xE6 counts
# 1,505,721 cuts in 40 s, and E6xE7 runs out of memory on an 8 GB machine.
EXCLUDED_PAIRS = frozenset({("E6", "E6"), ("E6", "E7"), ("E7", "E7")})

# The three products over 75,000 cuts make 'graph' jobs of tens of seconds
# and hundreds of MB, and A4xE6 repeats F4xE6's cut count.  D4xE6 (18,507
# cuts) and A3xE7 would add 9 s and 3 s to each round, leaving room for
# only two rounds a run; 'inspect' checks both.  The lattice workload keeps
# F4xE6 (16599 cuts), whose edge counts are headline values.
LATTICE_EXCLUDED = frozenset(
    {("A4", "E7"), ("D4", "E7"), ("F4", "E7"), ("A4", "E6"), ("D4", "E6"), ("A3:1<2>3", "E7")}
)

SPLIT = "B2:2>1xB2:2>1+split"

INSPECT_PAIRS = (
    ("A2", "A2"),
    ("A3:1<2>3", "B2:2>1"),
    ("A4", "A4"),
    ("D4", "D4"),
    ("F4", "F4"),
    ("G2", "E7"),
    ("A3:1<2>3", "E6"),
    ("A3:1<2>3", "E7"),
    ("F4", "E6"),
    ("D4", "E6"),
)

# One-vertex canvases: one loop per generator, one cycle per relator.  Their
# fundamental groups are the presented groups below.
CANVASES = {
    "vonDyck(2,3,5)": ("xy", ("x" * 2, "y" * 3, "xy" * 5)),  # A5: closes at 60 cosets
    "vonDyck(2,3,4)": ("xy", ("x" * 2, "y" * 3, "xy" * 4)),  # H1 torsion refutes
    "vonDyck(3,3,4)": ("xy", ("x" * 3, "y" * 3, "xy" * 4)),  # H1 torsion refutes
    "vonDyck(2,3,7)": ("xy", ("x" * 2, "y" * 3, "xy" * 7)),  # infinite, perfect: Unknown
    "vonDyck(3,4,5)": ("xy", ("x" * 3, "y" * 4, "xy" * 5)),  # infinite, perfect: Unknown
    "xyz(2,3,5,7)": ("xyz", ("x" * 2, "y" * 3, "z" * 5, "xyz" * 7)),  # Unknown
}
COSET_BUDGETS = (5000, 100000)


@dataclass(frozen=True)
class Job:
    """One closed-loop request: CLI stages fed from a named document."""

    id: str
    stages: tuple[tuple[str, ...], ...]
    document: str | None = None


def pair_name(left: str, right: str) -> str:
    return f"{left}x{right}"


def tensor_argv(left: str, right: str, split: bool = False) -> tuple[str, ...]:
    return ("tensor", "--left", left, "--right", right) + (("--split",) if split else ())


def _pairs(excluded: frozenset = frozenset()) -> list[tuple[str, tuple[str, ...]]]:
    """(document name, tensor argv) for every admitted pair, plus the split."""
    out = [
        (pair_name(a, b), tensor_argv(a, b))
        for a, b in itertools.combinations_with_replacement(SPECS, 2)
        if (a, b) not in EXCLUDED_PAIRS and (a, b) not in excluded
    ]
    out.append((SPLIT, tensor_argv("B2:2>1", "B2:2>1", split=True)))
    return out


def canvas_document(generators: str, relators: tuple[str, ...]) -> str:
    return json.dumps(
        {
            "format_version": 1,
            "vertices": [{"id": "o"}],
            "arrows": [{"id": g, "source": "o", "target": "o"} for g in generators],
            "cycles": [{"arrows": list(word)} for word in relators],
        },
        indent=2,
    ) + "\n"


def document_sources(workload: str) -> dict[str, tuple[str, ...] | str]:
    """Input documents a workload builds in set-up: tensor argv, or literal text."""
    if workload == "enumerate":
        return {}  # its jobs build their documents with 'tensor' as the first stage
    if workload == "lattice":
        return dict(_pairs(LATTICE_EXCLUDED))
    if workload == "inspect":
        sources: dict[str, tuple[str, ...] | str] = {pair_name(a, b): tensor_argv(a, b) for a, b in INSPECT_PAIRS}
        sources[SPLIT] = tensor_argv("B2:2>1", "B2:2>1", split=True)
        for name, (generators, relators) in CANVASES.items():
            sources[name] = canvas_document(generators, relators)
        return sources
    raise ValueError(f"unknown workload {workload!r}")


def catalogue(workload: str, arguments: dict | None = None) -> list[Job]:
    """Every job of a workload, in a fixed order.

    ``arguments`` holds the pinned cut and vertex of each inspect document
    (the ``arguments`` section of ``pinned.json``).
    """
    if workload == "enumerate":
        jobs = []
        for name, tensor in _pairs():
            jobs.append(Job(f"count:{name}", (tensor, ("cuts", "--count-only"))))
            jobs.append(Job(f"list:{name}", (tensor, ("cuts",))))
        return jobs
    if workload == "lattice":
        jobs = []
        for name, _ in _pairs(LATTICE_EXCLUDED):
            jobs.append(Job(f"json:{name}", (("graph", "--json"),), name))
            jobs.append(Job(f"dot:{name}", (("graph", "--dot"),), name))
        return jobs
    if workload == "inspect":
        if arguments is None:
            arguments = load_pinned()["arguments"]
        jobs = []
        for name, source in document_sources("inspect").items():
            jobs.append(Job(f"validate:{name}", (("validate",),), name))
            if isinstance(source, str):  # a canvas
                for budget in COSET_BUDGETS:
                    jobs.append(Job(f"check@{budget}:{name}", (("check", "--coset-budget", str(budget)),), name))
                continue
            args = arguments[name]
            jobs.append(Job(f"check:{name}", (("check",),), name))
            jobs.append(Job(f"truncate:{name}", (("truncate", "--cut", args["truncate"]),), name))
            for direction in ("plus", "minus"):
                cut, vertex = args[direction]
                argv = ("mutate", "--cut", cut, "--vertex", vertex, "--dir", direction)
                jobs.append(Job(f"mutate-{direction}:{name}", (argv,), name))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def job_order(jobs: list[Job], rng: "random.Random") -> list[Job]:
    """One round: the whole catalogue in an order drawn from ``rng``."""
    order = list(jobs)
    rng.shuffle(order)
    return order


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


# Headline values of the source paper, written down by hand rather than taken
# from the recorded goldens: a job whose id is listed here must also pass
# its check.
def _json_graph(nodes: int, edges: int):
    def check(stdout: str) -> bool:
        doc = json.loads(stdout)
        return len(doc["nodes"]) == nodes and len(doc["edges"]) == edges

    return check


def _dot_graph(nodes: int, undirected_edges: int):
    def check(stdout: str) -> bool:
        edges = stdout.count(" -- ")
        return edges == undirected_edges and stdout.count(" [label=") - edges == nodes

    return check


HEADLINES = {
    f"count:{SPLIT}": lambda out: out == "7\n",
    "count:A3:1<2>3xB2:2>1": lambda out: out == "13\n",
    "count:F4xE6": lambda out: out == "16599\n",
    "count:F4xE7": lambda out: out == "79159\n",
    "json:F4xE6": _json_graph(16599, 150598),
    "dot:F4xE6": _dot_graph(16599, 75299),
    "check@5000:vonDyck(2,3,5)": lambda out: out.endswith("simply-connected: No (coset table closed with 60 cosets)\n"),
    "check@100000:vonDyck(2,3,5)": lambda out: out.endswith("simply-connected: No (coset table closed with 60 cosets)\n"),
}
