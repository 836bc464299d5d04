"""Acceptance suite: one test per pinned criterion, each with its time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; assertions are exact (no tolerances are loosened here).
"""

import hashlib
import random
import time
from pathlib import Path

import pytest
from support import (
    brute_force_cuts,
    cycle_arrows,
    is_acyclic,
    labeled_isomorphic,
    oracle_mutation_edges,
    random_tree_quiver,
    written,
)

from quivercuts.canvas import euler_characteristic, h1, is_simply_connected
from quivercuts.cuts import (
    enumerate_cuts,
    is_covered,
    is_cut,
    is_fully_compatible,
    truncated_presentation,
    truncated_quiver,
)
from quivercuts.docio import mutation_graph_to_dot, mutation_graph_to_json, write_cuts
from quivercuts.model import Quiver
from quivercuts.mutation import mutate_minus, mutation_graph
from quivercuts.tensor import (
    DivisionLabel,
    LabeledQuiverWithCycles,
    dynkin_quiver,
    dynkin_spec,
    morita_split,
    parse_dynkin_spec,
    standard_cuts,
    tensor_qwc,
)


def _passed(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def _e6f4():
    return tensor_qwc(dynkin_quiver(dynkin_spec("E", 6)), dynkin_quiver(dynkin_spec("F", 4)))


def test_criterion_1_e6f4_cut_count():
    start = time.perf_counter()
    product = _e6f4()
    q = product.qwc
    assert len(q.quiver.vertices) == 24
    assert len(q.quiver.arrows) == 53
    assert len(q.cycles) == 30
    cuts = enumerate_cuts(q)
    elapsed = time.perf_counter() - start
    assert len(cuts) == 16599
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed(1, f"E6xF4 has exactly 16599 cuts ({elapsed:.2f}s)")


# sha256 of the E6xF4 graph exports, which the stdlib-only CI job (.github/workflows/tier1.yml) also checks
E6F4_EXPORTS = {
    "json": "6127fcf8e6ae3a569bc45c136cdd753d8ad160ec900c02886e3574ee1aec331e",
    "dot": "e6821ef7b18898d825ec8d445d8fac870f5351c4095d0a0d6e2fef20d826a696",
    "directed dot": "560af9fdfc30e6ef285b5a2700a7298cc89b7ccfb7038c56ee277b8da38d8e46",
}


def test_criterion_2_e6f4_structural_suite():
    start = time.perf_counter()
    q = _e6f4().qwc
    assert is_covered(q)
    cuts = enumerate_cuts(q)
    assert set().union(*cuts) == {a.name for a in q.quiver.arrows}  # enough cuts
    assert is_fully_compatible(q)
    verdict = is_simply_connected(q)
    assert verdict.status == "Yes"
    graph = mutation_graph(q)
    assert len(graph.nodes) == 16599
    assert len(graph.edges) == 150598
    assert len({(min(i, j), max(i, j), v) for i, j, v, _ in graph.edges}) == 75299
    assert graph.is_connected
    # the exports' bytes, pinned
    exports = {
        "json": written(mutation_graph_to_json, graph),
        "dot": written(mutation_graph_to_dot, graph),
        "directed dot": written(mutation_graph_to_dot, graph, directed=True),
    }
    assert {kind: hashlib.sha256(text.encode()).hexdigest() for kind, text in exports.items()} == E6F4_EXPORTS
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed(2, f"E6xF4 covered, enough cuts, fully compatible, simply connected, connected graph ({elapsed:.2f}s)")


def test_ci_checks_the_pinned_e6f4_exports():
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    for kind, flags in (("json", "--json"), ("dot", "--dot"), ("directed dot", "--dot --directed")):
        assert f"graph {flags} e6f4.json | sha256sum | cut -d ' ' -f 1)\" = {E6F4_EXPORTS[kind]}" in workflow
    assert "tensor --left E6 --right F4 > e6f4.json" in workflow


# sha256 of the ``cuts`` listings of F4xE6 (16,599 lines) and D4xE7 (88,428 lines); the stdlib-only CI job
# checks the first
CUT_LISTINGS = {
    ("F4", "E6"): "5b05253f579c7e83883a9bf9b89bb32e97a13e07d57c160ecd856fe12a20fe06",
    ("D4", "E7"): "2c42cc5395d7a77ed5f8f3d439d3967b34e9237ceff6fbe6ec387ca624b8d54c",
}


@pytest.mark.parametrize(("left", "right"), CUT_LISTINGS)
def test_cut_listings_are_pinned(left, right):
    q = tensor_qwc(dynkin_quiver(parse_dynkin_spec(left)), dynkin_quiver(parse_dynkin_spec(right))).qwc
    assert hashlib.sha256(written(write_cuts, q).encode()).hexdigest() == CUT_LISTINGS[left, right]


def test_ci_checks_the_pinned_f4e6_listing():
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert f"cuts < f4e6.json | sha256sum | cut -d ' ' -f 1)\" = {CUT_LISTINGS['F4', 'E6']}" in workflow
    assert "tensor --left F4 --right E6 > f4e6.json" in workflow


def test_criterion_3_b2b2_split_fixture(b2b2_split):
    start = time.perf_counter()
    q = b2b2_split.qwc
    cuts = enumerate_cuts(q)
    assert len(cuts) == 7
    assert cuts == [tuple(sorted(cut)) for cut in brute_force_cuts(q)]
    graph = mutation_graph(q)
    assert len(graph.nodes) == 7
    assert graph.is_connected
    assert ("d", "e") in cuts
    assert mutate_minus(q, ("d", "e"), "3") == ("c", "f")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.1f}s"
    _passed(3, f"B2xB2 split: 7 oracle-confirmed cuts, connected 7-node graph, mu3-(d,e)=(c,f) ({elapsed:.2f}s)")


def test_criterion_4_a3b2_fixture(a3b2):
    start = time.perf_counter()
    q = a3b2.qwc
    cuts = enumerate_cuts(q)
    assert len(cuts) == 13
    assert cuts == [tuple(sorted(cut)) for cut in brute_force_cuts(q)]
    graph = mutation_graph(q)
    assert len(graph.nodes) == 13
    assert graph.is_connected
    for cut in standard_cuts(a3b2):
        assert is_cut(q, cut)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.1f}s"
    _passed(4, f"A3xB2: 13 oracle-confirmed cuts, connected 13-node graph, standard cuts pass ({elapsed:.2f}s)")


def test_criterion_5_circle_counterexample(circle):
    start = time.perf_counter()
    q = circle.qwc
    assert euler_characteristic(q) == 0
    group = h1(q)
    assert group.free_rank == 1 and group.torsion == ()
    verdict = is_simply_connected(q)
    assert verdict.status == "No"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.1f}s"
    _passed(5, f"circle diamond: chi=0, H1 rank 1, verdict No ({elapsed:.2f}s)")


def test_criterion_6_property_suite():
    start = time.perf_counter()
    rng = random.Random(20260809)
    oracle_instances = 0
    for _ in range(200):
        left = random_tree_quiver(rng, max_vertices=4, min_vertices=2)
        right = random_tree_quiver(rng, max_vertices=4, min_vertices=2)
        q = tensor_qwc(left, right).qwc
        # (a) contractible canvas
        assert euler_characteristic(q) == 1
        # (b) covered and enough cuts
        assert is_covered(q)
        cuts = enumerate_cuts(q)
        assert set().union(*cuts) == {a.name for a in q.quiver.arrows}
        # (c) oracle agreement while brute force stays feasible
        if len(cycle_arrows(q)) <= 14:
            assert cuts == [tuple(sorted(cut)) for cut in brute_force_cuts(q)]
            oracle_instances += 1
        # (d) mutations produce cuts and the involution pairing is complete
        graph = mutation_graph(q)
        assert graph.nodes == tuple(cuts)
        assert all(is_cut(q, node) for node in graph.nodes)
        assert graph.edges == tuple(oracle_mutation_edges(q, cuts))
        plus = {(i, j, v) for i, j, v, d in graph.edges if d == "+"}
        minus = {(j, i, v) for i, j, v, d in graph.edges if d == "-"}
        assert plus == minus
        # the edges leaving their lower end give the undirected view of all edges, each pair once
        pairs = {(min(i, j), max(i, j), v) for i, j, v, _ in graph.edges}
        assert sorted((i, j, v) for i, j, v, _ in graph.edges if i < j) == sorted(pairs)
        # (e) fully compatible + covered + enough cuts forces transitivity
        assert is_fully_compatible(q)
        assert graph.is_connected
        # (f) a Yes verdict forces full compatibility (checked unconditionally:
        # both sides hold on these instances)
        assert is_simply_connected(q).status == "Yes"
        # (g) removing any cut leaves an acyclic quiver
        for cut in cuts:
            assert is_acyclic(truncated_quiver(q, cut))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _passed(6, f"200 random tree tensor instances, zero violations, oracle on {oracle_instances} ({elapsed:.1f}s)")


def test_criterion_7_morita_split_golden(b2b2_split):
    start = time.perf_counter()
    b2 = dynkin_quiver(dynkin_spec("B", 2, frozenset({("2", "1")})), split_count=2)
    split = morita_split(tensor_qwc(b2, b2))
    ext = DivisionLabel("Ext")
    base = DivisionLabel("Base")
    expected = LabeledQuiverWithCycles(
        b2b2_split.qwc,
        {
            "1": (ext, ext),
            "2": (ext, base),
            "3": (base, base),
            "4": (base, ext),
            "5": (ext, ext),
        },
    )
    actual = LabeledQuiverWithCycles(
        split.qwc,
        {v: tuple(DivisionLabel(lab.kind) for lab in pair) for v, pair in split.labels.items()},
    )
    assert labeled_isomorphic(actual, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.1f}s"
    _passed(7, f"split B2xB2 is label-isomorphic to the 5-vertex fixture ({elapsed:.2f}s)")


def test_criterion_8_truncated_presentation(a3b2):
    start = time.perf_counter()
    q = a3b2.qwc
    vertical, horizontal, diagonal = standard_cuts(a3b2)
    presentation = truncated_presentation(q, diagonal)
    grid = Quiver(
        q.quiver.vertices,
        tuple(a for a in q.quiver.arrows if a.name in vertical + horizontal),
    )
    assert presentation.truncated_quiver == grid
    assert set(presentation.relations) == set(diagonal)
    for entries in presentation.relations.values():
        assert len(entries) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.1f}s"
    _passed(8, f"A3xB2 diagonal truncation is the commuting grid, 2 relation paths per diagonal ({elapsed:.2f}s)")
