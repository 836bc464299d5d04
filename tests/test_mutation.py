import json
import random
import tracemalloc

import pytest
from support import (
    cycle_arrows,
    cycle_core,
    oracle_component_count,
    oracle_mutate,
    oracle_mutation_edges,
    oracle_strict_vertices,
    random_quiver_with_cycles,
    written,
)

from quivercuts.cuts import are_compatible, enumerate_cuts, is_cut
from quivercuts.docio import mutation_graph_to_json
from quivercuts.model import Arrow, Cycle, Quiver, QuiverWithCycles
from quivercuts.mutation import (
    MutationGraph,
    is_transitive,
    mutate_minus,
    mutate_plus,
    mutation_graph,
    strict_sinks,
    strict_sources,
)


def test_strict_sources_example(b2b2_split):
    q = b2b2_split.qwc
    assert strict_sources(q, frozenset({"c", "f"})) == {"3"}
    assert strict_sinks(q, frozenset({"d", "e"})) == {"3"}


def test_empty_cut_strictness_off_the_covered_world():
    # strictness is judged on cycle arrows, so a cycle-free quiver has no
    # strict vertex, even where the free arrow would make one vacuously
    free = QuiverWithCycles(Quiver(("1", "2"), (Arrow("u", "1", "2"),)), ())
    assert strict_sources(free, frozenset()) == frozenset()
    assert strict_sinks(free, frozenset()) == frozenset()
    # isolated vertices are never strict
    point = QuiverWithCycles(Quiver(("1",), ()), ())
    assert strict_sources(point, frozenset()) == frozenset()
    assert strict_sinks(point, frozenset()) == frozenset()


def test_strict_vertices_of_the_diagonal_like_cut(b2b2_split):
    q = b2b2_split.qwc
    assert strict_sources(q, frozenset({"d", "e"})) == {"1", "5"}
    assert strict_sinks(q, frozenset({"c", "f"})) == {"2", "4"}


def test_mutate_plus_example(b2b2_split):
    q = b2b2_split.qwc
    assert mutate_plus(q, frozenset({"c", "f"}), "3") == ("d", "e")
    assert mutate_minus(q, ("d", "e"), "3") == ("c", "f")


def test_mutation_requires_strictness(b2b2_split):
    q = b2b2_split.qwc
    with pytest.raises(ValueError, match="strict source"):
        mutate_plus(q, frozenset({"d", "e"}), "3")
    with pytest.raises(ValueError, match="strict sink"):
        mutate_minus(q, frozenset({"c", "f"}), "1")
    with pytest.raises(ValueError, match="not a cut"):
        mutate_plus(q, frozenset({"a"}), "3")


def test_mutation_at_an_unknown_vertex_names_it(b2b2_split):
    q = b2b2_split.qwc
    for mutate in (mutate_plus, mutate_minus):
        with pytest.raises(ValueError, match="^unknown vertex 'nope'$"):
            mutate(q, frozenset({"c", "f"}), "nope")


def test_mutation_involution_and_cut_preservation(b2b2_split, a3b2):
    for q in (b2b2_split.qwc, a3b2.qwc):
        for cut in enumerate_cuts(q):
            for v in strict_sources(q, cut):
                image = mutate_plus(q, cut, v)
                assert is_cut(q, image)
                assert v in strict_sinks(q, image)
                assert mutate_minus(q, image, v) == cut
            for v in strict_sinks(q, cut):
                image = mutate_minus(q, cut, v)
                assert is_cut(q, image)
                assert v in strict_sources(q, image)
                assert mutate_plus(q, image, v) == cut


def test_mutation_graph_b2b2(b2b2_split):
    graph = mutation_graph(b2b2_split.qwc)
    assert len(graph.nodes) == 7
    assert graph.is_connected
    assert ("d", "e") in graph.nodes
    # the figure's lattice has nine undirected edges
    assert len({(min(i, j), max(i, j), v) for i, j, v, _ in graph.edges}) == 9


def test_mutation_graph_a3b2(a3b2):
    graph = mutation_graph(a3b2.qwc)
    assert len(graph.nodes) == 13
    assert graph.is_connected


def test_mutation_graph_edge_involution(b2b2_split, a3b2):
    for q in (b2b2_split.qwc, a3b2.qwc):
        graph = mutation_graph(q)
        plus = {(i, j, v) for i, j, v, d in graph.edges if d == "+"}
        minus = {(j, i, v) for i, j, v, d in graph.edges if d == "-"}
        assert plus == minus


def test_mutation_graph_degree_matches_strict_counts(b2b2_split):
    q = b2b2_split.qwc
    graph = mutation_graph(q)
    undirected = {(min(i, j), max(i, j), v) for i, j, v, _ in graph.edges}
    for i, node in enumerate(graph.nodes):
        expected = len(strict_sources(q, node)) + len(strict_sinks(q, node))
        degree = sum(1 for a, b, _ in undirected for end in (a, b) if end == i)
        assert degree == expected


def test_edges_join_compatible_cuts(b2b2_split):
    q = b2b2_split.qwc
    graph = mutation_graph(q)
    for i, j, _, _ in graph.edges:
        assert are_compatible(q, graph.nodes[i], graph.nodes[j])


def test_single_node_graph():
    q = QuiverWithCycles(Quiver(("1",), ()), ())
    graph = mutation_graph(q)
    assert len(graph.nodes) == 1
    assert graph.edges == ()
    assert is_transitive(q)


def test_transitive_examples(b2b2_split, a3b2):
    assert is_transitive(b2b2_split.qwc)
    assert is_transitive(a3b2.qwc)


def test_full_compatibility_and_coverage_force_transitivity(b2b2_split, a3b2):
    from quivercuts.cuts import has_enough_cuts, is_covered, is_fully_compatible

    for q in (b2b2_split.qwc, a3b2.qwc):
        assert is_fully_compatible(q) and is_covered(q) and has_enough_cuts(q)
        assert is_transitive(q)


def _parallel_two_cycles():
    return QuiverWithCycles(
        Quiver(
            ("1", "2"),
            (Arrow("u", "1", "2"), Arrow("v", "2", "1"), Arrow("w", "1", "2"), Arrow("x", "2", "1")),
        ),
        (Cycle(("u", "v")), Cycle(("w", "x"))),
    )


def _joined_triangles():
    # two vertex-disjoint triangles joined by an arrow lying in no cycle
    arrows = [
        Arrow("p1", "1", "2"),
        Arrow("p2", "2", "3"),
        Arrow("p3", "3", "1"),
        Arrow("q1", "4", "5"),
        Arrow("q2", "5", "6"),
        Arrow("q3", "6", "4"),
        Arrow("join", "1", "4"),
    ]
    return QuiverWithCycles(
        Quiver(tuple("123456"), tuple(arrows)),
        (Cycle(("p1", "p2", "p3")), Cycle(("q1", "q2", "q3"))),
    )


def _undeclared_endpoints():
    # the cycle runs through "9" and the free arrow w points to "7"; neither is declared, so neither mutates
    arrows = (Arrow("u", "1", "2"), Arrow("v", "2", "9"), Arrow("x", "9", "1"), Arrow("w", "1", "7"))
    return QuiverWithCycles(Quiver(("1", "2"), arrows), (Cycle(("u", "v", "x")),))


def test_loop_vertex_has_no_moves():
    # the loop is a cycle of its own, so it lies in every cut, and its
    # vertex "a" is never strict: the loop would have to be in and out
    q = QuiverWithCycles(
        Quiver(("a", "b"), (Arrow("p", "a", "b"), Arrow("r", "b", "a"), Arrow("l", "a", "a"))),
        (Cycle(("p", "r")), Cycle(("l",))),
    )
    cuts = enumerate_cuts(q)
    assert cuts == [("l", "p"), ("l", "r")]
    graph = mutation_graph(q)
    assert graph.edges == ((0, 1, "b", "+"), (1, 0, "b", "-"))
    assert graph.edges == tuple(oracle_mutation_edges(q, cuts))
    for cut in cuts:
        sources, sinks = oracle_strict_vertices(q.quiver, frozenset(cut))
        assert "a" not in sources + sinks
        assert (strict_sources(q, cut), strict_sinks(q, cut)) == (frozenset(sources), frozenset(sinks))


def test_moves_reaching_one_cut_are_ordered_by_vertex():
    # in the 2-cycle (p r), b+ and a- both drop r and add p, so they reach the same cut, and a+ and b- the other
    q = QuiverWithCycles(Quiver(("a", "b"), (Arrow("p", "b", "a"), Arrow("r", "a", "b"))), (Cycle(("p", "r")),))
    cuts = enumerate_cuts(q)
    assert cuts == [("p",), ("r",)]
    graph = mutation_graph(q)
    assert graph.edges == ((0, 1, "a", "+"), (0, 1, "b", "-"), (1, 0, "a", "-"), (1, 0, "b", "+"))
    assert graph.edges == tuple(oracle_mutation_edges(q, cuts))


def test_quiver_without_cuts_has_an_empty_graph():
    # the cycle runs through p and r twice, so no arrow set meets it exactly once
    q = QuiverWithCycles(
        Quiver(("a", "b"), (Arrow("p", "a", "b"), Arrow("r", "b", "a"))), (Cycle(("p", "r", "p", "r")),)
    )
    assert enumerate_cuts(q) == []
    graph = mutation_graph(q)
    assert graph.nodes == () and graph.edges == ()
    assert graph.edges == tuple(oracle_mutation_edges(q, []))
    assert graph.component_count() == 0


def test_vertex_with_arrows_in_two_mask_bytes():
    # three triangles through the hub "0": nine arrows fill two mask bytes, the hub's
    # outgoing x1 lies in the top one and its incoming z3 in the other
    arrows = []
    for k in "123":
        arrows += [Arrow(f"x{k}", "0", f"{k}a"), Arrow(f"y{k}", f"{k}a", f"{k}b"), Arrow(f"z{k}", f"{k}b", "0")]
    vertices = ("0",) + tuple(f"{k}{end}" for k in "123" for end in "ab")
    cycles = tuple(Cycle((f"x{k}", f"y{k}", f"z{k}")) for k in "123")
    q = QuiverWithCycles(Quiver(vertices, tuple(arrows)), cycles)
    at = q.cut_space.at
    assert (at["x1"] >> 3, at["z3"] >> 3) == (1, 0)
    cuts = enumerate_cuts(q)
    assert len(cuts) == 27
    graph = mutation_graph(q)
    assert graph.edges == tuple(oracle_mutation_edges(q, cuts))
    # the hub is a strict source only of the cut of its incoming arrows, and a strict sink only of the other
    source, sink = cuts.index(("z1", "z2", "z3")), cuts.index(("x1", "x2", "x3"))
    assert [(i, j, d) for i, j, v, d in graph.edges if v == "0"] == [(sink, source, "-"), (source, sink, "+")]


def _long_cycle(n: int) -> QuiverWithCycles:
    names = [f"a{i:05d}" for i in range(n)]
    vertices = [f"v{i:05d}" for i in range(n)]
    arrows = tuple(Arrow(names[i], vertices[i], vertices[(i + 1) % n]) for i in range(n))
    return QuiverWithCycles(Quiver(tuple(vertices), arrows), (Cycle(tuple(names)),))


def test_mutation_on_a_long_cycle_takes_memory_linear_in_its_arrows():
    # a cut of the cycle is one arrow, and the vertex it enters is its one strict source
    n = 12_500
    q = _long_cycle(n)
    q.cut_space  # the quiver's own masks, built before tracing
    tracemalloc.start()
    try:
        assert strict_sources(q, ["a00007"]) == {"v00008"}
        assert mutate_plus(q, ["a00007"], "v00008") == ("a00008",)
        assert mutate_minus(q, ["a00008"], "v00008") == ("a00007",)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two masks as wide as the quiver for every vertex would take about 59 MB here
    assert peak < 1000 * n


def test_moves_past_a_byte_of_vertices_are_read_exactly():
    # 300 vertices that can mutate make 600 moves, 75 bytes of source bits a node
    q = _long_cycle(300)
    graph = mutation_graph(q)
    assert graph.edges == tuple(oracle_mutation_edges(q, enumerate_cuts(q)))
    assert graph.is_connected
    # d strict vertices of one cut hold d / 2 sources or d / 2 sinks with no arrow between two of them,
    # whose mutations give 2 ** (d / 2) cuts, so no graph that can be listed has a node of out-degree
    # 256: the edge writer is fed 300 moves that each take every node to itself
    moves = tuple((v, "+", True, b"\1" * 300, b"\1" * 300) for v in q.quiver.vertices)
    everywhere = MutationGraph(graph.space, graph.table, moves)
    for g in (everywhere, graph):  # 300 moves a node, then 600 moves of 75 bytes of source bits a node
        exported = json.loads(written(mutation_graph_to_json, g))["edges"]
        assert [(e["source"], e["target"], e["vertex"], e["direction"]) for e in exported] == list(g.edges)
    assert len(everywhere.edges) == 300 * 300


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
def test_components_by_union_find_over_the_move_columns():
    # the union-find over paired move columns against breadth-first search over the oracle's edges
    counts = set()
    for seed in range(150):
        q = random_quiver_with_cycles(random.Random(seed), 5, 16, min_arrows=9)
        cuts = enumerate_cuts(q)
        expected = oracle_component_count(len(cuts), oracle_mutation_edges(q, cuts))
        graph = mutation_graph(q)
        assert graph.component_count() == expected, seed
        assert graph.is_connected == is_transitive(q) == (expected <= 1), seed
        counts.add(expected)
    assert {0, 1, 2, 3} < counts  # empty, connected and split graphs among them


def test_non_transitive_instance():
    # two parallel 2-cycles: {u,x} admits no mutation at all, so the
    # mutation graph cannot be connected (the instance is not fully compatible)
    q = _parallel_two_cycles()
    graph = mutation_graph(q)
    assert len(graph.nodes) == 4
    assert not graph.is_connected
    assert not is_transitive(q)


def test_free_arrows_judged_on_enumerated_cuts():
    # free arrows sort before the cycle arrows ("join"), between them ("pz") and after them ("z")
    base = _joined_triangles()
    arrows = base.quiver.arrows + (Arrow("pz", "1", "5"), Arrow("z", "6", "1"))
    q = QuiverWithCycles(Quiver(base.quiver.vertices, arrows), base.cycles)
    with pytest.warns(UserWarning):
        graph = mutation_graph(q)
    assert len(graph.nodes) == 9
    assert all(name not in node for node in graph.nodes for name in ("join", "pz", "z"))
    # at vertex 1 the cycle arrows p3 (in) and p1 (out) swap, and the free arrow "z" rides along
    plus = mutate_plus(q, ("p3", "q1", "z"), "1")
    minus = mutate_minus(q, plus, "1")
    assert plus == ("p1", "q1", "z")
    assert minus == ("p3", "q1", "z")
    with pytest.warns(UserWarning):
        assert is_transitive(q)


def _one_cut_edges(q, graph):
    """The graph's edges rebuilt from the one-cut operations, asserting that each mutation reaches a node."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    edges = []
    for i, node in enumerate(graph.nodes):
        for direction, strict, mutate in (("+", strict_sources, mutate_plus), ("-", strict_sinks, mutate_minus)):
            for v in strict(q, node):
                image = mutate(q, node, v)
                assert image in index, (node, v, direction, image)
                edges.append((i, index[image], v, direction))
    return tuple(sorted(edges))


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
def test_one_cut_operations_walk_the_graph_edges():
    # free arrows are inert, so mutating a node at each of its strict vertices gives exactly the graph's edges
    quivers = [("joined_triangles", _joined_triangles())]
    quivers += [(seed, random_quiver_with_cycles(random.Random(seed), 5, 9)) for seed in range(300)]
    for name, q in quivers:
        graph = mutation_graph(q)
        assert _one_cut_edges(q, graph) == graph.edges, name


def test_mutation_graph_nodes_sorted(a3b2):
    graph = mutation_graph(a3b2.qwc)
    assert list(graph.nodes) == sorted(graph.nodes)


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
@pytest.mark.parametrize(
    "name", ["b2b2_split", "a3b2", "joined_triangles", "parallel_two_cycles", "undeclared_endpoints"]
)
def test_mask_mutation_matches_frozenset_oracle(name, request):
    if name == "joined_triangles":
        q = _joined_triangles()
    elif name == "parallel_two_cycles":
        q = _parallel_two_cycles()
    elif name == "undeclared_endpoints":
        q = _undeclared_endpoints()
    else:
        q = request.getfixturevalue(name).qwc
    cuts = enumerate_cuts(q)
    graph = mutation_graph(q)
    assert graph.nodes == tuple(cuts)
    assert graph.edges == tuple(oracle_mutation_edges(q, cuts))
    assert {v for _, _, v, _ in graph.edges} <= set(q.quiver.vertices)
    # off the enumerated cuts, free arrows ride along
    core = cycle_core(q)
    free = frozenset(a.name for a in q.quiver.arrows) - cycle_arrows(q)
    for members in [frozenset(cut) for cut in cuts] + [frozenset(cut) | free for cut in cuts]:
        sources, sinks = oracle_strict_vertices(core, members)
        assert strict_sources(q, members) == frozenset(sources)
        assert strict_sinks(q, members) == frozenset(sinks)
        for v in sources:
            assert mutate_plus(q, members, v) == tuple(sorted(oracle_mutate(core, members, v, "+")))
        for v in sinks:
            assert mutate_minus(q, members, v) == tuple(sorted(oracle_mutate(core, members, v, "-")))
