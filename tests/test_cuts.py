import random
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st
from support import (
    brute_force_cuts,
    is_acyclic,
    oracle_are_compatible,
    oracle_has_enough_cuts,
    oracle_is_cut,
    oracle_component_count,
    oracle_is_fully_compatible,
    oracle_mutation_edges,
    oracle_split_components,
    random_quiver_with_cycles,
    random_tree_quiver,
)

from quivercuts.canvas import _presentations, pi1_presentation
from quivercuts.cuts import (
    UncoveredQuiverWarning,
    are_compatible,
    count_cuts,
    enumerate_cuts,
    has_enough_cuts,
    is_covered,
    is_cut,
    is_fully_compatible,
    truncated_presentation,
    truncated_quiver,
)
from quivercuts.model import Arrow, Cycle, Quiver, QuiverWithCycles
from quivercuts.mutation import is_transitive, mutation_graph
from quivercuts.tensor import dynkin_quiver, parse_dynkin_spec, standard_cuts, tensor_qwc

B2B2_CUTS = [
    {"a", "b", "e"},
    {"a", "b", "g", "h"},
    {"a", "f", "h"},
    {"b", "c", "g"},
    {"c", "f"},
    {"d", "e"},
    {"d", "g", "h"},
]


def qwc(vertices, arrows, cycles=()):
    return QuiverWithCycles(Quiver(tuple(vertices), tuple(arrows)), tuple(cycles))


@pytest.fixture(scope="module")
def incompatible():
    """Two parallel 2-cycles; its cuts disagree on the walk u then w reversed."""
    return qwc(
        ["1", "2"],
        [Arrow("u", "1", "2"), Arrow("v", "2", "1"), Arrow("w", "1", "2"), Arrow("x", "2", "1")],
        [Cycle(("u", "v")), Cycle(("w", "x"))],
    )


def test_every_cut_grades_cycles_to_one(b2b2_split):
    # each distinguished cycle has exactly one member in each cut
    q = b2b2_split.qwc
    for cut in enumerate_cuts(q):
        for cycle in q.cycles:
            assert sum(name in cut for name in cycle.arrows) == 1


def test_is_cut_examples(b2b2_split):
    q = b2b2_split.qwc
    assert is_cut(q, {"d", "e"})
    assert not is_cut(q, {"d", "e", "a"})
    assert is_cut(qwc(["1"], []), set())
    with pytest.raises(ValueError, match="unknown arrow 'nope'"):
        is_cut(q, {"nope"})


def _repeated_arrow_quiver():
    # the cycle u.v.u.x passes through u twice, so u can never join a cut
    return qwc(
        ["1", "2"],
        [Arrow("u", "1", "2"), Arrow("v", "2", "1"), Arrow("x", "2", "1")],
        [Cycle(("u", "v", "u", "x"))],
    )


def test_multiplicity_counting_blocks_repeated_arrows():
    q = _repeated_arrow_quiver()
    assert not is_cut(q, {"u"})
    assert is_cut(q, {"v"})
    assert enumerate_cuts(q) == [("v",), ("x",)]


def test_enumerate_b2b2_exact(b2b2_split):
    cuts = enumerate_cuts(b2b2_split.qwc)
    assert [set(c) for c in cuts] == sorted(B2B2_CUTS, key=lambda s: tuple(sorted(s)))
    assert cuts == [tuple(sorted(cut)) for cut in brute_force_cuts(b2b2_split.qwc)]


def test_enumerate_a3b2_against_oracle(a3b2):
    cuts = enumerate_cuts(a3b2.qwc)
    assert len(cuts) == 13
    assert cuts == [tuple(sorted(cut)) for cut in brute_force_cuts(a3b2.qwc)]


def test_enumerate_no_cycles_yields_empty_cut():
    assert enumerate_cuts(qwc(["1"], [])) == [()]


def test_enumerate_warns_on_free_arrows():
    q = qwc(
        ["1", "2"],
        [Arrow("u", "1", "2"), Arrow("v", "2", "1"), Arrow("free", "1", "2")],
        [Cycle(("u", "v"))],
    )
    with pytest.warns(UncoveredQuiverWarning, match="free"):
        cuts = enumerate_cuts(q)
    assert cuts == [("u",), ("v",)]
    with pytest.warns(UncoveredQuiverWarning, match="free"):
        assert count_cuts(q) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the predicates list no cuts, so they do not warn
        assert not has_enough_cuts(q)


def test_enumerate_sorted_and_duplicate_free(a3b2):
    cuts = enumerate_cuts(a3b2.qwc)
    assert cuts == sorted(set(cuts))
    assert all(list(c) == sorted(set(c)) for c in cuts)
    assert all(is_cut(a3b2.qwc, c) for c in cuts)


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
@given(st.integers(0, 10**6))
def test_enumerate_matches_oracle_on_random_tensors(seed):
    # single-vertex factors produce cycle-free (hence uncovered) products;
    # the oracle must agree there too
    rng = random.Random(seed)
    product = tensor_qwc(random_tree_quiver(rng, 2), random_tree_quiver(rng, 3))
    # the enumerator and the mask predicates against their frozenset oracles, on the
    # product, on a random quiver with cycles (free arrows, repeats, components) and
    # on a cycle that repeats an arrow
    for q in (product.qwc, random_quiver_with_cycles(rng), _repeated_arrow_quiver()):
        _check_against_oracles(q, rng)


def _check_against_oracles(q, rng):
    cuts = enumerate_cuts(q)
    oracle = brute_force_cuts(q)
    assert cuts == [tuple(sorted(cut)) for cut in oracle]
    assert count_cuts(q) == len(cuts) == len(oracle)
    assert has_enough_cuts(q) == oracle_has_enough_cuts(q, oracle)
    names = [a.name for a in q.quiver.arrows]
    free = [name for name in names if name not in q.cycle_arrows]
    for _ in range(8):
        subset = frozenset(name for name in names if rng.random() < 0.5)
        assert is_cut(q, subset) == oracle_is_cut(q, subset)
    # compatibility is equal degree on every cyclic walk, that is, a height
    # function on each component; a cut with free arrows added is still a cut
    with_free = [cut + tuple(name for name in free if rng.random() < 0.5) for cut in cuts]
    for first in with_free:
        second = rng.choice(with_free)
        assert is_cut(q, first)
        assert are_compatible(q, first, second) == oracle_are_compatible(q, first, second)
    assert is_fully_compatible(q) == oracle_is_fully_compatible(q, oracle)
    # each component's presentation, read off the one forest, is that of the component alone
    parts = oracle_split_components(q)
    presentations = _presentations(q)
    assert list(presentations) == [part.quiver.vertices[0] for part in parts]
    for part in parts:
        assert presentations[part.quiver.vertices[0]] == pi1_presentation(part)
    # the mutation graph, its undirected view and its components, against the frozenset oracle
    graph = mutation_graph(q)
    edges = oracle_mutation_edges(q, cuts)
    assert graph.edges == tuple(edges)
    assert graph.undirected_edges() == tuple(sorted({(min(i, j), max(i, j), v) for i, j, v, _ in edges}))
    components = oracle_component_count(len(cuts), edges)
    assert graph.component_count() == components
    assert graph.is_connected == (components <= 1)


def test_deep_cut_needs_no_recursion():
    # one vertex with 1500 loops, each its own cycle: the one cut is a DAG path of
    # 1500 states, deeper than the recursion limit
    names = [f"a{i:04d}" for i in range(1500)]
    q = qwc(["v"], [Arrow(name, "v", "v") for name in names], [Cycle((name,)) for name in names])
    assert enumerate_cuts(q) == [tuple(names)]
    assert count_cuts(q) == 1
    assert has_enough_cuts(q)
    assert is_fully_compatible(q)


def test_uncovered_warning_points_at_the_caller():
    q = qwc(
        ["1", "2"],
        [Arrow("u", "1", "2"), Arrow("v", "2", "1"), Arrow("free", "1", "2")],
        [Cycle(("u", "v"))],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enumerate_cuts(q)
        count_cuts(q)
        mutation_graph(q)
        is_transitive(q)
    assert [w.category for w in caught] == [UncoveredQuiverWarning] * 4
    assert len({str(w.message) for w in caught}) == 1
    assert [w.filename for w in caught] == [__file__] * 4


def test_count_e6e6_without_listing():
    # 1,505,721 was found by listing every cut; the DAG counts them without a list
    left = dynkin_quiver(parse_dynkin_spec("E6"))
    assert count_cuts(tensor_qwc(left, left).qwc) == 1505721


def _names_reversed(q):
    """``q`` with its arrow names reversed in order, so the DAG indexes and branches differently."""
    names = sorted(a.name for a in q.quiver.arrows)
    new = dict(zip(names, reversed(names)))
    arrows = tuple(Arrow(new[a.name], a.source, a.target) for a in q.quiver.arrows)
    cycles = tuple(Cycle(tuple(map(new.__getitem__, c.arrows)), c.sign) for c in q.cycles)
    return QuiverWithCycles(Quiver(q.quiver.vertices, arrows), cycles)


@pytest.mark.parametrize(
    ("left", "right", "count"),
    [("E6", "E7", 13527313), ("E7", "E7", 166849592), ("E8", "E6", 121450718), ("E8", "E8", 34864900152)],
)
def test_big_counts_agree_under_factor_swap_and_renaming(left, right, count):
    # the swapped product and the renamed arrows give the cut-state DAG other
    # states (E8xE6: 1291, 4490 and 4665), and all three count the same cuts
    first, second = dynkin_quiver(parse_dynkin_spec(left)), dynkin_quiver(parse_dynkin_spec(right))
    product = tensor_qwc(first, second).qwc
    assert count_cuts(tensor_qwc(second, first).qwc) == count
    assert count_cuts(_names_reversed(product)) == count
    assert count_cuts(product) == count


def test_covered(b2b2_split, a3b2):
    assert is_covered(b2b2_split.qwc)
    assert is_covered(a3b2.qwc)
    assert is_covered(qwc(["1"], []))
    assert not is_covered(qwc(["1", "2"], [Arrow("u", "1", "2")]))


def test_has_enough_cuts(b2b2_split):
    assert has_enough_cuts(b2b2_split.qwc)
    assert has_enough_cuts(qwc(["1"], []))


def test_compatible_examples(b2b2_split):
    q = b2b2_split.qwc
    assert are_compatible(q, frozenset({"d", "e"}), frozenset({"d", "e"}))
    assert are_compatible(q, frozenset({"d", "e"}), frozenset({"c", "f"}))
    with pytest.raises(ValueError, match="not a cut"):
        are_compatible(q, frozenset({"a"}), frozenset({"d", "e"}))


def test_compatibility_is_an_equivalence(b2b2_split):
    q = b2b2_split.qwc
    cuts = enumerate_cuts(q)
    for c1 in cuts:
        for c2 in cuts:
            assert are_compatible(q, c1, c2) == are_compatible(q, c2, c1)
            assert are_compatible(q, c1, c1)


def test_enough_cuts_ignores_dead_branches():
    # loops a, b, c, d: choosing a covers (a, b) and (a, c, d), leaving (c, d) no
    # candidate, so a lies in no cut although the search tries it
    cycles = [Cycle(("a", "b")), Cycle(("c", "d")), Cycle(("a", "c", "d"))]
    q = qwc(["v"], [Arrow(name, "v", "v") for name in "abcd"], cycles)
    assert enumerate_cuts(q) == [("b", "c"), ("b", "d")]
    assert is_covered(q)
    assert not has_enough_cuts(q)


def test_fully_compatible(b2b2_split, a3b2):
    assert is_fully_compatible(b2b2_split.qwc)
    assert is_fully_compatible(a3b2.qwc)
    assert is_fully_compatible(qwc(["1"], []))


def test_incompatible_instance(incompatible):
    cuts = enumerate_cuts(incompatible)
    assert len(cuts) == 4
    assert not is_fully_compatible(incompatible)
    assert not oracle_is_fully_compatible(incompatible, cuts)
    assert not are_compatible(incompatible, frozenset({"u", "x"}), frozenset({"u", "w"}))


def test_compatibility_judged_on_every_component(incompatible):
    # a looped vertex "0" forms the first component; the incompatibility lies in the second
    q = qwc(
        ["0", *incompatible.quiver.vertices],
        [Arrow("z", "0", "0"), *incompatible.quiver.arrows],
        [Cycle(("z",)), *incompatible.cycles],
    )
    assert not are_compatible(q, frozenset({"z", "u", "x"}), frozenset({"z", "u", "w"}))
    assert not is_fully_compatible(q)


def test_truncated_quiver(b2b2_split):
    q = b2b2_split.qwc
    truncated = truncated_quiver(q, frozenset({"d", "e"}))
    assert {a.name for a in truncated.arrows} == {"a", "b", "c", "f", "g", "h"}
    assert truncated.vertices == q.quiver.vertices
    assert is_acyclic(truncated)
    # a cut may be any iterable of names, a one-shot iterator included
    assert truncated_quiver(q, iter(("d", "e"))) == truncated
    with pytest.raises(ValueError, match="not a cut"):
        truncated_quiver(q, frozenset({"a"}))


def test_acyclic_truncation_iff_enough_cuts_on_fixtures(b2b2_split, a3b2):
    # under full compatibility, removing any one cut leaves an acyclic quiver
    # exactly when every arrow lies in some cut
    for q in (b2b2_split.qwc, a3b2.qwc):
        assert is_fully_compatible(q)
        enough = has_enough_cuts(q)
        for cut in enumerate_cuts(q):
            assert is_acyclic(truncated_quiver(q, cut)) == enough


def test_truncated_quiver_identity_on_cycle_free():
    q = qwc(["1", "2"], [Arrow("u", "1", "2")])
    assert truncated_quiver(q, frozenset()) == q.quiver


def test_truncated_presentation_b2b2(b2b2_split):
    q = b2b2_split.qwc
    pres = truncated_presentation(q, frozenset({"d", "e"}))
    assert set(pres.relations) == {"d", "e"}
    assert pres.relations["d"] == ((1, ("a", "c")), (-1, ("b", "f")))
    assert pres.relations["e"] == ((1, ("h", "c")), (-1, ("g", "f")))
    assert truncated_presentation(q, iter(("d", "e"))) == pres


def test_truncated_presentation_counts_and_support(a3b2):
    q = a3b2.qwc
    for cut in enumerate_cuts(q):
        pres = truncated_presentation(q, cut)
        remaining = {a.name for a in pres.truncated_quiver.arrows}
        for name, entries in pres.relations.items():
            assert len(entries) == sum(1 for c in q.cycles if name in c.arrows)
            for _, path in entries:
                assert set(path) <= remaining
                source = q.quiver.arrow(name).source
                target = q.quiver.arrow(name).target
                at = target
                for step in path:
                    arrow = q.quiver.arrow(step)
                    assert arrow.source == at
                    at = arrow.target
                assert at == source


def test_diagonal_cut_relations_on_a3b2(a3b2):
    _, _, diagonal = standard_cuts(a3b2)
    pres = truncated_presentation(a3b2.qwc, diagonal)
    assert all(len(entries) == 2 for entries in pres.relations.values())


def test_empty_presentation():
    pres = truncated_presentation(qwc(["1"], []), frozenset())
    assert pres.relations == {}

