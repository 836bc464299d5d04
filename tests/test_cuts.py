import random
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st
from support import brute_force_cuts, random_tree_quiver

from quivercuts.cuts import (
    UncoveredQuiverWarning,
    are_compatible,
    enumerate_cuts,
    grading_from_cut,
    has_enough_cuts,
    is_covered,
    is_cut,
    is_fully_compatible,
    truncated_presentation,
    truncated_quiver,
    walk_degree,
)
from quivercuts.model import Arrow, Cycle, Quiver, QuiverWithCycles, Walk, is_acyclic
from quivercuts.tensor import standard_cuts, tensor_qwc

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


def test_grading_empty_and_full(b2b2_split):
    q = b2b2_split.qwc
    empty = grading_from_cut(q, set())
    assert set(empty.degree.values()) == {0}
    full = grading_from_cut(q, {a.name for a in q.quiver.arrows})
    assert walk_degree(full, Walk((("a", 1), ("c", 1)))) == 2


def test_grading_indicator(b2b2_split):
    g = grading_from_cut(b2b2_split.qwc, {"d", "e"})
    assert g.degree["d"] == g.degree["e"] == 1
    assert sum(g.degree.values()) == 2


def test_grading_unknown_arrow(b2b2_split):
    with pytest.raises(KeyError, match="zz"):
        grading_from_cut(b2b2_split.qwc, {"zz"})


def test_walk_degree_examples(b2b2_split):
    g = grading_from_cut(b2b2_split.qwc, {"d", "e"})
    assert walk_degree(g, Walk(())) == 0
    assert walk_degree(g, Walk((("d", -1),))) == -1


def test_every_cut_grades_cycles_to_one(b2b2_split):
    q = b2b2_split.qwc
    for cut in enumerate_cuts(q):
        g = grading_from_cut(q, cut)
        for cycle in q.cycles:
            forward = Walk(tuple((name, 1) for name in cycle.arrows))
            assert walk_degree(g, forward) == 1


@given(
    st.lists(st.tuples(st.sampled_from("abcdefgh"), st.sampled_from((1, -1)))),
    st.lists(st.tuples(st.sampled_from("abcdefgh"), st.sampled_from((1, -1)))),
)
def test_walk_degree_is_additive_and_odd(steps1, steps2):
    q = _B2B2
    g = grading_from_cut(q, {"d", "e"})
    w1, w2 = Walk(tuple(steps1)), Walk(tuple(steps2))
    joined = Walk(tuple(steps1) + tuple(steps2))
    assert walk_degree(g, joined) == walk_degree(g, w1) + walk_degree(g, w2)
    assert walk_degree(g, w1.inverse()) == -walk_degree(g, w1)


def test_is_cut_examples(b2b2_split):
    q = b2b2_split.qwc
    assert is_cut(q, {"d", "e"})
    assert not is_cut(q, {"d", "e", "a"})
    assert is_cut(qwc(["1"], []), set())
    with pytest.raises(KeyError):
        is_cut(q, {"nope"})


def test_multiplicity_counting_blocks_repeated_arrows():
    # the cycle u.v.u.x passes through u twice, so u can never join a cut
    q = qwc(
        ["1", "2"],
        [Arrow("u", "1", "2"), Arrow("v", "2", "1"), Arrow("x", "2", "1")],
        [Cycle(("u", "v", "u", "x"))],
    )
    assert not is_cut(q, {"u"})
    assert is_cut(q, {"v"})
    assert enumerate_cuts(q) == [frozenset({"v"}), frozenset({"x"})]


def test_enumerate_b2b2_exact(b2b2_split):
    cuts = enumerate_cuts(b2b2_split.qwc)
    assert [set(c) for c in cuts] == sorted(B2B2_CUTS, key=lambda s: tuple(sorted(s)))
    assert cuts == brute_force_cuts(b2b2_split.qwc)


def test_enumerate_a3b2_against_oracle(a3b2):
    cuts = enumerate_cuts(a3b2.qwc)
    assert len(cuts) == 13
    assert cuts == brute_force_cuts(a3b2.qwc)


def test_enumerate_no_cycles_yields_empty_cut():
    assert enumerate_cuts(qwc(["1"], [])) == [frozenset()]


def test_enumerate_warns_on_free_arrows():
    q = qwc(
        ["1", "2"],
        [Arrow("u", "1", "2"), Arrow("v", "2", "1"), Arrow("free", "1", "2")],
        [Cycle(("u", "v"))],
    )
    with pytest.warns(UncoveredQuiverWarning, match="free"):
        cuts = enumerate_cuts(q)
    assert cuts == [frozenset({"u"}), frozenset({"v"})]
    with pytest.warns(UncoveredQuiverWarning):
        assert not has_enough_cuts(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # enumerating again would warn again
        assert not has_enough_cuts(q, cuts)


def test_enumerate_sorted_and_duplicate_free(a3b2):
    cuts = enumerate_cuts(a3b2.qwc)
    keys = [tuple(sorted(c)) for c in cuts]
    assert keys == sorted(set(keys))
    assert all(is_cut(a3b2.qwc, c) for c in cuts)


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
@given(st.integers(0, 10**6))
def test_enumerate_matches_oracle_on_random_tensors(seed):
    # single-vertex factors produce cycle-free (hence uncovered) products;
    # the oracle must agree there too
    rng = random.Random(seed)
    product = tensor_qwc(random_tree_quiver(rng, 2), random_tree_quiver(rng, 3))
    assert enumerate_cuts(product.qwc) == brute_force_cuts(product.qwc)


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


def test_fully_compatible(b2b2_split, a3b2):
    assert is_fully_compatible(b2b2_split.qwc)
    assert is_fully_compatible(a3b2.qwc)
    assert is_fully_compatible(qwc(["1"], []))


def test_incompatible_instance(incompatible):
    cuts = enumerate_cuts(incompatible)
    assert len(cuts) == 4
    assert not is_fully_compatible(incompatible)
    assert not is_fully_compatible(incompatible, cuts)
    assert not are_compatible(incompatible, frozenset({"u", "x"}), frozenset({"u", "w"}))


def test_truncated_quiver(b2b2_split):
    q = b2b2_split.qwc
    truncated = truncated_quiver(q, frozenset({"d", "e"}))
    assert {a.name for a in truncated.arrows} == {"a", "b", "c", "f", "g", "h"}
    assert truncated.vertices == q.quiver.vertices
    assert is_acyclic(truncated)
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


_B2B2 = qwc(
    ["1", "2", "3", "4", "5"],
    [
        Arrow("a", "1", "2"),
        Arrow("b", "1", "4"),
        Arrow("c", "2", "3"),
        Arrow("d", "3", "1"),
        Arrow("e", "3", "5"),
        Arrow("f", "4", "3"),
        Arrow("g", "5", "4"),
        Arrow("h", "5", "2"),
    ],
    [Cycle(("a", "c", "d"), 1), Cycle(("b", "f", "d"), -1), Cycle(("c", "e", "h"), 1), Cycle(("e", "g", "f"), -1)],
)
