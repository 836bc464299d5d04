import random
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from support import is_acyclic, oracle_basis_walks, oracle_validate, random_cyclic_walk

from quivercuts.model import (
    Arrow,
    Cycle,
    Quiver,
    QuiverWithCycles,
    _least_rotation,
    spanning_tree,
    validate,
)


def qwc(vertices, arrows, cycles=()):
    return QuiverWithCycles(Quiver(tuple(vertices), tuple(arrows)), tuple(cycles))


def basis_vectors(q):
    """Each cycle-space basis element of ``q`` as signed arrow counts."""
    names = q.cut_space.at.items()
    return [{name: walk[p] for name, p in names if p in walk} for walk in oracle_basis_walks(q)]


def test_validate_minimal_quiver():
    assert validate(qwc(["1"], [])) == []


def test_validate_undeclared_vertex():
    broken = qwc(["1"], [Arrow("a", "1", "9")])
    violations = validate(broken)
    assert len(violations) == 1
    assert "'9'" in violations[0] and "'a'" in violations[0]


def test_validate_disconnected():
    violations = validate(qwc(["1", "2"], []))
    assert len(violations) == 1
    assert "not connected" in violations[0]


def test_validate_duplicate_arrow_and_broken_cycle():
    broken = qwc(
        ["1", "2"],
        [Arrow("a", "1", "2"), Arrow("a", "1", "2"), Arrow("b", "1", "2")],
        [Cycle(("a", "b"))],
    )
    violations = validate(broken)
    assert any("duplicate arrow 'a'" in v for v in violations)
    assert any("does not chain" in v for v in violations)


@given(
    st.lists(st.sampled_from("123"), max_size=4),
    st.lists(st.tuples(*(st.sampled_from(pool) for pool in ("abcd", "1234", "1234"))), max_size=6),
    st.lists(st.tuples(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4), st.sampled_from((None, 1, -1)))),
)
def test_validate_matches_its_oracle(vertices, arrows, cycles):
    # duplicates, undeclared endpoints, unknown arrows and cycles broken at several links, in any mix
    q = qwc(vertices, [Arrow(*a) for a in arrows], [Cycle(tuple(names), sign) for names, sign in cycles])
    assert validate(q) == oracle_validate(q)


def test_validate_fixture_clean(b2b2_split):
    assert validate(b2b2_split.qwc) == []


def test_is_acyclic():
    path = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    assert is_acyclic(path)
    loop = Quiver(("1",), (Arrow("l", "1", "1"),))
    assert not is_acyclic(loop)


def test_b2b2_split_is_not_acyclic(b2b2_split):
    assert not is_acyclic(b2b2_split.qwc.quiver)


def test_rotation_invariance_exhaustive():
    # every rotation of a directed n-cycle gives the same cycle, n <= 6
    for n in range(1, 7):
        seq = [f"x{i}" for i in range(n)]
        expected = Cycle(tuple(seq))
        assert expected.arrows == tuple(seq)
        for r in range(n):
            assert Cycle(tuple(seq[r:] + seq[:r])) == expected


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=12))
@example(["a", "b", "a", "c"])
@example(["a", "a"])
@example(["c", "a", "b", "a", "a"])
@example(["b", "a", "c"])
def test_least_rotation_matches_every_rotation(word):
    # over three letters the least name repeats, so several rotations start with it;
    # the examples pin the scan (a repeated least name) and the single-least shortcut
    assert _least_rotation(word) == min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def test_least_rotation_of_a_long_repeated_walk_is_linear():
    # every second arrow starts with the least name; comparing one rotation per
    # such start took about 15 s on a 2-core host
    start = time.perf_counter()
    assert Cycle(("b", "a") * 25000).arrows == ("a", "b") * 25000
    assert Cycle(("a",) * 50000).arrows == ("a",) * 50000
    assert Cycle(("a", "b", "a", "a", "b") * 10000).arrows == ("a", "a", "b", "a", "b") * 10000
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, 0, 2, "1"])
def test_cycle_rejects_signs_other_than_plus_or_minus_one(sign):
    # True and 1.0 compare equal to 1, but the document writer would print them as
    # text that its own parser rejects
    with pytest.raises(ValueError, match="cycle sign"):
        Cycle(("a",), sign)
    assert [Cycle(("a",), s).sign for s in (1, -1, None)] == [1, -1, None]


def test_cycle_value_rotates_itself():
    assert Cycle(("c", "d", "a")).arrows == ("a", "c", "d")
    assert Cycle(("b",)).arrows == ("b",)


def test_cycle_space_basis_tree_is_empty():
    path = qwc(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    assert oracle_basis_walks(path) == []


def test_cycle_space_basis_sizes(b2b2_split, circle, a3b2):
    assert len(oracle_basis_walks(circle.qwc)) == 1
    assert len(oracle_basis_walks(b2b2_split.qwc)) == 4
    assert len(oracle_basis_walks(a3b2.qwc)) == 4


def test_cycle_space_basis_spans_every_component():
    # one element per chord of each component: |Q1| - |Q0| + (number of components)
    two = qwc(["1", "2", "3"], [Arrow("l", "1", "1"), Arrow("u", "2", "3"), Arrow("v", "3", "2")])
    assert basis_vectors(two) == [{"l": 1}, {"u": 1, "v": 1}]


def test_basis_walks_are_cyclic(b2b2_split, a3b2, circle):
    # a closed walk enters every vertex as often as it leaves
    for value in (b2b2_split, a3b2, circle):
        quiver = value.qwc.quiver
        for vector in basis_vectors(value.qwc):
            balance = dict.fromkeys(quiver.vertices, 0)
            for name, count in vector.items():
                balance[quiver.arrow(name).source] -= count
                balance[quiver.arrow(name).target] += count
            assert set(balance.values()) == {0}


@pytest.mark.parametrize("seed", range(20))
def test_random_cyclic_walks_lie_in_basis_span(seed, b2b2_split, a3b2, circle):
    # the chord coordinates of a cyclic walk determine it in the cycle space:
    # subtracting (chord count) x (basis vector) must leave the zero vector
    rng = random.Random(seed)
    for value in (b2b2_split, a3b2, circle):
        quiver = value.qwc.quiver
        chords = {a.name for a in spanning_tree(quiver).chords}
        walk = random_cyclic_walk(rng, quiver)
        if walk is None:
            continue
        residue: dict[str, int] = {}
        for name, direction in walk:
            residue[name] = residue.get(name, 0) + direction
        for vector in basis_vectors(value.qwc):
            (chord,) = set(vector) & chords
            coefficient = residue.get(chord, 0)
            for name, count in vector.items():
                residue[name] = residue.get(name, 0) - coefficient * count
        assert all(v == 0 for v in residue.values())


def test_connected_components():
    # the forest roots each component at its least vertex and keeps BFS order
    quiver = Quiver(("1", "2", "3", "4"), (Arrow("a", "1", "4"), Arrow("b", "4", "2"), Arrow("c", "2", "1")))
    tree = spanning_tree(quiver)
    assert list(tree.root.items()) == [("1", "1"), ("4", "1"), ("2", "1"), ("3", "3")]
    assert [a.name for a in tree.chords] == ["b"]


def test_quiver_with_cycles_deduplicates_rotations():
    quiver = Quiver(("1", "2"), (Arrow("u", "1", "2"), Arrow("v", "2", "1")))
    value = QuiverWithCycles(quiver, (Cycle(("u", "v")), Cycle(("v", "u"))))
    assert len(value.cycles) == 1
