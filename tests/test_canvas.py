import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercuts.canvas import (
    AbelianGroup,
    euler_characteristic,
    h1,
    is_simply_connected,
    pi1_presentation,
    smith_diagonal,
)
from quivercuts.coset import enumerate_trivial_subgroup
from quivercuts.cuts import is_fully_compatible
from quivercuts.model import Arrow, Cycle, Quiver, QuiverWithCycles


def qwc(vertices, arrows, cycles=()):
    return QuiverWithCycles(Quiver(tuple(vertices), tuple(arrows)), tuple(cycles))


TREE = qwc(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])


def test_euler_characteristic(b2b2_split, circle, a3b2):
    assert euler_characteristic(TREE) == 1
    assert euler_characteristic(circle.qwc) == 0
    assert euler_characteristic(b2b2_split.qwc) == 1
    assert euler_characteristic(a3b2.qwc) == 1


def test_euler_characteristic_additive_over_components(b2b2_split, circle):
    merged = qwc(
        list(b2b2_split.qwc.quiver.vertices) + list(circle.qwc.quiver.vertices),
        list(b2b2_split.qwc.quiver.arrows) + list(circle.qwc.quiver.arrows),
        list(b2b2_split.qwc.cycles),
    )
    assert euler_characteristic(merged) == euler_characteristic(b2b2_split.qwc) + euler_characteristic(circle.qwc)


def test_pi1_counts(b2b2_split, circle):
    tree_pres = pi1_presentation(TREE)
    assert tree_pres.generators == () and tree_pres.relators == ()
    circle_pres = pi1_presentation(circle.qwc)
    assert len(circle_pres.generators) == 1 and circle_pres.relators == ()
    split_pres = pi1_presentation(b2b2_split.qwc)
    assert len(split_pres.generators) == 4
    assert len(split_pres.relators) == 4
    assert all(word for word in split_pres.relators)


def test_pi1_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        pi1_presentation(qwc(["1", "2"], []))
    with pytest.raises(ValueError, match="empty quiver"):
        pi1_presentation(qwc([], []))


def test_pi1_deterministic(b2b2_split):
    assert pi1_presentation(b2b2_split.qwc) == pi1_presentation(b2b2_split.qwc)


def test_h1_examples(b2b2_split, circle):
    assert h1(TREE) == AbelianGroup(0, ())
    assert h1(circle.qwc) == AbelianGroup(1, ())
    assert h1(b2b2_split.qwc) == AbelianGroup(0, ())


def test_h1_free_rank_bounded_by_generators(a3b2):
    pres = pi1_presentation(a3b2.qwc)
    assert 0 <= h1(a3b2.qwc).free_rank <= len(pres.generators)


def test_h1_torsion():
    # one loop attached to itself twice: H1 = Z/2
    q = qwc(["1"], [Arrow("l", "1", "1")], [Cycle(("l", "l"))])
    assert h1(q) == AbelianGroup(0, (2,))
    verdict = is_simply_connected(q)
    assert verdict.status == "No"
    assert "torsion 2" in verdict.evidence


def test_smith_diagonal_basics():
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[6]]) == [6]


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_smith_diagonal_against_sympy(rows):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    ours = smith_diagonal(rows)
    reference = smith_normal_form(Matrix(rows), domain=ZZ)
    expected = [abs(reference[i, i]) for i in range(min(reference.shape)) if reference[i, i] != 0]
    assert ours == expected


def test_coset_enumeration_known_groups():
    # cyclic of order three
    assert enumerate_trivial_subgroup(1, [[1, 1, 1]], 1000).live_cosets == 3
    # symmetric group on three letters
    result = enumerate_trivial_subgroup(2, [[1, 1], [2, 2, 2], [1, 2, 1, 2]], 1000)
    assert result.closed and result.live_cosets == 6
    # the trivial group
    assert enumerate_trivial_subgroup(1, [[1]], 10).live_cosets == 1
    # a free generator never closes
    assert not enumerate_trivial_subgroup(1, [], 64).closed


def test_coset_enumeration_perfect_group():
    # binary icosahedral group: perfect (trivial H1) yet of order 120
    result = enumerate_trivial_subgroup(
        2, [[1, 1, 1, 1, 1, -1, -2, -1, -2], [2, 2, 2, -1, -2, -1, -2]], 100000
    )
    assert result.closed and result.live_cosets == 120


def test_coset_enumeration_rejects_bad_letters():
    with pytest.raises(ValueError):
        enumerate_trivial_subgroup(1, [[0]], 10)
    with pytest.raises(ValueError):
        enumerate_trivial_subgroup(1, [[2]], 10)


def test_verdicts(b2b2_split, circle, a3b2):
    assert is_simply_connected(TREE).status == "Yes"
    circle_verdict = is_simply_connected(circle.qwc)
    assert circle_verdict.status == "No"
    assert circle_verdict.evidence == "H1 rank 1"
    split_verdict = is_simply_connected(b2b2_split.qwc)
    assert split_verdict.status == "Yes"
    assert "1 coset" in split_verdict.evidence
    assert is_simply_connected(a3b2.qwc).status == "Yes"


def test_loop_with_disc_attached_five_times():
    q = qwc(["1"], [Arrow("l", "1", "1")], [Cycle(("l", "l", "l", "l", "l"))])
    verdict = is_simply_connected(q)
    assert verdict.status == "No"
    assert "torsion 5" in verdict.evidence


def test_verdict_unknown_on_tiny_budget(b2b2_split):
    # H1 is trivial here, so the decision falls to the enumeration, which
    # needs more cosets than this budget allows
    verdict = is_simply_connected(b2b2_split.qwc, budget=2)
    assert verdict.status == "Unknown"
    assert "budget exhausted at 2 cosets" in verdict.evidence


def test_loop_with_disc_is_simply_connected():
    q = qwc(["1"], [Arrow("l", "1", "1")], [Cycle(("l",))])
    assert is_simply_connected(q).status == "Yes"


def test_verdict_per_component():
    two_trees = qwc(["1", "2", "3"], [Arrow("a", "1", "2")])
    verdict = is_simply_connected(two_trees)
    assert verdict.status == "Yes"
    assert "2 components" in verdict.evidence

    tree_and_circle = qwc(
        ["1", "2", "a1", "a2"],
        [
            Arrow("t", "1", "2"),
            Arrow("u", "a1", "a2"),
            Arrow("v", "a1", "a2"),
        ],
    )
    verdict = is_simply_connected(tree_and_circle)
    assert verdict.status == "No"
    assert "component of 'a1'" in verdict.evidence


def test_verdict_deterministic(b2b2_split):
    assert is_simply_connected(b2b2_split.qwc) == is_simply_connected(b2b2_split.qwc)


def test_simply_connected_implies_fully_compatible(b2b2_split, a3b2):
    for q in (b2b2_split.qwc, a3b2.qwc):
        if is_simply_connected(q).status == "Yes":
            assert is_fully_compatible(q)


def test_budget_validation(b2b2_split):
    with pytest.raises(ValueError, match="positive"):
        is_simply_connected(b2b2_split.qwc, budget=0)
