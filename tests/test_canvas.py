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
from quivercuts.coset import EnumerationResult, enumerate_trivial_subgroup
from quivercuts.cuts import is_fully_compatible
from quivercuts.model import Arrow, Cycle, Quiver, QuiverWithCycles
from support import oracle_enumerate_trivial_subgroup, oracle_smith_diagonal


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
    # relators are words of chord names: every letter is a generator
    assert all(letter in split_pres.generators for word in split_pres.relators for letter in word)


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


def _rows(n_cols):
    """Rows of ``n_cols`` small entries, or unit rows: one entry of 1 or -1."""
    unit = st.tuples(st.integers(0, n_cols - 1), st.sampled_from((1, -1))).map(
        lambda place: [place[1] if j == place[0] else 0 for j in range(n_cols)]
    )
    return st.lists(st.one_of(st.lists(st.integers(-4, 4), min_size=n_cols, max_size=n_cols), unit), max_size=7)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 7).flatmap(_rows))
def test_smith_diagonal_against_the_dense_loop(rows):
    # the unit rows and their columns drop out first; the dense loop alone gives the same diagonal
    assert smith_diagonal(rows) == oracle_smith_diagonal(rows)


def test_smith_diagonal_drops_unit_rows_in_chains():
    # x1 = 1 clears x1 from x1 x2, which leaves x2 = 1, and so on down the chain
    n = 6
    chain = [[1] + [0] * (n - 1)] + [[int(j in (i - 1, i)) for j in range(n)] for i in range(1, n)]
    assert smith_diagonal(chain) == oracle_smith_diagonal(chain) == [1] * n
    assert smith_diagonal([[1, 0], [1, 0], [2, 4]]) == oracle_smith_diagonal([[1, 0], [1, 0], [2, 4]]) == [1, 4]
    assert smith_diagonal([[-1, 3], [0, 2]]) == [1, 2]


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
    # a budget below one coset defines nothing
    assert enumerate_trivial_subgroup(1, [[1]], 0) == EnumerationResult(False, 0, 0)


def test_coset_enumeration_perfect_group():
    # binary icosahedral group: perfect (trivial H1) yet of order 120
    result = enumerate_trivial_subgroup(
        2, [[1, 1, 1, 1, 1, -1, -2, -1, -2], [2, 2, 2, -1, -2, -1, -2]], 100000
    )
    assert result.closed and result.live_cosets == 120


@st.composite
def presentations(draw):
    n = draw(st.integers(1, 4))
    letters = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    relators = draw(st.lists(st.lists(letters, min_size=0, max_size=10), max_size=6))
    return n, relators, draw(st.integers(1, 5000))


@settings(deadline=None, max_examples=150)
@given(presentations())
def test_coset_enumeration_matches_oracle(presentation):
    n, relators, budget = presentation
    result = enumerate_trivial_subgroup(n, relators, budget)
    assert result == oracle_enumerate_trivial_subgroup(n, relators, budget)
    assert result.defined_cosets <= budget


# Each branch of the closing step, where the relator's last cell is undefined:
# ``(generators, relators, budget)`` and the ``(closed, live, defined)`` the
# oracle also gives, which defines a coset there and merges it.
CLOSING_STEPS = [
    # x^3: the start's inverse cell is free, so the step sets it
    (1, [[1, 1, 1]], 100, (True, 3, 4)),
    # x^2 sets the start's inverse cell for x, then y x^-1 closes on that column: a coincidence
    (2, [[1, 1], [2, -1]], 100, (True, 2, 8)),
    # x^3 with a budget of three: the budget runs out exactly at the closing letter
    (1, [[1, 1, 1]], 3, (False, 3, 3)),
    # x: a one-letter relator closes on the coset it starts from
    (1, [[1]], 100, (True, 1, 2)),
    # x x^-1: the definition of the first letter already set the closing cell
    (1, [[1, -1]], 20, (False, 20, 20)),
]


@pytest.mark.parametrize("n, relators, budget, expected", CLOSING_STEPS)
def test_coset_enumeration_closing_steps_match_oracle(n, relators, budget, expected):
    result = enumerate_trivial_subgroup(n, relators, budget)
    assert result == oracle_enumerate_trivial_subgroup(n, relators, budget) == EnumerationResult(*expected)


def test_wide_presentation_closes():
    # one vertex, 1500 loops, each loop its own 2-cell: a trivial group on 1500 generators
    n = 1500
    q = qwc(["o"], [Arrow(f"a{i}", "o", "o") for i in range(n)], [Cycle((f"a{i}",)) for i in range(n)])
    verdict = is_simply_connected(q)
    assert (verdict.status, verdict.evidence) == ("Yes", "coset table closed with 1 coset")
    relators = [[g] for g in range(1, n + 1)]
    expected = EnumerationResult(True, 1, n + 1)
    assert enumerate_trivial_subgroup(n, relators, 10**6) == expected
    assert oracle_enumerate_trivial_subgroup(n, relators, 10**6) == expected


# The one-vertex canvases of the benchmark's inspect catalogue: ``(closed,
# live, defined)`` with the relators in the catalogue's order, then in the
# order of the canonical cycles that ``check`` reads.  The definition order
# fixes every count below the budget, which the verdict text does not show.
CATALOGUE_CANVASES = [
    ("xy", ("xx", "yyy", "xy" * 5), 5000, (True, 60, 161), (True, 60, 160)),
    ("xy", ("xx", "yyy", "xy" * 5), 100000, (True, 60, 161), (True, 60, 160)),
    ("xy", ("xx", "yyy", "xy" * 7), 5000, (False, 3075, 5000), (False, 3079, 5000)),
    ("xy", ("xx", "yyy", "xy" * 7), 100000, (False, 61052, 100000), (False, 61055, 100000)),
    ("xy", ("xxx", "yyyy", "xy" * 5), 5000, (False, 3383, 5000), (False, 3411, 5000)),
    ("xy", ("xxx", "yyyy", "xy" * 5), 100000, (False, 67591, 100000), (False, 68177, 100000)),
    ("xyz", ("xx", "yyy", "zzzzz", "xyz" * 7), 5000, (False, 4092, 5000), (False, 4095, 5000)),
    ("xyz", ("xx", "yyy", "zzzzz", "xyz" * 7), 100000, (False, 81745, 100000), (False, 81934, 100000)),
]


@pytest.mark.parametrize("generators, relators, budget, as_listed, as_checked", CATALOGUE_CANVASES)
def test_coset_enumeration_pins_the_catalogue_canvases(generators, relators, budget, as_listed, as_checked):
    words = [[generators.index(letter) + 1 for letter in word] for word in relators]
    assert enumerate_trivial_subgroup(len(generators), words, budget) == EnumerationResult(*as_listed)
    q = qwc(["o"], [Arrow(g, "o", "o") for g in generators], [Cycle(tuple(word)) for word in relators])
    presentation = pi1_presentation(q)
    assert presentation.generators == tuple(generators)
    words = [[generators.index(letter) + 1 for letter in word] for word in presentation.relators]
    assert enumerate_trivial_subgroup(len(generators), words, budget) == EnumerationResult(*as_checked)
    verdict = is_simply_connected(q, budget)
    closed, live, defined = as_checked
    evidence = f"coset table closed with {live} cosets" if closed else f"budget exhausted at {defined} cosets"
    assert verdict.evidence == evidence


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
