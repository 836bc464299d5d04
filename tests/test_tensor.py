import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import l_homogeneity, labeled_isomorphic, oracle_morita_cycles, random_tree_quiver

from quivercuts.canvas import euler_characteristic, is_simply_connected
from quivercuts.cuts import (
    enumerate_cuts,
    has_enough_cuts,
    is_covered,
    is_cut,
    is_fully_compatible,
)
from quivercuts.docio import parse_quiver_document, serialize_quiver_document
from quivercuts.model import Arrow, Quiver, spanning_tree, validate
from quivercuts import tensor
from quivercuts.mutation import is_transitive
from quivercuts.model import Cycle, QuiverWithCycles
from quivercuts.tensor import (
    BASE,
    MAX_CELLS,
    DivisionLabel,
    LabeledQuiver,
    LabeledQuiverWithCycles,
    default_orientation,
    diagram_edges,
    dynkin_quiver,
    dynkin_spec,
    morita_split,
    parse_dynkin_spec,
    standard_cuts,
    tensor_qwc,
)


def test_division_label_invariants():
    with pytest.raises(ValueError):
        DivisionLabel("Base", 2)
    with pytest.raises(ValueError):
        DivisionLabel("Ext", 0)
    with pytest.raises(ValueError):
        DivisionLabel("Weird")


def test_dynkin_shapes_and_labels():
    a3 = dynkin_quiver(dynkin_spec("A", 3))
    assert [a.name for a in a3.quiver.arrows] == ["1-2", "2-3"]
    assert all(label.kind == "Base" for label in a3.labels.values())

    b2 = dynkin_quiver(dynkin_spec("B", 2))
    assert b2.labels["1"].kind == "Base" and b2.labels["2"].kind == "Ext"

    c3 = dynkin_quiver(dynkin_spec("C", 3))
    assert c3.labels["1"].kind == "Ext"
    assert all(c3.labels[v].kind == "Base" for v in ("2", "3"))

    f4 = dynkin_quiver(dynkin_spec("F", 4))
    assert [f4.labels[str(i)].kind for i in range(1, 5)] == ["Ext", "Ext", "Base", "Base"]

    g2 = dynkin_quiver(dynkin_spec("G", 2))
    assert g2.labels["1"].kind == "Ext" and g2.labels["2"].kind == "Base"

    d4 = dynkin_quiver(dynkin_spec("D", 4))
    assert {(a.source, a.target) for a in d4.quiver.arrows} == {("1", "3"), ("2", "3"), ("3", "4")}

    e6 = dynkin_quiver(dynkin_spec("E", 6))
    assert {(a.source, a.target) for a in e6.quiver.arrows} == {
        ("1", "2"),
        ("2", "3"),
        ("4", "3"),
        ("5", "4"),
        ("3", "6"),
    }


def test_rank_legality():
    with pytest.raises(ValueError):
        dynkin_spec("E", 5)
    with pytest.raises(ValueError):
        dynkin_spec("F", 3)
    with pytest.raises(ValueError):
        dynkin_spec("G", 3)
    with pytest.raises(ValueError):
        dynkin_spec("B", 1)
    with pytest.raises(ValueError):
        dynkin_spec("D", 3)
    with pytest.raises(ValueError):
        dynkin_spec("X", 4)


# the catalogue as the tensor module docstring and README state it: legal ranks up to 9, and Ext positions
CATALOGUE = {
    "A": (range(1, 10), lambda r: set()),
    "B": (range(2, 10), lambda r: set(range(2, r + 1))),
    "C": (range(2, 10), lambda r: {1}),
    "D": (range(4, 10), lambda r: set()),
    "E": (range(6, 9), lambda r: set()),
    "F": (range(4, 5), lambda r: {1, 2}),
    "G": (range(2, 3), lambda r: {1}),
}


@pytest.mark.parametrize("family", list(CATALOGUE))
def test_catalogue_diagrams_are_trees_with_their_ext_vertices(family):
    ranks, ext = CATALOGUE[family]
    for rank in range(0, 10):
        if rank not in ranks:
            with pytest.raises(ValueError, match=f"illegal rank {rank} for family {family}"):
                dynkin_spec(family, rank)
            continue
        q = dynkin_quiver(dynkin_spec(family, rank))
        assert q.quiver.vertices == tuple(str(i) for i in range(1, rank + 1))
        assert len(q.quiver.arrows) == rank - 1
        assert len(set(spanning_tree(q.quiver).root.values())) == 1  # connected with rank - 1 arrows: a tree
        assert {v for v, label in q.labels.items() if label.kind == "Ext"} == {str(i) for i in ext(rank)}
        edges = {frozenset((a.source, a.target)) for a in q.quiver.arrows}
        assert edges == set(map(frozenset, diagram_edges(family, rank)))


def test_catalogue_default_orientations_are_the_documented_ones():
    assert default_orientation("E", 6) == parse_dynkin_spec("E6:1>2>3,5>4>3,3>6").orientation
    assert default_orientation("E", 8) == parse_dynkin_spec("E8:1>2>3,7>6>5>4>3,3>8").orientation
    for rank in range(4, 9):
        tail = ",".join(f"{i}>{i + 1}" for i in range(3, rank))
        assert default_orientation("D", rank) == parse_dynkin_spec(f"D{rank}:1>3,2>3,{tail}").orientation
    for family in "ABCFG":
        rank = CATALOGUE[family][0][-1]
        ascending = ">".join(map(str, range(1, rank + 1)))
        assert default_orientation(family, rank) == parse_dynkin_spec(f"{family}{rank}:{ascending}").orientation


@pytest.mark.parametrize(
    "text, message",
    [
        ("H4", "cannot parse Dynkin spec 'H4'"),
        ("E9", "illegal rank 9 for family E"),
        ("D3:1>2>3", "illegal rank 3 for family D"),
        ("A3:1>x", "malformed orientation chain '1>x'"),
        ("A3:1-2", "malformed orientation chain '1-2'"),
        ("A3:1>", "malformed orientation chain '1>'"),
        ("A3:>2", "malformed orientation chain '>2'"),
        ("A3:1<>2", "malformed orientation chain '1<>2'"),
        ("A3:1>2,,2>3", "malformed orientation chain ''"),
        ("A3:1>2>3,3>2", "both ways"),
        ("A3:1>2", "every diagram edge"),
    ],
)
def test_bad_specs_raise_one_line(text, message):
    with pytest.raises(ValueError, match=message) as excinfo:
        parse_dynkin_spec(text)
    assert "\n" not in str(excinfo.value)


def test_unknown_family_is_refused_before_any_edge():
    for call in (diagram_edges, default_orientation, dynkin_spec):
        with pytest.raises(ValueError, match="unknown Dynkin family 'X'"):
            call("X", 10**12)  # an edge list this long would not fit in memory


@pytest.mark.parametrize(
    "text, message",
    [
        ("A99999999999", "A99999999999 is too large"),
        (f"A{(MAX_CELLS + 2) // 2}", f"A{(MAX_CELLS + 2) // 2} is too large"),
        ("B" + "9" * 5000, "B of a 5000-digit rank is too large"),  # more digits than int() converts
    ],
)
def test_oversized_specs_are_refused_before_their_edges(text, message):
    with pytest.raises(ValueError, match=message + f": more than {MAX_CELLS} vertices, arrows and cycles$"):
        parse_dynkin_spec(text)


def test_a_spec_at_the_bound_builds():
    rank = (MAX_CELLS + 1) // 2  # rank vertices and rank - 1 arrows
    assert len(dynkin_quiver(parse_dynkin_spec(f"A{rank}")).quiver.arrows) == rank - 1


def _cells(t):
    return len(t.qwc.quiver.vertices) + len(t.qwc.quiver.arrows) + len(t.qwc.cycles)


def _square(n):
    # a 4-cycle whose split stations alternate with unsplit ones: two runs, so n * n lifts
    ext, base = DivisionLabel("Ext", n), BASE
    names = [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1")]
    quiver = Quiver(("1", "2", "3", "4"), tuple(Arrow(*a) for a in names))
    labels = {"1": (ext, ext), "2": (base, base), "3": (ext, ext), "4": (base, ext)}
    return LabeledQuiverWithCycles(QuiverWithCycles(quiver, (Cycle(("a", "b", "c", "d"), 1),)), labels)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _product("A16", "A16"),
        lambda: _product("B2:2>1", "B2:2>1", 2),
        lambda: _product("B2:2>1", "B2:2>1", 100),
        lambda: _product("F4", "G2", 3),
        lambda: _product("B3", "C3", 4),
        lambda: morita_split(_square(3)),
    ],
    ids=["a16a16", "b2b2-split", "b2b2-split100", "f4g2-split3", "b3c3-split4", "square-split3"],
)
def test_size_bounds_count_exactly_what_is_built(build, monkeypatch):
    size = _cells(build())
    monkeypatch.setattr(tensor, "MAX_CELLS", size)
    assert _cells(build()) == size
    monkeypatch.setattr(tensor, "MAX_CELLS", size - 1)
    with pytest.raises(ValueError, match="is too large"):
        build()


def test_a16_a16_is_within_the_bound():
    assert _cells(_product("A16", "A16")) == 1411 <= MAX_CELLS


def test_oversized_products_and_splits_are_refused():
    with pytest.raises(ValueError, match="the product is too large"):
        _product("A200", "A200")  # 40,000 vertices, 119,201 arrows
    with pytest.raises(ValueError, match="the split into 100000000 copies is too large"):
        _product("B2", "B2", 10**8)
    assert morita_split(_square(3)).qwc.cycles == oracle_morita_cycles(_square(3))


def test_orientation_must_cover_every_edge():
    with pytest.raises(ValueError, match="every diagram edge"):
        dynkin_spec("A", 3, frozenset({("1", "2")}))
    with pytest.raises(ValueError, match="every diagram edge"):
        dynkin_spec("A", 3, frozenset({("1", "2"), ("3", "4")}))


def test_parse_dynkin_spec():
    spec = parse_dynkin_spec("A3:1<2>3")
    assert spec.orientation == frozenset({("2", "1"), ("2", "3")})
    assert parse_dynkin_spec("B2:1>2").orientation == frozenset({("1", "2")})
    assert parse_dynkin_spec("E6").orientation == default_orientation("E", 6)
    chained = parse_dynkin_spec("D4:1>3,2>3,3<4")
    assert chained.orientation == frozenset({("1", "3"), ("2", "3"), ("4", "3")})
    for bad in ("", "A", "A3:1-2", "H4", "A3:1<2"):
        with pytest.raises(ValueError):
            parse_dynkin_spec(bad)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("B2", 2),
        ("C3", 3),
        ("D4", 3),
        ("D5", 4),
        ("E6", 6),
        ("E7", 9),
        ("E8", 15),
        ("F4", 6),
        ("G2", 3),
        ("A3:1<2>3", 2),
        ("A5:1>2>3<4<5", 3),
    ],
)
def test_l_homogeneity_table(text, expected):
    assert l_homogeneity(parse_dynkin_spec(text)) == expected


def test_l_homogeneity_absent_cases():
    # A2: the diagram flip reverses the single arrow, and l = 3/2 anyway
    assert l_homogeneity(parse_dynkin_spec("A2")) is None
    # linear A3 is not flip-stable
    assert l_homogeneity(parse_dynkin_spec("A3")) is None
    # odd D swaps the two tines: orient them asymmetrically
    assert l_homogeneity(parse_dynkin_spec("D5:1>3,3>2,3>4>5")) is None


def test_tensor_a2_a2_counts():
    a2 = dynkin_quiver(dynkin_spec("A", 2))
    t = tensor_qwc(a2, a2)
    assert len(t.qwc.quiver.vertices) == 4
    assert len(t.qwc.quiver.arrows) == 5
    assert len(t.qwc.cycles) == 2
    c1, c2, c3 = standard_cuts(t)
    assert (len(c1), len(c2), len(c3)) == (2, 2, 1)


def test_tensor_a3b2_counts(a3b2):
    assert len(a3b2.qwc.quiver.vertices) == 6
    assert len(a3b2.qwc.quiver.arrows) == 9
    assert len(a3b2.qwc.cycles) == 4
    assert validate(a3b2.qwc) == []


def test_tensor_e6f4_counts():
    t = tensor_qwc(dynkin_quiver(dynkin_spec("E", 6)), dynkin_quiver(dynkin_spec("F", 4)))
    assert len(t.qwc.quiver.vertices) == 24
    assert len(t.qwc.quiver.arrows) == 53
    assert len(t.qwc.cycles) == 30


def test_standard_cuts_are_cuts(a3b2):
    for cut in standard_cuts(a3b2):
        assert is_cut(a3b2.qwc, cut)
        assert cut == tuple(sorted(cut))
    assert len(standard_cuts(a3b2)[2]) == 2  # two diagonals


def test_standard_cuts_require_a_product(b2b2_split):
    # the fixture's arrows a..h carry no class prefix
    with pytest.raises(ValueError, match="tensor"):
        standard_cuts(b2b2_split)


def _product(left, right, split=None):
    n = 2 if split is None else split
    value = tensor_qwc(dynkin_quiver(parse_dynkin_spec(left), n), dynkin_quiver(parse_dynkin_spec(right), n))
    return value if split is None else morita_split(value)


@pytest.mark.parametrize(
    "left, right, split",
    [("E6", "F4", None), ("A3:1<2>3", "B2:2>1", None), ("B2:2>1", "B2:2>1", 2), ("F4", "G2", 3)],
    ids=["e6f4", "a3b2", "b2b2-split", "f4g2-split3"],
)
def test_standard_cuts_survive_a_document_round_trip(left, right, split):
    t = _product(left, right, split)
    parsed = parse_quiver_document(serialize_quiver_document(t))
    assert standard_cuts(parsed) == standard_cuts(t)
    for cut in standard_cuts(parsed):
        assert is_cut(parsed.qwc, cut)


def test_standard_cuts_reject_a_class_that_is_not_a_cut():
    # a hand-added 2-cycle of one v: and one h: arrow: both classes stay cuts, but d: misses it
    document = json.loads(serialize_quiver_document(_product("A2", "A2")))
    document["arrows"] += [{"id": "v:x", "source": "1,1", "target": "1,2"}, {"id": "h:y", "source": "1,2", "target": "1,1"}]
    document["cycles"].append({"arrows": ["v:x", "h:y"]})
    with pytest.raises(ValueError, match=r"not a cut: \['d:1-2:1-2'\]"):
        standard_cuts(parse_quiver_document(json.dumps(document)))


def test_cycles_hit_each_class_once(a3b2):
    vertical, horizontal, diagonal = standard_cuts(a3b2)
    for cycle in a3b2.qwc.cycles:
        assert len(cycle.arrows) == 3
        assert sum(1 for n in cycle.arrows if n in vertical) == 1
        assert sum(1 for n in cycle.arrows if n in horizontal) == 1
        assert sum(1 for n in cycle.arrows if n in diagonal) == 1


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_tensor_counting_invariants(seed):
    rng = random.Random(seed)
    left = random_tree_quiver(rng)
    right = random_tree_quiver(rng)
    t = tensor_qwc(left, right)
    nl, al = len(left.quiver.vertices), len(left.quiver.arrows)
    nr, ar = len(right.quiver.vertices), len(right.quiver.arrows)
    assert len(t.qwc.quiver.arrows) == nl * ar + al * nr + al * ar
    assert len(t.qwc.cycles) == 2 * al * ar
    assert euler_characteristic(t.qwc) == 1
    if al and ar:
        # coveredness needs an arrow in each factor: a single-vertex factor
        # makes the product cycle-free while keeping the other factor's arrows
        assert is_covered(t.qwc)
    assert validate(t.qwc) == []


def test_morita_split_identity_without_ext_ext(a3b2):
    assert morita_split(a3b2) is a3b2


def test_morita_split_b2b2_shape():
    b2 = dynkin_quiver(dynkin_spec("B", 2, frozenset({("2", "1")})))
    split = morita_split(tensor_qwc(b2, b2))
    q = split.qwc
    assert len(q.quiver.vertices) == 5
    assert len(q.quiver.arrows) == 8
    assert len(q.cycles) == 4
    assert validate(q) == []
    assert is_covered(q)
    # split conservation: the doubled vertex contributes two copies
    assert sum(1 for v in q.quiver.vertices if v.startswith("2,2.")) == 2
    # lifted cycles stay 3-cycles meeting each lifted cut class once
    vertical, horizontal, diagonal = standard_cuts(split)
    for cycle in q.cycles:
        assert len(cycle.arrows) == 3
        for cls in (vertical, horizontal, diagonal):
            assert sum(1 for n in cycle.arrows if n in cls) == 1


def test_morita_split_matches_reference_fixture(b2b2_split):
    ext = DivisionLabel("Ext")
    expected = LabeledQuiverWithCycles(
        b2b2_split.qwc,
        {
            "1": (ext, ext),
            "5": (ext, ext),
            "2": (ext, BASE),
            "4": (BASE, ext),
            "3": (BASE, BASE),
        },
    )
    b2 = dynkin_quiver(dynkin_spec("B", 2, frozenset({("2", "1")})))
    split = morita_split(tensor_qwc(b2, b2))
    normalised = LabeledQuiverWithCycles(
        split.qwc,
        {v: tuple(DivisionLabel(lab.kind) for lab in pair) for v, pair in split.labels.items()},
    )
    assert labeled_isomorphic(normalised, expected)


def test_morita_split_diamond():
    # a single doubled-extension vertex over a Base-Ext-Base path splits
    # into the 4-vertex diamond with no distinguished cycles
    ext = DivisionLabel("Ext", 2)
    point = LabeledQuiver(Quiver(("1",), ()), {"1": ext})
    path = LabeledQuiver(
        Quiver(("1", "2", "3"), (Arrow("1-2", "1", "2"), Arrow("2-3", "2", "3"))),
        {"1": BASE, "2": ext, "3": BASE},
    )
    split = morita_split(tensor_qwc(point, path))
    q = split.qwc
    assert len(q.quiver.vertices) == 4
    assert len(q.quiver.arrows) == 4
    assert q.cycles == ()
    sources = {a.source for a in q.quiver.arrows}
    targets = {a.target for a in q.quiver.arrows}
    assert len(sources & targets) == 2  # the two split copies sit in the middle


def test_morita_split_arrow_multiplicities():
    b2 = dynkin_quiver(dynkin_spec("B", 2, frozenset({("2", "1")})), split_count=3)
    t = tensor_qwc(b2, b2)
    split = morita_split(t)
    q = split.qwc
    # one vertex triples, arrows incident to it triple, the rest stay single
    assert len(q.quiver.vertices) == 3 + 3
    assert len(q.quiver.arrows) == 2 + 3 * 3
    assert len(q.cycles) == 6
    for cut in standard_cuts(split):
        assert is_cut(q, cut)
        assert cut == tuple(sorted(cut))


def test_all_ext_split_is_a_disjoint_union_of_simply_connected_copies():
    # with every vertex doubled-extension the split decomposes into
    # split_count copies of the unsplit product, each simply connected,
    # and cut-mutation stays transitive on the product of the cut sets
    ext = DivisionLabel("Ext", 2)
    line = LabeledQuiver(Quiver(("1", "2"), (Arrow("1-2", "1", "2"),)), {"1": ext, "2": ext})
    split = morita_split(tensor_qwc(line, line))
    q = split.qwc
    assert len(q.quiver.vertices) == 8
    assert len(q.quiver.arrows) == 10
    assert len(q.cycles) == 4
    assert len(set(spanning_tree(q.quiver).root.values())) == 2
    assert is_simply_connected(q).status == "Yes"
    assert is_covered(q)
    cuts = enumerate_cuts(q)
    assert len(cuts) == 5 * 5  # independent choices on the two copies
    assert has_enough_cuts(q)
    assert is_transitive(q)
    assert is_fully_compatible(q)


@pytest.mark.parametrize(
    ("left", "right", "count"),
    [("B2", "B2", 2), ("B3", "B3", 3), ("C3", "F4", 4), ("F4", "F4", 2), ("B3", "G2", 5)],
)
def test_morita_split_cycles_match_every_copy_assignment(left, right, count):
    t = tensor_qwc(
        dynkin_quiver(parse_dynkin_spec(left), split_count=count),
        dynkin_quiver(parse_dynkin_spec(right), split_count=count),
    )
    cycles = morita_split(t).qwc.cycles
    assert cycles == oracle_morita_cycles(t)
    assert len(cycles) > len(t.qwc.cycles)


def test_morita_split_inconsistent_counts():
    left = LabeledQuiver(Quiver(("1",), ()), {"1": DivisionLabel("Ext", 2)})
    right = LabeledQuiver(Quiver(("1",), ()), {"1": DivisionLabel("Ext", 3)})
    with pytest.raises(ValueError, match="inconsistent split counts"):
        morita_split(tensor_qwc(left, right))


def test_split_tensor_transitive():
    # both factors keep a Base vertex, so the split product stays connected
    # and its cut-mutation graph must be connected as well
    b2 = dynkin_quiver(dynkin_spec("B", 2, frozenset({("2", "1")})))
    split = morita_split(tensor_qwc(b2, b2))
    assert is_covered(split.qwc)
    assert has_enough_cuts(split.qwc)
    assert is_transitive(split.qwc)


def test_e6f4_cut_count_is_the_published_total():
    t = tensor_qwc(dynkin_quiver(dynkin_spec("E", 6)), dynkin_quiver(dynkin_spec("F", 4)))
    assert len(enumerate_cuts(t.qwc)) == 16599
