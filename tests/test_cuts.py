import io
import random
import runpy
import tracemalloc
import warnings
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st
from support import (
    awkward_names,
    brute_force_cuts,
    cycle_arrows,
    cycle_core,
    is_acyclic,
    oracle_are_compatible,
    oracle_basis_walks,
    oracle_has_enough_cuts,
    oracle_is_cut,
    oracle_component_count,
    oracle_enumerate_cuts,
    oracle_is_fully_compatible,
    oracle_mutate,
    oracle_mutation_edges,
    oracle_split_components,
    oracle_strict_vertices,
    random_quiver_with_cycles,
    random_tree_quiver,
    renamed,
    written,
)

from quivercuts.canvas import _presentations, pi1_presentation
from quivercuts.cli import main
from quivercuts.cuts import (
    UncoveredQuiverWarning,
    _cut_masks,
    _packed_grades,
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
from quivercuts import docio, model
from quivercuts.docio import write_cuts
from quivercuts.model import Arrow, Cycle, CutSpace, Quiver, QuiverWithCycles, spanning_tree
from quivercuts.mutation import (
    is_transitive,
    mutate_minus,
    mutate_plus,
    mutation_graph,
    strict_sinks,
    strict_sources,
)
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
    free = sorted(frozenset(names) - cycle_arrows(q))
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
    _check_graph(q, cuts)


def _check_graph(q, cuts):
    # the mutation graph, its undirected view and its components, against the frozenset oracle
    graph = mutation_graph(q)
    edges = oracle_mutation_edges(q, cuts)
    assert graph.edges == tuple(edges)
    # each labelled pair has exactly one edge leaving its lower end, the one the DOT export's undirected view keeps
    forward = sorted((i, j, v) for i, j, v, _ in graph.edges if i < j)
    assert forward == sorted({(min(i, j), max(i, j), v) for i, j, v, _ in edges})
    components = oracle_component_count(len(cuts), edges)
    assert graph.component_count() == components
    assert graph.is_connected == (components <= 1)


# names that sort around the comma: " " < "+" < "," < "-" < letters, and "a" is a prefix of the rest,
# so sorting the joined lines as strings, or the masks ascending, puts some cuts out of order
AROUND_THE_COMMA = ("a", "a b", "a+", "a,", "a-", "ab", "b", "a,b")


NAMES_AROUND_THE_COMMA = st.lists(st.sampled_from(AROUND_THE_COMMA), min_size=1, max_size=2).map("".join)


@given(
    st.one_of(
        st.lists(NAMES_AROUND_THE_COMMA, min_size=1, max_size=16, unique=True),
        st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17, 24, 40]).map(lambda n: [f"x{i:02}" for i in range(n)]),
    ),
    st.data(),
)
def test_table_rows_decode_and_columns_read_bits(names, data):
    # no arrow, one, counts across byte boundaries and past two bytes, or up to 16 named around the comma;
    # any subsets of them laid out as a table are read back as their sorted names and, a bit at a time, as columns
    space = qwc(["v"], [Arrow(name, "v", "v") for name in names]).cut_space
    subsets = data.draw(st.lists(st.lists(st.sampled_from(names), unique=True) if names else st.just([])))
    masks = list(map(space.mask, subsets))
    table = space.table(masks)
    assert list(space.decode(table)) == [tuple(sorted(s)) for s in subsets]
    for p in range(len(space.cycles_of)):
        assert list(space.column(table, p)) == [m >> p & 1 for m in masks]


def test_decode_renders_each_byte_value_in_the_table_once(monkeypatch):
    # 20 arrows fill three bytes; 200 random subsets repeat byte values at every position and leave
    # some values out, and the empty byte value is picked once at each position where it occurs
    names = [f"x{i:02}" for i in range(20)]
    space = qwc(["v"], [Arrow(name, "v", "v") for name in names]).cut_space
    rng = random.Random(5)
    subsets = [rng.sample(names, rng.randrange(4)) for _ in range(200)]
    table = space.table(map(space.mask, subsets))
    picked = []

    def recording(x, pick):
        def call(byte_names):
            picked.append((x, byte_names))  # the byte value and its column's names
            return pick(byte_names)

        return call

    monkeypatch.setattr(model, "_PICK", [recording(x, pick) for x, pick in enumerate(model._PICK)])
    rows = space.decode(table)
    nb = len(space.cycles_of) // 8
    occurring = [(x, tuple(names[8 * j : 8 * j + 8])) for j in range(nb) for x in set(table[j::nb])]
    assert sorted(picked) == sorted(occurring)  # every pick happened before the first row is drawn
    assert len(occurring) < 256 * nb
    rows = list(rows)
    assert all(type(row) is tuple for row in rows)
    assert rows == [tuple(sorted(s)) for s in subsets]
    assert sorted(picked) == sorted(occurring)  # and none while the rows were drawn


def _assert_descending(masks):
    # the listing sorts no list of every cut: each state's merge must keep its masks in order
    assert all(map(int.__gt__, masks, masks[1:]))


def _check_listing(q):
    """``enumerate_cuts`` and ``write_cuts`` list the oracle's cuts, ``_ROWS`` whole lines a write."""
    expected = sorted(tuple(sorted(cut)) for cut in oracle_enumerate_cuts(q))
    _assert_descending(_cut_masks(q))
    assert enumerate_cuts(q) == expected
    text = "".join(",".join(cut) + "\n" for cut in expected)
    for rows in (1, 3, 7, docio._ROWS):
        chunks = []
        with mock.patch.object(docio, "_ROWS", rows):
            write_cuts(q, SimpleNamespace(write=chunks.append))
        assert "".join(chunks) == text
        # names hold no line break: each write is ``rows`` whole lines, the last the rest, and none is empty
        sizes = [min(rows, len(expected) - i) for i in range(0, len(expected), rows)]
        assert [chunk.count("\n") for chunk in chunks] == sizes
        assert all(chunk.endswith("\n") for chunk in chunks)


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
@given(st.integers(0, 10**6))
def test_listing_matches_the_backtracking_oracle(seed):
    # free arrows, repeated arrows, several components and no cycles at all,
    # under names that sort around the comma
    rng = random.Random(seed)
    q = random_quiver_with_cycles(rng)
    _check_listing(renamed(q, rng.sample(AROUND_THE_COMMA, len(q.quiver.arrows))))


def test_listing_orders_names_around_the_comma():
    # two 2-cycles: as strings "a+,b" sorts before "a,b", as name tuples after it
    q = qwc(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("a+", "2", "1"), Arrow("b", "1", "3"), Arrow("ab", "3", "1")],
        [Cycle(("a", "a+")), Cycle(("b", "ab"))],
    )
    assert enumerate_cuts(q) == [("a", "ab"), ("a", "b"), ("a+", "ab"), ("a+", "b")]
    assert written(write_cuts, q) == "a,ab\na,b\na+,ab\na+,b\n"
    _check_listing(q)


@pytest.mark.parametrize(("left", "right"), [("A4", "A4"), ("D4", "D4"), ("A3", "E6")])
def test_listing_products_match_the_backtracking_oracle(left, right):
    _check_listing(tensor_qwc(dynkin_quiver(parse_dynkin_spec(left)), dynkin_quiver(parse_dynkin_spec(right))).qwc)


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
@given(st.integers(0, 10**6))
def test_two_byte_masks_match_the_backtracking_oracles(seed):
    # 9 to 16 arrows a0..a15 fill two mask bytes: "a10" sorts before "a2", and
    # free arrows sort between cycle arrows
    rng = random.Random(seed)
    q = random_quiver_with_cycles(rng, 5, 16, min_arrows=9)
    _check_listing(q)
    cuts = enumerate_cuts(q)
    _check_graph(q, cuts)  # about one in seven of these graphs has several components
    # strictness and mutation on each cut, and on it with some free arrows added
    core = cycle_core(q)
    free = sorted(frozenset(a.name for a in q.quiver.arrows) - cycle_arrows(q))
    for cut in cuts:
        added = frozenset(cut).union(name for name in free if rng.random() < 0.5)
        for members in (frozenset(cut), added):
            sources, sinks = oracle_strict_vertices(core, members)
            assert strict_sources(q, members) == frozenset(sources)
            assert strict_sinks(q, members) == frozenset(sinks)
            for v in sources:
                assert mutate_plus(q, members, v) == tuple(sorted(oracle_mutate(core, members, v, "+")))
            for v in sinks:
                assert mutate_minus(q, members, v) == tuple(sorted(oracle_mutate(core, members, v, "-")))


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
@given(st.integers(0, 10**6))
def test_three_to_five_byte_masks_match_the_backtracking_oracle(seed):
    # 17 to 40 arrows fill three to five mask bytes, under names holding commas, quotes, backslashes and
    # non-ASCII text in random order: a cut's first name lies in any byte, and with no cycle the one cut is empty
    rng = random.Random(seed)
    q = random_quiver_with_cycles(rng, 5, 40, min_arrows=17)
    _check_listing(renamed(q, awkward_names(rng, len(q.quiver.arrows))))


@pytest.mark.parametrize(("left", "right", "count"), [("E6", "F4", 16599), ("D4", "E7", 88428)])
def test_product_masks_descend_strictly(left, right, count):
    q = tensor_qwc(dynkin_quiver(parse_dynkin_spec(left)), dynkin_quiver(parse_dynkin_spec(right))).qwc
    masks = _cut_masks(q)
    assert len(masks) == count
    _assert_descending(masks)


def _recorded_writes(q, rows, monkeypatch):
    monkeypatch.setattr("quivercuts.docio._ROWS", rows)
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Recorder()
    write_cuts(q, out)
    return out.getvalue(), writes


def _cycle_of(length):
    names = [f"x{i}" for i in range(length)]
    arrows = [Arrow(name, str(i), str((i + 1) % length)) for i, name in enumerate(names)]
    return names, qwc([str(i) for i in range(length)], arrows, [Cycle(tuple(names))])


def test_write_cuts_streams_chunks_of_lines(monkeypatch):
    # a single cycle of 10 arrows has 10 one-arrow cuts; chunks of 3 lines give the same text in 4 writes
    names, q = _cycle_of(10)
    whole = written(write_cuts, q)
    text, writes = _recorded_writes(q, 3, monkeypatch)
    assert text == whole == "".join(name + "\n" for name in names)
    assert len(writes) == 4


def test_write_cuts_writes_whole_lines_and_no_empty_chunk(monkeypatch):
    # 9 one-arrow cuts in chunks of 3: three writes of three whole lines, none empty after the last
    names, q = _cycle_of(9)
    text, writes = _recorded_writes(q, 3, monkeypatch)
    assert text == "".join(name + "\n" for name in names)
    assert writes == ["x0\nx1\nx2\n", "x3\nx4\nx5\n", "x6\nx7\nx8\n"]


@pytest.mark.parametrize("rows", [1, 3, None])
def test_write_cuts_lines_across_three_mask_bytes(monkeypatch, rows):
    # 24 loops x00..x23 fill three mask bytes, and each cycle takes one loop from each byte, so a cut's
    # first name, and the comma dropped before it, lies in byte 0, 1 or 2, and the last cut has only byte 2
    names = [f"x{i:02}" for i in range(24)]
    q = qwc(["v"], [Arrow(name, "v", "v") for name in names], [Cycle(names[i::8]) for i in range(8)])
    if rows:
        monkeypatch.setattr("quivercuts.docio._ROWS", rows)
    cuts = enumerate_cuts(q)
    assert len(cuts) == 3**8
    assert {int(cut[0][1:]) // 8 for cut in cuts} == {0, 1, 2}  # the byte of the first name
    assert cuts[-1] == tuple(names[16:])
    assert written(write_cuts, q) == "".join(",".join(cut) + "\n" for cut in cuts)


def test_write_cuts_lists_the_empty_cut_as_an_empty_line():
    # no distinguished cycle: the one cut is empty, and its line is a bare newline
    q = qwc(["1", "2"], [Arrow("a", "1", "2")])
    with pytest.warns(UncoveredQuiverWarning, match="no distinguished cycles"):
        assert enumerate_cuts(q) == [()]
    with pytest.warns(UncoveredQuiverWarning, match="no distinguished cycles"):
        assert written(write_cuts, q) == "\n"


def test_deep_cut_needs_no_recursion():
    # one vertex with 1500 loops, each its own cycle: the one cut is a DAG path of
    # 1500 states, deeper than the recursion limit
    names = [f"a{i:04d}" for i in range(1500)]
    q = qwc(["v"], [Arrow(name, "v", "v") for name in names], [Cycle((name,)) for name in names])
    assert enumerate_cuts(q) == [tuple(names)]
    assert count_cuts(q) == 1
    assert has_enough_cuts(q)
    assert is_fully_compatible(q)
    # each loop's cycle, rotated through it, leaves the empty relation path
    presentation = truncated_presentation(q, names)
    assert presentation.truncated_quiver.arrows == ()
    assert presentation.relations == {name: ((1, ()),) for name in names}


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
        write_cuts(q, io.StringIO())
        mutation_graph(q)
        is_transitive(q)
    assert [w.category for w in caught] == [UncoveredQuiverWarning] * 5
    assert len({str(w.message) for w in caught}) == 1
    assert [w.filename for w in caught] == [__file__] * 5
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        main(["cuts", "--count-only", str(Path(__file__).parent / "fixtures" / "circle.json")])
    assert [(w.category, w.filename) for w in caught] == [(UncoveredQuiverWarning, __file__)]


def test_one_dag_build_per_quiver(monkeypatch, tmp_path, capsys):
    builds, forests = [], []
    build = CutSpace.__dict__["dag"].func

    def counting(space):
        builds.append(space)
        return build(space)

    def counting_forest(quiver):
        forests.append(quiver)
        return spanning_tree(quiver)

    dag = cached_property(counting)
    dag.__set_name__(CutSpace, "dag")
    monkeypatch.setattr(CutSpace, "dag", dag)
    monkeypatch.setattr("quivercuts.model.spanning_tree", counting_forest)
    # check on a tensor document: validation, the compatibility basis and the canvas share one forest
    assert main(["tensor", "--left", "A3:1<2>3", "--right", "B2:2>1"]) == 0
    document = tmp_path / "a3b2.json"
    document.write_text(capsys.readouterr().out)
    assert main(["check", str(document)]) == 0
    assert capsys.readouterr().out.startswith("covered: yes\nenough-cuts: yes\nfully-compatible: yes\n")
    assert len(builds) == 1
    assert len(forests) == 1
    # a survey row counts the cuts, builds the mutation graph and judges compatibility
    script = Path(__file__).resolve().parent.parent / "scripts" / "survey_tensor_pairs.py"
    row = runpy.run_path(str(script))["survey_pair"]("A3:1<2>3", "B2:2>1", False)
    assert (row["cuts"], row["connected"], row["fully_compatible"]) == (13, True, True)
    assert len(builds) == 2
    # a count, then a listing of the same quiver
    q = tensor_qwc(dynkin_quiver(parse_dynkin_spec("A3")), dynkin_quiver(parse_dynkin_spec("A3"))).qwc
    assert count_cuts(q) == len(written(write_cuts, q).splitlines())
    assert len(builds) == 3


def test_count_e6e6_without_listing():
    # 1,505,721 was found by listing every cut; the DAG counts them without a list
    left = dynkin_quiver(parse_dynkin_spec("E6"))
    assert count_cuts(tensor_qwc(left, left).qwc) == 1505721


def test_long_cycle_counts_in_linear_memory():
    # one 50,000-arrow cycle has a one-state DAG; holding each arrow as a one-bit
    # int as wide as its bit position made counting it peak at 187 MB traced
    n = 50000
    names = [f"a{i:05d}" for i in range(n)]
    arrows = tuple(Arrow(name, str(i), str((i + 1) % n)) for i, name in enumerate(names))
    q = QuiverWithCycles(Quiver(tuple(map(str, range(n))), arrows), (Cycle(tuple(names)),))
    tracemalloc.start()
    try:
        assert count_cuts(q) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40_000_000


def test_compatibility_on_a_long_cycle_takes_memory_linear_in_its_arrows():
    # the one basis walk goes once round the cycle, so every one-arrow cut grades it alike
    n = 12_500
    names = [f"a{i:05d}" for i in range(n)]
    arrows = tuple(Arrow(name, str(i), str((i + 1) % n)) for i, name in enumerate(names))
    q = QuiverWithCycles(Quiver(tuple(map(str, range(n))), arrows), (Cycle(tuple(names)),))
    q.cut_space.dag, q.quiver.forest  # built before tracing
    tracemalloc.start()
    try:
        assert are_compatible(q, ["a00007"], ["a00008"])
        assert is_fully_compatible(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a tree-path mask as wide as the quiver for every vertex took about 14 MB here
    assert peak < 500 * n


def _names_reversed(q):
    """``q`` with its arrow names reversed in order, so the DAG indexes and branches differently."""
    names = sorted(a.name for a in q.quiver.arrows)
    new = dict(zip(names, reversed(names)))
    return renamed(q, [new[a.name] for a in q.quiver.arrows])


@pytest.mark.parametrize(
    ("left", "right", "count"),
    [
        ("E6", "E7", 13527313),
        ("E7", "E7", 166849592),
        ("E8", "E6", 121450718),
        ("E8", "E8", 34864900152),
        ("A11", "A11", 10736651986556444032),
    ],
)
def test_big_counts_agree_under_factor_swap_and_renaming(left, right, count):
    # the swapped product and the renamed arrows order the cycles differently and
    # give the cut-state DAG other states (E8xE6: 1318, 5526 and 5166; A11xA11,
    # its own swap: 52,735 and, renamed, 59,270), and all three count the same cuts
    first, second = dynkin_quiver(parse_dynkin_spec(left)), dynkin_quiver(parse_dynkin_spec(right))
    product = tensor_qwc(first, second).qwc
    assert count_cuts(tensor_qwc(second, first).qwc) == count
    assert count_cuts(_names_reversed(product)) == count
    assert count_cuts(product) == count


@pytest.mark.parametrize(("left", "right", "most"), [("D4", "E7", 400), ("A10", "A10", 30_000)])
def test_frontier_order_keeps_the_dag_small(left, right, most):
    # branching each state on the uncovered cycle with the fewest candidates made
    # 827 and 72,708 states; the frontier order makes 277 and 24,579
    q = tensor_qwc(dynkin_quiver(parse_dynkin_spec(left)), dynkin_quiver(parse_dynkin_spec(right))).qwc
    assert len(q.cut_space.dag) <= most


def test_dag_past_its_state_cap_is_a_one_line_error(monkeypatch, tmp_path, capsys):
    assert main(["tensor", "--left", "D4", "--right", "D4"]) == 0
    document = tmp_path / "d4d4.json"
    document.write_text(capsys.readouterr().out)
    assert main(["cuts", "--count-only", str(document)]) == 0
    assert capsys.readouterr() == ("816\n", "")
    monkeypatch.setattr("quivercuts.model.MAX_DAG_STATES", 10)
    assert main(["cuts", "--count-only", str(document)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the cut-state DAG is too large: more than 10 states\n"


def test_covered(b2b2_split, a3b2):
    assert is_covered(b2b2_split.qwc)
    assert is_covered(a3b2.qwc)
    assert is_covered(qwc(["1"], []))
    assert not is_covered(qwc(["1", "2"], [Arrow("u", "1", "2")]))
    # a cycle through an undeclared arrow leaves the quiver uncovered, though every declared arrow is on it
    assert not is_covered(qwc(["1"], [Arrow("u", "1", "1")], [Cycle(("u", "ghost"))]))


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


def _grades(value, w):
    """The nonzero balanced fields of ``w`` bits in ``value``, lowest first, as ``{field: c}`` with ``-2 ** (w - 1) <= c < 2 ** (w - 1)``."""
    assert w >= 2  # a one-bit field has no balanced digits, and the loop below would not end
    half, grades = 1 << w - 1, {}
    while value:
        k = ((value & -value).bit_length() - 1) // w  # the lowest field not yet read
        grades[k] = c = ((value >> k * w) + half) % (1 << w) - half
        value -= c << k * w
    return grades


def _chord_grades(q):
    """Each arrow's ``_packed_grades`` value, by bit position, read as ``{chord index: grade}``, and the field width.

    The width is read off the second chord's value, ``1 << w``; with fewer
    chords every value lies in one field and any width of two bits reads it.
    """
    packed, at, chords = _packed_grades(q), q.cut_space.at, q.quiver.forest.chords
    w = packed[at[chords[1].name]].bit_length() - 1 if len(chords) > 1 else 2
    return [_grades(value, w) for value in packed], w


def _back_arrowed_cycle():
    """A directed 2000-cycle of arrows ``c`` with back arrows ``d_i: v(i + 1000) -> v(i)``, the cycle distinguished.

    Its forest leaves 1,001 chords, and one chord's walk crosses 1,001 arrows.
    """
    n = 2000
    vertices = [f"v{i:04d}" for i in range(n)]
    arrows = [Arrow(f"c{i:04d}", vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    arrows += [Arrow(f"d{i:04d}", vertices[i + 1000], vertices[i]) for i in range(1000)]
    return qwc(vertices, arrows, [Cycle(tuple(a.name for a in arrows[:n]))])


def _packing_sample(*fixtures):
    """The fixtures' quivers, 300 seeded random ones, E8xE8, A10xA10 and the back-arrowed cycle."""
    quivers = [value.qwc for value in fixtures]
    quivers += [random_quiver_with_cycles(random.Random(seed), 5, 9) for seed in range(300)]
    for x in ("E8", "A10"):
        quivers.append(tensor_qwc(dynkin_quiver(parse_dynkin_spec(x)), dynkin_quiver(parse_dynkin_spec(x))).qwc)
    quivers.append(_back_arrowed_cycle())
    return quivers


def test_packed_grades_decode_to_the_oracle_walks(b2b2_split, circle, a3b2):
    for q in _packing_sample(b2b2_split, circle, a3b2):
        grades, _ = _chord_grades(q)
        expected = [{} for _ in grades]
        for k, walk in enumerate(oracle_basis_walks(q)):
            for p, grade in walk.items():
                expected[p][k] = grade
        assert grades == expected


def test_packed_walks_are_closed_and_chords_own_their_fields(b2b2_split, circle, a3b2):
    for q in _packing_sample(b2b2_split, circle, a3b2):
        packed, at, chords = _packed_grades(q), q.cut_space.at, q.quiver.forest.chords
        # every walk enters each vertex as often as it leaves it
        balance = {}
        for a in q.quiver.arrows:
            balance[a.source] = balance.get(a.source, 0) + packed[at[a.name]]
            balance[a.target] = balance.get(a.target, 0) - packed[at[a.name]]
        assert set(balance.values()) <= {0}
        if len(chords) > 1:
            w = packed[at[chords[1].name]].bit_length() - 1
            assert w >= 2
            assert [packed[at[a.name]] for a in chords] == [1 << k * w for k in range(len(chords))]
        else:
            assert [packed[at[a.name]] for a in chords] in ([], [1])


def test_a_forest_packs_to_zeros():
    forests = [QuiverWithCycles(random_tree_quiver(random.Random(seed), 8).quiver, ()) for seed in range(20)]
    forests.append(qwc(["1", "2", "3", "4", "5"], [Arrow("a", "2", "1"), Arrow("b", "1", "3"), Arrow("c", "5", "4")]))
    forests.append(qwc(["1"], []))
    for q in forests:
        assert not q.quiver.forest.chords
        assert set(_packed_grades(q)) <= {0}


def test_compatibility_on_a_back_arrowed_cycle_matches_the_oracle():
    # one-arrow cuts of the 2000-cycle: only equal ones are compatible, since each
    # back arrow d_i has exactly one end on the arc where two distinct cuts' heights differ
    q = _back_arrowed_cycle()
    _, w = _chord_grades(q)
    assert (len(q.quiver.forest.chords), w) == (1001, 11)
    assert max(map(len, oracle_basis_walks(q))) == 1001
    rng = random.Random(0)
    for _ in range(40):
        i = rng.randrange(2000)
        j = rng.choice([i, (i + 1) % 2000, rng.randrange(2000)])
        first, second = [f"c{i:04d}"], [f"c{j:04d}"]
        assert are_compatible(q, first, second) == oracle_are_compatible(q, first, second) == (i == j)


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
def test_packed_grades_exact_near_the_field_bound():
    # a directed 7-cycle c0..c6 with a 2-cycle (ci, di) hung on each arrow but c3, and a
    # free arrow c7 beside c0: the first walk, chord c3's, crosses the seven c arrows and
    # its ends lie at depth 3, so 4-bit fields hold |grade| < 8, and the cuts grade it 0
    # to 6; the next walk, c7's, is graded -1 by the cuts through c0, so 2-bit fields
    # would confuse a cut through c0 with one outside it that has four fewer c arrows
    arrows = [Arrow(f"c{i}", f"v{i}", f"v{(i + 1) % 7}") for i in range(7)] + [Arrow("c7", "v0", "v1")]
    arrows += [Arrow(f"d{i}", f"v{(i + 1) % 7}", f"v{i}") for i in range(7) if i != 3]
    q = qwc([f"v{i}" for i in range(7)], arrows, [Cycle((f"c{i}", f"d{i}")) for i in range(7) if i != 3])
    cuts = enumerate_cuts(q)
    packed, at = _packed_grades(q), q.cut_space.at
    _, w = _chord_grades(q)
    assert w == 4
    assert max(_grades(sum(packed[at[name]] for name in cut), w).get(0, 0) for cut in cuts) == 6
    for first in cuts:
        for second in cuts:
            assert are_compatible(q, first, second) == oracle_are_compatible(q, first, second)
    assert not is_fully_compatible(q) and not oracle_is_fully_compatible(q, cuts)


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
def test_dag_predicates_match_oracles_on_seeded_quivers():
    # a fixed sample, so the not-fully-compatible branch is reached on every run
    incompatible = 0
    for seed in range(300):
        q = random_quiver_with_cycles(random.Random(seed), 5, 9)
        oracle = brute_force_cuts(q)
        assert count_cuts(q) == len(oracle), seed
        assert has_enough_cuts(q) == oracle_has_enough_cuts(q, oracle), seed
        compatible = oracle_is_fully_compatible(q, oracle)
        assert is_fully_compatible(q) == compatible, seed
        incompatible += not compatible
    assert incompatible >= 10


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

