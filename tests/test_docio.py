import contextlib
import io
import json
import random
import runpy
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import fixture_text
from support import (
    awkward_names,
    oracle_parse_quiver_document,
    parse_outcome,
    random_quiver_with_cycles,
    reference_quiver_document,
    renamed,
    written,
)

from quivercuts import docio
from quivercuts.cli import main
from quivercuts.docio import (
    DisconnectedQuiverWarning,
    DocumentError,
    DocumentInvariantError,
    DocumentSchemaError,
    DocumentSyntaxError,
    mutation_graph_to_dot,
    mutation_graph_to_json,
    parse_quiver_document,
    quiver_to_dot,
    serialize_quiver_document,
)
from quivercuts.model import Arrow, Cycle, Quiver, QuiverWithCycles
from quivercuts.mutation import mutation_graph
from quivercuts.tensor import (
    BASE,
    DivisionLabel,
    LabeledQuiverWithCycles,
    diagram_edges,
    dynkin_quiver,
    dynkin_spec,
    morita_split,
    parse_dynkin_spec,
    tensor_qwc,
)

MINIMAL = {
    "format_version": 1,
    "vertices": [{"id": "1"}],
    "arrows": [],
    "cycles": [],
}


def doc(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return json.dumps(data)


def arrow(**fields):
    """A loop ``a`` at vertex 1, with ``fields`` replaced."""
    return {"id": "a", "source": "1", "target": "1", **fields}


def labelled(vid, **label):
    return {"id": vid, "label": label}


NOT_A_NAME = "expected a non-empty string, got"


def test_parse_minimal():
    value = parse_quiver_document(doc())
    assert value.qwc.quiver.vertices == ("1",)
    assert value.labels == {}


def test_roundtrip_fixtures():
    for name in ("b2b2_split.json", "circle.json", "minimal.json"):
        text = fixture_text(name)
        value = parse_quiver_document(text)
        assert serialize_quiver_document(value) == text
        if not value.labels:  # a bare quiver with cycles serialises the same way
            assert serialize_quiver_document(value.qwc) == text


def test_parse_b2b2(b2b2_split):
    assert len(b2b2_split.qwc.quiver.vertices) == 5
    assert len(b2b2_split.qwc.quiver.arrows) == 8
    assert len(b2b2_split.qwc.cycles) == 4
    assert b2b2_split.labels["3"][0].kind == "Base"


def test_syntax_error_carries_position():
    with pytest.raises(DocumentSyntaxError, match="line 1"):
        parse_quiver_document("{nope")


def test_field_names_are_quoted_on_one_line():
    # a form feed or newline in a key would otherwise split the message across lines
    document = json.loads(doc())
    document["\fformat_version"] = document.pop("format_version")
    with pytest.raises(DocumentSchemaError) as excinfo:
        parse_quiver_document(json.dumps(document))
    assert str(excinfo.value) == "document: unknown field(s) '\\x0cformat_version'"
    with pytest.raises(DocumentSchemaError, match=r"^document: missing field\(s\) 'format_version'$"):
        parse_quiver_document(json.dumps({"vertices": []}))


def test_overlong_number_is_a_syntax_error():
    with pytest.raises(DocumentSyntaxError, match=r"^number longer than \d+ digits$"):
        parse_quiver_document('{"format_version": ' + "1" * 5000 + ', "vertices": []}')


@pytest.mark.parametrize("text", ["[" * 200_000, '{"a": ' * 200_000])
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(DocumentSyntaxError, match="nesting too deep"):
        parse_quiver_document(text)


@pytest.mark.parametrize(
    "text, match",
    [
        (doc(extra=1), "unknown field"),
        (
            doc(
                vertices=[{"id": "1"}, {"id": "2"}],
                arrows=[
                    {"id": "a", "source": "1", "target": "2"},
                    {"id": "a", "source": "2", "target": "1"},
                ],
            ),
            "'a'",
        ),
        (doc(vertices=[{"id": "1"}, {"id": "1"}]), "duplicate vertex"),
        (doc(format_version=2), "format_version"),
        (doc(format_version=0), "format_version must be at least 1, got 0"),
        (doc(format_version=-7), "format_version must be at least 1, got -7"),
        (doc(format_version="1"), "format_version must be an integer"),
        (doc(format_version=True), "format_version must be an integer"),
        (doc(vertices=[{"id": "1", "label": {"kind": "Huge"}}]), "label kind"),
        (doc(vertices=[{"id": "1", "label": {"kind": "Ext", "split_count": 0}}]), "split_count"),
        (doc(vertices=[{"id": "1", "label": {"kind": "Base", "split_count": 2}}]), "never splits"),
        (doc(vertices=[{"id": "1", "label": "Ext"}]), "label must be an object"),
        (doc(cycles=[{"arrows": ["a"], "sign": 2}]), "sign"),
        (doc(cycles=[{"arrows": ["a"], "sign": True}]), "sign"),
        (doc(cycles=[{"arrows": ["a"], "sign": 1.0}]), "sign"),
        (doc(cycles=[{"arrows": []}]), r"cycles\[0\]\.arrows: expected a non-empty array"),
        (json.dumps({"vertices": []}), "missing field"),
        (json.dumps([MINIMAL]), "root must be an object"),
        (doc(vertices={"id": "1"}), "vertices must be an array"),
        (doc(arrows=5), "arrows must be an array"),
        (doc(cycles=None), "cycles must be an array"),
        (doc(vertices=["1"]), r"vertices\[0\]: expected an object"),
        (doc(arrows=[["a", "1", "1"]]), r"arrows\[0\]: expected an object"),
        (doc(cycles=[["a"]]), r"cycles\[0\]: expected an object"),
        (doc(vertices=[{"id": ""}]), r"vertices\[0\]\.id: expected a non-empty string"),
        (doc(arrows=[{"id": 5, "source": "1", "target": "1"}]), r"arrows\[0\]\.id: expected a non-empty string"),
        (
            doc(
                vertices=[{"id": "1"}, {"id": "2"}],
                arrows=[
                    {"id": "c", "source": "2", "target": "1"},
                    {"id": "a,b", "source": "1", "target": "2"},
                ],
                cycles=[{"arrows": ["a,b", "c"]}],
            ),
            r"arrows\[1\]\.id: arrow id 'a,b' contains ','",
        ),
        (doc(arrows=[arrow(id="a\nx")]), r"^arrows\[0\]\.id: arrow id 'a\\nx' contains a line break$"),
        (doc(arrows=[arrow(), arrow(id="b\r")]), r"^arrows\[1\]\.id: arrow id 'b\\r' contains a line break$"),
        (doc(vertices=[{"id": "1\nx"}]), r"^vertices\[0\]\.id: vertex id '1\\nx' contains a line break$"),
        (doc(vertices=[{"id": "1"}, {"id": "2\r"}]), r"^vertices\[1\]\.id: vertex id '2\\r' contains a line break$"),
        # each bad label follows a good one of its kind, which the reader has parsed already
        (
            doc(vertices=[labelled("1", kind="Ext"), labelled("2", kind="Ext", x=1)]),
            r"^vertices\[1\]\.label: unknown field\(s\) 'x'$",
        ),
        (doc(vertices=[labelled("1", kind=5)]), r"^vertices\[0\]\.label: label kind must be 'Base' or 'Ext', got 5$"),
        *(
            (
                doc(vertices=[labelled("1", kind="Ext"), labelled("2", kind="Ext", split_count=n)]),
                r"^vertices\[1\]\.label: split_count must be a positive integer$",
            )
            for n in (True, 1.5, "2")
        ),
        (doc(cycles=[{"arrows": ["a", ""]}]), rf"^cycles\[0\]\.arrows: {NOT_A_NAME} ''$"),
        (doc(cycles=[{"arrows": ["a", 5]}]), rf"^cycles\[0\]\.arrows: {NOT_A_NAME} 5$"),
        (doc(arrows=[arrow(source="")]), rf"^arrows\[0\]\.source: {NOT_A_NAME} ''$"),
        (doc(arrows=[arrow(source=None)]), rf"^arrows\[0\]\.source: {NOT_A_NAME} None$"),
        (doc(arrows=[arrow(target="")]), rf"^arrows\[0\]\.target: {NOT_A_NAME} ''$"),
        (doc(arrows=[arrow(target=["1"])]), rf"^arrows\[0\]\.target: {NOT_A_NAME} \['1'\]$"),
        (doc(cycles=[{"arrows": ["a"], "sign": None}]), r"^cycles\[0\]\.sign: expected 1 or -1, got None$"),
    ],
    ids=[
        "unknown-field",
        "duplicate-arrow",
        "duplicate-vertex",
        "newer-version",
        "zero-version",
        "negative-version",
        "string-version",
        "bool-version",
        "label-kind",
        "split-count-zero",
        "base-split",
        "label-not-object",
        "sign-2",
        "sign-bool",
        "sign-float",
        "empty-cycle",
        "missing-field",
        "root-not-object",
        "vertices-not-array",
        "arrows-not-array",
        "cycles-null",
        "vertex-not-object",
        "arrow-not-object",
        "cycle-not-object",
        "empty-id",
        "non-string-id",
        "comma-in-arrow-id",
        "newline-in-arrow-id",
        "return-in-arrow-id",
        "newline-in-vertex-id",
        "return-in-vertex-id",
        "label-unknown-field",
        "label-kind-not-string",
        "split-count-true",
        "split-count-float",
        "split-count-string",
        "empty-cycle-name",
        "non-string-cycle-name",
        "empty-source",
        "null-source",
        "empty-target",
        "list-target",
        "sign-null",
    ],
)
def test_schema_errors_are_named(text, match):
    with pytest.raises(DocumentSchemaError, match=match):
        parse_quiver_document(text)


def test_invariant_errors():
    with pytest.raises(DocumentInvariantError, match="'9'"):
        parse_quiver_document(doc(arrows=[{"id": "a", "source": "1", "target": "9"}]))
    with pytest.raises(DocumentInvariantError, match="does not chain"):
        parse_quiver_document(
            doc(
                vertices=[{"id": "1"}, {"id": "2"}, {"id": "3"}],
                arrows=[
                    {"id": "a", "source": "1", "target": "2"},
                    {"id": "b", "source": "3", "target": "1"},
                ],
                cycles=[{"arrows": ["a", "b"]}],
            )
        )


def test_disconnected_parses_with_warning():
    with pytest.warns(DisconnectedQuiverWarning):
        value = parse_quiver_document(doc(vertices=[{"id": "1"}, {"id": "2"}]))
    assert len(value.qwc.quiver.vertices) == 2


CATALOGUE = Path(__file__).resolve().parent.parent / "perfbench" / "catalogue.py"


def _catalogue_documents() -> dict[str, str]:
    """Every input document of the benchmark's inspect and lattice workloads, a product built by ``tensor``."""
    catalogue = runpy.run_path(str(CATALOGUE))
    documents = {}
    for workload in ("inspect", "lattice"):
        for name, source in catalogue["document_sources"](workload).items():
            if isinstance(source, str):  # a canvas, given as text
                documents[name] = source
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(source)) == 0
            documents[name] = out.getvalue()
    return documents


def test_reader_matches_its_oracle_on_fixtures_and_catalogue_documents():
    fixtures = {name: fixture_text(name) for name in ("b2b2_split.json", "circle.json", "minimal.json")}
    for name, text in {**fixtures, **_catalogue_documents()}.items():
        outcome = parse_outcome(parse_quiver_document, text)
        assert isinstance(outcome[0], LabeledQuiverWithCycles), name
        assert outcome == parse_outcome(oracle_parse_quiver_document, text), name


@pytest.mark.parametrize("left, right", [("D4", "D4"), ("F4", "F4")])
def test_valid_document_builds_no_message_and_parses_each_label_once(monkeypatch, left, right):
    text = serialize_quiver_document(
        tensor_qwc(*(dynkin_quiver(parse_dynkin_spec(spec), split_count=2) for spec in (left, right)))
    )
    distinct = {json.dumps(v["label"]) for v in json.loads(text)["vertices"]}
    calls: dict[str, list] = {"_expect_keys": [], "_expect_str": [], "_parse_label": [], "DivisionLabel": []}

    def counting(name, original):
        def call(*args):
            calls[name].append(args[1] if name.startswith("_") else args)  # a helper's where, a label's fields
            return original(*args)

        return call

    for name in calls:
        monkeypatch.setattr(docio, name, counting(name, getattr(docio, name)))
    value = parse_quiver_document(text)
    assert calls["_expect_keys"] == ["document"]  # the root's check, and no entry's
    assert calls["_expect_str"] == []
    assert len(calls["_parse_label"]) == len(calls["DivisionLabel"]) == len(distinct)
    assert len({id(label) for label in value.labels.values()}) == len(distinct) < len(value.labels)


def test_error_hierarchy():
    assert issubclass(DocumentSyntaxError, DocumentError)
    assert issubclass(DocumentSchemaError, DocumentError)
    assert issubclass(DocumentInvariantError, DocumentError)
    assert issubclass(DocumentError, ValueError)


# characters JSON escapes (quote, backslash, controls), or writes as \u escapes (non-ASCII, astral, a lone surrogate)
ODD = 'aZ0 /"\\\x00\x07\t\n\x1f\x7f\u00e9\u2603\U0001f600\ud800'


def _odd_names(rng, names):
    # the "#i" suffix keeps the names distinct
    return {name: "".join(rng.choices(ODD, k=rng.randint(0, 4))) + f"#{i}" for i, name in enumerate(names)}


def _renamed(rng, value):
    """``value`` with every vertex and arrow renamed to an identifier that needs escapes."""
    qwc, labels = (value, {}) if isinstance(value, QuiverWithCycles) else (value.qwc, value.labels)
    vertex = _odd_names(rng, qwc.quiver.vertices)
    arrow = _odd_names(rng, [a.name for a in qwc.quiver.arrows])
    quiver = Quiver(
        tuple(map(vertex.__getitem__, qwc.quiver.vertices)),
        tuple(Arrow(arrow[a.name], vertex[a.source], vertex[a.target]) for a in qwc.quiver.arrows),
    )
    cycles = tuple(Cycle(tuple(map(arrow.__getitem__, c.arrows)), c.sign) for c in qwc.cycles)
    return LabeledQuiverWithCycles(QuiverWithCycles(quiver, cycles), {vertex[v]: lab for v, lab in labels.items()})


def _random_label(rng):
    return BASE if rng.random() < 0.4 else DivisionLabel("Ext", rng.randint(1, 3))


def _random_dynkin(rng, split_count):
    family, rank = rng.choice([("A", 1), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
    orientation = frozenset((u, v) if rng.random() < 0.5 else (v, u) for u, v in diagram_edges(family, rank))
    return dynkin_quiver(dynkin_spec(family, rank, orientation), split_count=split_count)


def _random_document_value(rng):
    """A random quiver with cycles (bare or labelled, signed or not), tensor product or Morita split."""
    kind = rng.randrange(4)
    if kind < 2:
        q = random_quiver_with_cycles(rng, max_vertices=4, max_arrows=7)
        q = QuiverWithCycles(q.quiver, tuple(Cycle(c.arrows, rng.choice((None, 1, -1))) for c in q.cycles))
        if kind == 0:
            return q
        labels = {v: tuple(_random_label(rng) for _ in range(rng.randint(1, 2))) for v in q.quiver.vertices}
        return LabeledQuiverWithCycles(q, {v: lab for v, lab in labels.items() if rng.random() < 0.7})
    split_count = rng.randint(1, 3)
    product = tensor_qwc(_random_dynkin(rng, split_count), _random_dynkin(rng, split_count))
    return product if kind == 2 else morita_split(product)


def test_serialize_matches_json_dumps_on_random_documents():
    rng = random.Random(20261018)
    empty = QuiverWithCycles(Quiver((), ()), ())
    for value in [empty, _renamed(rng, empty), *(_random_document_value(rng) for _ in range(300))]:
        for candidate in (value, _renamed(rng, value)):
            assert serialize_quiver_document(candidate) == reference_quiver_document(candidate)


def test_serialize_matches_json_dumps_on_hand_examples(b2b2_split, a3b2):
    point = QuiverWithCycles(Quiver(("1",), ()), ())
    loop = QuiverWithCycles(Quiver(("\u00e9",), (Arrow('"\\', "\u00e9", "\u00e9"),)), (Cycle(('"\\',), -1),))
    for value in (point, loop, b2b2_split, a3b2, _renamed(random.Random(1), a3b2)):
        assert serialize_quiver_document(value) == reference_quiver_document(value)


def test_serialize_is_deterministic(b2b2_split):
    assert serialize_quiver_document(b2b2_split) == serialize_quiver_document(b2b2_split)


def test_quiver_dot_dashes_cut(b2b2_split):
    dot = quiver_to_dot(b2b2_split, cut=frozenset({"d", "e"}))
    assert dot.startswith("digraph")
    dashed = [line for line in dot.splitlines() if "style=dashed" in line]
    assert len(dashed) == 2
    assert any('label="d"' in line for line in dashed)


def test_mutation_graph_dot(b2b2_split):
    graph = mutation_graph(b2b2_split.qwc)
    dot = written(mutation_graph_to_dot, graph)
    assert dot.startswith("graph")
    assert dot.count(" -- ") == 9
    assert dot.count("label=") == 7 + 9
    directed = written(mutation_graph_to_dot, graph, directed=True)
    assert directed.startswith("digraph")
    assert directed.count(" -> ") == 18
    assert 'label="mu+ 3"' in directed


def _no_cut_quiver():
    # the cycle runs through p and r twice, so no arrow set meets it exactly once
    return QuiverWithCycles(
        Quiver(("a", "b"), (Arrow("p", "a", "b"), Arrow("r", "b", "a"))), (Cycle(("p", "r", "p", "r")),)
    )


def test_empty_mutation_graph_dot():
    dot = written(mutation_graph_to_dot, mutation_graph(_no_cut_quiver()))
    assert dot == 'graph "mutations" {\n}\n'


def _reference_graph_json(graph):
    doc = {
        "nodes": [list(node) for node in graph.nodes],
        "edges": [
            {"source": i, "target": j, "vertex": vertex, "direction": direction}
            for i, j, vertex, direction in graph.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_mutation_graph_json(b2b2_split):
    graph = mutation_graph(b2b2_split.qwc)
    text = written(mutation_graph_to_json, graph)
    assert text == _reference_graph_json(graph)
    data = json.loads(text)
    assert len(data["nodes"]) == 7
    assert ["d", "e"] in data["nodes"]
    assert all(e["direction"] in "+-" for e in data["edges"])
    assert len(data["edges"]) == 18


def _escaped_ids_quiver():
    # identifiers needing JSON escapes: a quote, a backslash, non-ASCII text
    vertices = ('v"1', "v\\2", "w\u00e9")
    arrows = (
        Arrow('a"', 'v"1', "v\\2"),
        Arrow("b\\", "v\\2", "w\u00e9"),
        Arrow("\u00e7\u2603", "w\u00e9", 'v"1'),
        Arrow("d", "v\\2", 'v"1'),
    )
    return QuiverWithCycles(
        Quiver(vertices, arrows),
        (Cycle(('a"', "b\\", "\u00e7\u2603")), Cycle(('a"', "d"))),
    )


@pytest.mark.parametrize(
    "graph",
    [
        mutation_graph(_no_cut_quiver()),
        mutation_graph(QuiverWithCycles(Quiver(("1",), ()), ())),
        mutation_graph(_escaped_ids_quiver()),
    ],
    ids=["empty", "empty-cut", "escaped-ids"],
)
def test_mutation_graph_json_matches_json_dumps(graph):
    assert written(mutation_graph_to_json, graph) == _reference_graph_json(graph)


def _reference_graph_dot(graph, directed):
    def quote(text):
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    kind, joiner = ("digraph", "->") if directed else ("graph", "--")
    lines = [f'{kind} "mutations" {{']
    lines += [f"  n{i} [label={quote(','.join(node))}];" for i, node in enumerate(graph.nodes)]
    for i, j, vertex, direction in graph.edges:
        if directed:
            lines.append(f"  n{i} -> n{j} [label={quote(f'mu{direction} {vertex}')}];")
        elif i < j:
            lines.append(f"  n{i} -- n{j} [label={quote(vertex)}];")
    return "\n".join(lines) + "\n}\n"


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_mutation_graph_dot_escapes_ids(directed):
    graph = mutation_graph(_escaped_ids_quiver())
    assert written(mutation_graph_to_dot, graph, directed=directed) == _reference_graph_dot(graph, directed)


def _check_graph_writers(graph, rows):
    """Each writer, ``_ROWS`` set to ``rows``, writes its reference text in one write per chunk of rows."""
    expected = {
        (mutation_graph_to_json, False): _reference_graph_json(graph),
        (mutation_graph_to_dot, False): _reference_graph_dot(graph, False),
        (mutation_graph_to_dot, True): _reference_graph_dot(graph, True),
    }
    nodes, edges = len(graph.nodes), len(graph.edges)
    with mock.patch.object(docio, "_ROWS", rows):
        for (write, directed), text in expected.items():
            chunks = []
            kwargs = {"directed": True} if directed else {}
            assert write(graph, SimpleNamespace(write=chunks.append), **kwargs) is None
            assert "".join(chunks) == text
            # a row a node, then a row an edge; the undirected view has one edge for each two
            fixed, edge_rows = (3, edges) if write is mutation_graph_to_json else (2, edges // (1 + (not directed)))
            assert len(chunks) == fixed + -(-nodes // rows) + -(-edge_rows // rows)


@pytest.mark.parametrize("rows", [1, 2, 5, docio._ROWS])
def test_graph_writers_stream_chunks_of_rows(a3b2, rows):
    # A3xB2's 13 nodes and 42 edges: every chunk size below the default splits both into several writes
    for q in (a3b2.qwc, _no_cut_quiver(), QuiverWithCycles(Quiver(("1",), ()), ()), _escaped_ids_quiver()):
        _check_graph_writers(mutation_graph(q), rows)


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
@given(st.integers(0, 10**6))
def test_graph_writers_match_references_on_random_quivers(seed):
    # free arrows, repeated arrows, several components, and graphs with several components
    graph = mutation_graph(random_quiver_with_cycles(random.Random(seed), 5, 12))
    for rows in (1, 2, 5, docio._ROWS):
        _check_graph_writers(graph, rows)


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
@given(st.integers(0, 10**6))
def test_graph_writers_match_references_on_three_to_five_byte_masks(seed):
    # 17 to 40 arrows fill three to five mask bytes, under names holding commas, quotes, backslashes and
    # non-ASCII text in random order: a node's first name lies in any byte, and with no cycle the one node is empty
    rng = random.Random(seed)
    q = random_quiver_with_cycles(rng, 5, 40, min_arrows=17)
    graph = mutation_graph(renamed(q, awkward_names(rng, len(q.quiver.arrows))))
    for rows in (1, 3, 7, docio._ROWS):
        _check_graph_writers(graph, rows)


@pytest.mark.parametrize("rows", [1, 2, 3, 10])
def test_edge_rows_go_on_where_the_last_chunk_stopped(monkeypatch, rows):
    # node 0 leaves by both moves and node 1 by the first: each chunk's rows follow the last chunk's,
    # the first row alone loses its leading comma, and the rows are counted
    monkeypatch.setattr(docio, "_ROWS", rows)
    moves = [("x", "+", True, b"\1\1\0", b"\0\1\1"), ("y", "-", True, b"\1\0\0", b"\0\0\1")]
    chunks = []
    out = SimpleNamespace(write=chunks.append)
    assert docio._write_edge_rows(out, SimpleNamespace(node_count=3), moves, ",{}>", ["x", "y"]) == 3
    texts = ["0>1x", ",0>2y", ",1>2x"]
    expected = ["".join(texts[a : a + rows]) for a in range(0, 3, rows)]
    assert chunks == expected
    # no move, no write
    assert docio._write_edge_rows(out, SimpleNamespace(node_count=0), [], "", []) == 0
    assert chunks == expected


def test_graph_json_export_peaks_under_three_megabytes():
    # E6xF4: 16,599 nodes and 150,598 edges, written into a writer that keeps nothing; a list of an
    # item per edge would take about 1.2 MB more than the node-by-move grid and the chunk of rows
    e6, f4 = (dynkin_quiver(parse_dynkin_spec(spec)) for spec in ("E6", "F4"))
    graph = mutation_graph(tensor_qwc(e6, f4).qwc)
    tracemalloc.start()
    try:
        mutation_graph_to_json(graph, SimpleNamespace(write=len))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_pair_labels_collapse_on_export(a3b2):
    text = serialize_quiver_document(a3b2)
    reparsed = parse_quiver_document(text)
    kinds = {v: lab[0].kind for v, lab in reparsed.labels.items()}
    # A3 vertices are all Base; B2 vertex 2 is the extension
    assert kinds["1,2"] == "Ext"
    assert kinds["1,1"] == "Base"
    assert serialize_quiver_document(reparsed) == text
