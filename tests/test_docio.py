import json

import pytest
from conftest import fixture_text

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
from quivercuts.mutation import MutationGraph, mutation_graph

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
    ],
    ids=[
        "unknown-field",
        "duplicate-arrow",
        "duplicate-vertex",
        "newer-version",
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


def test_error_hierarchy():
    assert issubclass(DocumentSyntaxError, DocumentError)
    assert issubclass(DocumentSchemaError, DocumentError)
    assert issubclass(DocumentInvariantError, DocumentError)
    assert issubclass(DocumentError, ValueError)


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
    dot = mutation_graph_to_dot(graph)
    assert dot.startswith("graph")
    assert dot.count(" -- ") == 9
    assert dot.count("label=") == 7 + 9
    directed = mutation_graph_to_dot(graph, directed=True)
    assert directed.startswith("digraph")
    assert directed.count(" -> ") == 18
    assert 'label="mu+ 3"' in directed


def test_empty_mutation_graph_dot():
    from quivercuts.mutation import MutationGraph

    dot = mutation_graph_to_dot(MutationGraph((), ()))
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
    text = mutation_graph_to_json(graph)
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
        MutationGraph((), ()),
        mutation_graph(QuiverWithCycles(Quiver(("1",), ()), ())),
        mutation_graph(_escaped_ids_quiver()),
    ],
    ids=["empty", "empty-cut", "escaped-ids"],
)
def test_mutation_graph_json_matches_json_dumps(graph):
    assert mutation_graph_to_json(graph) == _reference_graph_json(graph)


def test_pair_labels_collapse_on_export(a3b2):
    text = serialize_quiver_document(a3b2)
    reparsed = parse_quiver_document(text)
    kinds = {v: lab[0].kind for v, lab in reparsed.labels.items()}
    # A3 vertices are all Base; B2 vertex 2 is the extension
    assert kinds["1,2"] == "Ext"
    assert kinds["1,1"] == "Base"
    assert serialize_quiver_document(reparsed) == text
