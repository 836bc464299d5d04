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


def test_parse_b2b2(b2b2_split):
    assert len(b2b2_split.qwc.quiver.vertices) == 5
    assert len(b2b2_split.qwc.quiver.arrows) == 8
    assert len(b2b2_split.qwc.cycles) == 4
    assert b2b2_split.labels["3"][0].kind == "Base"


def test_syntax_error_carries_position():
    with pytest.raises(DocumentSyntaxError, match="line 1"):
        parse_quiver_document("{nope")


def test_schema_errors_are_named():
    with pytest.raises(DocumentSchemaError, match="unknown field"):
        parse_quiver_document(doc(extra=1))
    with pytest.raises(DocumentSchemaError, match="'a'"):
        parse_quiver_document(
            doc(
                vertices=[{"id": "1"}, {"id": "2"}],
                arrows=[
                    {"id": "a", "source": "1", "target": "2"},
                    {"id": "a", "source": "2", "target": "1"},
                ],
            )
        )
    with pytest.raises(DocumentSchemaError, match="duplicate vertex"):
        parse_quiver_document(doc(vertices=[{"id": "1"}, {"id": "1"}]))
    with pytest.raises(DocumentSchemaError, match="format_version"):
        parse_quiver_document(doc(format_version=2))
    with pytest.raises(DocumentSchemaError, match="label kind"):
        parse_quiver_document(doc(vertices=[{"id": "1", "label": {"kind": "Huge"}}]))
    with pytest.raises(DocumentSchemaError, match="split_count"):
        parse_quiver_document(doc(vertices=[{"id": "1", "label": {"kind": "Ext", "split_count": 0}}]))
    with pytest.raises(DocumentSchemaError, match="sign"):
        parse_quiver_document(doc(cycles=[{"arrows": ["a"], "sign": 2}]))
    with pytest.raises(DocumentSchemaError, match="missing field"):
        parse_quiver_document(json.dumps({"vertices": []}))


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
            {"source": e.source, "target": e.target, "vertex": e.vertex, "direction": e.direction}
            for e in graph.edges
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
