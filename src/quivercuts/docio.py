"""Reading, writing and exporting quiver documents.

The interchange format is a strict JSON document::

    {
      "format_version": 1,
      "vertices": [{"id": "1", "label": {"kind": "Ext", "split_count": 2}}, ...],
      "arrows":   [{"id": "a", "source": "1", "target": "2"}, ...],
      "cycles":   [{"arrows": ["a", "c", "d"], "sign": 1}, ...]
    }

Unknown fields are rejected, identifiers are strings, and serialisation is
canonical (sorted, indented, newline-terminated), so parse and serialize
round-trip byte-for-byte.  Error classes distinguish malformed JSON, schema
violations and structural invariant violations; a disconnected but otherwise
sound quiver parses with a warning, since several operations work per
component.

DOT export renders quivers as digraphs (cut arrows dashed) and mutation
graphs as undirected graphs by default, matching mutation-lattice figures.
"""

from __future__ import annotations

import functools
import json
import warnings
from typing import Any, Mapping

from .cuts import Cut
from .model import Arrow, Cycle, Quiver, QuiverWithCycles, validate
from .mutation import MutationGraph
from .tensor import DivisionLabel, LabeledQuiverWithCycles

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """Base class for quiver-document failures."""


class DocumentSyntaxError(DocumentError):
    """The text is not well-formed JSON."""


class DocumentSchemaError(DocumentError):
    """The JSON does not match the document schema."""


class DocumentInvariantError(DocumentError):
    """The document parses but violates structural invariants."""


class DisconnectedQuiverWarning(UserWarning):
    pass


def _expect_keys(obj: Mapping[str, Any], where: str, required: set[str], optional: set[str]) -> None:
    unknown = set(obj) - required - optional
    if unknown:
        raise DocumentSchemaError(f"{where}: unknown field(s) " + ", ".join(sorted(unknown)))
    missing = required - set(obj)
    if missing:
        raise DocumentSchemaError(f"{where}: missing field(s) " + ", ".join(sorted(missing)))


def _expect_str(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise DocumentSchemaError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _parse_label(obj: Any, where: str) -> DivisionLabel:
    if not isinstance(obj, dict):
        raise DocumentSchemaError(f"{where}: label must be an object")
    _expect_keys(obj, where, {"kind"}, {"split_count"})
    kind = obj["kind"]
    if kind not in ("Base", "Ext"):
        raise DocumentSchemaError(f"{where}: label kind must be 'Base' or 'Ext', got {kind!r}")
    split_count = obj.get("split_count", 1)
    if not isinstance(split_count, int) or isinstance(split_count, bool) or split_count < 1:
        raise DocumentSchemaError(f"{where}: split_count must be a positive integer")
    try:
        return DivisionLabel(kind, split_count)
    except ValueError as exc:
        raise DocumentSchemaError(f"{where}: {exc}") from None


def parse_quiver_document(text: str) -> LabeledQuiverWithCycles:
    """Parse a quiver document, reporting every violation it can name.

    Raises :class:`DocumentSyntaxError` for malformed JSON,
    :class:`DocumentSchemaError` for shape problems (naming the field or
    identifier) and :class:`DocumentInvariantError` for structural
    violations.  A merely disconnected quiver warns instead of failing.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentSyntaxError("nesting too deep") from None
    if not isinstance(data, dict):
        raise DocumentSchemaError("document root must be an object")
    _expect_keys(data, "document", {"format_version", "vertices"}, {"arrows", "cycles"})

    version = data["format_version"]
    if not isinstance(version, int) or isinstance(version, bool):
        raise DocumentSchemaError("format_version must be an integer")
    if version > FORMAT_VERSION:
        raise DocumentSchemaError(
            f"format_version {version} is newer than the supported version {FORMAT_VERSION}"
        )

    for field in ("vertices", "arrows", "cycles"):
        if not isinstance(data.get(field, []), list):
            raise DocumentSchemaError(f"{field} must be an array")
    vertices: list[str] = []
    labels: dict[str, tuple[DivisionLabel, ...]] = {}
    seen_vertices: set[str] = set()
    for i, entry in enumerate(data["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict):
            raise DocumentSchemaError(f"{where}: expected an object")
        _expect_keys(entry, where, {"id"}, {"label"})
        vid = _expect_str(entry["id"], f"{where}.id")
        if vid in seen_vertices:
            raise DocumentSchemaError(f"{where}: duplicate vertex id {vid!r}")
        seen_vertices.add(vid)
        vertices.append(vid)
        if "label" in entry:
            labels[vid] = (_parse_label(entry["label"], f"{where}.label"),)

    arrows: list[Arrow] = []
    seen_arrows: set[str] = set()
    for i, entry in enumerate(data.get("arrows", [])):
        where = f"arrows[{i}]"
        if not isinstance(entry, dict):
            raise DocumentSchemaError(f"{where}: expected an object")
        _expect_keys(entry, where, {"id", "source", "target"}, set())
        aid = _expect_str(entry["id"], f"{where}.id")
        if aid in seen_arrows:
            raise DocumentSchemaError(f"{where}: duplicate arrow id {aid!r}")
        seen_arrows.add(aid)
        arrows.append(
            Arrow(aid, _expect_str(entry["source"], f"{where}.source"), _expect_str(entry["target"], f"{where}.target"))
        )

    cycles: list[Cycle] = []
    for i, entry in enumerate(data.get("cycles", [])):
        where = f"cycles[{i}]"
        if not isinstance(entry, dict):
            raise DocumentSchemaError(f"{where}: expected an object")
        _expect_keys(entry, where, {"arrows"}, {"sign"})
        names = entry["arrows"]
        if not isinstance(names, list) or not names:
            raise DocumentSchemaError(f"{where}.arrows: expected a non-empty array of arrow ids")
        sign = None
        if "sign" in entry:
            sign = entry["sign"]
            if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
                raise DocumentSchemaError(f"{where}.sign: expected 1 or -1, got {sign!r}")
        cycles.append(Cycle(tuple(_expect_str(n, f"{where}.arrows") for n in names), sign))

    qwc = QuiverWithCycles(Quiver(tuple(vertices), tuple(arrows)), tuple(cycles))
    violations = validate(qwc)
    connectivity = [v for v in violations if v.startswith("quiver is not connected")]
    hard = [v for v in violations if not v.startswith("quiver is not connected")]
    if hard:
        raise DocumentInvariantError("; ".join(hard))
    if connectivity:
        warnings.warn(connectivity[0], DisconnectedQuiverWarning, stacklevel=2)
    return LabeledQuiverWithCycles(qwc, labels)


def _collapse_label(pair: tuple[DivisionLabel, ...]) -> DivisionLabel:
    if len(pair) == 1:
        return pair[0]
    kinds = {lab.kind for lab in pair}
    if kinds == {"Base"}:
        return DivisionLabel("Base")
    if kinds == {"Ext"}:
        return DivisionLabel("Ext", pair[0].split_count)
    return DivisionLabel("Ext", 1)  # one Ext factor keeps the product a division algebra


def serialize_quiver_document(value: LabeledQuiverWithCycles | QuiverWithCycles) -> str:
    """Canonical JSON for a quiver with cycles.

    Tensor vertices carry a pair of factor labels in memory; those collapse
    to the single label describing the vertex algebra, so pair structure is
    not preserved across a round trip (documents carry single labels only).
    """
    if isinstance(value, QuiverWithCycles):
        qwc: QuiverWithCycles = value
        labels: Mapping[str, tuple[DivisionLabel, ...]] = {}
    else:
        qwc = value.qwc
        labels = value.labels
    vertices = []
    for v in qwc.quiver.vertices:
        entry: dict[str, Any] = {"id": v}
        if v in labels:
            label = _collapse_label(labels[v])
            box: dict[str, Any] = {"kind": label.kind}
            if label.split_count != 1:
                box["split_count"] = label.split_count
            entry["label"] = box
        vertices.append(entry)
    arrows = [{"id": a.name, "source": a.source, "target": a.target} for a in qwc.quiver.arrows]
    cycles = []
    for c in qwc.cycles:
        entry = {"arrows": list(c.arrows)}
        if c.sign is not None:
            entry["sign"] = c.sign
        cycles.append(entry)
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": vertices,
        "arrows": arrows,
        "cycles": cycles,
    }
    return json.dumps(doc, indent=2) + "\n"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def quiver_to_dot(value: LabeledQuiverWithCycles | QuiverWithCycles, cut: Cut | None = None) -> str:
    """DOT digraph of a quiver; arrows of ``cut`` are rendered dashed."""
    qwc = value if isinstance(value, QuiverWithCycles) else value.qwc
    members = frozenset(cut) if cut is not None else frozenset()
    lines = ['digraph "quiver" {']
    for v in qwc.quiver.vertices:
        lines.append(f"  {_dot_quote(v)};")
    for a in qwc.quiver.arrows:
        attrs = [f"label={_dot_quote(a.name)}"]
        if a.name in members:
            attrs.append("style=dashed")
        lines.append(f"  {_dot_quote(a.source)} -> {_dot_quote(a.target)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def mutation_graph_to_dot(graph: MutationGraph, directed: bool = False) -> str:
    """DOT export of a mutation graph.

    The default undirected view collapses each mutation and its inverse
    into one edge labelled by the mutation vertex; ``directed`` keeps both
    labelled directions.
    """
    kind, joiner = ("digraph", "->") if directed else ("graph", "--")
    lines = [f'{kind} "mutations" {{']
    for i, node in enumerate(graph.nodes):
        lines.append(f"  n{i} [label={_dot_quote(','.join(node))}];")
    if directed:
        for i, j, vertex, direction in graph.edges:
            lines.append(f"  n{i} {joiner} n{j} [label={_dot_quote(f'mu{direction} {vertex}')}];")
    else:
        for i, j, vertex in graph.undirected_edges():
            lines.append(f"  n{i} {joiner} n{j} [label={_dot_quote(vertex)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def mutation_graph_to_json(graph: MutationGraph) -> str:
    """``{"nodes": [...], "edges": [...]}``, as ``json.dumps(doc, indent=2)`` writes it.

    ``indent`` forces the pure-Python encoder, so the text is written here
    and only identifier strings go through ``json.dumps``, once each.
    """
    quote = functools.lru_cache(maxsize=None)(json.dumps)

    def array(items: list[str], indent: str) -> str:
        if not items:
            return "[]"
        sep = ",\n" + indent + "  "
        return f"[\n{indent}  {sep.join(items)}\n{indent}]"

    nodes = [array([quote(name) for name in node], "    ") for node in graph.nodes]
    edges = [
        f'{{\n      "source": {i},\n      "target": {j},\n'
        f'      "vertex": {quote(vertex)},\n      "direction": {quote(direction)}\n    }}'
        for i, j, vertex, direction in graph.edges
    ]
    return f'{{\n  "nodes": {array(nodes, "  ")},\n  "edges": {array(edges, "  ")}\n}}\n'
