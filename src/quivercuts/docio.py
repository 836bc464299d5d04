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
The mutation-graph writers (JSON and DOT) write to a text stream, such as
``sys.stdout`` or an open file, a chunk of rows at a time, and return
``None``; they never hold the whole text.
"""

from __future__ import annotations

import json
import warnings
from typing import Any, Callable, Mapping, Sequence, TextIO

from .cuts import Cut
from .model import Arrow, Cycle, Quiver, QuiverWithCycles, validate
from .mutation import MutationGraph
from .tensor import DivisionLabel, LabeledQuiverWithCycles

FORMAT_VERSION = 1

_quote = json.encoder.encode_basestring_ascii  # what json.dumps(str) calls: one quoting rule for every writer


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
    if version < 1:
        raise DocumentSchemaError(f"format_version must be at least 1, got {version}")
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


def _array(items: list[str], indent: str) -> str:
    """The rendered ``items`` as a JSON array laid out as ``json.dumps(indent=2)`` lays it out at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def serialize_quiver_document(value: LabeledQuiverWithCycles | QuiverWithCycles) -> str:
    """Canonical JSON for a quiver with cycles.

    Tensor vertices carry a pair of factor labels in memory; those collapse
    to the single label describing the vertex algebra, so pair structure is
    not preserved across a round trip (documents carry single labels only).

    The text is what ``json.dumps(doc, indent=2)`` writes, byte for byte,
    plus a final newline.  It is written here because ``indent`` forces the
    pure-Python encoder; identifiers are quoted by ``_quote``, the function
    ``json.dumps`` quotes a string with.
    """
    if isinstance(value, QuiverWithCycles):
        qwc: QuiverWithCycles = value
        labels: Mapping[str, tuple[DivisionLabel, ...]] = {}
    else:
        qwc = value.qwc
        labels = value.labels
    vertices = []
    for v in qwc.quiver.vertices:
        if v in labels:
            label = _collapse_label(labels[v])
            split = f',\n        "split_count": {label.split_count}' if label.split_count != 1 else ""
            box = f'{{\n        "kind": {_quote(label.kind)}{split}\n      }}'
            vertices.append(f'{{\n      "id": {_quote(v)},\n      "label": {box}\n    }}')
        else:
            vertices.append(f'{{\n      "id": {_quote(v)}\n    }}')
    arrows = [
        f'{{\n      "id": {_quote(a.name)},\n      "source": {_quote(a.source)},'
        f'\n      "target": {_quote(a.target)}\n    }}'
        for a in qwc.quiver.arrows
    ]
    cycles = [
        f'{{\n      "arrows": {_array(list(map(_quote, c.arrows)), "      ")}'
        + ("" if c.sign is None else f',\n      "sign": {c.sign}')
        + "\n    }"
        for c in qwc.cycles
    ]
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "vertices": {_array(vertices, "  ")},\n'
        f'  "arrows": {_array(arrows, "  ")},\n  "cycles": {_array(cycles, "  ")}\n}}\n'
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_quote(text: str) -> str:
    return '"' + _dot_escape(text) + '"'


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


_ROWS = 4096  # nodes or edges rendered per write


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``, so ``make`` runs once per key."""

    def __init__(self, make: Callable[[str], str]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: str) -> str:
        value = self[key] = self.make(key)
        return value


def _write_rows(out: TextIO, rows: Sequence, render: Callable[[Sequence, int], list[str]], sep: str) -> None:
    """Write every row of ``rows``, rendered and joined by ``sep``, ``_ROWS`` rows at a time.

    ``render(chunk, offset)`` gives the text of each row in ``chunk``, the
    slice of ``rows`` that starts at ``offset``.
    """
    for offset in range(0, len(rows), _ROWS):
        out.write((sep if offset else "") + sep.join(render(rows[offset : offset + _ROWS], offset)))


def mutation_graph_to_dot(graph: MutationGraph, out: TextIO, directed: bool = False) -> None:
    """Write the DOT export of a mutation graph to ``out``, a chunk of rows at a time.

    The default undirected view collapses each mutation and its inverse
    into one edge labelled by the mutation vertex; ``directed`` keeps both
    labelled directions.  Each arrow name is escaped once, and each
    ``(vertex, direction)`` label is built once.
    """
    kind, joiner = ("digraph", "->") if directed else ("graph", "--")
    numbers = list(map(str, range(len(graph.nodes))))
    escaped = _Memo(_dot_escape)
    labels = {
        d: _Memo(lambda v, d=d: f" [label={_dot_quote(f'mu{d} {v}' if directed else v)}];\n") for d in "+-"
    }
    out.write(f'{kind} "mutations" {{\n')
    _write_rows(
        out,
        graph.nodes,
        lambda chunk, offset: [
            f'  n{i} [label="{",".join(map(escaped.__getitem__, node))}"];\n'
            for i, node in enumerate(chunk, offset)
        ],
        "",
    )
    _write_rows(
        out,
        graph.edges,
        lambda chunk, _: [
            f"  n{numbers[i]} {joiner} n{numbers[j]}{labels[d][v]}" for i, j, v, d in chunk if directed or i < j
        ],
        "",
    )
    out.write("}\n")


def mutation_graph_to_json(graph: MutationGraph, out: TextIO) -> None:
    """Write ``{"nodes": [...], "edges": [...]}`` to ``out``, as ``json.dumps(doc, indent=2)`` writes it.

    ``indent`` forces the pure-Python encoder, so the text is written here,
    a chunk of rows at a time.  Each identifier goes through ``_quote``
    once, and each ``(vertex, direction)`` pair's closing lines are built once.
    """
    numbers = list(map(str, range(len(graph.nodes))))
    quoted = _Memo(_quote)
    tails = {
        d: _Memo(lambda v, d=d: f',\n      "vertex": {_quote(v)},\n      "direction": {_quote(d)}\n    }}')
        for d in "+-"
    }
    out.write('{\n  "nodes": [')
    _write_rows(
        out,
        graph.nodes,
        lambda chunk, _: [
            "\n    [\n      " + ",\n      ".join(map(quoted.__getitem__, node)) + "\n    ]" if node else "\n    []"
            for node in chunk
        ],
        ",",
    )
    out.write('\n  ],\n  "edges": [' if graph.nodes else '],\n  "edges": [')
    _write_rows(
        out,
        graph.edges,
        lambda chunk, _: [
            f'\n    {{\n      "source": {numbers[i]},\n      "target": {numbers[j]}{tails[d][v]}' for i, j, v, d in chunk
        ],
        ",",
    )
    out.write("\n  ]\n}\n" if graph.edges else "]\n}\n")
