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
round-trip byte-for-byte.  A tensor product's vertices carry pairs of
factor labels; the rule that writes each pair as one label is
``tensor._product_label``, so this module decides nothing about what the
pairs mean.  Error classes distinguish malformed JSON, schema
violations and structural invariant violations; a disconnected but otherwise
sound quiver parses with a warning, since several operations work per
component.

The reader checks the vertices, then the arrows, then the cycles, each
entry's fields in a fixed order, and stops at the first schema error.  An
entry is checked by plain type tests and one comparison of its key set; the
text that says where it sits, such as ``arrows[3].source``, is built only
for the entry that fails, by the helper that words its message.  Each
distinct label is parsed once and shared by the vertices that carry it.
Then :func:`~quivercuts.model.validate` runs once, and every invariant
violation it finds is reported, joined by ``"; "``.

DOT export renders quivers as digraphs (cut arrows dashed) and mutation
graphs as undirected graphs by default, matching mutation-lattice figures.
The streamed writers, :func:`write_cuts` for the ``cuts`` lines and the
mutation-graph writers (JSON and DOT), write to a text stream, such as
``sys.stdout`` or an open file, and return ``None``; they never hold the
whole text, and write it a chunk of rows at a time, with no Python code
per row.  A cut's row, a ``cuts`` line or a graph's node row, is written
from the cut table by ``_write_cut_rows``, the one column renderer: each
byte column fills its pieces of a chunk by one strided slice assignment,
and no row drops a leading separator, since the rows of the descending
table with no name before a column are a suffix of it.  A graph's edge
rows are written by ``_write_edge_rows`` from a node-by-move grid of the
moves' source columns, in order of source and then of move, with no edge
tuple, no sort and no string of an edge's own: three pieces a row, the
source's opening text repeated by its out-degree, the target's number
and the move's closing text, each filled by one strided slice assignment.
"""

from __future__ import annotations

import json
import sys
import warnings
from collections.abc import Callable, Mapping, Sequence
from itertools import chain, compress, cycle, islice, repeat, tee

from .model import _PICK, Arrow, Cycle, Quiver, QuiverWithCycles, validate
from .tensor import DivisionLabel, LabeledQuiverWithCycles, _product_label

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only: loading typing, cuts and mutation would cost every parse
    from typing import Any, TextIO

    from .cuts import Cut
    from .model import CutSpace
    from .mutation import MutationGraph

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
        raise DocumentSchemaError(f"{where}: unknown field(s) " + ", ".join(map(repr, sorted(unknown))))
    missing = required - set(obj)
    if missing:
        raise DocumentSchemaError(f"{where}: missing field(s) " + ", ".join(map(repr, sorted(missing))))


def _expect_str(value: Any, where: str) -> None:
    if not isinstance(value, str) or not value:
        raise DocumentSchemaError(f"{where}: expected a non-empty string, got {value!r}")


# The key sets an entry of each kind may have.  Only an entry whose keys match none of its kind's
# sets runs ``_expect_keys``, the helper that names the unknown or missing field.
_VERTEX, _LABELLED_VERTEX = frozenset({"id"}), frozenset({"id", "label"})
_LABEL, _SPLIT_LABEL = frozenset({"kind"}), frozenset({"kind", "split_count"})
_ARROW = frozenset({"id", "source", "target"})
_CYCLE, _SIGNED_CYCLE = frozenset({"arrows"}), frozenset({"arrows", "sign"})


def _parse_label(obj: Any, where: str) -> DivisionLabel:
    if not isinstance(obj, dict):
        raise DocumentSchemaError(f"{where}: label must be an object")
    if obj.keys() != _LABEL and obj.keys() != _SPLIT_LABEL:
        _expect_keys(obj, where, _LABEL, {"split_count"})
    split_count = obj.get("split_count", 1)
    if not isinstance(split_count, int) or isinstance(split_count, bool):
        raise DocumentSchemaError(f"{where}: split_count must be a positive integer")
    try:
        return DivisionLabel(obj["kind"], split_count)
    except ValueError as exc:
        raise DocumentSchemaError(f"{where}: {exc}") from None


def parse_quiver_document(text: str) -> LabeledQuiverWithCycles:
    """Parse a quiver document: the first schema error it meets, or every invariant violation.

    Raises :class:`DocumentSyntaxError` for malformed JSON,
    :class:`DocumentSchemaError` for the first shape problem, in document
    order (naming the field or identifier), and
    :class:`DocumentInvariantError` for structural violations, all of them
    joined by ``"; "``.  A merely disconnected quiver warns instead of
    failing.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentSyntaxError("nesting too deep") from None
    except ValueError:  # an integer longer than int() converts
        raise DocumentSyntaxError(f"number longer than {sys.get_int_max_str_digits()} digits") from None
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
    # json.loads builds exact dicts, lists, strs and ints, so each ``type(x) is`` test below accepts
    # what the ``isinstance`` test of its message helper accepts, and ``type(x) is int`` refuses a bool
    vertices: list[str] = []
    labels: dict[str, tuple[DivisionLabel, ...]] = {}
    made: dict[tuple[str, int], tuple[DivisionLabel]] = {}
    seen_vertices: set[str] = set()
    for i, entry in enumerate(data["vertices"]):
        if type(entry) is not dict:
            raise DocumentSchemaError(f"vertices[{i}]: expected an object")
        keys = entry.keys()
        if keys != _VERTEX and keys != _LABELLED_VERTEX:
            _expect_keys(entry, f"vertices[{i}]", _VERTEX, {"label"})
        vid = entry["id"]
        if type(vid) is not str or not vid:
            _expect_str(vid, f"vertices[{i}].id")
        if "\n" in vid or "\r" in vid:  # the CLI prints a record a line, and ``truncate``'s hold vertex ids
            raise DocumentSchemaError(f"vertices[{i}].id: vertex id {vid!r} contains a line break")
        if vid in seen_vertices:
            raise DocumentSchemaError(f"vertices[{i}]: duplicate vertex id {vid!r}")
        seen_vertices.add(vid)
        vertices.append(vid)
        if "label" in entry:
            label = entry["label"]
            if (
                type(label) is dict
                and (label.keys() == _LABEL or label.keys() == _SPLIT_LABEL)
                and type(label["kind"]) is str
                and type(label.get("split_count", 1)) is int
            ):  # parsed at the first vertex with its kind and split count, and shared
                key = label["kind"], label.get("split_count", 1)
                if key not in made:
                    made[key] = (_parse_label(label, f"vertices[{i}].label"),)
                labels[vid] = made[key]
            else:  # raises, naming the problem
                labels[vid] = (_parse_label(label, f"vertices[{i}].label"),)

    arrows: list[Arrow] = []
    seen_arrows: set[str] = set()
    for i, entry in enumerate(data.get("arrows", [])):
        if type(entry) is not dict:
            raise DocumentSchemaError(f"arrows[{i}]: expected an object")
        if entry.keys() != _ARROW:
            _expect_keys(entry, f"arrows[{i}]", _ARROW, set())
        aid, source, target = entry["id"], entry["source"], entry["target"]
        if type(aid) is not str or not aid:
            _expect_str(aid, f"arrows[{i}].id")
        # the CLI's --cut option and the cuts lines separate names by commas, and the lines by line breaks
        if "," in aid or "\n" in aid or "\r" in aid:
            rule = "','" if "," in aid else "a line break"
            raise DocumentSchemaError(f"arrows[{i}].id: arrow id {aid!r} contains {rule}")
        if aid in seen_arrows:
            raise DocumentSchemaError(f"arrows[{i}]: duplicate arrow id {aid!r}")
        seen_arrows.add(aid)
        if type(source) is not str or not source:
            _expect_str(source, f"arrows[{i}].source")
        if type(target) is not str or not target:
            _expect_str(target, f"arrows[{i}].target")
        arrows.append(Arrow(aid, source, target))

    cycles: list[Cycle] = []
    for i, entry in enumerate(data.get("cycles", [])):
        if type(entry) is not dict:
            raise DocumentSchemaError(f"cycles[{i}]: expected an object")
        keys = entry.keys()
        if keys != _CYCLE and keys != _SIGNED_CYCLE:
            _expect_keys(entry, f"cycles[{i}]", _CYCLE, {"sign"})
        names = entry["arrows"]
        if type(names) is not list or not names:
            raise DocumentSchemaError(f"cycles[{i}].arrows: expected a non-empty array of arrow ids")
        sign = None
        if "sign" in entry:
            sign = entry["sign"]
            if type(sign) is not int or (sign != 1 and sign != -1):
                raise DocumentSchemaError(f"cycles[{i}].sign: expected 1 or -1, got {sign!r}")
        for name in names:
            if type(name) is not str or not name:
                _expect_str(name, f"cycles[{i}].arrows")
        cycles.append(Cycle(tuple(names), sign))

    qwc = QuiverWithCycles(Quiver(tuple(vertices), tuple(arrows)), tuple(cycles))
    violations = validate(qwc)
    connectivity = [v for v in violations if v.startswith("quiver is not connected")]
    hard = [v for v in violations if not v.startswith("quiver is not connected")]
    if hard:
        raise DocumentInvariantError("; ".join(hard))
    if connectivity:
        warnings.warn(connectivity[0], DisconnectedQuiverWarning, stacklevel=2)
    return LabeledQuiverWithCycles(qwc, labels)


def _array(items: list[str], indent: str) -> str:
    """The rendered ``items`` as a JSON array laid out as ``json.dumps(indent=2)`` lays it out at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def serialize_quiver_document(value: LabeledQuiverWithCycles | QuiverWithCycles) -> str:
    """Canonical JSON for a quiver with cycles.

    Tensor vertices carry a pair of factor labels in memory; those collapse
    to the single label describing the vertex algebra, by the rule
    ``tensor._product_label`` states, so pair structure is not preserved
    across a round trip (documents carry single labels only).

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
            label = _product_label(labels[v])
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


_ROWS = 4096  # rows written per write


def _write_cut_rows(
    out: TextIO,
    space: CutSpace,
    table: bytes,
    sep: str,
    quote: Callable[[str], str],
    head: str,
    tail: str,
    number: str = "",
    drop: int = 0,
) -> None:
    """Write a row per cut of ``table`` to ``out``: ``head``, its names through ``quote`` joined by ``sep``, ``tail``.

    ``number``, where given, is formatted with each row's index into a
    piece before the row, and the first row is written less its first
    ``drop`` characters.  Rows are written ``_ROWS`` at a time from the one
    list ``pieces``, made before the first write and refilled in place:
    ``w`` pieces a row, the numbered one and then a text per byte.  A list
    made anew for each write would leave small freed blocks between the
    written chunks, which split the space the chunks free, so a writer's
    peak memory would depend on what ran before it in the process, and no
    list is longer than the table, so a short table fills no list of
    ``_ROWS``.  Each byte column fills its pieces by one
    strided slice assignment, a ``map`` over its bytes through a table of
    texts, each made once per byte value that occurs in the column: no row
    runs Python code of its own, and none makes a string but its numbered
    piece.

    Rows need no work to drop their leading ``sep``.  The table's rows
    descend, so those whose bytes before column ``j`` are all zero, the
    rows with no name before it, are the rows from ``split[j]`` on, found
    in column ``j - 1`` from ``split[j - 1]``.  Column ``j`` reads texts
    that begin with ``sep`` above ``split[j]``, and texts that do not from
    it on.  ``head`` begins column 0's texts, and ``tail`` ends the last
    column's.
    """
    nb, n = space.nb, len(table) // space.nb
    columns = [table[j::nb] for j in range(nb)]
    del table  # its columns hold every byte the rows need
    split = [0]
    for column in columns[:-1]:
        at = column.find(0, split[-1])
        split.append(n if at < 0 else at)
    texts = [sep + quote(name) for name in space.arrows]  # each name quoted once
    lookups = []
    for j, column in enumerate(columns):
        names = tuple(texts[8 * j : 8 * j + 8])
        first, last = head if j == 0 else "", tail if j == nb - 1 else ""
        above, below = [None] * 256, [None] * 256  # by byte value: with the leading sep, and without
        for x in set(column):
            joined = "".join(_PICK[x](names))
            above[x], below[x] = joined + last, first + joined[len(sep) :] + last
        lookups.append((above.__getitem__, below.__getitem__))
    w = nb + bool(number)
    size = max(1, min(_ROWS, n))
    pieces = [""] * (w * size)
    for a in range(0, n, size):
        z = min(n, a + size)
        if z - a < size:
            del pieces[w * (z - a) :]  # the last, short write
        if number:
            pieces[::w] = map(number.format, range(a, z))
        for k, column, (above, below), s in zip(range(w - nb, w), columns, lookups, split):
            s = min(max(s, a), z)  # this chunk's rows from s on have no name before the column
            pieces[k : w * (s - a) : w] = map(above, column[a:s])
            pieces[k + w * (s - a) :: w] = map(below, column[s:z])
        if not a:
            pieces[0] = pieces[0][drop:]
        out.write("".join(pieces))


def write_cuts(q: QuiverWithCycles, out: TextIO) -> None:
    """Write the cuts of ``q`` to ``out`` in ``enumerate_cuts`` order, each a line of comma-joined names.

    Lines are written from the same table as ``enumerate_cuts``, as text
    rather than tuples, by ``_write_cut_rows``.  Neither a tuple of names
    per cut nor the whole text is built.  Warns like ``enumerate_cuts``
    when arrows lie in no distinguished cycle.
    """
    from .cuts import _cut_masks

    space = q.cut_space
    _write_cut_rows(out, space, space.table(_cut_masks(q)), ",", str, "", "\n")


def _write_edge_rows(out: TextIO, graph: MutationGraph, moves: Sequence[tuple], head: str, tails: list[str]) -> int:
    """Write a row per edge of ``moves`` to ``out``, by source and then in move order; return how many.

    A row is three pieces: ``head`` formatted with its source, its target's
    number, and its move's text in ``tails``.  The source columns of the
    moves are laid out once as a node-by-move grid of ``n * m`` bytes, the
    size of the columns themselves: ``compress`` reads each edge's move off
    it in row order, and ``count`` each node's out-degree, by which the
    node's opening text is repeated.  A move's k-th source goes to its k-th
    target, so each move is one stream of its targets' numbers.  Rows are
    written ``_ROWS`` at a time from the one list ``pieces``, refilled in
    place as ``_write_cut_rows`` refills its own: each piece of a row fills
    its places in a chunk by one strided slice assignment, so no edge runs
    Python code or makes a string of its own.  The first row is written
    less a leading ``","``.
    """
    n, m = graph.node_count, len(moves)
    grid = bytearray(n * m)
    for k, (*_, sources, _) in enumerate(moves):
        grid[k::m] = sources
    edges = grid.count(1)
    if not edges:
        return 0
    numbers = list(map(str, range(n)))
    streams = [compress(numbers, targets) for *_, targets in moves]
    at, of = tee(compress(cycle(range(m)), grid))
    degrees = map(grid.count, repeat(1), range(0, n * m, m), range(m, n * m + m, m))
    parts = (
        chain.from_iterable(map(repeat, map(head.format, numbers), degrees)),
        map(next, map(streams.__getitem__, at)),
        map(tails.__getitem__, of),
    )
    size = min(_ROWS, edges)
    pieces = [""] * (3 * size)
    for a in range(0, edges, size):
        z = min(edges, a + size)
        if z - a < size:
            del pieces[3 * (z - a) :]  # the last, short write
        for k, part in enumerate(parts):
            pieces[k::3] = islice(part, z - a)
        if not a:
            pieces[0] = pieces[0].removeprefix(",")
        out.write("".join(pieces))
    return edges


def mutation_graph_to_dot(graph: MutationGraph, out: TextIO, directed: bool = False) -> None:
    """Write the DOT export of a mutation graph to ``out``, a chunk of rows at a time.

    The default undirected view collapses each mutation and its inverse
    into one edge labelled by the mutation vertex, written from the end
    with the smaller index: only the moves that lead to later nodes are
    read.  ``directed`` keeps both labelled directions.  Node labels are
    written from the cut table as text, each name escaped once, and each
    move's label is built once.
    """
    kind, joiner = ("digraph", "->") if directed else ("graph", "--")
    out.write(f'{kind} "mutations" {{\n')
    _write_cut_rows(out, graph.space, graph.table, ",", _dot_escape, "", '"];\n', '  n{} [label="')
    if directed:
        moves = graph.moves
        tails = [f" [label={_dot_quote(f'mu{d} {v}')}];\n" for v, d, *_ in moves]
    else:
        moves = [move for move in graph.moves if move[2]]  # (vertex, direction, forward, sources, targets)
        tails = [f" [label={_dot_quote(v)}];\n" for v, *_ in moves]
    _write_edge_rows(out, graph, moves, f"  n{{}} {joiner} n", tails)
    out.write("}\n")


def mutation_graph_to_json(graph: MutationGraph, out: TextIO) -> None:
    """Write ``{"nodes": [...], "edges": [...]}`` to ``out``, as ``json.dumps(doc, indent=2)`` writes it.

    ``indent`` forces the pure-Python encoder, so the text is written here,
    a chunk of rows at a time.  Node rows are written from the cut table as
    text, each name quoted by ``_quote`` once; only a quiver without cycle
    arrows has the empty cut, its one node.  Each move's closing lines are
    built once.
    """
    tails = [f',\n      "vertex": {_quote(v)},\n      "direction": "{d}"\n    }}' for v, d, *_ in graph.moves]
    out.write('{\n  "nodes": [')
    if graph.space.cycle_mask:
        _write_cut_rows(out, graph.space, graph.table, ",\n      ", _quote, ",\n    [\n      ", "\n    ]", drop=1)
    else:  # no cycle: the cut-state DAG is its sink alone, so the one node is the empty cut
        out.write("\n    []")
    out.write('\n  ],\n  "edges": [' if graph.node_count else '],\n  "edges": [')
    edges = _write_edge_rows(out, graph, graph.moves, ',\n    {{\n      "source": {},\n      "target": ', tails)
    out.write("\n  ]\n}\n" if edges else "]\n}\n")
