"""Tensor products of labelled quivers and their distinguished cycles.

Vertices of the product are pairs.  Arrows come in three classes: vertical
(a vertex of the left factor times an arrow of the right), horizontal (an
arrow of the left times a vertex of the right) and diagonal (a reversed
pair of arrows, running from the targets' pair back to the sources' pair).
Every arrow pair (a, b) contributes two 3-cycles, one through each corner
of its square, carrying opposite signs.  The three arrow classes are the
standard cuts of the product.

An arrow's name records its class, and :func:`standard_cuts` reads the
classes back from the names alone, so they survive a document round trip:
``v:{i}:{b}`` for vertex ``i`` of the left factor times arrow ``b`` of the
right, ``h:{a}:{j}`` for arrow ``a`` of the left times vertex ``j`` of the
right, and ``d:{a}:{b}`` for the diagonal of the pair.  A Morita split
names the copy of an arrow from source copy ``k`` to target copy ``k2``
by appending ``.{k}.{k2}``.

Vertex labels distinguish the base division algebra (``Base``) from a
fixed extension (``Ext``); the label's ``split_count`` records into how
many simple blocks the extension's self-product decomposes.  Splitting a
product vertex labelled Ext-Ext into that many copies, keeping only the
diagonal copies of arrows between split vertices, is the Morita reduction
of the product to a basic one.

The Dynkin catalogue lives in one table, ``_FAMILIES``: each family's legal
ranks and Ext vertices (B at 2..n, C at 1, F at 1 and 2, G at 1), read at
the one check, ``_check_spec``, that every spec passes before its edges
or default orientation are built.  The rule that collapses a product
vertex's pair of factor labels into the one label of its algebra is
``_product_label``, next to :func:`morita_split`, the other reader of pair
labels; documents are written through it.  ``MAX_CELLS`` bounds the
vertices, arrows and cycles of a spec, a product and a split, each checked
from the counts it is built from before anything of that size is built.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from math import inf

from .model import Arrow, ArrowId, Cycle, Quiver, QuiverWithCycles, VertexId

TYPE_CHECKING = False
if TYPE_CHECKING:  # for an annotation only: building a product never loads cuts
    from .cuts import Cut


@dataclass(frozen=True)
class DivisionLabel:
    kind: str  # "Base" | "Ext"
    split_count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("Base", "Ext"):
            raise ValueError(f"label kind must be 'Base' or 'Ext', got {self.kind!r}")
        if self.split_count < 1:
            raise ValueError("split_count must be a positive integer")
        if self.kind == "Base" and self.split_count != 1:
            raise ValueError("a Base label never splits")


BASE = DivisionLabel("Base")

# The most vertices, arrows and cycles, together, that a Dynkin spec, a product or a Morita split may
# have, each checked before anything of that size is built.  A product this size takes about 80 MB to
# build and write; A16 x A16 has 1,411.
MAX_CELLS = 100_000
_TOO_LARGE = f"{{}} is too large: more than {MAX_CELLS} vertices, arrows and cycles"

# The Dynkin catalogue, each family once: its least and greatest legal rank,
# and its Ext vertex positions at rank r (every other vertex is Base).
_FAMILIES = {
    "A": (1, inf, lambda r: ()),
    "B": (2, inf, lambda r: range(2, r + 1)),
    "C": (2, inf, lambda r: (1,)),
    "D": (4, inf, lambda r: ()),
    "E": (6, 8, lambda r: ()),
    "F": (4, 4, lambda r: (1, 2)),
    "G": (2, 2, lambda r: (1,)),
}


def _bound(what: str, cells: int) -> None:
    if cells > MAX_CELLS:
        raise ValueError(_TOO_LARGE.format(what))


def _check_spec(family: str, rank: int) -> Iterable[int]:
    """The Ext positions of a spec, after the one check of its family and rank every spec passes.

    Raises ``ValueError`` for a family not in ``_FAMILIES``, a rank the
    family does not have, or a diagram of more than ``MAX_CELLS`` vertices
    and arrows, before anything of the diagram's size is built.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown Dynkin family {family!r}")
    least, most, ext = _FAMILIES[family]
    if not least <= rank <= most:
        raise ValueError(f"illegal rank {rank} for family {family}")
    _bound(f"{family}{rank}", 2 * rank - 1)
    return ext(rank)


def diagram_edges(family: str, rank: int) -> list[tuple[VertexId, VertexId]]:
    """Undirected diagram edges as (low, high) vertex-name pairs, after the family and rank check."""
    _check_spec(family, rank)
    edges = [(str(i), str(i + 1)) for i in range(1, rank)]
    if family == "D":
        edges[0] = ("1", "3")  # both tines, 1 and 2, meet the branch vertex 3
    elif family == "E":
        edges[-1] = ("3", str(rank))  # the last vertex hangs off the branch vertex 3
    return edges


def default_orientation(family: str, rank: int) -> frozenset[tuple[VertexId, VertexId]]:
    """Linear families ascend; forked families point their tips inward.

    For D the two tines flow into the branch vertex and the tail ascends.
    For E both ends of the numbering path flow into the branch vertex 3 and
    the branch edge ascends (for E6: 1->2->3<-4<-5, 3->6), the orientation
    of the worked tensor examples; tensor cut counts are sensitive to this
    choice on forked diagrams.
    """
    return frozenset(  # E's long arm runs ... -> 4 -> 3
        (v, u) if family == "E" and v != str(rank) and int(u) >= 3 else (u, v) for u, v in diagram_edges(family, rank)
    )


@dataclass(frozen=True)
class LabeledDynkinSpec:
    family: str
    rank: int
    orientation: frozenset[tuple[VertexId, VertexId]]

    def __post_init__(self) -> None:
        undirected = {frozenset(e) for e in diagram_edges(self.family, self.rank)}
        oriented = {frozenset(e) for e in self.orientation}
        if len(oriented) != len(self.orientation):
            raise ValueError("orientation directs an edge both ways")
        if oriented != undirected:
            raise ValueError("orientation must direct every diagram edge exactly once")


def dynkin_spec(
    family: str, rank: int, orientation: frozenset[tuple[VertexId, VertexId]] | None = None
) -> LabeledDynkinSpec:
    if orientation is None:
        orientation = default_orientation(family, rank)
    return LabeledDynkinSpec(family, rank, frozenset(orientation))


_SPEC_RE = re.compile(r"([A-G])(\d+)(?::(.+))?")
_CHAIN_RE = re.compile(r"\d+(?:[<>]\d+)*")


def parse_dynkin_spec(text: str) -> LabeledDynkinSpec:
    """Parse the command-line mini-grammar ``FAMILY RANK[:orientation]``.

    The orientation is a comma-separated list of chains such as ``1<2>3``,
    where ``i>j`` directs the edge from i to j and ``i<j`` from j to i.
    Omitting it selects the default orientation.
    """
    m = _SPEC_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse Dynkin spec {text!r} (expected e.g. 'A3' or 'B2:1>2')")
    family, digits, chains = m.groups()
    try:
        rank = int(digits)
    except ValueError:  # more digits than int() converts
        raise ValueError(_TOO_LARGE.format(f"{family} of a {len(digits)}-digit rank")) from None
    if chains is None:
        return dynkin_spec(family, rank)
    arrows: set[tuple[VertexId, VertexId]] = set()
    for chain in chains.split(","):
        if not _CHAIN_RE.fullmatch(chain):
            raise ValueError(f"malformed orientation chain {chain!r}")
        parts = re.split("([<>])", chain)  # vertex, sign, vertex, ..., vertex
        arrows.update((u, v) if op == ">" else (v, u) for u, op, v in zip(parts[::2], parts[1::2], parts[2::2]))
    return dynkin_spec(family, rank, frozenset(arrows))


@dataclass(frozen=True)
class LabeledQuiver:
    """A quiver with one division-algebra label per vertex."""

    quiver: Quiver
    labels: Mapping[VertexId, DivisionLabel]


def dynkin_quiver(spec: LabeledDynkinSpec, split_count: int = 2) -> LabeledQuiver:
    """The labelled quiver of a Dynkin species.

    ``split_count`` is attached to every Ext label; it is the number of
    simple blocks of the extension's self-product (2 for a quadratic
    extension) and only matters once products are Morita-split.
    """
    vertices = tuple(str(i) for i in range(1, spec.rank + 1))
    ext = {str(i) for i in _check_spec(spec.family, spec.rank)}
    labels = {v: DivisionLabel("Ext", split_count) if v in ext else BASE for v in vertices}
    ordered = sorted(spec.orientation, key=lambda e: (int(e[0]), int(e[1])))
    arrows = tuple(Arrow(f"{u}-{v}", u, v) for u, v in ordered)
    return LabeledQuiver(Quiver(vertices, arrows), labels)


@dataclass(frozen=True)
class LabeledQuiverWithCycles:
    """A quiver with cycles plus per-vertex label tuples.

    Label tuples have length 1 for plain labelled quivers and length 2 for
    tensor products (one factor label each).  The mapping may be partial
    for values read from documents without labels.  A tensor product's
    arrow classes live in its arrow names (see the module docstring).
    """

    qwc: QuiverWithCycles
    labels: Mapping[VertexId, tuple[DivisionLabel, ...]]


def _pair(i: VertexId, j: VertexId) -> VertexId:
    return f"{i},{j}"


def tensor_qwc(left: LabeledQuiver, right: LabeledQuiver) -> LabeledQuiverWithCycles:
    """The tensor-product quiver with cycles of two labelled quivers.

    Arrow counts follow the product structure:
    ``|Q1| = |L0||R1| + |L1||R0| + |L1||R1|`` and ``|Q2| = 2 |L1||R1|``.
    Raises ``ValueError``, before building anything, when the product
    would exceed ``MAX_CELLS``.
    """
    (nl, al), (nr, ar) = [(len(f.quiver.vertices), len(f.quiver.arrows)) for f in (left, right)]
    _bound("the product", nl * nr + nl * ar + al * nr + 3 * al * ar)
    vertices = tuple(_pair(i, j) for i in left.quiver.vertices for j in right.quiver.vertices)
    arrows: list[Arrow] = []
    for i in left.quiver.vertices:
        for b in right.quiver.arrows:
            arrows.append(Arrow(f"v:{i}:{b.name}", _pair(i, b.source), _pair(i, b.target)))
    for a in left.quiver.arrows:
        for j in right.quiver.vertices:
            arrows.append(Arrow(f"h:{a.name}:{j}", _pair(a.source, j), _pair(a.target, j)))
    cycles: list[Cycle] = []
    for a in left.quiver.arrows:
        for b in right.quiver.arrows:
            name = f"d:{a.name}:{b.name}"
            arrows.append(Arrow(name, _pair(a.target, b.target), _pair(a.source, b.source)))
            # up the right factor, across the left, back along the diagonal
            cycles.append(Cycle((f"v:{a.source}:{b.name}", f"h:{a.name}:{b.target}", name), 1))
            # across the left factor first, then up, carrying the minus sign
            cycles.append(Cycle((f"h:{a.name}:{b.source}", f"v:{a.target}:{b.name}", name), -1))
    labels = {
        _pair(i, j): (left.labels[i], right.labels[j])
        for i in left.quiver.vertices
        for j in right.quiver.vertices
    }
    return LabeledQuiverWithCycles(QuiverWithCycles(Quiver(vertices, tuple(arrows)), tuple(cycles)), labels)


def standard_cuts(t: LabeledQuiverWithCycles) -> tuple[Cut, Cut, Cut]:
    """The vertical, horizontal and diagonal arrow classes, each a sorted cut.

    Each arrow is filed by the class prefix of its name (``v``, ``h`` or
    ``d`` before the first ``:``), so a parsed product document has the same
    standard cuts as the value it was written from.  Raises ``ValueError``
    when an arrow carries no class prefix or a class is not a cut.
    """
    from .cuts import _cut_members

    classes: dict[str, list[ArrowId]] = {"v": [], "h": [], "d": []}
    for a in t.qwc.quiver.arrows:  # sorted by name, so each class comes out sorted
        prefix, colon, _ = a.name.partition(":")
        if not colon or prefix not in classes:
            raise ValueError("standard cuts exist only for tensor-product quivers")
        classes[prefix].append(a.name)
    cuts = tuple(tuple(names) for names in classes.values())
    for cut in cuts:
        _cut_members(t.qwc, cut)
    return cuts


def _product_label(labels: tuple[DivisionLabel, ...]) -> DivisionLabel:
    """The one label of a vertex's algebra: a pair of factor labels collapses, a single label stands.

    Base with Base is Base; Ext with Ext is Ext, keeping the left factor's
    split count; one Ext factor keeps the product a division algebra, so
    the mixed pair is an Ext that never splits.
    """
    kinds = {lab.kind for lab in labels}
    return labels[0] if len(kinds) == 1 else DivisionLabel("Ext")


def morita_split(t: LabeledQuiverWithCycles) -> LabeledQuiverWithCycles:
    """Split every Ext-Ext product vertex into its simple-block copies.

    Each such vertex becomes ``split_count`` copies; arrows replicate over
    all copy pairs of their endpoints except between two split vertices,
    where only the diagonal copies survive.  Distinguished cycles lift to
    every closed chain of arrow copies, keeping their signs; the lifts grow
    an arrow at a time along the copies that exist, so the work follows the
    number of lifts rather than of copy assignments.  Without Ext-Ext
    vertices the value is returned unchanged.  Raises ``ValueError`` when
    the split would exceed ``MAX_CELLS``, before any copy is built.
    """
    split = {v: lab for v, lab in t.labels.items() if len(lab) == 2 and lab[0].kind == lab[1].kind == "Ext"}
    counts = sorted({lab.split_count for pair in split.values() for lab in pair})
    if len(counts) > 1:
        raise ValueError(f"inconsistent split counts among Ext-Ext vertices: {counts}")
    n = counts[0] if counts else 1
    if not split or n == 1:
        return t

    quiver = t.qwc.quiver

    def lift_count(cycle: Cycle) -> int:  # n to the number of runs of split stations around the cycle
        marks = [quiver.arrow(name).source in split for name in cycle.arrows]
        return n ** max(sum(m > p for m, p in zip(marks, marks[-1:] + marks[:-1])), all(marks))

    copied = len(split) + sum(a.source in split or a.target in split for a in quiver.arrows)  # n copies each
    cells = len(quiver.vertices) + len(quiver.arrows) + (n - 1) * copied + sum(map(lift_count, t.qwc.cycles))
    _bound(f"the split into {n} copies", cells)

    copies = {v: [f"{v}.{k}" for k in range(1, n + 1)] if v in split else [v] for v in quiver.vertices}
    vertices = tuple(c for v in quiver.vertices for c in copies[v])
    labels = {c: t.labels[v] for v in quiver.vertices if v in t.labels for c in copies[v]}

    arrows: list[Arrow] = []
    lifts: dict[tuple[ArrowId, int], list[tuple[int, ArrowId]]] = {}  # (arrow, source copy) -> its copies
    for a in quiver.arrows:
        sources, targets = copies[a.source], copies[a.target]
        for k, source in enumerate(sources, 1):
            # the off-diagonal blocks between two split vertices vanish
            ends = [(k, targets[k - 1])] if len(sources) == len(targets) == n else enumerate(targets, 1)
            for k2, target in ends:
                name = a.name if len(sources) == len(targets) == 1 else f"{a.name}.{k}.{k2}"
                arrows.append(Arrow(name, source, target))
                lifts.setdefault((a.name, k), []).append((k2, name))

    cycles: list[Cycle] = []
    for cycle in t.qwc.cycles:
        # (starting copy, copy reached, arrows so far), extended along the arrow copies that exist;
        # starting at a station of fewest copies, every partial lift closes up
        stations = [len(copies[quiver.arrow(name).source]) for name in cycle.arrows]
        start = stations.index(min(stations))
        partial = [(k, k, ()) for k in range(1, stations[start] + 1)]
        for name in cycle.arrows[start:] + cycle.arrows[:start]:
            partial = [
                (k0, k2, names + (lifted,)) for k0, k, names in partial for k2, lifted in lifts.get((name, k), ())
            ]
        cycles += [Cycle(names, cycle.sign) for k0, k, names in partial if k == k0]

    return LabeledQuiverWithCycles(QuiverWithCycles(Quiver(vertices, tuple(arrows)), tuple(cycles)), labels)
