"""Tensor products of labelled quivers and their distinguished cycles.

Vertices of the product are pairs.  Arrows come in three classes: vertical
(a vertex of the left factor times an arrow of the right), horizontal (an
arrow of the left times a vertex of the right) and diagonal (a reversed
pair of arrows, running from the targets' pair back to the sources' pair).
Every arrow pair (a, b) contributes two 3-cycles, one through each corner
of its square, carrying opposite signs.  The three arrow classes are the
standard cuts of the product.

Vertex labels distinguish the base division algebra (``Base``) from a
fixed extension (``Ext``); the label's ``split_count`` records into how
many simple blocks the extension's self-product decomposes.  Splitting a
product vertex labelled Ext-Ext into that many copies, keeping only the
diagonal copies of arrows between split vertices, is the Morita reduction
of the product to a basic one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .cuts import Cut
from .model import Arrow, ArrowId, Cycle, Quiver, QuiverWithCycles, VertexId

DYNKIN_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


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

# Vertex labels per vertex position, by family.  Unlisted families are all Base.
_EXT_VERTICES = {
    "B": lambda rank: set(range(2, rank + 1)),
    "C": lambda rank: {1},
    "F": lambda rank: {1, 2},
    "G": lambda rank: {1},
}

_RANK_RULES = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


def diagram_edges(family: str, rank: int) -> list[tuple[VertexId, VertexId]]:
    """Undirected diagram edges as (low, high) vertex-name pairs."""
    if family in ("A", "B", "C", "F", "G"):
        return [(str(i), str(i + 1)) for i in range(1, rank)]
    if family == "D":
        edges = [("1", "3"), ("2", "3")]
        edges += [(str(i), str(i + 1)) for i in range(3, rank)]
        return edges
    if family == "E":
        edges = [(str(i), str(i + 1)) for i in range(1, rank - 1)]
        edges.append(("3", str(rank)))
        return edges
    raise ValueError(f"unknown Dynkin family {family!r}")


def default_orientation(family: str, rank: int) -> frozenset[tuple[VertexId, VertexId]]:
    """Linear families ascend; forked families point their tips inward.

    For D the two tines flow into the branch vertex and the tail ascends.
    For E both ends of the numbering path flow into the branch vertex 3 and
    the branch edge ascends (for E6: 1->2->3<-4<-5, 3->6), the orientation
    of the worked tensor examples; tensor cut counts are sensitive to this
    choice on forked diagrams.
    """
    arrows = []
    for u, v in diagram_edges(family, rank):
        if family == "E" and v != str(rank) and int(u) >= 3:
            arrows.append((v, u))  # the long arm: ... -> 4 -> 3
        else:
            arrows.append((u, v))
    return frozenset(arrows)


@dataclass(frozen=True)
class LabeledDynkinSpec:
    family: str
    rank: int
    orientation: frozenset[tuple[VertexId, VertexId]]

    def __post_init__(self) -> None:
        if self.family not in DYNKIN_FAMILIES:
            raise ValueError(f"unknown Dynkin family {self.family!r}")
        if not _RANK_RULES[self.family](self.rank):
            raise ValueError(f"illegal rank {self.rank} for family {self.family}")
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


_SPEC_RE = re.compile(r"^([A-G])(\d+)(?::(.+))?$")


def parse_dynkin_spec(text: str) -> LabeledDynkinSpec:
    """Parse the command-line mini-grammar ``FAMILY RANK[:orientation]``.

    The orientation is a comma-separated list of chains such as ``1<2>3``,
    where ``i>j`` directs the edge from i to j and ``i<j`` from j to i.
    Omitting it selects the default orientation.
    """
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse Dynkin spec {text!r} (expected e.g. 'A3' or 'B2:1>2')")
    family, rank = m.group(1), int(m.group(2))
    if m.group(3) is None:
        return dynkin_spec(family, rank)
    arrows: set[tuple[VertexId, VertexId]] = set()
    for chain in m.group(3).split(","):
        tokens = re.findall(r"\d+|[<>]|[^\d<>]+", chain)
        if not tokens or len(tokens) % 2 == 0 or any(
            (t in "<>") != (i % 2 == 1) for i, t in enumerate(tokens)
        ):
            raise ValueError(f"malformed orientation chain {chain!r}")
        for i in range(1, len(tokens), 2):
            u, op, v = tokens[i - 1], tokens[i], tokens[i + 1]
            arrows.add((u, v) if op == ">" else (v, u))
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
    ext = {str(i) for i in _EXT_VERTICES.get(spec.family, lambda r: set())(spec.rank)}
    labels = {v: DivisionLabel("Ext", split_count) if v in ext else BASE for v in vertices}
    arrows = tuple(
        Arrow(f"{u}-{v}", u, v, label="G" if (u in ext or v in ext) else "F")
        for u, v in sorted(spec.orientation, key=lambda e: (int(e[0]), int(e[1])))
    )
    return LabeledQuiver(Quiver(vertices, arrows), labels)


@dataclass(frozen=True)
class TensorProvenance:
    """The three arrow classes of a tensor product as sorted name tuples, tracked through splits."""

    vertical: Cut
    horizontal: Cut
    diagonal: Cut


@dataclass(frozen=True)
class LabeledQuiverWithCycles:
    """A quiver with cycles plus per-vertex label tuples.

    Label tuples have length 1 for plain labelled quivers and length 2 for
    tensor products (one factor label each).  The mapping may be partial
    for values read from documents without labels.
    """

    qwc: QuiverWithCycles
    labels: Mapping[VertexId, tuple[DivisionLabel, ...]]
    provenance: TensorProvenance | None = None


def _pair(i: VertexId, j: VertexId) -> VertexId:
    return f"{i},{j}"


def tensor_qwc(left: LabeledQuiver, right: LabeledQuiver) -> LabeledQuiverWithCycles:
    """The tensor-product quiver with cycles of two labelled quivers.

    Arrow counts follow the product structure:
    ``|Q1| = |L0||R1| + |L1||R0| + |L1||R1|`` and ``|Q2| = 2 |L1||R1]``.
    """
    vertices = tuple(_pair(i, j) for i in left.quiver.vertices for j in right.quiver.vertices)
    arrows: list[Arrow] = []
    vertical: set[ArrowId] = set()
    horizontal: set[ArrowId] = set()
    diagonal: set[ArrowId] = set()
    for i in left.quiver.vertices:
        for b in right.quiver.arrows:
            name = f"v:{i}:{b.name}"
            arrows.append(Arrow(name, _pair(i, b.source), _pair(i, b.target)))
            vertical.add(name)
    for a in left.quiver.arrows:
        for j in right.quiver.vertices:
            name = f"h:{a.name}:{j}"
            arrows.append(Arrow(name, _pair(a.source, j), _pair(a.target, j)))
            horizontal.add(name)
    cycles: list[Cycle] = []
    for a in left.quiver.arrows:
        for b in right.quiver.arrows:
            name = f"d:{a.name}:{b.name}"
            arrows.append(Arrow(name, _pair(a.target, b.target), _pair(a.source, b.source)))
            diagonal.add(name)
            # up the right factor, across the left, back along the diagonal
            cycles.append(Cycle((f"v:{a.source}:{b.name}", f"h:{a.name}:{b.target}", name), 1))
            # across the left factor first, then up, carrying the minus sign
            cycles.append(Cycle((f"h:{a.name}:{b.source}", f"v:{a.target}:{b.name}", name), -1))
    labels = {
        _pair(i, j): (left.labels[i], right.labels[j])
        for i in left.quiver.vertices
        for j in right.quiver.vertices
    }
    qwc = QuiverWithCycles(Quiver(vertices, tuple(arrows)), tuple(cycles))
    provenance = TensorProvenance(tuple(sorted(vertical)), tuple(sorted(horizontal)), tuple(sorted(diagonal)))
    return LabeledQuiverWithCycles(qwc, labels, provenance)


def standard_cuts(t: LabeledQuiverWithCycles) -> tuple[Cut, Cut, Cut]:
    """The vertical, horizontal and diagonal arrow classes, each a cut."""
    if t.provenance is None:
        raise ValueError("standard cuts exist only for tensor-product quivers")
    p = t.provenance
    return p.vertical, p.horizontal, p.diagonal


def morita_split(t: LabeledQuiverWithCycles) -> LabeledQuiverWithCycles:
    """Split every Ext-Ext product vertex into its simple-block copies.

    Each such vertex becomes ``split_count`` copies; arrows replicate over
    all copy pairs of their endpoints except between two split vertices,
    where only the diagonal copies survive.  Distinguished cycles lift to
    every closed chain of arrow copies, keeping their signs; the lifts grow
    an arrow at a time along the copies that exist, so the work follows the
    number of lifts rather than of copy assignments.  Without Ext-Ext
    vertices the value is returned unchanged.
    """
    split = {
        v: lab
        for v, lab in t.labels.items()
        if len(lab) == 2 and lab[0].kind == "Ext" and lab[1].kind == "Ext"
    }
    counts = sorted({lab.split_count for pair in split.values() for lab in pair})
    if len(counts) > 1:
        raise ValueError(f"inconsistent split counts among Ext-Ext vertices: {counts}")
    n = counts[0] if counts else 1
    if not split or n == 1:
        return t

    quiver = t.qwc.quiver
    multiplicity = {v: n if v in split else 1 for v in quiver.vertices}

    def copy_vertex(v: VertexId, k: int) -> VertexId:
        return f"{v}.{k}" if v in split else v

    vertices = tuple(
        copy_vertex(v, k) for v in quiver.vertices for k in range(1, multiplicity[v] + 1)
    )
    labels = {
        copy_vertex(v, k): t.labels[v]
        for v in quiver.vertices
        if v in t.labels
        for k in range(1, multiplicity[v] + 1)
    }

    arrows: list[Arrow] = []
    lifts: dict[tuple[ArrowId, int], list[tuple[int, ArrowId]]] = {}  # (arrow, source copy) -> its copies
    replicas: dict[ArrowId, list[ArrowId]] = {}
    for a in quiver.arrows:
        ms, mt = multiplicity[a.source], multiplicity[a.target]
        both_split = a.source in split and a.target in split
        for k in range(1, ms + 1):
            for k2 in (k,) if both_split else range(1, mt + 1):  # the off-diagonal blocks vanish
                name = a.name if ms == 1 and mt == 1 else f"{a.name}.{k}.{k2}"
                arrows.append(Arrow(name, copy_vertex(a.source, k), copy_vertex(a.target, k2), a.label))
                lifts.setdefault((a.name, k), []).append((k2, name))
                replicas.setdefault(a.name, []).append(name)

    cycles: list[Cycle] = []
    for cycle in t.qwc.cycles:
        # (starting copy, copy reached, arrows so far), extended along the arrow copies that exist;
        # starting at a station of fewest copies, every partial lift closes up
        stations = [multiplicity[quiver.arrow(name).source] for name in cycle.arrows]
        start = stations.index(min(stations))
        partial = [(k, k, ()) for k in range(1, stations[start] + 1)]
        for name in cycle.arrows[start:] + cycle.arrows[:start]:
            partial = [
                (k0, k2, names + (lifted,)) for k0, k, names in partial for k2, lifted in lifts.get((name, k), ())
            ]
        cycles += [Cycle(names, cycle.sign) for k0, k, names in partial if k == k0]

    provenance = None
    if t.provenance is not None:
        def lift(cls: Cut) -> Cut:
            return tuple(sorted(name for old in cls for name in replicas.get(old, ())))

        provenance = TensorProvenance(
            lift(t.provenance.vertical),
            lift(t.provenance.horizontal),
            lift(t.provenance.diagonal),
        )
    qwc = QuiverWithCycles(Quiver(vertices, tuple(arrows)), tuple(cycles))
    return LabeledQuiverWithCycles(qwc, labels, provenance)
