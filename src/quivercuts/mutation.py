"""Cut-mutation and the mutation graph over all cuts.

A vertex is a strict source of ``(Q, C)`` when all its incoming arrows lie
in ``C`` and none of its outgoing arrows do; mutation at a strict source
swaps that incidence (remove incoming, add outgoing), and dually at strict
sinks.  Both operations send cuts to cuts and are mutually inverse.

The mutation graph has one node per cut and one labelled edge per single
mutation.  Transitivity of cut-mutation is connectivity of this graph.
Free arrows (arrows in no distinguished cycle) never belong to enumerated
cuts, so graph edges are computed in the subquiver spanned by cycle arrows;
for covered quivers this changes nothing.  Cuts are handled as bit masks
over the quiver's :class:`~quivercuts.model.CutSpace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cuts import Cut, enumerate_cuts, is_cut
from .model import ArrowId, CutSpace, QuiverWithCycles, VertexId


def _moves(space: CutSpace, keep: int) -> list[tuple[VertexId, int, int, str]]:
    """``(vertex, drop, add, direction)`` of every mutation, over the arrows in ``keep``.

    A source move ("+") drops a vertex's incoming arrows and adds its outgoing
    ones, a sink move ("-") the reverse.  A move applies to a cut mask ``m``
    when ``m & drop == drop and not m & add``, and yields ``(m & ~drop) | add``.
    """
    moves = []
    for v, (incoming, outgoing) in space.incidence.items():
        incoming &= keep
        outgoing &= keep
        if incoming | outgoing:
            moves += [(v, incoming, outgoing, "+"), (v, outgoing, incoming, "-")]
    return moves


def _strict(q: QuiverWithCycles, cut: Iterable[ArrowId], direction: str) -> dict[VertexId, int]:
    """Each vertex where ``cut`` mutates in ``direction``, mapped to the resulting mask."""
    members = frozenset(cut)
    if not is_cut(q, members):
        raise ValueError(f"not a cut: {sorted(members)}")
    m = q.cut_space.mask(members)
    return {
        v: (m & ~drop) | add
        for v, drop, add, d in _moves(q.cut_space, -1)
        if d == direction and m & drop == drop and not m & add
    }


def _mutate(q: QuiverWithCycles, cut: Cut, vertex: VertexId, direction: str) -> Cut:
    mutated = _strict(q, cut, direction).get(vertex)
    if mutated is None:
        kind = "source" if direction == "+" else "sink"
        raise ValueError(f"vertex {vertex!r} is not a strict {kind} of the cut")
    return frozenset(name for i, name in enumerate(q.cut_space.arrows) if mutated >> i & 1)


def strict_sources(q: QuiverWithCycles, cut: Cut) -> frozenset[VertexId]:
    """Vertices whose incoming arrows all lie in the cut and outgoing all outside."""
    return frozenset(_strict(q, cut, "+"))


def strict_sinks(q: QuiverWithCycles, cut: Cut) -> frozenset[VertexId]:
    """Vertices whose outgoing arrows all lie in the cut and incoming all outside."""
    return frozenset(_strict(q, cut, "-"))


def mutate_plus(q: QuiverWithCycles, cut: Cut, vertex: VertexId) -> Cut:
    """Mutation at a strict source: drop its incoming arrows, add its outgoing."""
    return _mutate(q, cut, vertex, "+")


def mutate_minus(q: QuiverWithCycles, cut: Cut, vertex: VertexId) -> Cut:
    """Mutation at a strict sink: drop its outgoing arrows, add its incoming."""
    return _mutate(q, cut, vertex, "-")


@dataclass(frozen=True)
class MutationEdge:
    source: int
    target: int
    vertex: VertexId
    direction: str  # "+" for source mutation, "-" for sink mutation


@dataclass(frozen=True)
class MutationGraph:
    """Nodes are cuts (as sorted arrow tuples); edges are single mutations.

    Every "+" edge has a matching "-" edge in reverse, so the undirected
    view collapses each such pair into one edge labelled by its vertex.
    """

    nodes: tuple[tuple[ArrowId, ...], ...]
    edges: tuple[MutationEdge, ...]

    def undirected_edges(self) -> tuple[tuple[int, int, VertexId], ...]:
        seen = {
            (min(e.source, e.target), max(e.source, e.target), e.vertex) for e in self.edges
        }
        return tuple(sorted(seen))

    def component_count(self) -> int:
        parent = list(range(len(self.nodes)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in self.edges:
            a, b = find(e.source), find(e.target)
            if a != b:
                parent[max(a, b)] = min(a, b)
        return len({find(i) for i in range(len(self.nodes))})

    @property
    def is_connected(self) -> bool:
        return len(self.nodes) == 0 or self.component_count() == 1


def mutation_graph(q: QuiverWithCycles) -> MutationGraph:
    """The graph of all cuts of ``q`` under single cut-mutations.

    All cuts are enumerated up front (discovery by mutation alone would hide
    non-transitive instances); edges are then computed node by node on the
    cuts' bit masks, restricted to cycle arrows.
    """
    cuts = enumerate_cuts(q)
    space = q.cut_space
    moves = _moves(space, space.cycle_mask)
    masks = [space.mask(cut) for cut in cuts]
    index = {m: i for i, m in enumerate(masks)}
    edges: list[MutationEdge] = []
    for i, m in enumerate(masks):
        row = sorted(
            (index[(m & ~drop) | add], v, direction)
            for v, drop, add, direction in moves
            if m & drop == drop and not m & add
        )
        edges.extend(MutationEdge(i, j, v, direction) for j, v, direction in row)
    return MutationGraph(tuple(tuple(sorted(cut)) for cut in cuts), tuple(edges))


def is_transitive(q: QuiverWithCycles) -> bool:
    """True iff successive cut-mutations reach every cut from every other."""
    return mutation_graph(q).is_connected
