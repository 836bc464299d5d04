"""Cut-mutation and the mutation graph over all cuts.

A vertex is a strict source of ``(Q, C)`` when all its incoming arrows lie
in ``C`` and none of its outgoing arrows do; mutation at a strict source
swaps that incidence (remove incoming, add outgoing), and dually at strict
sinks.  Both operations send cuts to cuts and are mutually inverse.

The mutation graph has one node per cut and one edge per single mutation,
a plain ``(source, target, vertex, direction)`` tuple.  Transitivity of
cut-mutation is connectivity of this graph.
Free arrows (arrows in no distinguished cycle) never belong to enumerated
cuts, so graph edges are computed in the subquiver spanned by cycle arrows;
for covered quivers this changes nothing.  Cuts are handled as bit masks
over the quiver's :class:`~quivercuts.model.CutSpace`, the masks the cut
listing sorts, and turned into names only by its ``decode``.  Every
mutation at a declared vertex is precomputed once as a move, from the
masks of the vertex's incoming and outgoing arrows: one mask test says
whether it applies to a cut, and one exclusive or gives the mutated cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cuts import Cut, _cut_mask, _cut_masks, _warn_if_uncovered
from .model import ArrowId, QuiverWithCycles, VertexId


def _moves(q: QuiverWithCycles, keep: int) -> list[tuple[int, int, VertexId, str]]:
    """``(flip, drop, vertex, direction)`` of every mutation at a declared vertex, over the arrows in ``keep``.

    A source move ("+") drops a vertex's incoming arrows and adds its outgoing
    ones, a sink move ("-") the reverse; ``flip`` is ``drop | add``.  A move
    applies to a cut mask ``m`` when ``m & flip == drop``, and yields
    ``m ^ flip``.  A loop lies in both ``drop`` and ``add``, so its vertex is
    never strict: such moves are left out, since the one test would pass them.
    An arrow to an undeclared vertex counts only at its declared end.

    The moves come by ``add - drop`` descending, then by vertex and direction,
    so the moves that apply to any one cut yield its mutations in descending
    mask order, which is ascending order of the cuts they reach.  When a move
    applies to ``m``, ``m ^ flip == m - drop + add``, so its targets compare as
    ``add - drop`` does, whatever ``m`` is.  Two moves that apply to ``m`` and
    reach one target have one ``flip``, hence one ``drop = m & flip`` and one
    ``add``, and the vertex and direction order those.
    """
    space, incident = q.cut_space, q.quiver.incident
    moves = []
    for v in set(q.quiver.vertices):  # the sort below orders the moves
        incoming = space.mask(a.name for a in incident[v] if a.target == v) & keep
        outgoing = space.mask(a.name for a in incident[v] if a.source == v) & keep
        if (incoming or outgoing) and not incoming & outgoing:
            flip = incoming | outgoing
            moves += [(flip, incoming, v, "+"), (flip, outgoing, v, "-")]
    moves.sort(key=lambda move: (2 * move[1] - move[0], move[2], move[3]))  # drop - add = 2 drop - flip
    return moves


def _strict(q: QuiverWithCycles, cut: Iterable[ArrowId], direction: str) -> dict[VertexId, int]:
    """Each vertex where ``cut`` mutates in ``direction``, mapped to the resulting mask."""
    m = _cut_mask(q, cut)
    return {v: m ^ flip for flip, drop, v, d in _moves(q, -1) if d == direction and m & flip == drop}


def _mutate(q: QuiverWithCycles, cut: Iterable[ArrowId], vertex: VertexId, direction: str) -> Cut:
    mutated = _strict(q, cut, direction).get(vertex)
    if mutated is None:
        kind = "source" if direction == "+" else "sink"
        raise ValueError(f"vertex {vertex!r} is not a strict {kind} of the cut")
    return sum(next(q.cut_space.decode([mutated], tuple)), ())


def strict_sources(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> frozenset[VertexId]:
    """Vertices whose incoming arrows all lie in the cut and outgoing all outside."""
    return frozenset(_strict(q, cut, "+"))


def strict_sinks(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> frozenset[VertexId]:
    """Vertices whose outgoing arrows all lie in the cut and incoming all outside."""
    return frozenset(_strict(q, cut, "-"))


def mutate_plus(q: QuiverWithCycles, cut: Iterable[ArrowId], vertex: VertexId) -> Cut:
    """Mutation at a strict source: drop its incoming arrows, add its outgoing."""
    return _mutate(q, cut, vertex, "+")


def mutate_minus(q: QuiverWithCycles, cut: Iterable[ArrowId], vertex: VertexId) -> Cut:
    """Mutation at a strict sink: drop its outgoing arrows, add its incoming."""
    return _mutate(q, cut, vertex, "-")


@dataclass(frozen=True)
class MutationGraph:
    """Nodes are the cuts in :func:`~quivercuts.cuts.enumerate_cuts` order; edges are single mutations.

    Each edge is a plain tuple ``(source, target, vertex, direction)``:
    node indices, the mutation vertex, and "+" for a source mutation or "-"
    for a sink mutation.  ``edges`` is sorted.  Each labelled pair of cuts
    is joined by exactly two edges, one leaving each end, because mutation
    at a vertex is an involution that swaps "+" and "-", it never fixes a
    cut, and no vertex with cycle arrows is both a strict source and a
    strict sink of one cut.  So the edges with ``source < target`` name
    every labelled pair once, in sorted order.
    """

    nodes: tuple[Cut, ...]
    edges: tuple[tuple[int, int, VertexId, str], ...]

    def undirected_edges(self) -> tuple[tuple[int, int, VertexId], ...]:
        return tuple((i, j, v) for i, j, v, _ in self.edges if i < j)

    def component_count(self) -> int:
        parent = list(range(len(self.nodes)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j, _ in self.undirected_edges():
            a, b = find(i), find(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
        return len({find(i) for i in range(len(self.nodes))})

    @property
    def is_connected(self) -> bool:
        return len(self.nodes) == 0 or self.component_count() == 1


def mutation_graph(q: QuiverWithCycles) -> MutationGraph:
    """The graph of all cuts of ``q`` under single cut-mutations.

    All cuts are listed up front as masks (discovery by mutation alone would
    hide non-transitive instances); edges are then computed node by node on
    those masks, restricted to cycle arrows, one mask test per move, in the
    order of the moves, which is already the sorted order, and the nodes are
    decoded from the same masks.
    """
    _warn_if_uncovered(q)
    space = q.cut_space
    moves = _moves(q, space.cycle_mask)
    masks = _cut_masks(space)
    index = {m: i for i, m in enumerate(masks)}
    edges: list[tuple[int, int, VertexId, str]] = []
    for i, m in enumerate(masks):
        edges += [(i, index[m ^ flip], v, d) for flip, drop, v, d in moves if m & flip == drop]
    nodes = tuple(sum(parts, ()) for parts in space.decode(masks, tuple))
    return MutationGraph(nodes, tuple(edges))


def is_transitive(q: QuiverWithCycles) -> bool:
    """True iff successive cut-mutations reach every cut from every other."""
    return mutation_graph(q).is_connected
