"""Cut-mutation and the mutation graph over all cuts.

Strictness is judged on the cycle arrows alone.  A vertex is a strict
source of ``(Q, C)`` when all its incoming cycle arrows lie in ``C`` and
none of its outgoing ones do; mutation at a strict source swaps that
incidence (remove incoming, add outgoing), and dually at strict sinks.
Free arrows (arrows in no distinguished cycle) are inert: they lie in no
enumerated cut, and a set that holds them keeps them through mutation.
Both operations send cuts to cuts and are mutually inverse.

The mutation graph has one node per cut and one edge per single mutation,
a plain ``(source, target, vertex, direction)`` tuple.  Transitivity of
cut-mutation is connectivity of this graph, and the operations on one cut
take every node along its edges.
A vertex is held as the names of its incoming and outgoing cycle arrows,
and one cut is mutated as a set of names.  The graph lays all cuts out as
one table of the quiver's :class:`~quivercuts.model.CutSpace` and reads a
vertex's arrows from it as columns, which find all the cuts where it is a
strict source or sink; mutation pairs the two in order.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter

from .cuts import Cut, _cut_masks, _cut_members
from .model import ArrowId, QuiverWithCycles, VertexId


def _sides(q: QuiverWithCycles) -> list[tuple[VertexId, list[ArrowId], list[ArrowId]]]:
    """``(vertex, incoming, outgoing)`` cycle arrow names of every declared vertex that can mutate.

    One pass over the arrows, skipping those in no cycle.  An arrow to an
    undeclared vertex counts only at its declared end.  A vertex without
    cycle arrows is left out, and so is one with a loop, which lies on both
    sides: it would have to be in the cut and out.
    """
    space = q.cut_space
    sides: dict[VertexId, tuple[list[ArrowId], list[ArrowId]]] = {v: ([], []) for v in q.quiver.vertices}
    for a in q.quiver.arrows:
        if not space.cycles_of[space.at[a.name]]:
            continue
        if a.target in sides:
            sides[a.target][0].append(a.name)
        if a.source in sides:
            sides[a.source][1].append(a.name)
    return [(v, ins, outs) for v, (ins, outs) in sides.items() if (ins or outs) and set(ins).isdisjoint(outs)]


def _strict(q: QuiverWithCycles, cut: Iterable[ArrowId], direction: str) -> dict[VertexId, tuple[list, list]]:
    """Each vertex where ``cut`` mutates in ``direction``, mapped to the arrows the mutation drops and adds."""
    members = _cut_members(q, cut)
    strict = {}
    for v, ins, outs in _sides(q):
        drop, add = (ins, outs) if direction == "+" else (outs, ins)
        if members.issuperset(drop) and members.isdisjoint(add):
            strict[v] = (drop, add)
    return strict


def _mutate(q: QuiverWithCycles, cut: Iterable[ArrowId], vertex: VertexId, direction: str) -> Cut:
    members = frozenset(cut)
    move = _strict(q, members, direction).get(vertex)
    if move is None:
        if vertex not in q.quiver.vertices:
            raise ValueError(f"unknown vertex {vertex!r}")
        kind = "source" if direction == "+" else "sink"
        raise ValueError(f"vertex {vertex!r} is not a strict {kind} of the cut")
    drop, add = move
    return tuple(sorted(members.difference(drop).union(add)))


def strict_sources(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> frozenset[VertexId]:
    """Vertices whose incoming cycle arrows all lie in the cut and outgoing ones all outside."""
    return frozenset(_strict(q, cut, "+"))


def strict_sinks(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> frozenset[VertexId]:
    """Vertices whose outgoing cycle arrows all lie in the cut and incoming ones all outside."""
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

        for i, j, _, _ in self.edges:
            if i > j:  # the edge leaving the other end joins the same pair
                continue
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
    hide non-transitive instances) and laid out once as a byte table, from
    which the nodes are decoded.  The cuts where a vertex is a strict source
    hold every incoming arrow and no outgoing one, the sinks the reverse,
    which ``CutSpace.swaps`` reads off the columns of its cycle arrows.

    Mutation at the vertex, ``m - in + out`` on a source mask, is an
    increasing bijection from its sources onto its sinks, with inverse the
    sink mutation, so the k-th source goes to the k-th sink and back: the
    two are picked out of the cut indices in order by ``compress`` and
    paired, with no list and no lookup, and counts that differ raise
    ``RuntimeError`` rather than pair wrongly.  The edges of one mutation
    are one run, sorted by source.  The runs come by ``add - drop``
    descending, then by vertex and direction, so the edges leaving one cut
    come in that order, which is ascending order of the cuts they reach:
    ``m - drop + add`` compares as ``add - drop`` does, whatever ``m`` is.
    Two mutations of one cut that reach one target drop and add the same
    arrows, and the vertex and direction order those.  A stable sort by
    source then gives sorted edges.
    """
    space = q.cut_space
    masks = _cut_masks(q)
    table = space.table(masks)
    indices = list(range(len(masks)))  # one int object per cut, shared by all its edges
    plus, minus = repeat("+"), repeat("-")  # endless, so every run can share them
    runs = []  # ((drop - add, vertex, direction), the mutation's edges)
    for v, ins, outs in _sides(q):
        sources, sinks = space.swaps(table, map(space.at.__getitem__, ins), map(space.at.__getitem__, outs))
        if sources.count(1) != sinks.count(1):
            raise RuntimeError(f"mutation at {v!r} pairs {sources.count(1)} strict sources with {sinks.count(1)} sinks")
        rise, at_v = space.mask(outs) - space.mask(ins), repeat(v)  # add - drop of the source mutation
        runs += (
            ((-rise, v, "+"), zip(compress(indices, sources), compress(indices, sinks), at_v, plus)),
            ((rise, v, "-"), zip(compress(indices, sinks), compress(indices, sources), at_v, minus)),
        )
    runs.sort(key=itemgetter(0))
    edges = list(chain.from_iterable(map(itemgetter(1), runs)))
    del runs  # and the cut bytes they select by, before the sort takes its keys
    edges.sort(key=itemgetter(0))
    nodes = tuple(map(sum, space.decode(table, tuple), repeat(())))
    return MutationGraph(nodes, tuple(edges))


def is_transitive(q: QuiverWithCycles) -> bool:
    """True iff successive cut-mutations reach every cut from every other."""
    return mutation_graph(q).is_connected
