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
for covered quivers this changes nothing.  A vertex is held as the bit
positions of its incoming and outgoing arrows in the quiver's
:class:`~quivercuts.model.CutSpace`.  One cut is tested against those
positions directly.  The graph lays all cut masks out as a byte table and
reads one column of it per arrow, a byte per cut: a few operations on the
columns of a vertex's arrows find all the cuts where it is a strict source
or sink, and mutation pairs the two in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, repeat
from operator import itemgetter, or_
from typing import Iterable

from .cuts import Cut, _cut_mask, _cut_masks, _warn_if_uncovered
from .model import ArrowId, QuiverWithCycles, VertexId


def _sides(q: QuiverWithCycles, cycles_only: bool) -> list[tuple[VertexId, list[int], list[int]]]:
    """``(vertex, incoming, outgoing)`` bit positions of every declared vertex that can mutate.

    One pass over the arrows, skipping those in no cycle when
    ``cycles_only``.  An arrow to an undeclared vertex counts only at its
    declared end.  A vertex without arrows is left out, and so is one with a
    loop, which lies on both sides: it would have to be in the cut and out.
    """
    space = q.cut_space
    at, cycles_of = space.at, space.cycles_of
    sides: dict[VertexId, tuple[list[int], list[int]]] = {v: ([], []) for v in q.quiver.vertices}
    for a in q.quiver.arrows:
        p = at[a.name]
        if cycles_only and not cycles_of[p]:
            continue
        if a.target in sides:
            sides[a.target][0].append(p)
        if a.source in sides:
            sides[a.source][1].append(p)
    return [(v, ins, outs) for v, (ins, outs) in sides.items() if (ins or outs) and set(ins).isdisjoint(outs)]


def _mask(positions: list[int]) -> int:
    return reduce(or_, map((1).__lshift__, positions), 0)  # an arrow listed twice counts once


def _strict(q: QuiverWithCycles, cut: Iterable[ArrowId], direction: str) -> dict[VertexId, list[int]]:
    """Each vertex where ``cut`` mutates in ``direction``, mapped to the bit positions the mutation flips."""
    members = frozenset(cut)
    _cut_mask(q, members)  # raises unless a cut
    inside = set(map(q.cut_space.at.__getitem__, members))
    strict = {}
    for v, ins, outs in _sides(q, False):
        drop, add = (ins, outs) if direction == "+" else (outs, ins)
        if inside.issuperset(drop) and inside.isdisjoint(add):
            strict[v] = ins + outs
    return strict


def _mutate(q: QuiverWithCycles, cut: Iterable[ArrowId], vertex: VertexId, direction: str) -> Cut:
    members = frozenset(cut)
    flipped = _strict(q, members, direction).get(vertex)
    if flipped is None:
        kind = "source" if direction == "+" else "sink"
        raise ValueError(f"vertex {vertex!r} is not a strict {kind} of the cut")
    return sum(next(q.cut_space.decode([_cut_mask(q, members) ^ _mask(flipped)], tuple)), ())


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


_BIT = [bytes(x >> k & 1 for x in range(256)) for k in range(8)]  # ``bytes.translate`` tables: a byte to its bit k


def mutation_graph(q: QuiverWithCycles) -> MutationGraph:
    """The graph of all cuts of ``q`` under single cut-mutations.

    All cuts are listed up front as masks (discovery by mutation alone would
    hide non-transitive instances), and the nodes are decoded from them.
    The masks are laid out once as a byte table, row ``i`` holding
    ``masks[i]``.  A vertex's cycle arrows each give a column: the arrow's
    byte in every row, each turned into its bit by one ``translate``, read
    as an int with one byte per cut.  The cuts where the vertex is a strict
    source have every incoming column set and every outgoing one clear; the
    sinks are the dual.  Only one vertex's columns are held at a time.

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
    _warn_if_uncovered(q)
    space = q.cut_space
    masks = _cut_masks(space)
    n, nb = len(masks), len(space.cycles_of) >> 3
    table = b"".join(map(int.to_bytes, masks, repeat(nb), repeat("big")))
    indices = list(range(n))  # one int object per cut, shared by all its edges
    ones = int.from_bytes(b"\1" * n, "big")  # a set byte for every cut
    plus, minus = repeat("+"), repeat("-")  # endless, so every run can share them
    runs = []  # ((drop - add, vertex, direction), the mutation's edges)
    for v, ins, outs in _sides(q, True):
        all_in, any_in, all_out, any_out = ones, 0, ones, 0
        for p in ins:
            column = int.from_bytes(table[nb - 1 - (p >> 3) :: nb].translate(_BIT[p & 7]), "big")
            all_in &= column
            any_in |= column
        for p in outs:
            column = int.from_bytes(table[nb - 1 - (p >> 3) :: nb].translate(_BIT[p & 7]), "big")
            all_out &= column
            any_out |= column
        sources = (all_in & ~any_out).to_bytes(n, "big")  # byte i is 1 where v is a strict source of cut i
        sinks = (all_out & ~any_in).to_bytes(n, "big")
        if sources.count(1) != sinks.count(1):
            raise RuntimeError(f"mutation at {v!r} pairs {sources.count(1)} strict sources with {sinks.count(1)} sinks")
        rise, at_v = _mask(outs) - _mask(ins), repeat(v)  # add - drop of the source mutation
        runs += (
            ((-rise, v, "+"), zip(compress(indices, sources), compress(indices, sinks), at_v, plus)),
            ((rise, v, "-"), zip(compress(indices, sinks), compress(indices, sources), at_v, minus)),
        )
    runs.sort(key=itemgetter(0))
    edges = list(chain.from_iterable(map(itemgetter(1), runs)))
    del runs  # and the cut bytes they select by, before the sort takes its keys
    edges.sort(key=itemgetter(0))
    nodes = tuple(sum(parts, ()) for parts in space.decode(masks, tuple))
    return MutationGraph(nodes, tuple(edges))


def is_transitive(q: QuiverWithCycles) -> bool:
    """True iff successive cut-mutations reach every cut from every other."""
    return mutation_graph(q).is_connected
