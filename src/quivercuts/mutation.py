"""Cut-mutation and the mutation graph over all cuts.

Strictness is judged on the cycle arrows alone.  A vertex is a strict
source of ``(Q, C)`` when all its incoming cycle arrows lie in ``C`` and
none of its outgoing ones do; mutation at a strict source swaps that
incidence (remove incoming, add outgoing), and dually at strict sinks.
Free arrows (arrows in no distinguished cycle) are inert: they lie in no
enumerated cut, and a set that holds them keeps them through mutation.
Both operations send cuts to cuts and are mutually inverse.

The mutation graph has one node per cut and one edge per single mutation.
Transitivity of cut-mutation is connectivity of this graph, and the
operations on one cut take every node along its edges.  A vertex is held as
the names of its incoming and outgoing cycle arrows, and one cut is mutated
as a set of names.  The graph lays all cuts out as one table of the
quiver's :class:`~quivercuts.model.CutSpace` and reads a vertex's arrows
from it as columns, which find all the cuts where it is a strict source or
sink.  It keeps the table and those columns, a byte per cut for each
mutation, and no edge: the k-th source of a mutation goes to its k-th
target, so its edges are read by pairing the two columns in order.  The
components come from those pairs by union-find, and the exports in
:mod:`~quivercuts.docio` stream the edges from them in their own order.
Node and edge tuples are built only when asked for.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter

from .cuts import Cut, _cut_masks, _cut_members
from .model import ArrowId, CutSpace, QuiverWithCycles, VertexId


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
    """The cuts of a quiver with cycles and its single mutations, kept as byte columns.

    ``table`` holds the cuts in :func:`~quivercuts.cuts.enumerate_cuts`
    order as rows of ``space``, one node each.  ``moves`` holds one tuple
    per mutation, ``(vertex, direction, forward, sources, targets)``: the
    mutation vertex, "+" for a source mutation or "-" for a sink mutation,
    whether its edges lead to later nodes, and two columns of a byte per
    node, 1 at the nodes it leaves and at the nodes it reaches.  The k-th
    source goes to the k-th target.

    ``nodes`` and ``edges`` are decoded from these on first use and kept.
    ``nodes`` are the cuts as name tuples.  Each edge is a plain tuple
    ``(source, target, vertex, direction)`` of node indices, the mutation
    vertex and its direction, and ``edges`` lists them by source, the edges
    of one source in the order of ``moves``, which is sorted order.  Each
    labelled pair of cuts is joined by exactly two edges, one leaving each
    end, because mutation at a vertex is an involution that swaps "+" and
    "-", it never fixes a cut, and no vertex with cycle arrows is both a
    strict source and a strict sink of one cut.  So the forward moves name
    every labelled pair once, as the undirected DOT export writes them.
    """

    space: CutSpace
    table: bytes
    moves: tuple[tuple[VertexId, str, bool, bytes, bytes], ...]

    @property
    def node_count(self) -> int:
        return len(self.table) // self.space.nb

    @cached_property
    def nodes(self) -> tuple[Cut, ...]:
        return tuple(self.space.decode(self.table))

    @cached_property
    def edges(self) -> tuple[tuple[int, int, VertexId, str], ...]:
        indices = list(range(self.node_count))  # one int object per node, shared by all its edges
        pairs = [zip(compress(indices, s), compress(indices, t), repeat(v), repeat(d)) for v, d, _, s, t in self.moves]
        return tuple(sorted(chain.from_iterable(pairs), key=itemgetter(0)))  # stable: one source's in move order

    def component_count(self) -> int:
        """The connected components, by union-find over the forward moves: each labelled pair once."""
        indices = range(self.node_count)
        parent = list(indices)

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for _, _, forward, sources, targets in self.moves:
            if forward:
                for i, j in zip(compress(indices, sources), compress(indices, targets)):
                    a, b = find(i), find(j)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        return len(set(map(find, indices)))

    @property
    def is_connected(self) -> bool:
        return self.node_count == 0 or self.component_count() == 1


def mutation_graph(q: QuiverWithCycles) -> MutationGraph:
    """The graph of all cuts of ``q`` under single cut-mutations.

    All cuts are listed up front as masks (discovery by mutation alone would
    hide non-transitive instances) and laid out once as a byte table.  The
    cuts where a vertex is a strict source hold every incoming arrow and no
    outgoing one, the sinks the reverse, which ``CutSpace.swaps`` reads off
    the columns of its cycle arrows: those two columns are the source
    mutation's sources and targets, and swapped, the sink mutation's.

    Mutation at the vertex, ``m - in + out`` on a source mask, is an
    increasing bijection from its sources onto its sinks, with inverse the
    sink mutation, so the k-th source goes to the k-th sink and back;
    counts that differ raise ``RuntimeError`` rather than pair wrongly.  A
    mutation moves every mask by the same ``add - drop``, so its edges all
    lead to later nodes, which have smaller masks, or all to earlier ones.
    The moves are ordered by ``add - drop`` descending, then by vertex and
    direction, so the moves leaving one cut come in ascending order of the
    cuts they reach: ``m - drop + add`` compares as ``add - drop`` does,
    whatever ``m`` is.  Two mutations of one cut that reach one target drop
    and add the same arrows, and the vertex and direction order those.
    """
    space = q.cut_space
    table = space.table(_cut_masks(q))
    moves = []  # (drop - add, vertex, direction, forward, sources, targets)
    for v, ins, outs in _sides(q):
        drop, add = list(map(space.at.__getitem__, ins)), list(map(space.at.__getitem__, outs))
        sources, sinks = space.swaps(table, drop, add)
        if sources.count(1) != sinks.count(1):
            raise RuntimeError(f"mutation at {v!r} pairs {sources.count(1)} strict sources with {sinks.count(1)} sinks")
        rise = sum(map((1).__lshift__, add)) - sum(map((1).__lshift__, drop))  # add - drop of the source mutation
        moves += (-rise, v, "+", rise < 0, sources, sinks), (rise, v, "-", rise > 0, sinks, sources)
    moves.sort(key=itemgetter(0, 1, 2))
    return MutationGraph(space, table, tuple(move[1:] for move in moves))


def is_transitive(q: QuiverWithCycles) -> bool:
    """True iff successive cut-mutations reach every cut from every other."""
    return mutation_graph(q).is_connected
