"""Finite quivers with a distinguished set of cycles.

A quiver is a finite directed graph (vertices ``Q0``, arrows ``Q1``).  A
quiver with cycles carries in addition a set ``Q2`` of directed cycles,
recording the support of a potential.  Cycles are kept in a canonical
rotation so that two choices of starting vertex compare equal.
``CutSpace`` is the one bit-mask view of a quiver's arrows and the one
codec of its masks: it gives each arrow its bit position, the one value held
per arrow, turns name sets into masks, lays masks out as a byte table read
as rows of names and as columns of bits, and holds the cut-state DAG, a node
table that every cut computation reads.  One BFS spanning forest per quiver,
``Quiver.forest``, rooted at each component's least vertex, gives the
components that :func:`validate` counts, the chords whose closed walks
compatibility compares cuts on and the fundamental-group presentation of
each component of the canvas.

All values are immutable after construction and every operation here is a
pure function, so they are safe to share across threads.  Collections are
sorted by identifier, making outputs byte-stable across runs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, repeat
from operator import attrgetter, or_

VertexId = str
ArrowId = str

@dataclass(frozen=True)
class Arrow:
    name: ArrowId
    source: VertexId
    target: VertexId


def _least_rotation(items: Sequence[ArrowId]) -> tuple[ArrowId, ...]:
    """The lexicographically least rotation of ``items``, in linear time.

    ``i`` and ``j`` are two candidate starts and ``k`` the length of their
    common prefix.  At the first difference the greater start loses, and so
    does every start up to ``k`` past it, whose rotation is beaten by the one
    as far past the other start; each step moves ``k``, ``i`` or ``j`` on, so
    the scan ends after at most ``3n`` comparisons.  Where the least name
    occurs once, the rotation starts at it, found without the scan.
    """
    seq = tuple(items)
    if seq:
        least = min(seq)
        if seq.count(least) == 1:
            start = seq.index(least)
            return seq[start:] + seq[:start]
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    return seq[start:] + seq[:start]


@dataclass(frozen=True)
class Cycle:
    """A directed closed path, stored in its lexicographically least rotation.

    The optional sign records on which side of a two-term potential
    ``W = W_plus - W_minus`` the cycle sits.
    """

    arrows: tuple[ArrowId, ...]
    sign: int | None = None

    def __post_init__(self) -> None:
        if not self.arrows:
            raise ValueError("a cycle needs at least one arrow")
        if self.sign is not None and (type(self.sign) is not int or self.sign not in (1, -1)):  # no bool, no float
            raise ValueError(f"cycle sign must be +1, -1 or None, got {self.sign!r}")
        object.__setattr__(self, "arrows", _least_rotation(tuple(self.arrows)))


@dataclass(frozen=True)
class Quiver:
    """A finite directed multigraph with named vertices and arrows.

    The constructor normalises ordering only; structural invariants are
    reported by :func:`validate` rather than enforced here, so that broken
    inputs can be diagnosed instead of rejected wholesale.
    """

    vertices: tuple[VertexId, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows, key=lambda a: a.name)))

    @cached_property
    def arrow_map(self) -> Mapping[ArrowId, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def forest(self) -> SpanningTree:
        """The BFS spanning forest of :func:`spanning_tree`, built once per quiver."""
        return spanning_tree(self)

    def arrow(self, name: ArrowId) -> Arrow:
        try:
            return self.arrow_map[name]
        except KeyError:
            raise KeyError(f"unknown arrow {name!r}") from None


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BITS = [[x >> k & 1 for k in range(7, -1, -1)] for x in range(256)]  # a byte's bits, most significant first
_BIT = [bytes(x >> k & 1 for x in range(256)) for k in range(8)]  # ``bytes.translate`` tables: a byte to its bit k


# The most states the cut-state DAG may have, checked as each is found, so that a build that would
# not fit in 2 GiB ends in a ValueError.  A DAG takes about 630 bytes a state: A16 x A16, past the
# cap with 2,751,747 states, peaks at 1.7 GB when built.
MAX_DAG_STATES = 2_000_000

DEFAULT_COSET_BUDGET = 10**6  # canvas's default coset limit, here so the CLI can show it without loading canvas


def _frontier_order(near: Sequence[int]) -> list[int]:
    """The cycles in the order the cut-state DAG branches on them, given the cycles sharing an arrow with each.

    The *frontier* is the cycles not yet taken that share an arrow with a
    taken one.  A DAG state whose first uncovered cycle is the ``i``-th
    covers the ``i`` before it and, of the rest, only frontier cycles, those
    sharing an arrow with an arrow it chose, so at most ``2 ** width`` states
    branch on each cycle.  Greedily, the next cycle is the frontier cycle
    that leaves the fewest frontier cycles, the least index on a tie.  An
    empty frontier starts the next component at its cycle with the fewest
    neighbours, again the least index on a tie, the first one left in a
    list sorted once, so disjoint cycles cost no scan of the rest.  After
    Kawahara, Inoue, Iwashita and Minato, "Frontier-based search for
    enumerating all constrained subgraphs with compressed representation",
    IEICE Trans. Fundamentals E100-A(9), 2017.
    """
    starts = iter(sorted(range(len(near)), key=list(map(int.bit_count, near)).__getitem__))
    left, frontier, order = (1 << len(near)) - 1, 0, []
    while left:
        if frontier:
            outside, rest, fewest = left ^ frontier, frontier, len(near)
            while rest:  # the frontier's cycles, least index first
                low = rest & -rest
                ci = low.bit_length() - 1
                n = (near[ci] & outside).bit_count()
                if n < fewest:
                    c, fewest, bit = ci, n, low
                rest ^= low
        else:
            for c in starts:
                bit = 1 << c
                if left & bit:
                    break
        order.append(c)
        left ^= bit
        frontier = (frontier | near[c]) & left
    return order


@dataclass(frozen=True)
class CutSpace:
    """Arrow sets as integer bit masks: ``arrows[i]`` sits at bit ``8 * nb - 1 - i``.

    ``arrows`` holds every arrow in name order and ``nb``, at least 1, is the
    number of bytes they fill, set once here as the length of every table
    row the methods read, so the least name takes the top bit, byte
    ``j`` of a mask holds ``arrows[8j:8j + 8]`` most significant bit first,
    and descending masks of cuts are ascending name tuples.  An arrow is
    held only as its bit position, which ``at`` maps its name to.
    :meth:`mask` is the one encoder of name sets, and :meth:`table` lays
    many masks out as rows of bytes, read back whole by :meth:`decode` and
    a bit position at a time by :meth:`column` and :meth:`swaps`.
    ``cycle_mask`` holds the cycle arrows, ``declared`` the arrows the
    quiver declares, ``members`` each cycle's arrows, ``cycles_of`` the
    cycles through the arrow at each bit position (bit ``c`` for
    ``cycles[c]``), and ``never`` the arrows repeated inside one cycle,
    which lie in no cut.
    """

    arrows: tuple[ArrowId, ...]
    nb: int
    at: Mapping[ArrowId, int]  # name -> its bit position
    cycle_mask: int
    declared: int
    members: tuple[int, ...]
    cycles_of: tuple[int, ...]  # 8 * nb entries, one per bit position
    never: int

    def mask(self, names: Iterable[ArrowId]) -> int:
        """The bit mask of ``names``; raises ``ValueError`` on an unknown arrow."""
        members = frozenset(names)
        try:
            return sum(map((1).__lshift__, map(self.at.__getitem__, members)))  # distinct names have distinct bits
        except KeyError:
            raise ValueError(f"unknown arrow {min(members - self.at.keys())!r}") from None

    def table(self, masks: Iterable[int]) -> bytes:
        """``masks`` laid out as rows of ``nb`` bytes, most significant first, so row ``i`` is ``masks[i]``."""
        return b"".join(map(int.to_bytes, masks, repeat(self.nb), repeat("big")))

    def decode(self, table: bytes, render: Callable[[Iterator[ArrowId]], object]) -> Iterator[tuple]:
        """Per row of ``table``, a tuple of ``nb`` parts: ``render`` of each of its bytes' names, in name order.

        Byte ``j`` has its own table over arrows ``8j`` to ``8j + 7``, built
        before the first row, holding what ``render`` gives for each byte
        value that occurs at ``j`` in ``table``: one call per such value.
        Each byte column of ``table``, a strided slice, is looked up in its
        table by a ``map``, and ``zip`` joins the columns into rows, so no
        row runs Python code of its own.
        """
        nb = self.nb
        tables = [
            {x: render(compress(names, _BITS[x])) for x in set(table[j::nb])}
            for j, names in enumerate(self.arrows[k : k + 8] for k in range(0, 8 * nb, 8))
        ]
        return zip(*[map(tables[j].__getitem__, table[j::nb]) for j in range(nb)])

    def column(self, table: bytes, p: int) -> bytes:
        """Bit ``p`` of every row of ``table``, one byte per row: a strided slice of its byte, through ``translate``."""
        nb = self.nb
        return table[nb - 1 - (p >> 3) :: nb].translate(_BIT[p & 7])

    def swaps(self, table: bytes, drop: Iterable[int], add: Iterable[int]) -> tuple[bytes, bytes]:
        """A byte per row of ``table``, 1 where it holds every bit of ``drop`` and none of ``add``; then the reverse."""
        n = len(table) // self.nb  # rows; each column is read as an int with a byte per row
        all_drop = all_add = int.from_bytes(b"\1" * n, "big")
        any_drop = any_add = 0
        for p in drop:
            bits = int.from_bytes(self.column(table, p), "big")
            all_drop, any_drop = all_drop & bits, any_drop | bits
        for p in add:
            bits = int.from_bytes(self.column(table, p), "big")
            all_add, any_add = all_add & bits, any_add | bits
        return (all_drop & ~any_add).to_bytes(n, "big"), (all_add & ~any_drop).to_bytes(n, "big")

    @cached_property
    def dag(self) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """The cut-state DAG as a node table, children first: ``(cut count, live edges (arrow position, child index))``.

        A state is the set of cycles covered so far.  The exact-one condition
        bans ``never`` and every arrow of a covered cycle, so the state alone
        fixes what lies below it, and the bans are read off it: an arrow is
        banned iff it is in ``never`` or one of its cycles is covered.  The
        cycles are numbered once, for the build, in the order of
        ``_frontier_order``, and each lists once its candidates, ``(arrow
        position, the cycles it covers)`` in ascending position with ``never``
        left out.  Each state branches on the candidates of its first
        uncovered cycle, its lowest zero bit, that cover no covered cycle, so
        that branches meet in shared states; an arrow joins the cut and covers
        every cycle through it.  The search stack holds bare states.  Past
        ``MAX_DAG_STATES`` states the build raises ``ValueError``.
        The sink, all cycles covered, sits at ``[0]`` and counts 1; the root,
        none covered, at ``[-1]``; a child covers more cycles than its parent
        and comes before it.  Edges into states with no cut are dropped, so
        the root-to-sink paths are exactly the cuts, each once, and a state
        with no cut below has no edge.  Each edge carries its arrow's bit
        position, the ``at`` value of the arrow's name.
        """
        near, arrows_of = [0] * len(self.members), [[] for _ in self.members]  # each cycle's neighbours and arrows
        for p, cycles in zip(compress(range(len(self.cycles_of)), self.cycles_of), filter(None, self.cycles_of)):
            rest = cycles
            while rest:  # its cycles, inline rather than a generator per arrow
                low = rest & -rest
                c = low.bit_length() - 1
                near[c] |= cycles
                arrows_of[c].append(p)
                rest ^= low
        turns = _frontier_order(near)
        # the cycles renumbered in that order: cycles[turns[i]] is bit i of a state
        cycles_of = [0] * len(self.cycles_of)
        for bit, c in zip(map((1).__lshift__, range(len(turns))), turns):
            for p in arrows_of[c]:
                cycles_of[p] |= bit
        # each renumbered cycle's candidates (arrow position, cycles it covers), ascending, never left out
        candidates = [[(p, cycles_of[p]) for p in arrows_of[c] if not self.never >> p & 1] for c in turns]
        sink = (1 << len(turns)) - 1
        branches: dict[int, list[tuple[int, int]]] = {sink: []}
        stack = [0]  # covered states, depth first
        while stack:
            covered = stack.pop()
            if covered in branches:
                continue
            if len(branches) >= MAX_DAG_STATES:
                raise ValueError(f"the cut-state DAG is too large: more than {MAX_DAG_STATES} states")
            # the first uncovered cycle, at the lowest zero bit; an arrow through a covered cycle is banned
            edges = branches[covered] = [
                (p, covered | cycles)
                for p, cycles in candidates[(covered ^ (covered + 1)).bit_length() - 1]
                if not cycles & covered
            ]
            stack += [child for _, child in edges]
        order = sorted(branches, key=int.bit_count, reverse=True)  # the sink, covering all, first; the root last
        at = dict(zip(order, range(len(order))))
        dag = [(1, ())]
        for covered in order[1:]:
            edges = tuple([(ai, j) for ai, child in branches[covered] if dag[(j := at[child])][0]])
            dag.append((sum([dag[j][0] for _, j in edges]), edges))
        return dag


@dataclass(frozen=True)
class QuiverWithCycles:
    """A quiver together with a set ``Q2`` of distinguished cycles.

    Cycles are canonicalised on construction and exact duplicates (same
    rotation class and sign) are dropped.
    """

    quiver: Quiver
    cycles: tuple[Cycle, ...]

    def __post_init__(self) -> None:
        seen: dict[tuple, Cycle] = {}
        for c in self.cycles:
            seen.setdefault((c.arrows, c.sign), c)
        ordered = tuple(sorted(seen.values(), key=lambda c: (c.arrows, c.sign or 0)))
        object.__setattr__(self, "cycles", ordered)

    @cached_property
    def cut_space(self) -> CutSpace:
        """The bit-mask view of the arrows, built once per quiver with cycles."""
        arrows = sorted({a for c in self.cycles for a in c.arrows}.union(a.name for a in self.quiver.arrows))
        nb = max(1, (len(arrows) + 7) // 8)  # a row of a table has a byte even with no arrow
        width = 8 * nb
        at = {name: width - 1 - i for i, name in enumerate(arrows)}
        members, cycles_of, never = [], [0] * width, 0
        for ci, cycle in enumerate(self.cycles):
            m = 0
            for p in map(at.__getitem__, cycle.arrows):
                never |= m & 1 << p  # a repeated arrow
                m |= 1 << p
                cycles_of[p] |= 1 << ci
            members.append(m)
        declared = sum(1 << at[name] for name in {a.name for a in self.quiver.arrows})
        return CutSpace(tuple(arrows), nb, at, reduce(or_, members, 0), declared, tuple(members), tuple(cycles_of), never)


def validate(q: QuiverWithCycles) -> list[str]:
    """All invariant violations of ``q``, or an empty list when sound.

    Checks identifier uniqueness, arrow endpoints, cycle membership and
    chaining, and connectivity of the underlying undirected graph, whose
    components are named by the roots of the spanning forest.  Each
    violation names the offending identifier.
    """
    violations: list[str] = []
    quiver = q.quiver
    arrows, arrow_map = quiver.arrows, quiver.arrow_map
    declared = set(quiver.vertices)
    # each check runs over the whole quiver first; the loop that words its messages runs only if it fails
    if len(declared) < len(quiver.vertices):
        seen_v: set[VertexId] = set()
        for v in quiver.vertices:
            if v in seen_v:
                violations.append(f"duplicate vertex {v!r}")
            seen_v.add(v)

    if (
        len(arrow_map) < len(arrows)
        or not declared.issuperset(map(attrgetter("source"), arrows))
        or not declared.issuperset(map(attrgetter("target"), arrows))
    ):
        seen_a: set[ArrowId] = set()
        for a in arrows:
            if a.name in seen_a:
                violations.append(f"duplicate arrow {a.name!r}")
            seen_a.add(a.name)
            for endpoint in (a.source, a.target):
                if endpoint not in declared:
                    violations.append(f"arrow {a.name!r} references undeclared vertex {endpoint!r}")

    for c in q.cycles:
        try:
            path = list(map(arrow_map.__getitem__, c.arrows))
        except KeyError:
            violations += [
                f"cycle {c.arrows} uses unknown arrow {name!r}" for name in c.arrows if name not in arrow_map
            ]
            continue
        prev = path[-1]
        for a in path:
            if prev.target != a.source:
                violations += [
                    f"cycle {c.arrows} does not chain at arrow {here.name!r} "
                    f"(target {here.target!r} != next source {nxt.source!r})"
                    for here, nxt in zip(path, path[1:] + path[:1])
                    if here.target != nxt.source
                ]
                break
            prev = a

    roots = sorted(set(quiver.forest.root.values()))
    if len(roots) > 1:
        reps = ", ".join(map(repr, roots))
        violations.append(f"quiver is not connected ({len(roots)} components, containing {reps})")

    return violations


@dataclass(frozen=True)
class SpanningTree:
    """A BFS spanning forest: one tree per connected component, rooted at its least vertex.

    ``root`` maps every vertex the forest reached to its component's root,
    in BFS order, so a parent precedes its children.  ``parents`` maps every
    non-root vertex to ``(parent, arrow, direction)`` in the same order,
    where ``direction`` is +1 if the arrow points parent -> child.
    ``chords`` are the arrows outside the forest whose source it reached,
    sorted by name.
    """

    root: Mapping[VertexId, VertexId]
    parents: Mapping[VertexId, tuple[VertexId, Arrow, int]]
    chords: tuple[Arrow, ...]


def spanning_tree(quiver: Quiver) -> SpanningTree:
    """BFS spanning forest of ``quiver``, a component at a time from its least vertex.

    Neighbours are explored in arrow-name order, which pins the forest (and
    everything derived from it) uniquely.
    """
    incident: dict[VertexId, list[Arrow]] = {}  # arrows touching each vertex, either end, in name order
    for a in quiver.arrows:
        incident.setdefault(a.source, []).append(a)
        if a.target != a.source:
            incident.setdefault(a.target, []).append(a)
    root: dict[VertexId, VertexId] = {}
    parents: dict[VertexId, tuple[VertexId, Arrow, int]] = {}
    for r in quiver.vertices:
        if r in root:
            continue
        root[r] = r
        queue = [r]
        for v in queue:  # grows as the search reaches new vertices
            for a in incident.get(v, ()):
                other = a.target if a.source == v else a.source
                if other not in root:
                    root[other] = r
                    parents[other] = (v, a, 1 if a.source == v else -1)
                    queue.append(other)
    tree = {arrow.name for _, arrow, _ in parents.values()}
    chords = tuple(a for a in quiver.arrows if a.source in root and a.name not in tree)
    return SpanningTree(root, parents, chords)
