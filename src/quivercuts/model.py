"""Finite quivers with a distinguished set of cycles.

A quiver is a finite directed graph (vertices ``Q0``, arrows ``Q1``).  A
quiver with cycles carries in addition a set ``Q2`` of directed cycles,
recording the support of a potential.  Cycles are kept in a canonical
rotation so that two choices of starting vertex compare equal.
``CutSpace`` is a quiver's arrow sets as integer bit masks.  One BFS
spanning forest, a ``SpanningTree`` rooted at each component's least
vertex, gives the components that :func:`validate` counts, the chords of
the cycle-space basis of compatibility and the fundamental-group
presentation of each component of the canvas.

All values are immutable after construction and every operation here is a
pure function, so they are safe to share across threads.  Collections are
sorted by identifier, making outputs byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

VertexId = str
ArrowId = str

@dataclass(frozen=True)
class Arrow:
    name: ArrowId
    source: VertexId
    target: VertexId
    label: str | None = None


def _least_rotation(items: Sequence[ArrowId]) -> tuple[ArrowId, ...]:
    seq = tuple(items)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


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
        if self.sign not in (None, 1, -1):
            raise ValueError(f"cycle sign must be +1, -1 or None, got {self.sign}")
        object.__setattr__(self, "arrows", _least_rotation(tuple(self.arrows)))

    def __len__(self) -> int:
        return len(self.arrows)


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
    def incident(self) -> Mapping[VertexId, tuple[Arrow, ...]]:
        """Arrows touching each vertex, either end, sorted by name."""
        inc: dict[VertexId, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            inc.setdefault(a.source, []).append(a)
            if a.target != a.source:
                inc.setdefault(a.target, []).append(a)
        return {v: tuple(sorted(arrows, key=lambda a: a.name)) for v, arrows in inc.items()}

    def arrow(self, name: ArrowId) -> Arrow:
        try:
            return self.arrow_map[name]
        except KeyError:
            raise KeyError(f"unknown arrow {name!r}") from None


@dataclass(frozen=True)
class CutSpace:
    """Arrow sets as integer bit masks: bit ``i`` stands for ``arrows[i]``.

    Cycle arrows take the low bits (``cycle_mask``) in name order, free arrows
    the bits above.  ``incidence`` holds each non-isolated vertex's masks,
    ``members`` each cycle's arrows, ``cycles_of`` the cycles through each
    cycle arrow (bit ``c`` for ``cycles[c]``), and ``never`` the arrows
    repeated inside one cycle, which lie in no cut.
    """

    arrows: tuple[ArrowId, ...]
    bit: Mapping[ArrowId, int]  # name -> 1 << index
    cycle_mask: int
    incidence: Mapping[VertexId, tuple[int, int]]  # (incoming, outgoing)
    members: tuple[int, ...]
    cycles_of: tuple[int, ...]
    never: int


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
    def cycle_arrows(self) -> frozenset[ArrowId]:
        """Arrows appearing in at least one distinguished cycle."""
        return frozenset(a for c in self.cycles for a in c.arrows)

    @cached_property
    def cut_space(self) -> CutSpace:
        """The bit-mask view of the arrows, built once per quiver with cycles."""
        cycle_arrows = sorted(self.cycle_arrows)
        order = cycle_arrows + [a.name for a in self.quiver.arrows if a.name not in self.cycle_arrows]
        bit = {name: 1 << i for i, name in enumerate(order)}
        incidence = {v: [0, 0] for v in self.quiver.vertices}
        for a in self.quiver.arrows:  # an undeclared endpoint updates a throwaway pair
            incidence.get(a.target, [0, 0])[0] |= bit[a.name]
            incidence.get(a.source, [0, 0])[1] |= bit[a.name]
        touched = {v: (inc, out) for v, (inc, out) in incidence.items() if inc | out}
        members, cycles_of, never = [], [0] * len(cycle_arrows), 0
        for ci, cycle in enumerate(self.cycles):
            m = 0
            for b in map(bit.__getitem__, cycle.arrows):
                never |= m & b  # a repeated arrow
                m |= b
                cycles_of[b.bit_length() - 1] |= 1 << ci
            members.append(m)
        cycle_mask = (1 << len(cycle_arrows)) - 1
        return CutSpace(tuple(order), bit, cycle_mask, touched, tuple(members), tuple(cycles_of), never)


def validate(q: QuiverWithCycles) -> list[str]:
    """All invariant violations of ``q``, or an empty list when sound.

    Checks identifier uniqueness, arrow endpoints, cycle membership and
    chaining, and connectivity of the underlying undirected graph, whose
    components are named by the roots of the spanning forest.  Each
    violation names the offending identifier.
    """
    violations: list[str] = []
    quiver = q.quiver

    seen_v: set[VertexId] = set()
    for v in quiver.vertices:
        if v in seen_v:
            violations.append(f"duplicate vertex {v!r}")
        seen_v.add(v)

    seen_a: set[ArrowId] = set()
    for a in quiver.arrows:
        if a.name in seen_a:
            violations.append(f"duplicate arrow {a.name!r}")
        seen_a.add(a.name)
        for endpoint in (a.source, a.target):
            if endpoint not in seen_v:
                violations.append(f"arrow {a.name!r} references undeclared vertex {endpoint!r}")

    for c in q.cycles:
        broken = False
        for name in c.arrows:
            if name not in quiver.arrow_map:
                violations.append(f"cycle {c.arrows} uses unknown arrow {name!r}")
                broken = True
        if broken:
            continue
        n = len(c.arrows)
        for i in range(n):
            here = quiver.arrow_map[c.arrows[i]]
            nxt = quiver.arrow_map[c.arrows[(i + 1) % n]]
            if here.target != nxt.source:
                violations.append(
                    f"cycle {c.arrows} does not chain at arrow {here.name!r} "
                    f"(target {here.target!r} != next source {nxt.source!r})"
                )

    roots = sorted(set(spanning_tree(quiver).root.values()))
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
    root: dict[VertexId, VertexId] = {}
    parents: dict[VertexId, tuple[VertexId, Arrow, int]] = {}
    for r in quiver.vertices:
        if r in root:
            continue
        root[r] = r
        queue = [r]
        for v in queue:  # grows as the search reaches new vertices
            for a in quiver.incident.get(v, ()):
                other = a.target if a.source == v else a.source
                if other not in root:
                    root[other] = r
                    parents[other] = (v, a, 1 if a.source == v else -1)
                    queue.append(other)
    tree = {arrow.name for _, arrow, _ in parents.values()}
    chords = tuple(a for a in quiver.arrows if a.source in root and a.name not in tree)
    return SpanningTree(root, parents, chords)
