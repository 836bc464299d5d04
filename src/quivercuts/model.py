"""Finite quivers with a distinguished set of cycles.

A quiver is a finite directed graph (vertices ``Q0``, arrows ``Q1``).  A
quiver with cycles carries in addition a set ``Q2`` of directed cycles,
recording the support of a potential.  Cycles are kept in a canonical
rotation so that two choices of starting vertex compare equal.  Walks are
paths in the doubled quiver: each step traverses an arrow forwards (+1) or
backwards (-1).

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

# A walk step: (arrow name, direction).  +1 follows the arrow, -1 reverses it.
Step = tuple[ArrowId, int]


@dataclass(frozen=True)
class Arrow:
    name: ArrowId
    source: VertexId
    target: VertexId
    label: str | None = None


@dataclass(frozen=True)
class Walk:
    """A path in the doubled quiver, as a sequence of signed arrow steps."""

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        for name, direction in self.steps:
            if direction not in (1, -1):
                raise ValueError(f"walk step on {name!r} has direction {direction}, expected +1 or -1")

    def inverse(self) -> "Walk":
        return Walk(tuple((name, -direction) for name, direction in reversed(self.steps)))

    def __len__(self) -> int:
        return len(self.steps)


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
    def outgoing(self) -> Mapping[VertexId, tuple[Arrow, ...]]:
        out: dict[VertexId, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out.setdefault(a.source, []).append(a)
        return {v: tuple(arrows) for v, arrows in out.items()}

    @cached_property
    def incoming(self) -> Mapping[VertexId, tuple[Arrow, ...]]:
        inc: dict[VertexId, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            inc.setdefault(a.target, []).append(a)
        return {v: tuple(arrows) for v, arrows in inc.items()}

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


def split_components(q: QuiverWithCycles) -> list[QuiverWithCycles]:
    """``q`` restricted to each of its :func:`connected_components`, in their order.

    A cycle goes with the component that holds its arrows.
    """
    parts = []
    for comp in connected_components(q.quiver):
        members = set(comp)
        quiver = Quiver(comp, tuple(a for a in q.quiver.arrows if a.source in members))
        cycles = tuple(c for c in q.cycles if all(name in quiver.arrow_map for name in c.arrows))
        parts.append(QuiverWithCycles(quiver, cycles))
    return parts


def step_endpoints(quiver: Quiver, step: Step) -> tuple[VertexId, VertexId]:
    arrow = quiver.arrow(step[0])
    if step[1] == 1:
        return arrow.source, arrow.target
    return arrow.target, arrow.source


def walk_endpoints(quiver: Quiver, walk: Walk) -> tuple[VertexId, VertexId]:
    """Start and end vertex of a walk; raises if consecutive steps do not chain."""
    if not walk.steps:
        raise ValueError("empty walk has no endpoints")
    start, at = step_endpoints(quiver, walk.steps[0])
    for step in walk.steps[1:]:
        frm, to = step_endpoints(quiver, step)
        if frm != at:
            raise ValueError(f"walk breaks at step {step[0]!r}: expected start {at!r}, got {frm!r}")
        at = to
    return start, at


def connected_components(quiver: Quiver) -> list[tuple[VertexId, ...]]:
    """Components of the underlying undirected graph, each sorted, smallest first."""
    seen: set[VertexId] = set()
    components = []
    for root in quiver.vertices:
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        queue = [root]
        while queue:
            v = queue.pop()
            for a in quiver.incident.get(v, ()):
                for w in (a.source, a.target):
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
        components.append(tuple(sorted(comp)))
    return components


def validate(q: QuiverWithCycles) -> list[str]:
    """All invariant violations of ``q``, or an empty list when sound.

    Checks identifier uniqueness, arrow endpoints, cycle membership and
    chaining, and connectivity of the underlying undirected graph.  Each
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

    components = connected_components(quiver)
    if len(components) > 1:
        reps = ", ".join(repr(comp[0]) for comp in components)
        violations.append(f"quiver is not connected ({len(components)} components, containing {reps})")

    return violations


def is_acyclic(quiver: Quiver) -> bool:
    """True iff the directed graph has no directed cycle (Kahn's criterion)."""
    indeg = {v: 0 for v in quiver.vertices}
    for a in quiver.arrows:
        indeg[a.target] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for a in quiver.outgoing.get(v, ()):
            indeg[a.target] -= 1
            if indeg[a.target] == 0:
                ready.append(a.target)
    return removed == len(quiver.vertices)


def canonicalize_cycle(quiver: Quiver, arrows: Sequence[ArrowId], sign: int | None = None) -> Cycle:
    """The canonical-rotation cycle through ``arrows``.

    Rejects sequences that are not directed closed paths in ``quiver``.
    """
    names = tuple(arrows)
    if not names:
        raise ValueError("a cycle needs at least one arrow")
    n = len(names)
    for i in range(n):
        here = quiver.arrow(names[i])
        nxt = quiver.arrow(names[(i + 1) % n])
        if here.target != nxt.source:
            raise ValueError(
                f"arrow sequence does not close: {here.name!r} ends at {here.target!r} "
                f"but {nxt.name!r} starts at {nxt.source!r}"
            )
    return Cycle(names, sign)


@dataclass(frozen=True)
class SpanningTree:
    """A BFS spanning tree of one connected component.

    ``parents`` maps every non-root vertex to ``(parent, arrow, direction)``
    where ``direction`` is +1 if the arrow points parent -> child.
    """

    root: VertexId
    parents: Mapping[VertexId, tuple[VertexId, Arrow, int]]
    depth: Mapping[VertexId, int]
    tree_arrows: frozenset[ArrowId]

    def walk_between(self, frm: VertexId, to: VertexId) -> tuple[Step, ...]:
        """Steps of the unique tree walk from ``frm`` to ``to``."""
        left: list[Step] = []
        right: list[Step] = []
        a, b = frm, to
        while self.depth[a] > self.depth[b]:
            p, arrow, d = self.parents[a]
            left.append((arrow.name, -d))
            a = p
        while self.depth[b] > self.depth[a]:
            p, arrow, d = self.parents[b]
            right.append((arrow.name, d))
            b = p
        while a != b:
            p, arrow, d = self.parents[a]
            left.append((arrow.name, -d))
            a = p
            p, arrow, d = self.parents[b]
            right.append((arrow.name, d))
            b = p
        return tuple(left) + tuple(reversed(right))


def spanning_tree(quiver: Quiver, root: VertexId | None = None) -> SpanningTree:
    """BFS spanning tree of the component containing ``root``.

    Defaults to the smallest vertex; neighbours are explored in arrow-name
    order, which pins the tree (and everything derived from it) uniquely.
    """
    if not quiver.vertices:
        raise ValueError("cannot build a spanning tree of an empty quiver")
    if root is None:
        root = quiver.vertices[0]
    if root not in set(quiver.vertices):
        raise ValueError(f"unknown vertex {root!r}")
    parents: dict[VertexId, tuple[VertexId, Arrow, int]] = {}
    depth = {root: 0}
    tree_arrows: set[ArrowId] = set()
    queue = [root]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for a in quiver.incident.get(v, ()):
            other = a.target if a.source == v else a.source
            if other in depth:
                continue
            depth[other] = depth[v] + 1
            parents[other] = (v, a, 1 if a.source == v else -1)
            tree_arrows.add(a.name)
            queue.append(other)
    return SpanningTree(root, parents, depth, frozenset(tree_arrows))


def cycle_space_basis(quiver: Quiver) -> list[Walk]:
    """A basis of the integer cycle space, one cyclic walk per chord.

    A spanning tree is fixed; every non-tree arrow ("chord") yields the walk
    that follows the chord and returns through the tree.  There are exactly
    ``|Q1| - |Q0| + 1`` of them, and the signed arrow-count vector of any
    cyclic walk is an integer combination of theirs.
    """
    if not quiver.vertices:
        return []
    tree = spanning_tree(quiver)
    if len(tree.depth) != len(quiver.vertices):
        raise ValueError("cycle space basis requires a connected quiver")
    walks = []
    for a in quiver.arrows:
        if a.name in tree.tree_arrows:
            continue
        steps: tuple[Step, ...] = ((a.name, 1),) + tree.walk_between(a.target, a.source)
        walks.append(Walk(steps))
    return walks


def signed_arrow_counts(walk: Walk) -> dict[ArrowId, int]:
    """Net traversal count per arrow; the coordinates of a walk in the cycle space."""
    counts: dict[ArrowId, int] = {}
    for name, direction in walk.steps:
        counts[name] = counts.get(name, 0) + direction
    return {name: c for name, c in counts.items() if c != 0}
