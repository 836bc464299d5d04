"""Shared test helpers: independent oracles, generators and an iso checker.

The cut oracle applies the cut predicate, written here on frozensets, to
all subsets, so it shares no code path with the enumerator or ``is_cut``.
The mutation and compatibility oracles likewise work on frozensets of arrow
names and walk degrees, apart from the bit masks the library uses; the
enough-cuts and full-compatibility oracles judge a list of all the cuts,
apart from the cut-state DAG the library reads.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Iterable

from quivercuts.model import Arrow, Cycle, Quiver, QuiverWithCycles, Walk, connected_components, cycle_space_basis
from quivercuts.tensor import BASE, LabeledQuiver, LabeledQuiverWithCycles


def oracle_is_cut(q: QuiverWithCycles, arrows: frozenset[str]) -> bool:
    """Every distinguished cycle meets ``arrows`` exactly once, counting repeated occurrences."""
    return all(sum(1 for name in cycle.arrows if name in arrows) == 1 for cycle in q.cycles)


def brute_force_cuts(q: QuiverWithCycles) -> list[frozenset[str]]:
    """Filter all subsets of cycle arrows through the exact-one condition."""
    arrows = sorted({name for cycle in q.cycles for name in cycle.arrows})
    assert len(arrows) <= 20, "oracle is exponential; keep instances small"
    cuts = []
    for bits in range(1 << len(arrows)):
        subset = frozenset(a for i, a in enumerate(arrows) if bits >> i & 1)
        if oracle_is_cut(q, subset):
            cuts.append(subset)
    cuts.sort(key=lambda cut: tuple(sorted(cut)))
    return cuts


def oracle_basis_walks(q: QuiverWithCycles) -> list[Walk]:
    """Cycle-space basis walks of each connected component, each restricted here by hand."""
    walks: list[Walk] = []
    for comp in connected_components(q.quiver):
        sub = Quiver(comp, tuple(a for a in q.quiver.arrows if a.source in comp))
        walks.extend(cycle_space_basis(sub))
    return walks


def oracle_has_enough_cuts(q: QuiverWithCycles, cuts: list[Iterable[str]]) -> bool:
    """Every arrow of ``q`` lies in one of ``cuts``, which must be all its cuts."""
    return set().union(*cuts) == {a.name for a in q.quiver.arrows}


def oracle_is_fully_compatible(q: QuiverWithCycles, cuts: list[Iterable[str]]) -> bool:
    """All of ``cuts`` grade every basis walk of :func:`oracle_basis_walks` alike."""
    walks = oracle_basis_walks(q)

    def degrees(cut: Iterable[str]) -> list[int]:
        members = frozenset(cut)
        return [sum(direction for name, direction in walk.steps if name in members) for walk in walks]

    return all(degrees(cut) == degrees(cuts[0]) for cut in cuts)


def oracle_strict_vertices(quiver: Quiver, cut: frozenset[str]) -> tuple[list[str], list[str]]:
    """Strict sources and strict sinks of ``cut`` in ``quiver``, each sorted."""
    sources: list[str] = []
    sinks: list[str] = []
    for v in quiver.vertices:
        incoming = quiver.incoming.get(v, ())
        outgoing = quiver.outgoing.get(v, ())
        if not incoming and not outgoing:
            continue
        in_cut = [a.name in cut for a in incoming]
        out_cut = [a.name in cut for a in outgoing]
        if all(in_cut) and not any(out_cut):
            sources.append(v)
        if all(out_cut) and not any(in_cut):
            sinks.append(v)
    return sources, sinks


def oracle_mutate(quiver: Quiver, cut: frozenset[str], vertex: str, direction: str) -> frozenset[str]:
    """Swap the incidence of ``vertex``: "+" drops incoming arrows, "-" outgoing."""
    incoming = {a.name for a in quiver.incoming.get(vertex, ())}
    outgoing = {a.name for a in quiver.outgoing.get(vertex, ())}
    if direction == "+":
        return frozenset((cut - incoming) | outgoing)
    return frozenset((cut - outgoing) | incoming)


def oracle_mutation_edges(q: QuiverWithCycles, cuts: Iterable[Iterable[str]]) -> list[tuple[int, int, str, str]]:
    """Directed edges ``(source, target, vertex, direction)`` among ``cuts``, sorted.

    Edges are computed in the subquiver spanned by cycle arrows, since free
    arrows lie in no enumerated cut.
    """
    core = Quiver(q.quiver.vertices, tuple(a for a in q.quiver.arrows if a.name in q.cycle_arrows))
    members = [frozenset(cut) for cut in cuts]
    index = {cut: i for i, cut in enumerate(members)}
    edges = set()
    for i, cut in enumerate(members):
        sources, sinks = oracle_strict_vertices(core, cut)
        for direction, vertices in (("+", sources), ("-", sinks)):
            for v in vertices:
                edges.add((i, index[oracle_mutate(core, cut, v, direction)], v, direction))
    return sorted(edges)


def random_tree_quiver(rng: random.Random, max_vertices: int = 4, min_vertices: int = 1) -> LabeledQuiver:
    """A uniformly grown random tree with random edge orientations."""
    n = rng.randint(min_vertices, max_vertices)
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    for child in range(2, n + 1):
        parent = rng.randint(1, child - 1)
        u, v = (parent, child) if rng.random() < 0.5 else (child, parent)
        arrows.append(Arrow(f"{u}-{v}", str(u), str(v)))
    return LabeledQuiver(Quiver(vertices, tuple(arrows)), {v: BASE for v in vertices})


def random_quiver_with_cycles(rng: random.Random, max_vertices: int = 3, max_arrows: int = 6) -> QuiverWithCycles:
    """Random arrows (loops, parallels, several components) with up to three cycles.

    Each cycle is read off a random directed walk that returns to its start,
    so an arrow may repeat inside a cycle, and arrows may lie in no cycle.
    """
    vertices = [str(i) for i in range(1, rng.randint(1, max_vertices) + 1)]
    arrows = [Arrow(f"a{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(rng.randint(0, max_arrows))]
    quiver = Quiver(tuple(vertices), tuple(arrows))
    cycles = []
    for _ in range(rng.randint(0, 3)):
        start = at = rng.choice(vertices)
        names: list[str] = []
        while len(names) < 6 and quiver.outgoing.get(at):
            arrow = rng.choice(quiver.outgoing[at])
            names.append(arrow.name)
            at = arrow.target
            if at == start:
                cycles.append(Cycle(tuple(names)))
                break
    return QuiverWithCycles(quiver, tuple(cycles))


def random_cyclic_walk(rng: random.Random, quiver: Quiver, max_steps: int = 40) -> Walk | None:
    """A random walk in the doubled quiver that happens to close up."""
    if not quiver.arrows:
        return None
    start = rng.choice(quiver.vertices)
    at = start
    steps = []
    for _ in range(max_steps):
        options = []
        for a in quiver.incident.get(at, ()):
            if a.source == at:
                options.append((a.name, 1, a.target))
            if a.target == at:
                options.append((a.name, -1, a.source))
        if not options:
            return None
        name, direction, at = rng.choice(options)
        steps.append((name, direction))
        if at == start and steps:
            return Walk(tuple(steps))
    return None


def _vertex_signature(value: LabeledQuiverWithCycles, v: str):
    q = value.qwc.quiver
    return (
        value.labels.get(v),
        len(q.incoming.get(v, ())),
        len(q.outgoing.get(v, ())),
    )


def labeled_isomorphic(x: LabeledQuiverWithCycles, y: LabeledQuiverWithCycles) -> bool:
    """Isomorphism of labelled quivers with cycles (no parallel arrows)."""
    qx, qy = x.qwc.quiver, y.qwc.quiver
    if len(qx.vertices) != len(qy.vertices) or len(qx.arrows) != len(qy.arrows):
        return False
    if len(x.qwc.cycles) != len(y.qwc.cycles):
        return False
    y_arrows = {(a.source, a.target): a.name for a in qy.arrows}
    assert len(y_arrows) == len(qy.arrows), "iso checker assumes no parallel arrows"
    y_cycles = {(c.arrows, c.sign) for c in y.qwc.cycles}
    xs = qx.vertices
    for perm in permutations(qy.vertices):
        mapping = dict(zip(xs, perm))
        if any(_vertex_signature(x, v) != _vertex_signature(y, mapping[v]) for v in xs):
            continue
        arrow_map = {}
        for a in qx.arrows:
            image = y_arrows.get((mapping[a.source], mapping[a.target]))
            if image is None:
                break
            arrow_map[a.name] = image
        else:
            mapped = {
                (Cycle(tuple(arrow_map[n] for n in c.arrows)).arrows, c.sign)
                for c in x.qwc.cycles
            }
            if mapped == y_cycles:
                return True
    return False
