"""Shared test helpers: independent oracles, generators and an iso checker.

The cut oracle applies the cut predicate, written here on frozensets, to
all subsets, so it shares no code path with the enumerator or ``is_cut``.
The mutation oracles likewise work on frozensets of arrow names, apart from
the bit masks the library uses.  The compatibility oracle looks for a height
function whose differences are the two cuts' difference, apart from the
spanning-tree basis the library compares on.  The enough-cuts and
full-compatibility oracles judge a list of all the cuts, apart from the
cut-state DAG the library reads.  The mutation-graph component count is a
breadth-first search over the oracle's directed edges, apart from the
union-find over the undirected view the library runs.  The component
oracle rebuilds a quiver with cycles per component by depth-first search,
apart from the one spanning forest the library reads components off.  The
Morita lift oracle tries every copy assignment of a cycle's stations, apart
from the arrow-by-arrow extension the library makes.  The coset oracle keeps a
Python list per row and scans every column on a coincidence, apart from the
flat table and defined-column masks of the library.  The listing oracle is
a memo-free backtracking search on frozensets of names, apart from the
cut-state DAG, the integer masks and the byte tables the library lists
through.  The Smith oracle is the dense pivot loop alone, without the
library's first pass over unit rows.  The document oracle builds the
document as nested dicts and lists and hands it to ``json.dumps(indent=2)``,
apart from the text the library writes directly; it shares only the label
collapse.
"""

from __future__ import annotations

import io
import json
import random
from itertools import permutations, product
from typing import Iterable, Sequence

from quivercuts.coset import EnumerationResult
from quivercuts.docio import FORMAT_VERSION, _collapse_label
from quivercuts.model import Arrow, Cycle, Quiver, QuiverWithCycles
from quivercuts.tensor import BASE, LabeledDynkinSpec, LabeledQuiver, LabeledQuiverWithCycles

Step = tuple[str, int]  # (arrow name, +1 along the arrow or -1 against it)


def written(write, value, **kwargs) -> str:
    """The text that ``write(value, out, **kwargs)``, e.g. ``mutation_graph_to_json``, writes to ``out``."""
    out = io.StringIO()
    write(value, out, **kwargs)
    return out.getvalue()


def reference_quiver_document(value: LabeledQuiverWithCycles | QuiverWithCycles) -> str:
    """The canonical document text, as ``json.dumps(doc, indent=2)`` writes the document ``doc``."""
    if isinstance(value, QuiverWithCycles):
        qwc, labels = value, {}
    else:
        qwc, labels = value.qwc, value.labels
    vertices = []
    for v in qwc.quiver.vertices:
        entry: dict = {"id": v}
        if v in labels:
            label = _collapse_label(labels[v])
            box: dict = {"kind": label.kind}
            if label.split_count != 1:
                box["split_count"] = label.split_count
            entry["label"] = box
        vertices.append(entry)
    cycles = []
    for c in qwc.cycles:
        entry = {"arrows": list(c.arrows)}
        if c.sign is not None:
            entry["sign"] = c.sign
        cycles.append(entry)
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": vertices,
        "arrows": [{"id": a.name, "source": a.source, "target": a.target} for a in qwc.quiver.arrows],
        "cycles": cycles,
    }
    return json.dumps(doc, indent=2) + "\n"


def outgoing(quiver: Quiver, v: str) -> list[Arrow]:
    return [a for a in quiver.arrows if a.source == v]


def incoming(quiver: Quiver, v: str) -> list[Arrow]:
    return [a for a in quiver.arrows if a.target == v]


def is_acyclic(quiver: Quiver) -> bool:
    """True iff the directed graph has no directed cycle (Kahn's criterion)."""
    indeg = {v: len(incoming(quiver, v)) for v in quiver.vertices}
    ready = [v for v, d in indeg.items() if d == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for a in outgoing(quiver, v):
            indeg[a.target] -= 1
            if indeg[a.target] == 0:
                ready.append(a.target)
    return removed == len(quiver.vertices)


def oracle_is_cut(q: QuiverWithCycles, arrows: frozenset[str]) -> bool:
    """Every distinguished cycle meets ``arrows`` exactly once, counting repeated occurrences."""
    return all(sum(1 for name in cycle.arrows if name in arrows) == 1 for cycle in q.cycles)


def oracle_split_components(q: QuiverWithCycles) -> list[QuiverWithCycles]:
    """``q`` restricted to each component of the underlying undirected graph.

    Components come in the order of their least declared vertex, each holding
    the arrows whose source it holds and the cycles all of whose arrows it holds.
    """
    seen: set[str] = set()
    parts = []
    for root in q.quiver.vertices:
        if root in seen:
            continue
        seen.add(root)
        comp, stack = [root], [root]
        while stack:
            v = stack.pop()
            for a in q.quiver.incident.get(v, ()):
                for w in (a.source, a.target):
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
        members = set(comp)
        quiver = Quiver(tuple(comp), tuple(a for a in q.quiver.arrows if a.source in members))
        cycles = tuple(c for c in q.cycles if all(name in quiver.arrow_map for name in c.arrows))
        parts.append(QuiverWithCycles(quiver, cycles))
    return parts


def oracle_morita_cycles(t: LabeledQuiverWithCycles) -> tuple[Cycle, ...]:
    """The distinguished cycles of the Morita split of ``t``, canonicalised.

    Every assignment of copies to a cycle's stations is tried, and those
    whose arrow copies all exist lift; between two split vertices only the
    diagonal copies exist.
    """
    quiver = t.qwc.quiver
    split = {v for v, pair in t.labels.items() if len(pair) == 2 and {lab.kind for lab in pair} == {"Ext"}}
    n = max((lab.split_count for v in split for lab in t.labels[v]), default=1)
    multiplicity = {v: n if v in split else 1 for v in quiver.vertices}
    copies = {}
    for a in quiver.arrows:
        ms, mt = multiplicity[a.source], multiplicity[a.target]
        for k, k2 in product(range(1, ms + 1), range(1, mt + 1)):
            if not (a.source in split and a.target in split and k != k2):
                copies[(a.name, k, k2)] = a.name if ms == mt == 1 else f"{a.name}.{k}.{k2}"
    cycles = []
    for cycle in t.qwc.cycles:
        stations = [quiver.arrow(name).source for name in cycle.arrows]
        for assignment in product(*(range(1, multiplicity[v] + 1) for v in stations)):
            closed = assignment[1:] + assignment[:1]
            names = tuple(copies.get(key) for key in zip(cycle.arrows, assignment, closed))
            if None not in names:
                cycles.append(Cycle(names, cycle.sign))
    return QuiverWithCycles(Quiver((), ()), tuple(cycles)).cycles


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


def oracle_enumerate_cuts(q: QuiverWithCycles) -> list[frozenset[str]]:
    """Every cut, found once each by an exact-one backtracking search on frozensets, with no memo.

    A partial choice extends by each arrow of its first cycle that it does
    not meet, and is dropped once it meets some cycle twice (an arrow counted
    once per occurrence); the first uncovered cycle of a cut has one arrow in
    it, so each cut is reached by one path.  The cuts come in search order.
    """
    cycles = [cycle.arrows for cycle in q.cycles]
    found = []
    stack = [frozenset()]
    while stack:
        chosen = stack.pop()
        meets = [sum(1 for name in cycle if name in chosen) for cycle in cycles]
        if any(k > 1 for k in meets):
            continue
        if 0 not in meets:
            found.append(chosen)
            continue
        stack.extend(chosen | {name} for name in set(cycles[meets.index(0)]))
    return found


def oracle_are_compatible(q: QuiverWithCycles, first: Iterable[str], second: Iterable[str]) -> bool:
    """The cuts differ by a coboundary: some heights ``h`` on the vertices have
    ``h(target) - h(source) = [a in first] - [a in second]`` on every arrow ``a``.

    That is equal degree on every cyclic walk.  Heights spread from a root of
    each component in turn, and a second path to a vertex must agree.
    """
    x, y = frozenset(first), frozenset(second)
    steps: dict[str, list[tuple[str, int]]] = {}
    for a in q.quiver.arrows:
        d = (a.name in x) - (a.name in y)
        steps.setdefault(a.source, []).append((a.target, d))
        steps.setdefault(a.target, []).append((a.source, -d))
    height: dict[str, int] = {}
    for root in steps:
        if root in height:
            continue
        height[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, d in steps[v]:
                if w not in height:
                    height[w] = height[v] + d
                    stack.append(w)
                elif height[w] != height[v] + d:
                    return False
    return True


def oracle_has_enough_cuts(q: QuiverWithCycles, cuts: list[Iterable[str]]) -> bool:
    """Every arrow of ``q`` lies in one of ``cuts``, which must be all its cuts."""
    return set().union(*cuts) == {a.name for a in q.quiver.arrows}


def oracle_is_fully_compatible(q: QuiverWithCycles, cuts: list[Iterable[str]]) -> bool:
    """Every one of ``cuts`` is compatible with the first, by :func:`oracle_are_compatible`."""
    return all(oracle_are_compatible(q, cut, cuts[0]) for cut in cuts)


def oracle_strict_vertices(quiver: Quiver, cut: frozenset[str]) -> tuple[list[str], list[str]]:
    """Strict sources and strict sinks of ``cut`` in ``quiver``, each sorted."""
    sources: list[str] = []
    sinks: list[str] = []
    for v in quiver.vertices:
        arrows_in, arrows_out = incoming(quiver, v), outgoing(quiver, v)
        if not arrows_in and not arrows_out:
            continue
        in_cut = [a.name in cut for a in arrows_in]
        out_cut = [a.name in cut for a in arrows_out]
        if all(in_cut) and not any(out_cut):
            sources.append(v)
        if all(out_cut) and not any(in_cut):
            sinks.append(v)
    return sources, sinks


def oracle_mutate(quiver: Quiver, cut: frozenset[str], vertex: str, direction: str) -> frozenset[str]:
    """Swap the incidence of ``vertex``: "+" drops incoming arrows, "-" outgoing."""
    arrows_in = {a.name for a in incoming(quiver, vertex)}
    arrows_out = {a.name for a in outgoing(quiver, vertex)}
    if direction == "+":
        return frozenset((cut - arrows_in) | arrows_out)
    return frozenset((cut - arrows_out) | arrows_in)


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


def oracle_component_count(n_nodes: int, edges: Iterable[tuple[int, int, str, str]]) -> int:
    """Connected components of the graph on ``range(n_nodes)``, by breadth-first search."""
    neighbours: list[list[int]] = [[] for _ in range(n_nodes)]
    for i, j, _, _ in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen = [False] * n_nodes
    count = 0
    for start in range(n_nodes):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = [start]
        for v in queue:
            for w in neighbours[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return count


_L_VALUES = {
    "B": lambda r: r,
    "C": lambda r: r,
    "D": lambda r: r - 1,
    "E": lambda r: {6: 6, 7: 9, 8: 15}[r],
    "F": lambda r: 6,
    "G": lambda r: 3,
}


def _nakayama_permutation(family: str, rank: int) -> dict[str, str]:
    identity = {str(i): str(i) for i in range(1, rank + 1)}
    if family == "A":
        return {str(i): str(rank + 1 - i) for i in range(1, rank + 1)}
    if family == "D" and rank % 2 == 1:
        identity.update({"1": "2", "2": "1"})
        return identity
    if family == "E" and rank == 6:
        identity.update({"1": "5", "5": "1", "2": "4", "4": "2"})
        return identity
    # non-simply-laced families, D of even rank, E7 and E8 act trivially
    return identity


def l_homogeneity(spec: LabeledDynkinSpec) -> int | None:
    """The homogeneity degree (half the Coxeter number), when defined for this orientation.

    Defined when the orientation is stable under the diagram's Nakayama
    permutation and the tabulated value is an integer; absent otherwise.
    """
    if spec.family == "A":
        if (spec.rank + 1) % 2 != 0:
            return None
        value = (spec.rank + 1) // 2
    else:
        value = _L_VALUES[spec.family](spec.rank)
    sigma = _nakayama_permutation(spec.family, spec.rank)
    mapped = {(sigma[u], sigma[v]) for u, v in spec.orientation}
    if mapped != set(spec.orientation):
        return None
    return value


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


def random_quiver_with_cycles(
    rng: random.Random, max_vertices: int = 3, max_arrows: int = 6, min_arrows: int = 0
) -> QuiverWithCycles:
    """Random arrows ``a0``, ``a1``, ... (loops, parallels, several components) with up to three cycles.

    Each cycle is read off a random directed walk that returns to its start,
    so an arrow may repeat inside a cycle, and arrows may lie in no cycle.
    """
    vertices = [str(i) for i in range(1, rng.randint(1, max_vertices) + 1)]
    n = rng.randint(min_arrows, max_arrows)
    arrows = [Arrow(f"a{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(n)]
    quiver = Quiver(tuple(vertices), tuple(arrows))
    cycles = []
    for _ in range(rng.randint(0, 3)):
        start = at = rng.choice(vertices)
        names: list[str] = []
        while len(names) < 6 and outgoing(quiver, at):
            arrow = rng.choice(outgoing(quiver, at))
            names.append(arrow.name)
            at = arrow.target
            if at == start:
                cycles.append(Cycle(tuple(names)))
                break
    return QuiverWithCycles(quiver, tuple(cycles))


def random_cyclic_walk(rng: random.Random, quiver: Quiver, max_steps: int = 40) -> list[Step] | None:
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
            return steps
    return None


def _vertex_signature(value: LabeledQuiverWithCycles, v: str):
    q = value.qwc.quiver
    return (
        value.labels.get(v),
        len(incoming(q, v)),
        len(outgoing(q, v)),
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


class _OracleBudget(Exception):
    pass


class _OracleCosetTable:
    """One Python list per row, every column scanned on each coincidence."""

    def __init__(self, n_generators: int, max_cosets: int):
        self.columns = 2 * n_generators
        self.max_cosets = max_cosets
        self.label: list[int] = []
        self.rows: list[list[int]] = []
        self.live = 0

    def find(self, c: int) -> int:
        root = c
        while self.label[root] != root:
            root = self.label[root]
        while self.label[c] != root:
            self.label[c], c = root, self.label[c]
        return root

    def define(self) -> int:
        if len(self.rows) >= self.max_cosets:
            raise _OracleBudget
        c = len(self.rows)
        self.label.append(c)
        self.rows.append([-1] * self.columns)
        self.live += 1
        return c

    def follow(self, c: int, column: int) -> int:
        c = self.find(c)
        entry = self.rows[c][column]
        if entry == -1:
            d = self.define()
            self.rows[c][column] = d
            self.rows[d][column ^ 1] = c
            return d
        return self.find(entry)

    def unify(self, a: int, b: int) -> None:
        pending = [(a, b)]
        while pending:
            a, b = pending.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.label[b] = a
            self.live -= 1
            row_a, row_b = self.rows[a], self.rows[b]
            for column in range(self.columns):
                other = row_b[column]
                if other == -1:
                    continue
                if row_a[column] == -1:
                    row_a[column] = other
                else:
                    pending.append((row_a[column], other))


def oracle_enumerate_trivial_subgroup(
    n_generators: int, relators: list[list[int]], max_cosets: int
) -> EnumerationResult:
    """HLT enumeration on a table of per-row lists, the same definition order
    as ``coset.enumerate_trivial_subgroup``.  Letters must be in range."""
    words = [[2 * (abs(x) - 1) + (x < 0) for x in word] for word in relators]
    table = _OracleCosetTable(n_generators, max_cosets)
    try:
        table.define()
        scanned = 0
        while scanned < len(table.label):
            if table.find(scanned) == scanned:
                for word in words:
                    at = scanned
                    for column in word:
                        at = table.follow(at, column)
                    table.unify(at, table.find(scanned))
                    if table.find(scanned) != scanned:
                        break
                live = table.find(scanned)
                if live == scanned:
                    for column in range(table.columns):
                        if table.rows[live][column] == -1:
                            table.follow(live, column)
            scanned += 1
    except _OracleBudget:
        return EnumerationResult(False, table.live, len(table.rows))
    return EnumerationResult(True, table.live, len(table.rows))


def oracle_smith_diagonal(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form by the dense pivot loop alone, with no unit-row pass."""
    m = [list(row) for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    diagonal: list[int] = []
    t = 0
    while t < n_rows and t < n_cols:
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                    best = (i, j)
            if best is not None and abs(m[best[0]][best[1]]) == 1:
                break  # no pivot is smaller than a unit
        if best is None:
            break
        bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        if bj != t:
            for row in m:
                row[t], row[bj] = row[bj], row[t]
        pivot = m[t][t]
        dirty = False
        for i in range(t + 1, n_rows):
            if m[i][t]:
                factor = m[i][t] // pivot
                m[i] = [a - factor * b for a, b in zip(m[i], m[t])]
                if m[i][t]:
                    dirty = True  # remainder smaller than the pivot appeared
        for j in range(t + 1, n_cols):
            if m[t][j]:
                factor = m[t][j] // pivot
                for row in m:
                    row[j] -= factor * row[t]
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, n_rows if abs(pivot) != 1 else 0):  # a unit divides everything
            for j in range(t + 1, n_cols):
                if m[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # mix the offending row in so the pivot can shrink to the gcd
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            continue
        diagonal.append(abs(pivot))
        t += 1
    return diagonal
