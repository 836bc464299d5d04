"""Shared test helpers: independent oracles, generators and an iso checker.

The cut oracle applies the cut predicate, written here on frozensets, to
all subsets, so it shares no code path with the enumerator or ``is_cut``.
The mutation oracles likewise work on frozensets of arrow names, apart from
the bit masks the library uses.  The compatibility oracle looks for a height
function whose differences are the two cuts' difference, apart from the
spanning-tree basis the library compares on.  The basis-walk oracle
climbs the forest from both ends of each chord until they meet and keeps
each walk as a dict of signs, apart from the library's one children-first
pass that packs every arrow's grades in one int.  The enough-cuts and
full-compatibility oracles judge a list of all the cuts, apart from the
cut-state DAG the library reads.  The mutation-graph component count is a
breadth-first search over the oracle's directed edges, apart from the
union-find over the undirected view the library runs.  The component
oracle rebuilds a quiver with cycles per component by depth-first search
over the arrows it gathers per vertex, apart from the one spanning forest
the library reads components off.  The Morita lift oracle tries every copy
assignment of a cycle's stations, apart from the arrow-by-arrow extension
the library makes.  The coset oracle keeps a Python
list per row and scans every column on a coincidence, apart from the
flat table and defined-column masks of the library.  The listing oracle is
a memo-free backtracking search on frozensets of names, apart from the
cut-state DAG, the integer masks and the byte tables the library lists
through.  The Smith oracle is the dense pivot loop alone, without the
library's worklist over unit rows.  The document oracle builds the
document as nested dicts and lists and hands it to ``json.dumps(indent=2)``,
apart from the text the library writes directly; it shares only the label
collapse, ``tensor._product_label``.  The reader oracle checks every entry
through helpers that format where it sits whether or not it fails, and
parses a label per vertex, apart from the plain type tests and shared labels
of the library's reader; the invariant oracle it calls checks each arrow and
each cycle link by itself, apart from the library's checks over the whole
quiver first.  The tree-product counter runs a transfer matrix over the
arrows of a tree factor, apart from the cut-state DAG and from the product
quiver, which it never builds.
"""

from __future__ import annotations

import io
import json
import random
import sys
import warnings
from itertools import permutations, product
from typing import Iterable, Sequence

from quivercuts.coset import EnumerationResult
from quivercuts.docio import (
    FORMAT_VERSION,
    DisconnectedQuiverWarning,
    DocumentError,
    DocumentInvariantError,
    DocumentSchemaError,
    DocumentSyntaxError,
)
from quivercuts.model import Arrow, Cycle, Quiver, QuiverWithCycles
from quivercuts.tensor import BASE, DivisionLabel, LabeledDynkinSpec, LabeledQuiver, LabeledQuiverWithCycles, _product_label

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
            label = _product_label(labels[v])
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


def _oracle_expect_keys(obj, where: str, required: set[str], optional: set[str]) -> None:
    unknown = set(obj) - required - optional
    if unknown:
        raise DocumentSchemaError(f"{where}: unknown field(s) " + ", ".join(map(repr, sorted(unknown))))
    missing = required - set(obj)
    if missing:
        raise DocumentSchemaError(f"{where}: missing field(s) " + ", ".join(map(repr, sorted(missing))))


def _oracle_expect_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise DocumentSchemaError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _oracle_parse_label(obj, where: str) -> DivisionLabel:
    if not isinstance(obj, dict):
        raise DocumentSchemaError(f"{where}: label must be an object")
    _oracle_expect_keys(obj, where, {"kind"}, {"split_count"})
    split_count = obj.get("split_count", 1)
    if not isinstance(split_count, int) or isinstance(split_count, bool):
        raise DocumentSchemaError(f"{where}: split_count must be a positive integer")
    try:
        return DivisionLabel(obj["kind"], split_count)
    except ValueError as exc:
        raise DocumentSchemaError(f"{where}: {exc}") from None


def oracle_validate(q: QuiverWithCycles) -> list[str]:
    """Every invariant violation of ``q``: each vertex, arrow and cycle link checked by itself."""
    violations: list[str] = []
    quiver = q.quiver

    seen_v: set[str] = set()
    for v in quiver.vertices:
        if v in seen_v:
            violations.append(f"duplicate vertex {v!r}")
        seen_v.add(v)

    seen_a: set[str] = set()
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

    roots = sorted(set(quiver.forest.root.values()))
    if len(roots) > 1:
        reps = ", ".join(map(repr, roots))
        violations.append(f"quiver is not connected ({len(roots)} components, containing {reps})")

    return violations


def oracle_parse_quiver_document(text: str) -> LabeledQuiverWithCycles:
    """The document of ``text``, or the ``DocumentError`` the reader raises, read an entry and a check at a time."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentSyntaxError("nesting too deep") from None
    except ValueError:  # an integer longer than int() converts
        raise DocumentSyntaxError(f"number longer than {sys.get_int_max_str_digits()} digits") from None
    if not isinstance(data, dict):
        raise DocumentSchemaError("document root must be an object")
    _oracle_expect_keys(data, "document", {"format_version", "vertices"}, {"arrows", "cycles"})

    version = data["format_version"]
    if not isinstance(version, int) or isinstance(version, bool):
        raise DocumentSchemaError("format_version must be an integer")
    if version < 1:
        raise DocumentSchemaError(f"format_version must be at least 1, got {version}")
    if version > FORMAT_VERSION:
        raise DocumentSchemaError(
            f"format_version {version} is newer than the supported version {FORMAT_VERSION}"
        )

    for field in ("vertices", "arrows", "cycles"):
        if not isinstance(data.get(field, []), list):
            raise DocumentSchemaError(f"{field} must be an array")
    vertices: list[str] = []
    labels: dict[str, tuple[DivisionLabel, ...]] = {}
    seen_vertices: set[str] = set()
    for i, entry in enumerate(data["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict):
            raise DocumentSchemaError(f"{where}: expected an object")
        _oracle_expect_keys(entry, where, {"id"}, {"label"})
        vid = _oracle_expect_str(entry["id"], f"{where}.id")
        if "\n" in vid or "\r" in vid:
            raise DocumentSchemaError(f"{where}.id: vertex id {vid!r} contains a line break")
        if vid in seen_vertices:
            raise DocumentSchemaError(f"{where}: duplicate vertex id {vid!r}")
        seen_vertices.add(vid)
        vertices.append(vid)
        if "label" in entry:
            labels[vid] = (_oracle_parse_label(entry["label"], f"{where}.label"),)

    arrows: list[Arrow] = []
    seen_arrows: set[str] = set()
    for i, entry in enumerate(data.get("arrows", [])):
        where = f"arrows[{i}]"
        if not isinstance(entry, dict):
            raise DocumentSchemaError(f"{where}: expected an object")
        _oracle_expect_keys(entry, where, {"id", "source", "target"}, set())
        aid = _oracle_expect_str(entry["id"], f"{where}.id")
        if "," in aid:
            raise DocumentSchemaError(f"{where}.id: arrow id {aid!r} contains ','")
        if "\n" in aid or "\r" in aid:
            raise DocumentSchemaError(f"{where}.id: arrow id {aid!r} contains a line break")
        if aid in seen_arrows:
            raise DocumentSchemaError(f"{where}: duplicate arrow id {aid!r}")
        seen_arrows.add(aid)
        arrows.append(
            Arrow(
                aid,
                _oracle_expect_str(entry["source"], f"{where}.source"),
                _oracle_expect_str(entry["target"], f"{where}.target"),
            )
        )

    cycles: list[Cycle] = []
    for i, entry in enumerate(data.get("cycles", [])):
        where = f"cycles[{i}]"
        if not isinstance(entry, dict):
            raise DocumentSchemaError(f"{where}: expected an object")
        _oracle_expect_keys(entry, where, {"arrows"}, {"sign"})
        names = entry["arrows"]
        if not isinstance(names, list) or not names:
            raise DocumentSchemaError(f"{where}.arrows: expected a non-empty array of arrow ids")
        sign = None
        if "sign" in entry:
            sign = entry["sign"]
            if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
                raise DocumentSchemaError(f"{where}.sign: expected 1 or -1, got {sign!r}")
        cycles.append(Cycle(tuple(_oracle_expect_str(n, f"{where}.arrows") for n in names), sign))

    qwc = QuiverWithCycles(Quiver(tuple(vertices), tuple(arrows)), tuple(cycles))
    violations = oracle_validate(qwc)
    connectivity = [v for v in violations if v.startswith("quiver is not connected")]
    hard = [v for v in violations if not v.startswith("quiver is not connected")]
    if hard:
        raise DocumentInvariantError("; ".join(hard))
    if connectivity:
        warnings.warn(connectivity[0], DisconnectedQuiverWarning, stacklevel=2)
    return LabeledQuiverWithCycles(qwc, labels)


def parse_outcome(parse, text: str) -> tuple:
    """What ``parse(text)`` gives, a value or a ``DocumentError``'s class and message, and its warnings' texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = parse(text)
        except DocumentError as exc:
            outcome = (type(exc), str(exc))
    return outcome, [(w.category, str(w.message)) for w in caught]


def outgoing(quiver: Quiver, v: str) -> list[Arrow]:
    return [a for a in quiver.arrows if a.source == v]


def incoming(quiver: Quiver, v: str) -> list[Arrow]:
    return [a for a in quiver.arrows if a.target == v]


def touching(quiver: Quiver) -> dict[str, list[Arrow]]:
    """The arrows at each vertex, either end, in name order; a loop once."""
    arrows: dict[str, list[Arrow]] = {}
    for a in quiver.arrows:
        for v in {a.source, a.target}:
            arrows.setdefault(v, []).append(a)
    return arrows


def cycle_arrows(q: QuiverWithCycles) -> frozenset[str]:
    """The arrows on at least one distinguished cycle."""
    return frozenset(name for cycle in q.cycles for name in cycle.arrows)


def cycle_core(q: QuiverWithCycles) -> Quiver:
    """``q``'s quiver restricted to its cycle arrows, on all its vertices."""
    on_cycles = cycle_arrows(q)
    return Quiver(q.quiver.vertices, tuple(a for a in q.quiver.arrows if a.name in on_cycles))


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
    at = touching(q.quiver)
    seen: set[str] = set()
    parts = []
    for root in q.quiver.vertices:
        if root in seen:
            continue
        seen.add(root)
        comp, stack = [root], [root]
        while stack:
            v = stack.pop()
            for a in at.get(v, ()):
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


def oracle_basis_walks(q: QuiverWithCycles) -> list[dict[int, int]]:
    """A cycle-space basis, one closed walk per chord of the spanning forest, each as ``{arrow position: ±1}``.

    The walk of a chord from ``s`` to ``t`` returns through the tree, found
    by climbing from the deeper end until the two meet, so it crosses each
    arrow at most once: a tree arrow counts its direction on the side of
    ``s`` and the opposite on the side of ``t``.  A cut grades a walk by the
    sum over its arrows.  Degree is linear on walks, so cuts that agree on
    the basis agree on every cyclic walk.
    """
    at = q.cut_space.at
    tree = q.quiver.forest
    depth = dict.fromkeys(tree.root.values(), 0)
    for v, (parent, _, _) in tree.parents.items():  # parents first
        depth[v] = depth[parent] + 1
    basis = []
    for a in tree.chords:
        walk, s, t = {at[a.name]: 1}, a.source, a.target
        while s != t:
            if depth[s] >= depth[t]:
                s, arrow, direction = tree.parents[s]
                walk[at[arrow.name]] = direction
            else:
                t, arrow, direction = tree.parents[t]
                walk[at[arrow.name]] = -direction
        basis.append(walk)
    return basis


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

    Edges are computed in the subquiver spanned by cycle arrows, where
    strictness is judged.
    """
    core = cycle_core(q)
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


def oracle_tree_product_count(left: LabeledQuiver, right: LabeledQuiver) -> int:
    """The number of cuts of ``tensor_qwc(left, right)``, whose left factor is a tree, by a transfer matrix.

    The state at a vertex ``u`` of ``left`` is the set ``S``, a bit mask over
    ``right``'s arrows, of the arrows ``b`` whose copy ``v:u:b`` is cut.  An
    arrow ``a: u -> u2`` of ``left`` owns the ``h:a:x``, a 0/1 labelling ``h``
    of ``right``'s vertices, and the ``d:a:b``.  Each ``b: x -> y`` puts
    ``d:a:b`` on the cycles ``(v:u:b, h:a:y, d:a:b)`` and
    ``(h:a:x, v:u2:b, d:a:b)``; met once each, they force ``d:a:b`` and hold
    iff ``h(y) = 0`` when ``b`` is in ``S`` and ``h(x) <= h(y)`` when it is
    not, and then ``b`` is in the state ``S2`` at ``u2`` iff it is in ``S`` or
    ``h(y) = 1``, and ``h(x) = 0``.  One step ``(S, S2)`` is listed per such
    labelling (the transfer matrix ``T``, after Stanley, *Enumerative
    Combinatorics I*, 4.7), and the count, the sum over the states at every
    vertex of the product of ``T`` over the arrows of ``left``, is summed
    leaves first over ``left``'s tree, read off its arrows rather than off its
    vertex order, in which ``"10"`` sorts before ``"2"``.
    """
    tree, factor = left.quiver, right.quiver
    assert len(tree.arrows) == len(tree.vertices) - 1 > 0, "the left factor must be a tree with an arrow"
    assert all(any(v in (b.source, b.target) for b in factor.arrows) for v in factor.vertices)
    position = {v: k for k, v in enumerate(factor.vertices)}
    full = (1 << len(factor.arrows)) - 1
    steps = []
    for h in range(1 << len(factor.vertices)):
        into = sum(1 << k for k, b in enumerate(factor.arrows) if h >> position[b.target] & 1)
        out_of = sum(1 << k for k, b in enumerate(factor.arrows) if h >> position[b.source] & 1)
        need, free = out_of & ~into, full & ~(into | out_of)
        extra = free
        while True:  # every S holding ``need`` and nothing of ``into``: ``need`` with each submask of ``free``
            steps.append((need | extra, (need | extra | into) & ~out_of))
            if not extra:
                break
            extra = (extra - 1) & free
    # root the tree at an arrow's source and order its vertices parents first
    links: dict[str, list[tuple[str, bool]]] = {v: [] for v in tree.vertices}
    for a in tree.arrows:
        links[a.source].append((a.target, True))  # True: the arrow leaves the parent side
        links[a.target].append((a.source, False))
    root = tree.arrows[0].source
    parent: dict[str, tuple[str, bool]] = {}
    order = [root]
    for u in order:
        for w, leaves in links[u]:
            if w != root and w not in parent:
                parent[w] = (u, leaves)
                order.append(w)
    assert len(order) == len(tree.vertices), "the left factor must be connected"
    weights = {v: [1] * (full + 1) for v in tree.vertices}  # per state: the ways to cut below the vertex
    for child in reversed(order[1:]):
        up, leaves = parent[child]
        below, summed = weights[child], [0] * (full + 1)
        for s, s2 in steps:
            if leaves:
                summed[s] += below[s2]
            else:
                summed[s2] += below[s]
        weights[up] = [x * y for x, y in zip(weights[up], summed)]
    return sum(weights[root])


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


# characters a writer escapes or must pass through: a comma, a quote, a backslash and non-ASCII text
AWKWARD_CHARACTERS = ("a", "b", " ", ",", '"', "\\", "\u00e9", "\u2603")


def awkward_names(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct names, each one to three random ``AWKWARD_CHARACTERS``, in random order."""
    names: list[str] = []
    while len(names) < n:
        name = "".join(rng.choice(AWKWARD_CHARACTERS) for _ in range(rng.randint(1, 3)))
        if name not in names:
            names.append(name)
    return names


def renamed(q: QuiverWithCycles, names: Sequence[str]) -> QuiverWithCycles:
    """``q`` with its arrows renamed, in declaration order, to ``names``."""
    new = dict(zip((a.name for a in q.quiver.arrows), names))
    arrows = tuple(Arrow(new[a.name], a.source, a.target) for a in q.quiver.arrows)
    cycles = tuple(Cycle(tuple(map(new.__getitem__, c.arrows)), c.sign) for c in q.cycles)
    return QuiverWithCycles(Quiver(q.quiver.vertices, arrows), cycles)


def random_cyclic_walk(rng: random.Random, quiver: Quiver, max_steps: int = 40) -> list[Step] | None:
    """A random walk in the doubled quiver that happens to close up."""
    if not quiver.arrows:
        return None
    arrows_at = touching(quiver)
    start = rng.choice(quiver.vertices)
    at = start
    steps = []
    for _ in range(max_steps):
        options = []
        for a in arrows_at.get(at, ()):
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
    """One Python list per row, every column scanned on each coincidence.

    The independent, slower oracle for the library's closing-step deduction:
    it defines a coset at the closing letter too, then merges it.
    """

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
