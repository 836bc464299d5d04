"""The canvas of a quiver with cycles: a 2-complex and its topology.

The canvas has one 0-cell per vertex, one 1-cell per arrow and one 2-cell
per distinguished cycle, attached along the cycle's boundary word.  Its
fundamental group has the usual edge-path presentation: contract a spanning
tree, keep one generator per chord, and read each 2-cell boundary with tree
arrows erased.  One BFS spanning forest of the quiver yields this
presentation for every component at once, filed under the component's
least vertex.

Simple connectivity is decided in tiers.  First homology (abelianisation,
by integer Smith normal form) refutes cheaply; a budgeted coset enumeration
then tries to prove the group trivial.  Group triviality is undecidable in
general, so verdicts are Yes / No / Unknown with explicit evidence, never a
nonterminating loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coset import enumerate_trivial_subgroup
from .model import ArrowId, QuiverWithCycles, VertexId, spanning_tree

DEFAULT_COSET_BUDGET = 10**6


def euler_characteristic(q: QuiverWithCycles) -> int:
    """Cell count alternating sum ``|Q0| - |Q1| + |Q2|``."""
    return len(q.quiver.vertices) - len(q.quiver.arrows) + len(q.cycles)


@dataclass(frozen=True)
class GroupPresentation:
    """Generators are spanning-tree chords; relators are erased cycle words."""

    generators: tuple[ArrowId, ...]
    relators: tuple[tuple[tuple[ArrowId, int], ...], ...]


def _presentations(q: QuiverWithCycles) -> dict[VertexId, GroupPresentation]:
    """The edge-path presentation of each component's canvas group, by component root.

    A component's generators are its chords of the spanning forest, and its
    relators are the cycles whose arrows all lie in it, read with forest
    arrows erased.
    """
    tree = spanning_tree(q.quiver)
    arrows = q.quiver.arrow_map
    chords = {r: [] for r in tree.root.values()}
    for a in tree.chords:
        chords[tree.root[a.source]].append(a.name)
    chord_set = frozenset(a.name for a in tree.chords)
    relators = {r: [] for r in chords}
    for cycle in q.cycles:
        roots = {tree.root.get(arrows[name].source) if name in arrows else None for name in cycle.arrows}
        if len(roots) == 1 and None not in roots:
            relators[roots.pop()].append(tuple((name, 1) for name in cycle.arrows if name in chord_set))
    return {r: GroupPresentation(tuple(chords[r]), tuple(relators[r])) for r in chords}


def pi1_presentation(q: QuiverWithCycles) -> GroupPresentation:
    """Edge-path presentation of the canvas fundamental group.

    The spanning tree is the BFS tree from the least vertex with arrow-name
    tie-breaking, so the presentation is reproducible.  Rejects empty and
    disconnected quivers.
    """
    if not q.quiver.vertices:
        raise ValueError("empty quiver has no canvas")
    presentations = _presentations(q)
    if len(presentations) != 1:
        raise ValueError("fundamental group presentation requires a connected quiver")
    return presentations[q.quiver.vertices[0]]


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix.

    Entries are positive and each divides the next; their count is the rank.
    """
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


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: free rank plus invariant factors."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def _abelianised(presentation: GroupPresentation) -> AbelianGroup:
    generators = presentation.generators
    if not generators:
        return AbelianGroup(0, ())
    index = {name: i for i, name in enumerate(generators)}
    rows = []
    for word in presentation.relators:
        row = [0] * len(generators)
        for name, exponent in word:
            row[index[name]] += exponent
        rows.append(row)
    if not rows:
        return AbelianGroup(len(generators), ())
    diagonal = smith_diagonal(rows)
    torsion = tuple(d for d in diagonal if d > 1)
    return AbelianGroup(len(generators) - len(diagonal), torsion)


def h1(q: QuiverWithCycles) -> AbelianGroup:
    """First homology of the canvas (abelianised fundamental group)."""
    return _abelianised(pi1_presentation(q))


@dataclass(frozen=True)
class SimplyConnectedVerdict:
    status: str  # "Yes" | "No" | "Unknown"
    evidence: str


def _describe_h1(group: AbelianGroup) -> str:
    text = f"H1 rank {group.free_rank}"
    if group.torsion:
        text += ", torsion " + "x".join(str(d) for d in group.torsion)
    return text


def _component_verdict(presentation: GroupPresentation, budget: int) -> SimplyConnectedVerdict:
    group = _abelianised(presentation)
    if not group.is_trivial:
        return SimplyConnectedVerdict("No", _describe_h1(group))
    words = [
        [presentation.generators.index(name) + 1 for name, _ in word]
        for word in presentation.relators
    ]
    result = enumerate_trivial_subgroup(len(presentation.generators), words, budget)
    if not result.closed:
        return SimplyConnectedVerdict("Unknown", f"budget exhausted at {result.defined_cosets} cosets")
    if result.live_cosets == 1:
        return SimplyConnectedVerdict("Yes", "coset table closed with 1 coset")
    return SimplyConnectedVerdict("No", f"coset table closed with {result.live_cosets} cosets")


def is_simply_connected(
    q: QuiverWithCycles, budget: int = DEFAULT_COSET_BUDGET
) -> SimplyConnectedVerdict:
    """Tiered decision: H1 refutation, then budgeted coset enumeration.

    Disconnected quivers are judged per component; all components must be
    simply connected.  ``Unknown`` is a value (budget ran out), not an error.
    """
    if budget < 1:
        raise ValueError("coset budget must be positive")
    verdicts: list[tuple[VertexId, SimplyConnectedVerdict]] = [
        (root, _component_verdict(presentation, budget)) for root, presentation in _presentations(q).items()
    ]
    if not verdicts:
        return SimplyConnectedVerdict("Yes", "empty quiver")
    if len(verdicts) == 1:
        return verdicts[0][1]
    for status in ("No", "Unknown"):
        for rep, verdict in verdicts:
            if verdict.status == status:
                return SimplyConnectedVerdict(status, f"component of {rep!r}: {verdict.evidence}")
    return SimplyConnectedVerdict("Yes", f"all {len(verdicts)} components simply connected")
