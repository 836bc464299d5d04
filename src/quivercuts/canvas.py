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

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

from .coset import enumerate_trivial_subgroup
from .model import DEFAULT_COSET_BUDGET, ArrowId, QuiverWithCycles, VertexId


def euler_characteristic(q: QuiverWithCycles) -> int:
    """Cell count alternating sum ``|Q0| - |Q1| + |Q2|``."""
    return len(q.quiver.vertices) - len(q.quiver.arrows) + len(q.cycles)


@dataclass(frozen=True)
class GroupPresentation:
    """Generators are spanning-tree chords; each relator is a cycle's chord names
    in order, its forest arrows erased (every letter has exponent 1)."""

    generators: tuple[ArrowId, ...]
    relators: tuple[tuple[ArrowId, ...], ...]


def _presentations(q: QuiverWithCycles) -> dict[VertexId, GroupPresentation]:
    """The edge-path presentation of each component's canvas group, by component root.

    A component's generators are its chords of the spanning forest, and its
    relators are the cycles whose arrows all lie in it, read with forest
    arrows erased.
    """
    tree = q.quiver.forest
    arrows = q.quiver.arrow_map
    chords = {r: [] for r in tree.root.values()}
    for a in tree.chords:
        chords[tree.root[a.source]].append(a.name)
    chord_set = frozenset(a.name for a in tree.chords)
    relators = {r: [] for r in chords}
    for cycle in q.cycles:
        roots = {tree.root.get(arrows[name].source) if name in arrows else None for name in cycle.arrows}
        if len(roots) == 1 and None not in roots:
            relators[roots.pop()].append(tuple(name for name in cycle.arrows if name in chord_set))
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


def _add_multiple(row: dict[int, int], factor: int, other: dict[int, int]) -> None:
    """``row += factor * other`` on ``{column: entry}`` rows; an entry that reaches 0 is dropped."""
    for j, x in other.items():
        y = row.get(j, 0) + factor * x
        if y:
            row[j] = y
        else:
            del row[j]


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix.

    Entries are positive and each divides the next; their count is the rank.
    Every row is read once into a ``{column: entry}`` dict, and the
    elimination runs on these rows alone.  A worklist first clears each row
    whose one nonzero entry is a unit: it gives a 1, row operations clear
    its column in the other rows and change nothing else, so the row and
    its column drop out, and clearing may leave more such rows.

    The rest is reduced one pivot at a time, on an entry of least absolute
    value.  Row operations reduce its column; a remainder there is smaller
    than the pivot and becomes the next one.  Once the pivot is alone in its
    column and divides its row, column operations would clear the row and
    touch no other, so if it also divides every entry left it is recorded
    and its row dropped.  Otherwise, a row holding an entry it does not
    divide is first added to its row.  Column operations then leave a
    remainder in the pivot's row.  So each pass records a pivot or leaves a
    smaller least entry, and the loop ends.
    """
    n_cols = len(matrix[0]) if matrix else 0
    cleared: set[int] = set()
    entries = [{j: row[j] for j in compress(range(n_cols), row)} for row in matrix]
    holders: dict[int, list[int]] = {}  # column -> the rows with an entry there
    for k, row_entries in enumerate(entries):
        for j in row_entries:
            holders.setdefault(j, []).append(k)
    work = list(range(len(entries)))
    while work:
        row_entries = entries[work.pop()]
        if len(row_entries) != 1:
            continue
        [(c, unit)] = row_entries.items()
        if unit not in (1, -1):
            continue
        cleared.add(c)
        for k in holders[c]:
            if entries[k].pop(c, 0):
                work.append(k)
    diagonal = [1] * len(cleared)
    rows = [row_entries for row_entries in entries if row_entries]
    while rows:
        _, k, c = min((abs(x), k, j) for k, row_entries in enumerate(rows) for j, x in row_entries.items())
        pivot_row = rows.pop(k)
        pivot = pivot_row[c]
        for row_entries in rows:
            if c in row_entries:
                _add_multiple(row_entries, -(row_entries[c] // pivot), pivot_row)
        rows = [row_entries for row_entries in rows if row_entries]
        if any(c in row_entries for row_entries in rows):
            rows.append(pivot_row)
            continue  # a remainder in the column is the next pivot
        if all(x % pivot == 0 for x in pivot_row.values()):
            offender = next((row_entries for row_entries in rows for x in row_entries.values() if x % pivot), None)
            if offender is None:
                diagonal.append(abs(pivot))
                continue
            # mix the offending row in so the pivot can shrink to the gcd
            _add_multiple(pivot_row, 1, offender)
        # the pivot is alone in its column, so column operations change its row alone
        rows.append({j: x if j == c else x % pivot for j, x in pivot_row.items() if j == c or x % pivot})
    return diagonal


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: free rank plus invariant factors."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def _words(presentation: GroupPresentation) -> list[list[int]]:
    """The relators as 1-based generator positions, the coset enumerator's letters."""
    position = {name: i for i, name in enumerate(presentation.generators, 1)}
    return [[position[name] for name in word] for word in presentation.relators]


def _abelianised(n_generators: int, words: list[list[int]]) -> AbelianGroup:
    matrix = [[0] * n_generators for _ in words]
    for row, word in zip(matrix, words):
        for g in word:
            row[g - 1] += 1
    diagonal = smith_diagonal(matrix)
    return AbelianGroup(n_generators - len(diagonal), tuple(d for d in diagonal if d > 1))


def h1(q: QuiverWithCycles) -> AbelianGroup:
    """First homology of the canvas (abelianised fundamental group)."""
    presentation = pi1_presentation(q)
    return _abelianised(len(presentation.generators), _words(presentation))


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
    words = _words(presentation)
    group = _abelianised(len(presentation.generators), words)
    if not group.is_trivial:
        return SimplyConnectedVerdict("No", _describe_h1(group))
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
