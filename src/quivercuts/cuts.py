"""Cuts of a quiver with cycles and the structure they induce.

A subset ``C`` of the arrows is a *cut* when every distinguished cycle
meets it exactly once.  Removing a cut yields the truncated quiver ``Q_C``,
and rotating each distinguished cycle through a cut arrow yields the
relation paths of the truncated presentation.  Two cuts are *compatible*
when they give every cyclic walk the same degree (arrows of the cut count
1 forwards and -1 backwards); it suffices to compare them on a cycle-space
basis, one closed walk per spanning-forest chord, each held as a pair of
arrow masks.

Cuts form an exact-one hitting problem over the cycles: choosing an arrow
satisfies every cycle through it and forbids all other arrows of those
cycles.  What remains allowed depends only on which cycles are covered, so
the search for all cuts folds into a small DAG of covered-cycle states, in
effect a ZDD of the cut family, whose root-to-sink paths are the cuts.
Counting, listing, :func:`has_enough_cuts` and :func:`is_fully_compatible`
all read this DAG; only listing visits every cut.  Arrows lying in no
distinguished cycle lie in no cut; counting or listing the cuts of a quiver
with such arrows triggers :class:`UncoveredQuiverWarning`.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from operator import add
from typing import Iterable, Mapping, Sequence

from .model import ArrowId, CutSpace, Quiver, QuiverWithCycles, spanning_tree

Cut = tuple[ArrowId, ...]  # the cut's arrow names, sorted


class UncoveredQuiverWarning(UserWarning):
    """Raised-as-warning when arrows outside every distinguished cycle exist."""


def _mask(q: QuiverWithCycles, names: Iterable[ArrowId]) -> int:
    """The bit mask of ``names`` over ``q.cut_space``; raises ``KeyError`` on an unknown arrow."""
    bit = q.cut_space.bit
    members = frozenset(names)
    try:
        return sum(map(bit.__getitem__, members))  # distinct names have distinct bits
    except KeyError:
        raise KeyError(f"unknown arrow {min(members - bit.keys())!r}") from None


def _is_cut_mask(space: CutSpace, m: int) -> bool:
    return not m & space.never and all((m & c).bit_count() == 1 for c in space.members)


def _cut_mask(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> int:
    """The bit mask of ``cut``; raises ``ValueError`` unless it is a cut."""
    members = frozenset(cut)
    m = _mask(q, members)
    if not _is_cut_mask(q.cut_space, m):
        raise ValueError(f"not a cut: {sorted(members)}")
    return m


def is_cut(q: QuiverWithCycles, arrows: Iterable[ArrowId]) -> bool:
    """True iff every distinguished cycle meets ``arrows`` exactly once.

    Occurrences are counted with multiplicity: an arrow repeated inside one
    cycle contributes once per occurrence.
    """
    return _is_cut_mask(q.cut_space, _mask(q, arrows))


def is_covered(q: QuiverWithCycles) -> bool:
    """True iff every arrow appears in some distinguished cycle."""
    return q.cycle_arrows == frozenset(a.name for a in q.quiver.arrows)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# modules whose public functions list cuts on behalf of their caller
_LISTING_MODULES = frozenset({__name__, f"{__package__}.mutation"})


def _warn_if_uncovered(q: QuiverWithCycles) -> None:
    """Warn, at the first caller outside the listing modules, that free arrows lie in no cut."""
    if is_covered(q):
        return
    free = sorted(frozenset(a.name for a in q.quiver.arrows) - q.cycle_arrows)
    message = f"arrows outside every distinguished cycle are excluded from cuts: {free}"
    if not q.cycles:
        message = "quiver has no distinguished cycles; the empty cut is the only cut"
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") in _LISTING_MODULES:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UncoveredQuiverWarning, stacklevel=level)


_Dag = dict[int, tuple[int, tuple[tuple[int, int], ...]]]


def _cut_dag(space: CutSpace) -> _Dag:
    """The cut-state DAG: covered-cycle mask -> (cut count, live edges ``(arrow index, child)``).

    A state is the set of cycles covered so far.  Its arrows banned by the
    exact-one condition are ``never`` and every arrow of a covered cycle, so
    the state alone fixes what lies below it.  Each state branches on the
    candidates of the uncovered cycle with the fewest of them; an arrow joins
    the cut and covers every cycle through it.  The root is ``0`` and the
    sink, the all-covered mask, counts 1.  Edges into states with no cut are
    dropped, so the root-to-sink paths are exactly the cuts, each once, and a
    state with no cut below has no edge.  Every state follows its children in
    the mapping's order.
    """
    members, cycles_of = space.members, space.cycles_of
    conflicts = [0] * len(cycles_of)  # arrows sharing a cycle, per arrow
    for ai, cycles in enumerate(cycles_of):
        for ci in _iter_bits(cycles):
            conflicts[ai] |= members[ci]
    sink = (1 << len(members)) - 1
    branches: dict[int, list[tuple[int, int]]] = {sink: []}
    stack = [(0, space.never)]  # (covered, banned), depth first without recursion
    while stack:
        covered, banned = stack.pop()
        if covered in branches:
            continue
        best_cands, best_n = 0, len(cycles_of) + 1
        for ci in _iter_bits(sink & ~covered):
            cands = members[ci] & ~banned
            n = cands.bit_count()
            if n < best_n:
                best_cands, best_n = cands, n
                if n <= 1:
                    break
        branches[covered] = [(ai, covered | cycles_of[ai]) for ai in _iter_bits(best_cands)]
        stack += [(child, banned | conflicts[ai]) for ai, child in branches[covered]]
    # a child covers more cycles than its parent; the sink, covering all, comes first
    dag: _Dag = {sink: (1, ())}
    for covered in sorted(branches, key=int.bit_count, reverse=True)[1:]:
        edges = tuple((ai, child) for ai, child in branches[covered] if dag[child][0])
        dag[covered] = (sum(dag[child][0] for _, child in edges), edges)
    return dag


def count_cuts(q: QuiverWithCycles) -> int:
    """The number of cuts of ``q``: the root's path count in the cut-state DAG, no cut listed.

    Warns like :func:`enumerate_cuts` when arrows lie in no distinguished cycle.
    """
    _warn_if_uncovered(q)
    return _cut_dag(q.cut_space)[0][0]


def enumerate_cuts(q: QuiverWithCycles) -> list[Cut]:
    """All cuts of ``q``, each a sorted tuple of arrow names, in ascending order.

    The cuts are the root-to-sink paths of the cut-state DAG (see
    :func:`count_cuts`), walked along live edges only, so no branch ends
    without a cut.  A chain of states with a single live edge is folded into
    one step.  An arrow occurring twice in one cycle lies in no cut.

    Arrows lying in no cycle are excluded from every cut; when such arrows
    exist an :class:`UncoveredQuiverWarning` is emitted.
    """
    _warn_if_uncovered(q)
    space = q.cut_space
    dag = _cut_dag(space)
    sink = (1 << len(space.members)) - 1
    steps: dict[int, list[tuple[Cut, int]]] = {}  # state -> folded live edges, arrows by name
    found: list[Cut] = []
    stack: list[tuple[Cut, int]] = [((), 0)] if dag[0][0] else []
    while stack:
        chosen, covered = stack.pop()
        if covered == sink:
            found.append(tuple(sorted(chosen)))
            continue
        if covered not in steps:
            steps[covered] = _folded_edges(dag, sink, space.arrows, covered)
        stack += [(chosen + path, child) for path, child in steps[covered]]
    found.sort()
    return found


def _folded_edges(dag: _Dag, sink: int, names: Sequence[ArrowId], covered: int) -> list[tuple[Cut, int]]:
    """The live edges of ``covered``, each followed through states that have one live edge."""
    folded = []
    for ai, child in dag[covered][1]:
        path = [names[ai]]
        while child != sink and len(dag[child][1]) == 1:
            ai, child = dag[child][1][0]
            path.append(names[ai])
        folded.append((tuple(path), child))
    return folded


def has_enough_cuts(q: QuiverWithCycles) -> bool:
    """True iff every arrow of ``q`` lies in at least one cut: the arrows of the live DAG edges."""
    used = 0
    for _, edges in _cut_dag(q.cut_space).values():
        for ai, _ in edges:
            used |= 1 << ai
    return used == (1 << len(q.cut_space.arrows)) - 1


def _basis_masks(q: QuiverWithCycles) -> list[tuple[int, int]]:
    """``(plus, minus)`` arrow masks of a cycle-space basis: one closed walk per chord of the spanning forest.

    The forest gives every vertex the masks ``(P, M)`` of the arrows its tree
    path from its component's root follows forwards and backwards.  The walk
    of a chord ``c`` from ``s`` to ``t`` follows ``c`` and returns through the
    tree; the stretch the paths to ``s`` and ``t`` share cancels, so it crosses
    each arrow at most once and the cut ``m`` grades it
    ``popcount(m & plus) - popcount(m & minus)``.  Degree is linear on walks, so cuts
    that agree on the basis agree on every cyclic walk.
    """
    bit = q.cut_space.bit
    tree = spanning_tree(q.quiver)
    paths = dict.fromkeys(tree.root.values(), (0, 0))
    for v, (parent, arrow, direction) in tree.parents.items():  # parents first
        p, m = paths[parent]
        paths[v] = (p | bit[arrow.name], m) if direction == 1 else (p, m | bit[arrow.name])
    basis = []
    for a in tree.chords:
        (ps, ms), (pt, mt) = paths[a.source], paths[a.target]
        basis.append((bit[a.name] | (ps & ~pt) | (mt & ~ms), (pt & ~ps) | (ms & ~mt)))
    return basis


def _signature(basis: list[tuple[int, int]], m: int) -> tuple[int, ...]:
    return tuple((m & plus).bit_count() - (m & minus).bit_count() for plus, minus in basis)


def are_compatible(q: QuiverWithCycles, first: Iterable[ArrowId], second: Iterable[ArrowId]) -> bool:
    """True iff both cuts grade every cyclic walk identically."""
    m1, m2 = _cut_mask(q, first), _cut_mask(q, second)
    basis = _basis_masks(q)
    return _signature(basis, m1) == _signature(basis, m2)


def is_fully_compatible(q: QuiverWithCycles) -> bool:
    """True iff all cuts of ``q`` are pairwise compatible.

    Signatures add up along a DAG path, so each state has the set of
    signatures of the paths below it, the sink the empty path's zeros; all
    cuts agree iff no state has two, which is decided children first.  Every
    state with an edge lies on a root-to-sink path, since its child has a cut
    below it and so does every state above it.
    """
    basis = _basis_masks(q)
    space = q.cut_space
    of_arrow = [_signature(basis, 1 << ai) for ai in range(len(space.cycles_of))]  # DAG edges carry cycle arrows
    below: dict[int, tuple[int, ...]] = {}
    for covered, (_, edges) in _cut_dag(space).items():
        signatures = {tuple(map(add, of_arrow[ai], below[child])) for ai, child in edges}
        if len(signatures) > 1:
            return False
        below[covered] = signatures.pop() if edges else (0,) * len(basis)
    return True


def truncated_quiver(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> Quiver:
    """The quiver with the cut arrows removed."""
    members = frozenset(cut)
    _cut_mask(q, members)
    return Quiver(q.quiver.vertices, tuple(a for a in q.quiver.arrows if a.name not in members))


@dataclass(frozen=True)
class TruncatedPresentation:
    """The truncated quiver plus, per cut arrow, its signed relation paths.

    Each relation path is the rotation of a distinguished cycle through the
    cut arrow: the directed path from the arrow's target around to its
    source, which avoids the cut entirely.
    """

    truncated_quiver: Quiver
    relations: Mapping[ArrowId, tuple[tuple[int, tuple[ArrowId, ...]], ...]]


def truncated_presentation(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> TruncatedPresentation:
    """Relations obtained by rotating each distinguished cycle through ``cut``."""
    members = frozenset(cut)
    quiver_c = truncated_quiver(q, members)  # also validates the cut
    relations: dict[ArrowId, tuple[tuple[int, tuple[ArrowId, ...]], ...]] = {}
    for name in sorted(members):
        entries = []
        for cycle in q.cycles:
            if name not in cycle.arrows:
                continue
            at = cycle.arrows.index(name)
            path = cycle.arrows[at + 1 :] + cycle.arrows[:at]
            entries.append((cycle.sign if cycle.sign is not None else 1, path))
        relations[name] = tuple(entries)
    return TruncatedPresentation(quiver_c, relations)
