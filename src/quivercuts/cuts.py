"""Cuts of a quiver with cycles and the structure they induce.

A subset ``C`` of the arrows grades every arrow by membership (1 on ``C``,
0 elsewhere); the grading extends additively to paths and with sign -1 to
reversed arrows in walks.  ``C`` is a *cut* when every distinguished cycle
has total degree exactly 1.  Removing a cut yields the truncated quiver
``Q_C``, and rotating each distinguished cycle through a cut arrow yields
the relation paths of the truncated presentation.

Enumeration treats cuts as an exact-one hitting problem over the cycles:
choosing an arrow satisfies every cycle through it and forbids all other
arrows of those cycles.  Arrows lying in no distinguished cycle are never
enumerated into cuts; a quiver where such arrows exist triggers
:class:`UncoveredQuiverWarning`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import ArrowId, CutSpace, Quiver, QuiverWithCycles, Walk, cycle_space_basis, split_components

Cut = tuple[ArrowId, ...]  # the cut's arrow names, sorted


class UncoveredQuiverWarning(UserWarning):
    """Raised-as-warning when arrows outside every distinguished cycle exist."""


@dataclass(frozen=True)
class Grading:
    """Integer degrees on arrows, extended to walks by signed summation."""

    degree: Mapping[ArrowId, int]


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


def grading_from_cut(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> Grading:
    """The indicator grading of ``cut``: degree 1 on members, 0 elsewhere."""
    members = frozenset(cut)
    _mask(q, members)
    return Grading({a.name: int(a.name in members) for a in q.quiver.arrows})


def walk_degree(grading: Grading, walk: Walk) -> int:
    """Signed sum of step degrees; reversed steps count negatively."""
    return sum(direction * grading.degree[name] for name, direction in walk.steps)


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


def enumerate_cuts(q: QuiverWithCycles) -> list[Cut]:
    """All cuts of ``q``, each a sorted tuple of arrow names, in ascending order.

    Backtracking with exact-one propagation: repeatedly pick the unsatisfied
    cycle with the fewest remaining candidate arrows and branch on them in
    ascending name order.  Selecting an arrow covers every cycle through it
    and bans the other arrows of those cycles; an arrow occurring twice in
    one cycle can never be selected at all.

    Arrows lying in no cycle are excluded from every cut; when such arrows
    exist an :class:`UncoveredQuiverWarning` is emitted.
    """
    if not is_covered(q):
        free = sorted(frozenset(a.name for a in q.quiver.arrows) - q.cycle_arrows)
        message = f"arrows outside every distinguished cycle are excluded from cuts: {free}"
        if not q.cycles:
            message = "quiver has no distinguished cycles; the empty cut is the only cut"
        warnings.warn(message, UncoveredQuiverWarning, stacklevel=2)

    space = q.cut_space
    cycle_members = space.members
    arrow_cycles = space.cycles_of
    conflicts = [0] * len(arrow_cycles)  # arrows sharing a cycle, per arrow
    for ai, cycles in enumerate(arrow_cycles):
        for ci in _iter_bits(cycles):
            conflicts[ai] |= cycle_members[ci]

    all_covered = (1 << len(cycle_members)) - 1
    found: list[tuple[int, ...]] = []

    def search(covered: int, banned: int, chosen: tuple[int, ...]) -> None:
        if covered == all_covered:
            found.append(tuple(sorted(chosen)))
            return
        best_cands = 0
        best_n = -1
        for ci in _iter_bits(all_covered & ~covered):
            cands = cycle_members[ci] & ~banned
            n = cands.bit_count()
            if n == 0:
                return
            if best_n < 0 or n < best_n:
                best_cands, best_n = cands, n
                if n == 1:
                    break
        for ai in _iter_bits(best_cands):
            search(covered | arrow_cycles[ai], banned | conflicts[ai], chosen + (ai,))

    search(0, space.never, ())
    found.sort()
    # cycle arrows hold the low bits in name order, so sorted indices decode to sorted names
    arrows = space.arrows
    return [tuple(map(arrows.__getitem__, cut)) for cut in found]


def has_enough_cuts(q: QuiverWithCycles, cuts: Sequence[Cut] | None = None) -> bool:
    """True iff every arrow of ``q`` lies in at least one cut.

    ``cuts``, if given, must be ``enumerate_cuts(q)``; it spares a caller
    that already holds them a second enumeration.
    """
    if cuts is None:
        cuts = enumerate_cuts(q)
    return set().union(*cuts) == {a.name for a in q.quiver.arrows}


def _basis_masks(q: QuiverWithCycles) -> list[tuple[int, int]]:
    """``(plus, minus)`` arrow masks of each component's cycle-basis walks.

    A basis walk (a chord plus a simple tree path) crosses each arrow at most
    once, so the cut ``m`` grades it ``popcount(m & plus) - popcount(m & minus)``;
    walk degree is linear, so cuts that agree on the basis agree on every cyclic walk.
    """
    walks = [walk for part in split_components(q) for walk in cycle_space_basis(part.quiver)]
    return [(_mask(q, (n for n, d in w.steps if d > 0)), _mask(q, (n for n, d in w.steps if d < 0))) for w in walks]


def _signature(basis: list[tuple[int, int]], m: int) -> tuple[int, ...]:
    return tuple((m & plus).bit_count() - (m & minus).bit_count() for plus, minus in basis)


def are_compatible(q: QuiverWithCycles, first: Iterable[ArrowId], second: Iterable[ArrowId]) -> bool:
    """True iff both cuts grade every cyclic walk identically."""
    m1, m2 = _cut_mask(q, first), _cut_mask(q, second)
    basis = _basis_masks(q)
    return _signature(basis, m1) == _signature(basis, m2)


def is_fully_compatible(q: QuiverWithCycles, cuts: Sequence[Cut] | None = None) -> bool:
    """True iff all cuts of ``q`` are pairwise compatible (``cuts`` as in :func:`has_enough_cuts`)."""
    if cuts is None:
        cuts = enumerate_cuts(q)
    if len(cuts) <= 1:
        return True
    basis = _basis_masks(q)
    reference = _signature(basis, _mask(q, cuts[0]))
    return all(_signature(basis, _mask(q, cut)) == reference for cut in cuts[1:])


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
