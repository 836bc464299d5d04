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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import (
    ArrowId,
    Quiver,
    QuiverWithCycles,
    Walk,
    connected_components,
    cycle_space_basis,
    signed_arrow_counts,
)

Cut = frozenset[ArrowId]


class UncoveredQuiverWarning(UserWarning):
    """Raised-as-warning when arrows outside every distinguished cycle exist."""


@dataclass(frozen=True)
class Grading:
    """Integer degrees on arrows, extended to walks by signed summation."""

    degree: Mapping[ArrowId, int]


def grading_from_cut(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> Grading:
    """The indicator grading of ``cut``: degree 1 on members, 0 elsewhere."""
    members = frozenset(cut)
    known = q.quiver.arrow_map
    for name in sorted(members):
        if name not in known:
            raise KeyError(f"unknown arrow {name!r}")
    return Grading({a.name: int(a.name in members) for a in q.quiver.arrows})


def walk_degree(grading: Grading, walk: Walk) -> int:
    """Signed sum of step degrees; reversed steps count negatively."""
    return sum(direction * grading.degree[name] for name, direction in walk.steps)


def is_cut(q: QuiverWithCycles, arrows: Iterable[ArrowId]) -> bool:
    """True iff every distinguished cycle meets ``arrows`` exactly once.

    Occurrences are counted with multiplicity: an arrow repeated inside one
    cycle contributes once per occurrence.
    """
    members = frozenset(arrows)
    known = q.quiver.arrow_map
    for name in sorted(members):
        if name not in known:
            raise KeyError(f"unknown arrow {name!r}")
    for cycle in q.cycles:
        if sum(1 for name in cycle.arrows if name in members) != 1:
            return False
    return True


def is_covered(q: QuiverWithCycles) -> bool:
    """True iff every arrow appears in some distinguished cycle."""
    return q.cycle_arrows == frozenset(a.name for a in q.quiver.arrows)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_cuts(q: QuiverWithCycles) -> list[Cut]:
    """All cuts of ``q``, sorted lexicographically by sorted arrow names.

    Backtracking with exact-one propagation: repeatedly pick the unsatisfied
    cycle with the fewest remaining candidate arrows and branch on them in
    ascending name order.  Selecting an arrow covers every cycle through it
    and bans the other arrows of those cycles; an arrow occurring twice in
    one cycle can never be selected at all.

    Arrows lying in no cycle are excluded from every cut; when such arrows
    exist an :class:`UncoveredQuiverWarning` is emitted.
    """
    if not q.cycles:
        if q.quiver.arrows:
            warnings.warn(
                "quiver has no distinguished cycles; the empty cut is the only cut",
                UncoveredQuiverWarning,
                stacklevel=2,
            )
        return [frozenset()]
    if not is_covered(q):
        free = sorted(frozenset(a.name for a in q.quiver.arrows) - q.cycle_arrows)
        warnings.warn(
            f"arrows outside every distinguished cycle are excluded from cuts: {free}",
            UncoveredQuiverWarning,
            stacklevel=2,
        )

    arrows = sorted(q.cycle_arrows)
    arrow_index = {name: i for i, name in enumerate(arrows)}
    n_cycles = len(q.cycles)

    cycle_members = [0] * n_cycles  # bitmask of member arrows per cycle
    arrow_cycles = [0] * len(arrows)  # bitmask of cycles per arrow
    never = 0  # arrows repeated within a single cycle: selectable in no cut
    for ci, cycle in enumerate(q.cycles):
        for name, count in Counter(cycle.arrows).items():
            ai = arrow_index[name]
            cycle_members[ci] |= 1 << ai
            arrow_cycles[ai] |= 1 << ci
            if count >= 2:
                never |= 1 << ai

    conflicts = [0] * len(arrows)  # arrows sharing a cycle, per arrow
    for ai in range(len(arrows)):
        acc = 0
        for ci in _iter_bits(arrow_cycles[ai]):
            acc |= cycle_members[ci]
        conflicts[ai] = acc

    all_covered = (1 << n_cycles) - 1
    found: list[tuple[ArrowId, ...]] = []

    def search(covered: int, banned: int, chosen: tuple[int, ...]) -> None:
        if covered == all_covered:
            found.append(tuple(arrows[i] for i in chosen))
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

    search(0, never, ())
    found.sort(key=lambda names: tuple(sorted(names)))
    return [frozenset(names) for names in found]


def has_enough_cuts(q: QuiverWithCycles, cuts: Sequence[Cut] | None = None) -> bool:
    """True iff every arrow of ``q`` lies in at least one cut.

    ``cuts``, if given, must be ``enumerate_cuts(q)``; it spares a caller
    that already holds them a second enumeration.
    """
    if cuts is None:
        cuts = enumerate_cuts(q)
    return set().union(*cuts) == {a.name for a in q.quiver.arrows}


def component_cycle_basis(quiver: Quiver) -> list[Walk]:
    """Cycle-space basis walks gathered over all connected components."""
    walks: list[Walk] = []
    for comp in connected_components(quiver):
        members = set(comp)
        sub = Quiver(comp, tuple(a for a in quiver.arrows if a.source in members))
        walks.extend(cycle_space_basis(sub))
    return walks


def _basis_signature(basis_counts: Sequence[Mapping[ArrowId, int]], cut: Cut) -> tuple[int, ...]:
    # walk degree is linear in the signed arrow-count vector, so evaluating on
    # a cycle basis decides equality on every cyclic walk
    return tuple(sum(c for name, c in counts.items() if name in cut) for counts in basis_counts)


def are_compatible(q: QuiverWithCycles, first: Cut, second: Cut) -> bool:
    """True iff both cuts grade every cyclic walk identically."""
    for cut in (first, second):
        if not is_cut(q, cut):
            raise ValueError(f"not a cut: {sorted(cut)}")
    basis_counts = [signed_arrow_counts(w) for w in component_cycle_basis(q.quiver)]
    return _basis_signature(basis_counts, frozenset(first)) == _basis_signature(
        basis_counts, frozenset(second)
    )


def is_fully_compatible(q: QuiverWithCycles, cuts: Sequence[Cut] | None = None) -> bool:
    """True iff all cuts of ``q`` are pairwise compatible (``cuts`` as in :func:`has_enough_cuts`)."""
    if cuts is None:
        cuts = enumerate_cuts(q)
    if len(cuts) <= 1:
        return True
    basis_counts = [signed_arrow_counts(w) for w in component_cycle_basis(q.quiver)]
    reference = _basis_signature(basis_counts, cuts[0])
    return all(_basis_signature(basis_counts, cut) == reference for cut in cuts[1:])


def truncated_quiver(q: QuiverWithCycles, cut: Cut) -> Quiver:
    """The quiver with the cut arrows removed."""
    if not is_cut(q, cut):
        raise ValueError(f"not a cut: {sorted(cut)}")
    members = frozenset(cut)
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


def truncated_presentation(q: QuiverWithCycles, cut: Cut) -> TruncatedPresentation:
    """Relations obtained by rotating each distinguished cycle through ``cut``."""
    quiver_c = truncated_quiver(q, cut)  # also validates the cut
    members = frozenset(cut)
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
