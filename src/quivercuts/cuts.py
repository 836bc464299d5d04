"""Cuts of a quiver with cycles and the structure they induce.

A subset ``C`` of the arrows is a *cut* when every distinguished cycle
meets it exactly once.  Removing a cut yields the truncated quiver ``Q_C``,
and rotating each distinguished cycle through a cut arrow yields the
relation paths of the truncated presentation.  Two cuts are *compatible*
when they give every cyclic walk the same degree (arrows of the cut count
1 forwards and -1 backwards); it suffices to compare them on a cycle-space
basis, one closed walk per chord of the spanning forest.  One pass over the
forest, children first, packs each arrow's grades on all these walks in one
int, a field per walk wide enough that sums of them never carry into the
next, so a cut's grades are one sum of ints.

Cuts form an exact-one hitting problem over the cycles: choosing an arrow
satisfies every cycle through it and forbids all other arrows of those
cycles.  What remains allowed depends only on which cycles are covered, so
the search for all cuts folds into a small DAG of covered-cycle states, in
effect a ZDD of the cut family, whose root-to-sink paths are the cuts.
Each state branches on its first uncovered cycle in one fixed *frontier*
order of the cycles, numbered once per quiver so that few cycles lie half
decided at a time (after Kawahara, Inoue, Iwashita and Minato, IEICE Trans.
Fundamentals E100-A(9), 2017), and branches meet in shared states.
Counting, listing, :func:`has_enough_cuts` and :func:`is_fully_compatible`,
which keeps one packed int per state, all read this DAG, built once per
quiver as ``CutSpace.dag``: a node table, children first, whose edges carry
an arrow's bit position and a child index.  Only listing visits every cut:
one pass down the table gives each state the integer masks of the paths
below it, in the one layout of :class:`~quivercuts.model.CutSpace`, where
the least name takes the top bit, so that descending masks are ascending
name tuples.  Each state keeps its masks in descending order, a state with
several edges by merging its edges' sorted runs, so no list of every cut
is sorted.  Names are built only at the end, from the masks' one byte
table, a byte column at a time, each byte value rendered once:
:func:`enumerate_cuts` returns tuples decoded by ``CutSpace.decode``;
``docio.write_cuts`` writes the ``cuts`` lines as text, and the mutation
graph reads the same masks.  This module does no I/O.  Arrows lying in no
distinguished cycle lie in no cut; counting the cuts of a quiver with such
arrows, or listing them in ``_cut_masks``, which every listing calls,
triggers :class:`UncoveredQuiverWarning`, attributed to the first caller
outside the ``quivercuts`` package; ``_cut_masks`` also refuses a listing
of more than ``MAX_LISTED_CUTS`` cuts, from the DAG's count, before it
builds a mask.  A single cut is checked, and its
names gathered, by ``_cut_members``.
"""

from __future__ import annotations

import sys
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .model import ArrowId, CutSpace, Quiver, QuiverWithCycles, _iter_bits

Cut = tuple[ArrowId, ...]  # the cut's arrow names, sorted


class UncoveredQuiverWarning(UserWarning):
    """Raised-as-warning when arrows outside every distinguished cycle exist."""


# The most cuts a listing may hold, checked against the cut-state DAG's count before any mask is built,
# so that a listing that would not fit in about 1 GiB ends in a ListingTooLargeError.  A listing takes
# about 270 bytes a cut at its peak: E8 x F4's 377,462 cuts peak at 91 MB for ``cuts`` and 97 MB for
# ``graph --json``, and E6 x E6's 1,505,721 at 315 MB and 358 MB.
MAX_LISTED_CUTS = 4_000_000


class ListingTooLargeError(ValueError):
    """The quiver has more than ``MAX_LISTED_CUTS`` cuts to list."""


def _is_cut_mask(space: CutSpace, m: int) -> bool:
    return not m & space.never and all((m & c).bit_count() == 1 for c in space.members)


def _cut_members(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> frozenset[ArrowId]:
    """The names in ``cut``; raises ``ValueError`` unless they form a cut."""
    members = frozenset(cut)
    if not _is_cut_mask(q.cut_space, q.cut_space.mask(members)):
        raise ValueError(f"not a cut: {sorted(members)}")
    return members


def is_cut(q: QuiverWithCycles, arrows: Iterable[ArrowId]) -> bool:
    """True iff every distinguished cycle meets ``arrows`` exactly once.

    Occurrences are counted with multiplicity: an arrow repeated inside one
    cycle contributes once per occurrence.
    """
    return _is_cut_mask(q.cut_space, q.cut_space.mask(arrows))


def is_covered(q: QuiverWithCycles) -> bool:
    """True iff every arrow appears in some distinguished cycle, and every cycle arrow is declared."""
    return q.cut_space.declared == q.cut_space.cycle_mask


def _warn_if_uncovered(q: QuiverWithCycles) -> None:
    """Warn, at the first caller outside the ``quivercuts`` package, that free arrows lie in no cut."""
    if is_covered(q):
        return
    space = q.cut_space
    free = [name for name in space.arrows if not space.cycles_of[space.at[name]]]
    message = f"arrows outside every distinguished cycle are excluded from cuts: {free}"
    if not q.cycles:
        message = "quiver has no distinguished cycles; the empty cut is the only cut"
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__", "").startswith(f"{__package__}."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UncoveredQuiverWarning, stacklevel=level)


def count_cuts(q: QuiverWithCycles) -> int:
    """The number of cuts of ``q``: the root's path count in the cut-state DAG, no cut listed.

    Warns like :func:`enumerate_cuts` when arrows lie in no distinguished cycle.
    """
    _warn_if_uncovered(q)
    return q.cut_space.dag[-1][0]


def _cut_masks(q: QuiverWithCycles) -> list[int]:
    """Every cut of ``q`` as a mask over its ``CutSpace``, in descending order.

    Every listing comes through here, so here ``_warn_if_uncovered`` warns
    when arrows lie in no distinguished cycle, and a quiver with more than
    ``MAX_LISTED_CUTS`` cuts raises ``ListingTooLargeError`` before any
    mask is built.

    One pass over the cut-state DAG, children first, gives each state the
    masks of the paths below it as ``(bits, base)``, the masks ``bits | s``
    for ``s`` in ``base``: the sink has the empty path, a state with one live
    edge shares its child's ``base`` and adds the edge's bit, made once per
    live edge from its position, to ``bits``, and a state with more joins
    each edge's masks in a new list.  A child's pair is dropped once its last
    parent has used it; the root's masks are every cut once.

    Every ``base`` is kept in descending order, so no list of every cut is
    sorted.  A path takes each arrow once, so ``bits`` shares no bit with
    any ``s`` below it, and ``bits | s == bits + s`` keeps the order of
    ``base``.  Each edge's masks are then one descending run, and a joined
    list's sort is Timsort's merge of those runs, not a full sort.

    Descending masks are ascending sorted name tuples.  No cut contains
    another: were ``A`` inside ``B``, an arrow of ``B`` outside ``A`` lies on
    a cycle that ``A``, and so ``B``, meets at another arrow.  So for cuts
    ``A != B`` let ``d`` be the least name of their symmetric difference, say
    in ``A``.  The tuples agree on the names before ``d``, where ``A`` has
    ``d`` and ``B`` a greater name, not its end, so ``A``'s tuple is the
    smaller.  ``d`` is the top bit of ``A ^ B`` and lies in ``A``, so ``A``'s
    mask is the larger.
    """
    _warn_if_uncovered(q)
    dag = q.cut_space.dag
    if dag[-1][0] > MAX_LISTED_CUTS:
        raise ListingTooLargeError(f"{dag[-1][0]} cuts are too many to list: more than {MAX_LISTED_CUTS}")
    uses = [0] * len(dag)  # live edges into each state not yet followed
    for _, edges in dag:
        for _, j in edges:
            uses[j] += 1
    below: list[tuple[int, list[int]] | None] = [(0, [0])]  # (bits, base): the masks bits | s for s in base
    for _, live in dag[1:]:  # children first
        parts = []
        for p, j in live:
            bits, base = below[j]
            parts.append((1 << p | bits, base))
            uses[j] -= 1
            if not uses[j]:
                below[j] = None
        if len(parts) == 1:  # one live edge shares its child's base
            below.append(parts[0])
        else:  # more join their masks in a new one, their descending runs merged
            merged = [b | s for b, base in parts for s in base]
            merged.sort(reverse=True)
            below.append((0, merged))
    bits, base = below[-1]
    return [bits | s for s in base] if bits else base  # a root with no bits of its own owns its list


def enumerate_cuts(q: QuiverWithCycles) -> list[Cut]:
    """All cuts of ``q``, each a sorted tuple of arrow names, in ascending order.

    The cuts are the root-to-sink paths of the cut-state DAG (see
    :func:`count_cuts`), gathered as integer masks whose descending order is
    this order (see ``_cut_masks``), laid out once by ``CutSpace.table`` and
    decoded by :meth:`~quivercuts.model.CutSpace.decode`, a name tuple a
    row.  An arrow occurring twice in one cycle lies in no cut.

    Arrows lying in no cycle are excluded from every cut; when such arrows
    exist an :class:`UncoveredQuiverWarning` is emitted.
    """
    space = q.cut_space
    return list(space.decode(space.table(_cut_masks(q))))


def has_enough_cuts(q: QuiverWithCycles) -> bool:
    """True iff every arrow of ``q`` lies in at least one cut: the arrows of the live DAG edges."""
    used = {p for _, edges in q.cut_space.dag for p, _ in edges}  # one arrow's bit position each
    return len(used) == len(q.cut_space.arrows)


def _packed_grades(q: QuiverWithCycles) -> list[int]:
    """Each arrow's grades on the chord walks of the spanning forest packed in one int, indexed by bit position.

    Chord ``k``, from ``s_k`` to ``t_k``, closes one walk of a cycle-space
    basis: the chord, then the forest path from ``t_k`` back to ``s_k``, each
    arrow crossed at most once.  A cut grades the walk by the sum of its
    arrows' grades there, and degree is linear on walks, so cuts that agree
    on every chord walk agree on every cyclic walk.  Walk ``k`` owns the
    field of ``w`` bits at ``k * w``, and the chord itself holds 1 there.
    The walk crosses the forest arrow above ``v`` exactly when one chord end
    lies in ``v``'s subtree: it comes down to ``s_k``, grading the arrow by
    its direction, and climbs away from ``t_k``, grading it by the opposite.
    So one pass, children first, carries up ``below[v]``, whose field ``k``
    is ``[s_k under v] - [t_k under v]``, and the arrow above ``v`` packs
    ``below[v]`` times its direction.

    A walk crosses at most ``depth(s_k) + depth(t_k) + 1`` arrows, and ``w``
    is one more than the bit length of the greatest such bound, so a cut, or
    any part of one, leaves every field of its sum a coefficient ``c`` with
    ``|c| < 2 ** (w - 1)``.  In this balanced radix two sums are equal
    exactly when their grades are equal on every walk, with no step through
    their difference; one bit less would need that step.
    """
    at, tree = q.cut_space.at, q.quiver.forest
    depth = dict.fromkeys(tree.root.values(), 0)
    for v, (parent, _, _) in tree.parents.items():  # parents first
        depth[v] = depth[parent] + 1
    w = max((depth[a.source] + depth[a.target] + 1 for a in tree.chords), default=0).bit_length() + 1
    packed = [0] * (8 * q.cut_space.nb)
    below = dict.fromkeys(tree.root, 0)
    for k, a in enumerate(tree.chords):
        packed[at[a.name]] = field = 1 << k * w
        below[a.source] += field
        below[a.target] -= field
    for v, (parent, arrow, direction) in reversed(tree.parents.items()):  # children first
        ends = below.pop(v)
        packed[at[arrow.name]] = ends if direction > 0 else -ends
        below[parent] += ends
    return packed


def are_compatible(q: QuiverWithCycles, first: Iterable[ArrowId], second: Iterable[ArrowId]) -> bool:
    """True iff both cuts grade every cyclic walk identically: equal sums of their arrows' packed grades."""
    at, packed = q.cut_space.at, _packed_grades(q)
    first_grades, second_grades = (sum(packed[at[name]] for name in _cut_members(q, cut)) for cut in (first, second))
    return first_grades == second_grades


def is_fully_compatible(q: QuiverWithCycles) -> bool:
    """True iff all cuts of ``q`` are pairwise compatible.

    Each arrow's grades on the chord walks are packed in one int by
    ``_packed_grades``.  They add up along a DAG path, so each state has the
    set of sums of the paths below it, the sink the empty path's 0; all cuts
    agree iff no state has two, which is decided children first, keeping one
    int per state.  Every state with an edge lies on a root-to-sink path,
    since its child has a cut below it and so does every state above it.
    """
    of_arrow = _packed_grades(q)
    below: list[int] = []
    for _, edges in q.cut_space.dag:
        sums = {of_arrow[p] + below[j] for p, j in edges}
        if len(sums) > 1:
            return False
        below.append(sums.pop() if edges else 0)
    return True


def truncated_quiver(q: QuiverWithCycles, cut: Iterable[ArrowId]) -> Quiver:
    """The quiver with the cut arrows removed."""
    members = _cut_members(q, cut)
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
    space = q.cut_space
    relations: dict[ArrowId, tuple[tuple[int, tuple[ArrowId, ...]], ...]] = {}
    for name in sorted(members):
        entries = []
        for ci in _iter_bits(space.cycles_of[space.at[name]]):  # in the order of q.cycles
            cycle = q.cycles[ci]
            at = cycle.arrows.index(name)
            path = cycle.arrows[at + 1 :] + cycle.arrows[:at]
            entries.append((cycle.sign if cycle.sign is not None else 1, path))
        relations[name] = tuple(entries)
    return TruncatedPresentation(quiver_c, relations)
