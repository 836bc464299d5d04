"""Budgeted coset enumeration for finitely presented groups.

Enumerates the cosets of the trivial subgroup, so a closed table has one
row per group element: closing with a single coset proves the presented
group trivial, closing with more proves it nontrivial.  Triviality is
undecidable in general, so the enumeration carries an explicit budget on
the number of cosets ever defined and reports exhaustion instead of
looping forever.

Relator words are sequences of nonzero integers: ``k`` stands for the
``k``-th generator (1-based) and ``-k`` for its inverse.

Table layout.  One flat list holds every row, laid end to end in definition
order after a single pad cell.  A row is ``2n + 1`` cells: a link cell, then
column ``2g + 1`` for generator ``g + 1`` and column ``2g + 2`` for its
inverse.  A coset is named by its row's offset, the index of its link
cell, so every offset is positive and ``0`` marks an undefined cell; a
trace step is ``at = table[at + column]``.  The link cell holds the row's
own offset while the coset is live and the offset of the coset it was
merged into once it is dead.  The table holds at most ``MAX_COSET_CELLS``
generator cells: past ``MAX_COSET_CELLS // 2n`` cosets the enumeration
stops as if its budget were spent, so wide presentations stay bounded in
memory.

No cell of a live row names a dead coset, and the table stays consistent:
``c.x = d`` holds exactly when ``d.x⁻¹ = c``.  So a trace reads no link
cell, and every cell that names a coset is the inverse cell of one of that
coset's own cells.  Coincidences keep both properties with the standard
routine (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
2005, ch. 5): when row ``b`` retires into ``a``, each defined column ``x``
of ``b``, with image ``e``, clears ``e.x⁻¹``, which names ``b``, and then
either queues ``(a.x, e)`` if ``a.x`` is set, or queues ``(e.x⁻¹, a)`` if
that is set, or sets ``a.x = e`` and ``e.x⁻¹ = a`` (an image ``e = b``
reads as ``a``).  The queue holds pairs that may name dead cosets; they are
read through the link cells.  Only the defined cells of a retired row are
visited, picked out in C by ``itertools.compress``, so a merge costs its
row's defined cells, not its width.

Definition order (HLT, as in Havas, "Coset enumeration strategies", ISSAC
1991).  Cosets are scanned in definition order.  From each coset that is
still live, every relator is traced in turn, defining a new coset at each
undefined cell, and its end is merged with the start; the scan of a coset
stops once it is merged into an earlier one.  The closing letter is a
deduction: where its cell is undefined, the coset it would define equals
the start at once, so the cell is set to the start and the start's inverse
cell to the coset before, or, if that inverse cell is already set, the
coset it names coincides with the coset before.  The deduction still counts
as a definition against the budget and in ``defined_cosets``, but takes no
row, so row order is definition order with those skipped.  A coset that is
still live after its relators completes its row: each undefined column, in
ascending order, gets a new coset.

Coincidences are processed from a stack, and their order cannot change
``(closed, live_cosets, defined_cosets)``.  Merging defines no coset, and
each merge ends at the least equivalence that contains the table's
existing classes and the new pair and is closed under "equal cosets have
equal images", which is unique.  The survivor of each class is its least
offset, and its row has a column defined iff some member of the class has
it, so the next definition depends on the classes alone.  Neither the row
layout nor the way coincidences are processed changes the classes, so
neither changes the definition order or any result.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from operator import not_

# The most generator cells the table may hold, at 8 bytes a cell and more for the ints they name.  The
# (2,3,7) canvas at a budget of 10^7 cosets of 4 cells stays under it; a table 404 cells wide stops at 123,762.
MAX_COSET_CELLS = 50_000_000


@dataclass(frozen=True)
class EnumerationResult:
    closed: bool
    live_cosets: int
    defined_cosets: int


def _coincide(table: list[int], inverse: Sequence[int], stride: int, a: int, b: int) -> int:
    """Merge the live cosets ``a`` and ``b``, which differ, and every coincidence they imply.

    Returns the number of cosets retired.
    """
    pending: list[tuple[int, int]] = []
    retired = 0
    while True:
        retired += 1
        if b < a:
            a, b = b, a
        table[b] = a
        for cell in compress(range(b + 1, b + stride), table[b + 1 : b + stride]):
            e = table[cell]
            if not e:
                continue  # the inverse cell of a loop on b, cleared with it
            x = cell - b
            y = inverse[x]
            if table[e + y] == b:
                table[e + y] = 0
            if e == b:
                e = a
            f = table[a + x]
            if f:
                pending.append((f, e))
            elif table[e + y]:
                pending.append((table[e + y], a))
            else:
                table[a + x] = e
                table[e + y] = a
        while True:
            if not pending:
                return retired
            a, b = pending.pop()
            while table[a] != a:
                a = table[a]
            while table[b] != b:
                b = table[b]
            if a != b:
                break


def _encode(word: Sequence[int]) -> tuple[int, ...]:
    columns = []
    for letter in word:
        if letter == 0:
            raise ValueError("relator letters are nonzero integers")
        g = abs(letter) - 1
        columns.append(2 * g + 1 if letter > 0 else 2 * g + 2)
    return tuple(columns)


def _enumerate(
    n_generators: int, relators: Sequence[Sequence[int]], max_cosets: int
) -> tuple[EnumerationResult, list[int]]:
    """The enumeration and its final table, laid out as the module docstring says."""
    width = 2 * n_generators
    stride = width + 1
    words = [_encode(w) for w in relators]
    for word in words:
        for column in word:
            if column > width:
                raise ValueError("relator uses a generator outside the presentation")
    if max_cosets < 1:
        return EnumerationResult(False, 0, 0), [0]
    limit = min(max_cosets, MAX_COSET_CELLS // width) if width else max_cosets
    # inverse[x] is the column of x's inverse letter; inverse[0] pairs the link cell with itself
    inverse = [0] + [x + 1 if x % 2 else x - 1 for x in range(1, stride)]
    cells = [0] * width
    table = [0, 1, *cells]
    defined = 1
    retired = 0
    end = len(table)
    scanned = 1
    # each relator is traced up to its last letter, which closes it on its start; an empty relator says nothing
    plan = [(word[:-1], word[-1], inverse[word[-1]]) for word in words if word]
    while scanned < end:
        if table[scanned] == scanned:
            for prefix, last, last_inverse in plan:
                # trace the prefix from the live coset 'scanned', defining as needed; nothing merges on the way
                at = scanned
                for column in prefix:
                    entry = table[at + column]
                    if not entry:
                        if defined >= limit:
                            return EnumerationResult(False, (end - 1) // stride - retired, defined), table
                        defined += 1
                        entry = end
                        end += stride
                        table.append(entry)
                        table += cells
                        table[at + column] = entry
                        table[entry + inverse[column]] = at
                    at = entry
                entry = table[at + last]
                if not entry:
                    # the closing letter: the coset it would define equals 'scanned' at once,
                    # so it is counted but takes no row
                    if defined >= limit:
                        return EnumerationResult(False, (end - 1) // stride - retired, defined), table
                    defined += 1
                    back = table[scanned + last_inverse]
                    if not back:
                        table[at + last] = scanned
                        table[scanned + last_inverse] = at
                        continue
                    retired += _coincide(table, inverse, stride, back, at)
                elif entry == scanned:
                    continue
                else:
                    retired += _coincide(table, inverse, stride, entry, scanned)
                if table[scanned] != scanned:
                    break  # merged into an earlier, already scanned coset
            else:
                row = table[scanned : scanned + stride]
                if 0 in row:
                    # complete the row: each undefined column, in ascending order, gets a new coset
                    for x in compress(range(stride), map(not_, row)):
                        if defined >= limit:
                            return EnumerationResult(False, (end - 1) // stride - retired, defined), table
                        defined += 1
                        table.append(end)
                        table += cells
                        table[scanned + x] = end
                        table[end + inverse[x]] = scanned
                        end += stride
        scanned += stride
    return EnumerationResult(True, (end - 1) // stride - retired, defined), table


def enumerate_trivial_subgroup(
    n_generators: int, relators: Sequence[Sequence[int]], max_cosets: int
) -> EnumerationResult:
    """Run the enumeration until the table closes, the budget is exhausted or the table is full."""
    return _enumerate(n_generators, relators, max_cosets)[0]
