"""Budgeted coset enumeration for finitely presented groups.

Enumerates the cosets of the trivial subgroup, so a closed table has one
row per group element: closing with a single coset proves the presented
group trivial, closing with more proves it nontrivial.  Triviality is
undecidable in general, so the enumeration carries an explicit budget on
the number of cosets ever defined and reports exhaustion instead of
looping forever.

Relator words are sequences of nonzero integers: ``k`` stands for the
``k``-th generator (1-based) and ``-k`` for its inverse.

Table layout.  Coset ``c`` owns the ``2n`` cells ``table[c*2n : (c+1)*2n]``
of one flat list, laid end to end in definition order; column ``2g`` holds
``c`` times generator ``g + 1`` and column ``2g + 1`` its inverse, and an
undefined cell holds ``-1``.  Coincident cosets are kept in a union-find
``label`` list, whose roots are the live cosets.  A coset that dies as it
is defined (see below) takes no row, so coset numbers are row numbers and
skip it; they keep definition order, which is all the union-find compares.
The table holds at most ``MAX_COSET_CELLS`` cells: past that many, the
enumeration stops as if its budget were spent, so wide presentations stay
bounded in memory.

Definition order (HLT).  Cosets are scanned in definition order.  From each
coset that is still live, every relator is traced in turn, defining a new
coset at each undefined cell, and its end is merged with the start; the
scan of a coset stops once it is merged into an earlier one.  The closing
letter is a deduction: where its cell is undefined, the coset it would
define equals the start at once, so the cell is set to the start and the
start's inverse cell to the coset before, or, if that inverse cell is
already set, the two cosets it names are merged.  The deduction still
counts as a definition against the budget and in ``defined_cosets``.  A
trace that reads a dead coset writes its class root back into the cell.  A
coset that is still live after its relators is completed by tracing the
one-letter word of each column, in column order, without closing: each
undefined column of its row gets a new coset.  A row the relators left
complete, with no ``-1`` cell, skips these words, which would define
nothing.

Coincidences are processed from a stack, and their order cannot change
``(closed, live_cosets, defined_cosets)``.  Merging defines no coset, and
each merge ends at the least equivalence that contains the table's
existing classes and the new pair and is closed under "equal cosets have
equal images", which is unique.  Each root is its class minimum, and a
merge moves every defined cell of the retired root's row into the
survivor's, so a root row has a column defined iff some member of the class
has it, and the next definition depends on the classes alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import eq

_SENT = -1
# The most cells the table may hold, at 8 bytes a cell and more for the ints they name.  The (2,3,7)
# canvas at a budget of 10^7 cosets of 4 cells stays under it; a table 404 cells wide stops at 123,762.
MAX_COSET_CELLS = 50_000_000


@dataclass(frozen=True)
class EnumerationResult:
    closed: bool
    live_cosets: int
    defined_cosets: int


def _find(label: list[int], c: int) -> int:
    root = c
    while label[root] != root:
        root = label[root]
    while label[c] != root:
        label[c], c = root, label[c]
    return root


def _unify(table: list[int], label: list[int], width: int, a: int, b: int) -> None:
    """Merge the classes of ``a`` and ``b`` and every coincidence they imply.

    The surviving root reads each cell of the retired root's row: a defined
    cell moves into the survivor's row where that cell is undefined, and
    where both are defined the two images coincide.
    """
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if label[a] != a:
            a = _find(label, a)
        if label[b] != b:
            b = _find(label, b)
        if a == b:
            continue
        if b < a:
            a, b = b, a
        label[b] = a
        for cell, other in enumerate(table[b * width : (b + 1) * width], a * width):
            if other != _SENT:
                if table[cell] == _SENT:
                    # stale back-references into b are resolved through _find(), and traces write the root back
                    table[cell] = other
                else:
                    pending.append((table[cell], other))


def _encode(word: Sequence[int]) -> tuple[int, ...]:
    columns = []
    for letter in word:
        if letter == 0:
            raise ValueError("relator letters are nonzero integers")
        g = abs(letter) - 1
        columns.append(2 * g if letter > 0 else 2 * g + 1)
    return tuple(columns)


def _live(label: list[int]) -> int:
    return sum(map(eq, label, range(len(label))))


def enumerate_trivial_subgroup(
    n_generators: int, relators: Sequence[Sequence[int]], max_cosets: int
) -> EnumerationResult:
    """Run the enumeration until the table closes, the budget is exhausted or the table is full."""
    width = 2 * n_generators
    words = [_encode(w) for w in relators]
    for word in words:
        for column in word:
            if column >= width:
                raise ValueError("relator uses a generator outside the presentation")
    if max_cosets < 1:
        return EnumerationResult(False, 0, 0)
    limit = min(max_cosets, MAX_COSET_CELLS // width) if width else max_cosets
    blank = [_SENT] * width
    table = list(blank)
    label = [0]
    defined = rows = 1
    scanned = 0
    # each relator is traced up to its last letter, which closes it on its start; the
    # one-letter words after them (last letter -1) complete the row; an empty relator says nothing
    plan = [(word[:-1], word[-1]) for word in words if word] + [((column,), -1) for column in range(width)]
    while scanned < rows:
        if label[scanned] == scanned:
            row = scanned * width
            for prefix, last in plan:
                if last < 0 and _SENT not in table[row : row + width]:
                    break  # the row is complete: the one-letter words would define nothing
                # trace the prefix from the live coset 'scanned', defining as needed; 'at' stays live
                at = scanned
                for column in prefix:
                    cell = at * width + column
                    entry = table[cell]
                    if entry == _SENT:
                        if defined >= limit:
                            return EnumerationResult(False, _live(label), defined)
                        entry = rows
                        rows += 1
                        defined += 1
                        label.append(entry)
                        table += blank
                        table[cell] = entry
                        table[entry * width + (column ^ 1)] = at
                    elif label[entry] != entry:
                        entry = table[cell] = _find(label, entry)
                    at = entry
                if last < 0:
                    continue
                cell = at * width + last
                entry = table[cell]
                if entry == _SENT:
                    # the closing letter: the coset it would define equals 'scanned' at once,
                    # so it is counted but takes no row, and the cell points at 'scanned'
                    if defined >= limit:
                        return EnumerationResult(False, _live(label), defined)
                    defined += 1
                    table[cell] = scanned
                    back = row + (last ^ 1)
                    if table[back] == _SENT:
                        table[back] = at
                        continue
                    _unify(table, label, width, table[back], at)
                else:
                    if label[entry] != entry:
                        entry = table[cell] = _find(label, entry)
                    if entry == scanned:
                        continue
                    _unify(table, label, width, entry, scanned)
                if label[scanned] != scanned:
                    break  # merged into an earlier, already scanned coset
        scanned += 1
    return EnumerationResult(True, _live(label), defined)
