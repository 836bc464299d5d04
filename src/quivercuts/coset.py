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
``label`` list, and ``mask[c]`` has bit ``k`` set iff column ``k`` of row
``c`` is defined, so a merge visits only the defined columns of the row it
retires.  A coset that dies as it is defined (see below) takes no row, so
coset numbers are row numbers and skip it; they keep definition order, which
is all the union-find compares.

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
complete skips these words, which would define nothing.

Coincidences are processed from a stack, and their order cannot change
``(closed, live_cosets, defined_cosets)``.  Merging defines no coset, and
each merge ends at the least equivalence that contains the table's
existing classes and the new pair and is closed under "equal cosets have
equal images", which is unique.  Each root is its class minimum, and a root
row has a column defined iff some member of the class has it, so the next
definition depends on the classes alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

_SENT = -1


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


def _unify(table: list[int], label: list[int], mask: list[int], width: int, a: int, b: int) -> int:
    """Merge the classes of ``a`` and ``b`` and every coincidence they imply.

    Returns how many cosets died.  The surviving root takes over the retired
    root's defined columns; where both are defined the two images coincide.
    """
    died = 0
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
        died += 1
        row_a, row_b = a * width, b * width
        mask_a = mask[a]
        bits = mask[b]
        mask[a] = mask_a | bits
        while bits:
            low = bits & -bits
            bits ^= low
            column = low.bit_length() - 1
            other = table[row_b + column]
            if mask_a & low:
                pending.append((table[row_a + column], other))
            else:
                # stale back-references into b are resolved through _find(), and traces write the root back
                table[row_a + column] = other
    return died


def _encode(word: Sequence[int]) -> tuple[int, ...]:
    columns = []
    for letter in word:
        if letter == 0:
            raise ValueError("relator letters are nonzero integers")
        g = abs(letter) - 1
        columns.append(2 * g if letter > 0 else 2 * g + 1)
    return tuple(columns)


def enumerate_trivial_subgroup(
    n_generators: int, relators: Sequence[Sequence[int]], max_cosets: int
) -> EnumerationResult:
    """Run the enumeration until the table closes or the budget is exhausted."""
    width = 2 * n_generators
    words = [_encode(w) for w in relators]
    for word in words:
        for column in word:
            if column >= width:
                raise ValueError("relator uses a generator outside the presentation")
    if max_cosets < 1:
        return EnumerationResult(False, 0, 0)
    blank = [_SENT] * width
    table = list(blank)
    label = [0]
    mask = [0]
    live = defined = rows = 1
    scanned = 0
    # each relator is traced up to its last letter, which closes it on its start; the
    # one-letter words after them (last letter -1) complete the row; an empty relator says nothing
    plan = [(word[:-1], word[-1]) for word in words if word] + [((column,), -1) for column in range(width)]
    full = (1 << width) - 1
    while scanned < rows:
        if label[scanned] == scanned:
            for prefix, last in plan:
                if last < 0 and mask[scanned] == full:
                    break  # the row is complete: the one-letter words would define nothing
                # trace the prefix from the live coset 'scanned', defining as needed; 'at' stays live
                at = scanned
                for column in prefix:
                    cell = at * width + column
                    entry = table[cell]
                    if entry == _SENT:
                        if defined >= max_cosets:
                            return EnumerationResult(False, live, defined)
                        entry = rows
                        rows += 1
                        defined += 1
                        live += 1
                        label.append(entry)
                        table += blank
                        table[cell] = entry
                        table[entry * width + (column ^ 1)] = at
                        mask[at] |= 1 << column
                        mask.append(1 << (column ^ 1))
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
                    if defined >= max_cosets:
                        return EnumerationResult(False, live, defined)
                    defined += 1
                    table[cell] = scanned
                    mask[at] |= 1 << last
                    back = scanned * width + (last ^ 1)
                    if table[back] == _SENT:
                        table[back] = at
                        mask[scanned] |= 1 << (last ^ 1)
                        continue
                    live -= _unify(table, label, mask, width, table[back], at)
                else:
                    if label[entry] != entry:
                        entry = table[cell] = _find(label, entry)
                    if entry == scanned:
                        continue
                    live -= _unify(table, label, mask, width, entry, scanned)
                if label[scanned] != scanned:
                    break  # merged into an earlier, already scanned coset
        scanned += 1
    return EnumerationResult(True, live, defined)
