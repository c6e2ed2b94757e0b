"""Bitmask bundles and small item multisets.

A bundle over m items is an ``int`` bitmask with bit j set when item j is
included; m is capped at 16.  An item multiset is a tuple of non-negative
per-item multiplicities.  All welfare formulas in this package need at most
two copies of an item, so multiset arguments are validated to multiplicity 2.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Iterator, Sequence

MAX_ITEMS = 16


def check_item_count(m: int) -> None:
    if not 1 <= m <= MAX_ITEMS:
        raise ValueError(f"item count must be in 1..{MAX_ITEMS}, got {m}")


def full_mask(m: int) -> int:
    return (1 << m) - 1


def check_bundle(m: int, bundle: int) -> None:
    if type(bundle) is not int:  # bool is an int subclass
        raise ValueError(f"bundle {bundle!r} is not an int")
    if bundle < 0 or bundle >> m:
        raise ValueError(f"bundle {bundle:#x} has bits outside the {m} items")


def disjoint_union(m: int, bundles) -> int:
    """The union of bundles over m items; raises unless they are pairwise
    disjoint and inside the items."""
    union = 0
    for b in bundles:
        check_bundle(m, b)
        if union & b:
            raise ValueError(f"bundles overlap on items {union & b:#x}")
        union |= b
    return union


def iter_bits(mask: int) -> Iterator[int]:
    """Item indices of a bundle, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def _rotation(m: int):
    """A gather that moves bit b of every bundle index to bit b + 1 (mod m):
    after one pass on the top item it brings the next lower item to the top
    bit, and m of them restore the order."""
    top = m - 1
    return itemgetter(*[(q >> 1) | (q & 1) << top for q in range(1 << m)])


def fold_row(table: Sequence[int], row: Sequence[int], slot: bool) -> tuple[int, ...]:
    """One row of item weights folded into a bundle-indexed table, one item
    at a time.  The pass for item i sets g(S) = max(g(S), src(S - i) + w_i)
    at every bundle S holding i; the top item goes first and a rotation
    brings the next one up.  For a clause src is g itself, so the row adds
    any subset of the items; for a slot it is the table before the row, so
    the row adds at most one item."""
    m = len(table).bit_length() - 1
    half = 1 << (m - 1)
    rotate = _rotation(m)
    cur = base = table
    for w in reversed(row):
        src = base if slot else cur
        cur = rotate([*cur[:half], *[h if h > (x := s + w) else x
                                     for h, s in zip(cur[half:], src)]])
        if slot:
            base = rotate(base)
    return cur


# -- item multisets ---------------------------------------------------------

def ms_ones(m: int) -> tuple[int, ...]:
    return (1,) * m


def check_multiset(m: int, ms: tuple[int, ...]) -> None:
    if len(ms) != m:
        raise ValueError(f"multiset length {len(ms)} != m={m}")
    for j, count in enumerate(ms):
        if type(count) is not int:  # bool is an int subclass
            raise ValueError(f"multiplicity {count!r} at item {j} is not an int")
        if count < 0:
            raise ValueError(f"negative multiplicity at item {j}")
        if count > 2:
            raise ValueError(
                f"multiplicity {count} at item {j} exceeds 2; "
                "the welfare formulas never need more copies"
            )
