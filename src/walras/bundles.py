"""Bitmask bundles, lanes and small item multisets.

A bundle over m items is an ``int`` bitmask with bit j set when item j is
included; m is capped at 16.  ``fold_rows`` folds item weights into a table
held one entry per lane of one int, lane k at bit k * width, so that one
big-int operation acts on every lane (SIMD within a register; Lamport 1975);
the ``poa`` kernel shares its lane codec and guard-bit max.  An item
multiset is a tuple of non-negative per-item multiplicities, validated to
at most 2: no welfare formula in this package needs more copies.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import repeat
from operator import and_, mul
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


# -- lanes -------------------------------------------------------------------

_CODES = {8: "b", 16: "h", 32: "i"}  # signed array codes, "q" at 64 bits
_SWAP = sys.byteorder == "big"  # array words are native, lanes little-endian


def lane_width(top: int) -> int:
    """The narrowest width that holds [0, top] below a guard bit atop each lane."""
    return max(8, 1 << top.bit_length().bit_length())


def pack_lanes(values, width: int, copies: int = 1) -> bytes:
    """``values`` as little-endian two's-complement lanes, each ``copies`` times."""
    if copies > 1 or width > 64:
        return b"".join(map(mul, map(int.to_bytes, map(and_, values, repeat(
            (1 << width) - 1)), repeat(width // 8), repeat("little")), repeat(copies)))
    out = array(_CODES.get(width, "q"), values)
    if _SWAP:
        out.byteswap()
    return out.tobytes()


def unpack_lanes(x: int, count: int, width: int):
    """The ``count`` lowest lanes of ``x`` as signed ints."""
    wide = width // 8
    raw = x.to_bytes(count * wide, "little")
    if width > 64:
        return [int.from_bytes(raw[i:i + wide], "little", signed=True)
                for i in range(0, len(raw), wide)]
    out = array(_CODES.get(width, "q"), raw)
    if _SWAP:
        out.byteswap()
    return out


def lane_max(a: int, b: int, guards: int, width: int) -> int:
    """The lane-wise max of ``a`` and ``b``, every guard bit clear in both and
    set in ``guards``: the guard-bit max ``d = ((a | H) - b) & H``."""
    d = ((a | guards) - b) & guards  # a guard where a >= b
    return b ^ (a ^ b) & (d - (d >> width - 1))


@lru_cache(maxsize=16)  # an entry holds 2m + 1 ints of 2^m lanes each
def _item_lanes(m: int, width: int):
    """The guard bits of 2^m lanes, and per item i the low bits and all bits
    of the lanes of the bundles holding i, by ``bytes`` repetition."""
    wide, size = width // 8, 1 << m
    zero, one = bytes(wide), (1).to_bytes(wide, "little")
    heads = int.from_bytes((1 << width - 1).to_bytes(wide, "little") * size, "little")
    ones = tuple(int.from_bytes((zero * (1 << i) + one * (1 << i)) * (size >> i + 1),
                                "little") for i in range(m))
    return heads, ones, tuple(x * ((1 << width) - 1) for x in ones)


def _doubling(w) -> list[int]:
    """Every bundle's sum of the item weights ``w`` (its cost at prices
    ``w``), item j doubling the table: t[x + 2^j] = t[x] + w[j] for every x
    below 2^j."""
    t = [0]
    for wj in w:
        t += [x + wj for x in t]
    return t


def fold_rows(table: Sequence[int], rows: Sequence[Sequence[int]],
              slot: bool) -> tuple[int, ...]:
    """Rows of non-negative item weights folded into a table of non-negative
    ints: the pass for item i sets g(S) = max(g(S), src(S - i) + w_i) at
    every S holding i.  A slot adds at most one item (src: the table before
    it), a clause any subset (src: the running table, from ``table``), and
    clauses take an element-wise max.  The table is packed once into 2^m
    lanes as wide as the fold's largest value, so a pass is a few exact
    big-int operations: src shifted up 2^i lanes, the lanes lacking i masked
    off, w_i added, and :func:`lane_max`.  No entry may be negative: it
    would set its lane's guard bit, and the max would read it wrongly.  Its
    callers fold a bid's rows onto the all-zero table (``Valuation._ints``)
    or onto a welfare level (``welfare._or_step``).  One clause onto the
    all-zero table is its bundle sums, built by :func:`_doubling` instead."""
    m = len(table).bit_length() - 1
    top = max(table)
    if not (slot or top or rows[1:]):
        return tuple(_doubling(rows[0]))
    width = lane_width(top + (sum(map(max, rows)) if slot else max(map(sum, rows))))
    heads, ones, keeps = _item_lanes(m, width)
    out = packed = int.from_bytes(pack_lanes(table, width), "little")
    for row in rows:  # each clause's table is at least ``packed``, where ``out`` starts
        src = cur = out if slot else packed
        for i, w in enumerate(row):
            gathered = ((src if slot else cur) << (width << i)) & keeps[i]
            cur = lane_max(gathered + w * ones[i], cur, heads, width)
        out = cur if slot else lane_max(cur, out, heads, width)
    return tuple(unpack_lanes(out, 1 << m, width))


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
