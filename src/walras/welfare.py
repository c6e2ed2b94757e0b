"""Exact winner determination.

The welfare function W of a bid profile maps an item multiset x to the best
total declared value over assignments of sub-bundles to agents with total
item usage at most x (each agent consuming at most one copy of each item).
It is computed by dynamic programming over agents and sub-multisets, exact
over rationals and exponential in the number of items: desk scale.

``or_value_table`` tabulates W over *all* sub-multisets of a supply at once,
which is what makes the leave-one-out marginals in the mechanism and
analysis layers cheap.  ``welfare_value`` builds one table per doubled-item
pattern of the multiset it is asked about (two copies where the multiset
has two, one elsewhere), so W(1 + 1_j) costs 3 * 2^(m-1) states rather than
the 3^m of a table over two copies of every item.

The DP runs on integers.  ``scaled_tables`` multiplies every bid table of a
profile by D, the lcm of all their denominators, once per profile (or takes
the tables a caller seeded with ``BidProfile.with_scaled_tables``, over any
common multiple D); the folds, the cached tables and the argmax backtrack
all hold D * W.  Values become ``Fraction(x, D)`` only where they leave the
module: ``welfare_value``, ``welfare_max`` and ``welfare_marginal``.  The
price and mechanism layers read the integers directly (``_scaled_welfare``,
``_welfare_argmax``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .bundles import (
    check_item_count,
    check_multiset,
    full_mask,
    subsets_ascending,
)
from .money import scale_rows
from .valuations import Valuation


@dataclass(frozen=True)
class BidProfile:
    """n valuations over the same m items; hosts both true types and bids."""

    m: int
    bids: tuple[Valuation, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        check_item_count(self.m)
        object.__setattr__(self, "bids", tuple(self.bids))
        if len(self.bids) < 1:
            raise ValueError("a bid profile needs at least one agent")
        for i, v in enumerate(self.bids):
            if not isinstance(v, Valuation):
                raise TypeError(f"bid {i} is not a Valuation")
            if v.m != self.m:
                raise ValueError(f"bid {i} is over {v.m} items, profile has {self.m}")

    @property
    def n(self) -> int:
        return len(self.bids)

    @classmethod
    def with_scaled_tables(cls, m: int, bids, denom: int,
                           tables) -> "BidProfile":
        """A profile whose :func:`scaled_tables` are given, not computed.

        ``tables[i][k]`` must equal ``denom * bids[i].table()[k]``; ``denom``
        may be any common multiple of the table denominators, which gives
        the same Fractions and the same ties as the lcm.
        """
        profile = cls(m, bids)
        profile._cache["scaled"] = (denom, tuple(tables))
        return profile

    def replace(self, i: int, bid: Valuation) -> "BidProfile":
        if not 0 <= i < self.n:
            raise IndexError(f"agent index {i} out of range")
        bids = self.bids[:i] + (bid,) + self.bids[i + 1:]
        return BidProfile(self.m, bids)


@dataclass(frozen=True)
class Allocation:
    """Full partition of the items: pairwise disjoint bundles covering all."""

    m: int
    bundles: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(self.bundles))
        union = 0
        for b in self.bundles:
            if b < 0 or b >> self.m:
                raise ValueError("bundle outside the item range")
            if union & b:
                raise ValueError("allocation bundles overlap")
            union |= b
        if union != full_mask(self.m):
            raise ValueError("allocation does not cover all items")


# -- multiset indexing --------------------------------------------------------

@cache
def _layout(supply: tuple[int, ...]):
    """Mixed-radix strides for states <= supply, plus per-bundle stride sums.

    Cached per supply shape; the tuples are shared, so nothing may mutate them.
    """
    m = len(supply)
    strides = []
    acc = 1
    for j in range(m):
        strides.append(acc)
        acc *= supply[j] + 1
    size = acc
    if size > 2_000_000:
        raise ValueError("welfare table too large; reduce m (desk scale only)")
    ssum = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        ssum[mask] = ssum[mask ^ low] + strides[low.bit_length() - 1]
    clamps = [0] * size
    for idx in range(size):
        rest = idx
        cm = 0
        for j in range(m):
            rest, digit = divmod(rest, supply[j] + 1)
            if digit:
                cm |= 1 << j
        clamps[idx] = cm
    return size, tuple(ssum), tuple(clamps)


def _ms_index(supply: tuple[int, ...], ms: tuple[int, ...]) -> int:
    idx = 0
    acc = 1
    for j, (cap, count) in enumerate(zip(supply, ms)):
        if count > cap:
            raise ValueError(f"multiset exceeds supply at item {j}")
        idx += count * acc
        acc *= cap + 1
    return idx


def scaled_tables(profile: BidProfile) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, tables): every bid table times D, the lcm of all their denominators.

    Entry k of agent i's table is ``Fraction(tables[i][k], D)``.  Cached per
    profile.
    """
    cached = profile._cache.get("scaled")
    if cached is None:
        cached = scale_rows(bid.table() for bid in profile.bids)
        profile._cache["scaled"] = cached
    return cached


def _or_step(tab: tuple[int, ...], cur: list[int],
             size: int, ssum: tuple[int, ...], clamps: tuple[int, ...]) -> list[int]:
    """One agent folded into the running welfare table (scaled integers)."""
    nxt = list(cur)
    for idx in range(size):
        cm = clamps[idx]
        if not cm:
            continue
        best = nxt[idx]
        sub = cm
        while sub:
            cand = tab[sub] + cur[idx - ssum[sub]]
            if cand > best:
                best = cand
            sub = (sub - 1) & cm
        nxt[idx] = best
    return nxt


def or_value_table(profile: BidProfile, supply: tuple[int, ...],
                   exclude: int | None = None) -> tuple[int, ...]:
    """D times W over every sub-multiset of ``supply``, mixed-radix indexed,
    with D from :func:`scaled_tables`.

    ``exclude`` drops one agent (leave-one-out welfare).  Cached per profile;
    the all-agents table is level 0 of :func:`_suffix_levels`.
    """
    supply = tuple(supply)
    if exclude is None:
        return _suffix_levels(profile, supply)[0][0]
    key = ("table", supply, exclude)
    cached = profile._cache.get(key)
    if cached is not None:
        return cached
    size, ssum, clamps = _layout(supply)
    _, tables = scaled_tables(profile)
    cur = [0] * size
    for i, tab in enumerate(tables):
        if i == exclude:
            continue
        cur = _or_step(tab, cur, size, ssum, clamps)
    result = tuple(cur)
    profile._cache[key] = result
    return result


def _suffix_levels(profile: BidProfile, supply: tuple[int, ...]):
    """levels[k] = scaled welfare table of agents k..n-1; levels[n] is all
    zeros."""
    key = ("suffix", supply)
    cached = profile._cache.get(key)
    if cached is not None:
        return cached
    size, ssum, clamps = _layout(supply)
    _, tables = scaled_tables(profile)
    levels = [None] * (profile.n + 1)
    level = [0] * size
    levels[profile.n] = tuple(level)
    for k in range(profile.n - 1, -1, -1):
        level = _or_step(tables[k], level, size, ssum, clamps)
        levels[k] = tuple(level)
    out = (levels, size, ssum, clamps)
    profile._cache[key] = out
    return out


# -- public operations --------------------------------------------------------

def _scaled_welfare(profile: BidProfile, ms: tuple[int, ...],
                    exclude: int | None) -> int:
    """D * W(ms), read from the table of ms's doubled-item pattern."""
    shape = tuple(2 if c == 2 else 1 for c in ms)
    # The all-agents table is level 0 of the suffix levels.  Reading it here
    # rather than through or_value_table keeps one builder per table, so the
    # benchmark's per-builder table counts see each build once.
    if exclude is None:
        table = _suffix_levels(profile, shape)[0][0]
    else:
        table = or_value_table(profile, shape, exclude)
    return table[_ms_index(shape, ms)]


def welfare_value(profile: BidProfile, supply, exclude: int | None = None) -> Fraction:
    """W(supply), optionally leaving one agent out."""
    ms = tuple(supply)
    check_multiset(profile.m, ms)
    denom, _ = scaled_tables(profile)
    return Fraction(_scaled_welfare(profile, ms, exclude), denom)


def _welfare_argmax(profile: BidProfile,
                    ms: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """D * W(ms) and the canonical maximizing assignment of :func:`welfare_max`."""
    levels, size, ssum, clamps = _suffix_levels(profile, ms)
    _, tables = scaled_tables(profile)
    idx = _ms_index(ms, ms)
    value = levels[0][idx]
    bundles = []
    for k in range(profile.n):
        tab = tables[k]
        target = levels[k][idx]
        nxt_level = levels[k + 1]
        chosen = 0
        for b in subsets_ascending(clamps[idx]):
            if tab[b] + nxt_level[idx - ssum[b]] == target:
                chosen = b
                break
        bundles.append(chosen)
        idx -= ssum[chosen]
    return value, tuple(bundles)


def welfare_max(profile: BidProfile, supply) -> tuple[Fraction, tuple[int, ...]]:
    """Best declared welfare and one canonical maximizing assignment.

    Agents are processed in index order; among equal-value choices an agent
    takes the bundle with the smallest bitmask.  The assignment may leave
    items unused; see ``mechanisms.allocate_declared`` for the full-partition
    variant.
    """
    ms = tuple(supply)
    check_multiset(profile.m, ms)
    value, bundles = _welfare_argmax(profile, ms)
    denom, _ = scaled_tables(profile)
    return Fraction(value, denom), bundles


def welfare_excluding(profile: BidProfile, i: int, supply) -> Fraction:
    """W of the profile with agent i removed (zero for a lone agent)."""
    if not 0 <= i < profile.n:
        raise IndexError(f"agent index {i} out of range for n={profile.n}")
    return welfare_value(profile, supply, exclude=i)


def welfare_marginal(profile: BidProfile, add, base,
                     exclude: int | None = None) -> Fraction:
    """W(add + base) - W(base)."""
    add = tuple(add)
    base = tuple(base)
    combined = tuple(a + b for a, b in zip(add, base, strict=True))
    check_multiset(profile.m, combined)
    check_multiset(profile.m, base)
    denom, _ = scaled_tables(profile)
    return Fraction(_scaled_welfare(profile, combined, exclude)
                    - _scaled_welfare(profile, base, exclude), denom)
