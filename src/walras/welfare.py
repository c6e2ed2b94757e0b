"""Exact winner determination.

The welfare function W of a bid profile maps an item multiset x to the best
total declared value over assignments of sub-bundles to agents with total
item usage at most x (each agent consuming at most one copy of each item).
It is computed by dynamic programming over agents and sub-multisets, exact
over rationals and exponential in the number of items: desk scale.

One driver, ``_fold_levels``, folds agents in one at a time (``_or_step``)
into the suffix levels L_k (agents k..n-1) of a supply shape, once per
profile (``_suffix_levels``); a prefix table of agents 0..k-1
(``or_value_table``) is level n-k of the agents in reverse order.  Readers
need W at a few states only and merge there with ``_fold_at``: W(x) merges
agent 0 with L_1 at x, and W without agent i the prefix table of agents
0..i-1 with L_{i+1}, or reads one (i = 0, n-1).  L_0 is folded by
``welfare_max``, and on the ones shape wherever agent 0 folds item by item:
one fold then serves W(1), every W(1 - 1_j) and the allocation's top value.
On a doubled shape the prefix may take both copies of an item, so agents
i+1..n-1 are folded onto it instead.  W(1 + 1_j) joins prefix and suffix
tables that each hold a copy of j (``_doubled_welfare``).  A multiset with
doubled items is read on its doubled-item pattern: two copies where it has
two, one elsewhere.  A fold enumerates submasks, except that a structured
bid's table (``_table_on``, for ``scaled_tables`` and the ``poa`` kernel) is
read as it is onto the all-zero level, and on the one-copy shape folds item
by item (``bundles.fold_rows``) where that pays (``_item_fold_pays``).

The DP runs on integers.  ``scaled_tables`` puts the bids' own integer
tables (``valuations._tabulate``) on D, a common multiple of their
denominators, once per profile (or takes the tables the analysis layer
seeded with ``BidProfile._seeded``); the folds, the cached tables and the
argmax backtrack all hold D * W.  Values become ``Fraction(x, D)`` only
where they leave the module: ``welfare_value``, ``welfare_max`` and
``welfare_marginal``.  The price and mechanism layers read the integers
directly (``_scaled_welfare``, ``_welfare_argmax``, ``_suffix_levels``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import prod
from operator import add, itemgetter
from typing import Sequence

from .bundles import (
    check_item_count,
    check_multiset,
    disjoint_union,
    fold_rows,
    full_mask,
    ms_ones,
)
from .money import ZERO, on_one_denominator
from .valuations import Valuation, _tabulate, _worth_at_empty, marginal_value


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
            _worth_at_empty(v, "the bid of agent {}", i)

    @property
    def n(self) -> int:
        return len(self.bids)

    @classmethod
    def _seeded(cls, m: int, bids: tuple, denom: int, tables) -> "BidProfile":
        """A profile of checked ``bids`` whose :func:`scaled_tables` are
        given, not computed, with no check run.

        ``tables[i][k]`` must equal ``denom * bids[i].table()[k]``; ``denom``
        may be any common multiple of the table denominators, which gives
        the same Fractions and the same ties as the lcm.
        """
        profile = object.__new__(cls)
        profile.__dict__.update(m=m, bids=bids, _cache={"scaled": (denom, tuple(tables))})
        return profile

    def replace(self, i: int, bid: Valuation) -> "BidProfile":
        if type(i) is not int or not 0 <= i < self.n:
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
        if disjoint_union(self.m, self.bundles) != full_mask(self.m):
            raise ValueError("allocation does not cover all items")


def _full_partition(m: int, bundles: Sequence[int]) -> tuple[int, ...]:
    """Pairwise disjoint ``bundles`` made a full partition: the items no
    bundle holds go to agent 0."""
    return (full_mask(m) ^ sum(bundles[1:]),) + tuple(bundles[1:])


# -- multiset indexing --------------------------------------------------------

MAX_TABLE_STATES = 2_000_000  # largest welfare table, in item multisets


@cache
def _layout(supply: tuple[int, ...]):
    """(size, ssum, clamps) of the states <= supply, mixed-radix indexed
    with item 0 fastest: ssum[B] is the index of bundle B, one copy of each
    of its items, and clamps[idx] the bundle of items state idx holds.

    Cached per supply shape; the tuples are shared, so nothing may mutate them.
    """
    size = prod(cap + 1 for cap in supply)
    if size > MAX_TABLE_STATES:
        raise ValueError(
            f"welfare table too large: {size} states over supply {supply} "
            f"exceed MAX_TABLE_STATES = {MAX_TABLE_STATES}; use fewer items "
            "or fewer items with two copies")
    ssum, clamps = [0], [0]
    for j, cap in enumerate(supply):  # len(clamps) is item j's stride
        ssum += [s + len(clamps) for s in ssum]
        clamps = [cm | 1 << j if d else cm for d in range(cap + 1) for cm in clamps]
    return size, tuple(ssum), tuple(clamps)


def scaled_tables(profile: BidProfile) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, tables): every bid table times D, the lcm of the bids' own table
    denominators (``valuations._tabulate``), each built by
    :func:`_table_on`.  Entry k of agent i's table is
    ``Fraction(tables[i][k], D)``.  Cached per profile.
    """
    cached = profile._cache.get("scaled")
    if cached is None:
        denom, tables = on_one_denominator(_tabulate(bid) for bid in profile.bids)
        cached = profile._cache["scaled"] = denom, tuple(
            _table_on(bid, tab, denom) for bid, tab in zip(profile.bids, tables))
    return cached


# -- folds ---------------------------------------------------------------------

class _FoldRows(tuple):
    """A structured bid's table on D, which table readers see as the tuple,
    and where the item fold pays its fold rows on D (``Valuation._fold_rows``):
    OXS slot columns when ``slots``, additive clauses otherwise."""

    rows = slots = None


def _table_on(bid: Valuation, tab: tuple[int, ...], denom: int) -> tuple[int, ...]:
    """``bid``'s table ``tab`` on ``denom`` as the DP takes it: a tabular
    bid's as it is, a structured bid's as a :class:`_FoldRows`, with its rows
    on ``denom`` where :func:`_item_fold_pays`."""
    if bid._slots is None:
        return tab
    out = _FoldRows(tab)
    if _item_fold_pays(bid):
        own, rows = bid._fold_rows
        out.slots, out.rows = bid._slots, rows if own == denom else tuple(
            tuple(x * (denom // own) for x in row) for row in rows)
    return out


def _item_fold_pays(bid: Valuation) -> bool:
    """Whether folding structured ``bid``'s k rows by :func:`bundles.fold_rows`
    beats the submask fold's 3^m steps.  Timed at m = 2-12 (``BENCH_32.json``), an
    item pass costs about 1 + 2^m/160 us, a call 5 us more and a submask
    step 0.1 us, so it pays when 5 + k * m * (1 + 2^m/160) <= 3^m/10: never
    below 5 items, up to 3 rows at m = 5, 8 at m = 6 and 79 at m = 10."""
    m = bid.m
    return m >= 5 and len(bid._fold_rows[1]) * m * ((1 << m) + 160) + 800 <= 16 * 3 ** m


def _fold_at(tab, level, idx: int, ssum: tuple[int, ...],
             clamps: tuple[int, ...]) -> int:
    """Best split of state ``idx`` between one agent and ``level``: the agent
    takes one copy of each item in a submask of the state's items (the empty
    bundle is worth 0) and ``level`` gets the rest."""
    cm = clamps[idx]
    best = level[idx]
    sub = cm
    while sub:
        cand = tab[sub] + level[idx - ssum[sub]]
        if cand > best:
            best = cand
        sub = (sub - 1) & cm
    return best


def _or_step(tab: tuple[int, ...], cur, size: int, ssum: tuple[int, ...],
             clamps: tuple[int, ...]) -> Sequence[int]:
    """One agent folded into the running welfare table (scaled integers).
    Onto the all-zero level a :class:`_FoldRows` table, monotone, is read at
    each state's items, on any shape; where it carries fold rows and the
    shape is all ones (``size`` is the table's 2^m) it folds by one
    :func:`bundles.fold_rows` call, equal to the submask fold because welfare
    tables are monotone; every other fold is by submasks."""
    if isinstance(tab, _FoldRows) and not any(cur):
        return itemgetter(*clamps)(tab)
    if size == len(tab) and getattr(tab, "rows", None):
        return fold_rows(cur, tab.rows, tab.slots)
    return [_fold_at(tab, cur, idx, ssum, clamps) for idx in range(size)]


def _fold_levels(tables, levels: list, stop: int, size: int,
                 ssum: tuple[int, ...], clamps: tuple[int, ...]) -> None:
    """Fill levels[k], the scaled welfare table of agents k..n-1 of
    ``tables``, for every k >= ``stop`` still None; levels[n] must be set."""
    for k in range(len(tables) - 1, stop - 1, -1):
        if levels[k] is None:
            levels[k] = tuple(_or_step(tables[k], levels[k + 1], size, ssum, clamps))


def _suffix_levels(profile: BidProfile, supply: tuple[int, ...], stop: int = 1,
                   reverse: bool = False):
    """levels[k] = scaled welfare table of agents k..n-1 (with ``reverse``,
    of agents 0..n-1-k), folded for every k >= ``stop``; levels[n] is all
    zeros.  Cached per profile, supply and order, and a later call with a
    lower ``stop`` folds only the levels still missing."""
    key = ("prefix" if reverse else "suffix", supply)
    out = profile._cache.get(key)
    if out is None:
        size, ssum, clamps = _layout(supply)
        levels = [None] * profile.n + [(0,) * size]
        out = profile._cache[key] = (levels, size, ssum, clamps)
    levels, size, ssum, clamps = out
    if levels[stop] is None:
        tables = scaled_tables(profile)[1][::-1 if reverse else 1]
        _fold_levels(tables, levels, stop, size, ssum, clamps)
    return out


def or_value_table(profile: BidProfile, supply: tuple[int, ...],
                   agents: int) -> tuple[int, ...]:
    """D times the welfare of agents 0..agents-1 (all zeros for none) over
    every sub-multiset of ``supply``, mixed-radix indexed, with D from
    :func:`scaled_tables`: level n - agents of the reversed suffix levels."""
    if not 0 <= agents <= profile.n:
        raise IndexError(f"prefix of {agents} agents out of range for n={profile.n}")
    rest = profile.n - agents
    return _suffix_levels(profile, tuple(supply), rest, True)[0][rest]


# -- public operations --------------------------------------------------------

def _scaled_welfare(profile: BidProfile, shape: tuple[int, ...], states,
                    exclude: int | None = None) -> list[int]:
    """D * W at each state index in ``states`` of ``shape`` (on the ones
    shape a state's index is its bitmask): agent 0, or without agent i the
    prefix table of agents 0..i-1, merged with the suffix level after it;
    for i = 0 or n-1 one is all zeros, and the other, monotone, is read.
    Where agent 0's table carries fold rows and the shape is all ones, W is
    read from level 0, folded once item by item for every state."""
    n, tables = profile.n, scaled_tables(profile)[1]
    if exclude in (0, n - 1):  # level 1 of agents 1..n-1, or of n-2..0
        level = _suffix_levels(profile, shape, 1, exclude != 0)[0][1]
        return [level[idx] for idx in states]
    k = 1 if exclude is None else exclude + 1
    left = tables[0] if exclude is None else (
        _suffix_levels(profile, shape, n + 1 - k, True)[0][n + 1 - k])
    if exclude is not None and 2 in shape:  # a prefix may take two copies
        levels = [None] * n + [left]  # so agents i+1..n-1 fold onto it
        _fold_levels(tables, levels, k, *_layout(shape))
        return [levels[k][idx] for idx in states]
    if exclude is None and getattr(left, "rows", None) and shape == ms_ones(profile.m):
        level = _suffix_levels(profile, shape, 0)[0][0]  # one item fold serves all
        return [level[idx] for idx in states]
    levels, _, ssum, clamps = _suffix_levels(profile, shape, k)
    return [_fold_at(left, levels[k], idx, ssum, clamps) for idx in states]


@cache
def _holding(m: int):
    """Gathers for a join of a prefix table with a suffix level, item by
    item: for each j, (U | 1<<j, full ^ U) for every bundle U lacking j, a
    split of 1 + 1_j with one copy of j on each side, after (0, full), a
    split of the ones shape that gives each group two entries at m = 1."""
    full = (1 << m) - 1
    state = list(range(full + 1))  # one int per state, shared by every gather
    prefix, suffix = [], []
    for j in range(m):
        bit = 1 << j  # the bundles holding j come in runs of bit states
        holding = [s for lo in range(bit, full + 1, 2 * bit) for s in state[lo:lo + bit]]
        prefix += [0, *holding]
        suffix += [full, *reversed(holding)]  # full ^ U opposite U | bit
    return itemgetter(*prefix), itemgetter(*suffix)


def _doubled_welfare(profile: BidProfile, base: int) -> list[int]:
    """D * W(1 + 1_j) for every item j, given base = D * W(1).

    If agents a < b both take a copy of j, the prefix 0..a takes some T
    holding j and level a + 1 may take all of (full ^ T) | 1<<j, since
    welfare tables are monotone.  So it is base or the best join, over
    k < n - 1, of the prefix table of agents 0..k with level k + 1.  For
    k = 0 that is agent 0's own table, unfolded: a term where its best
    bundle within T lacks j, like a split of the ones shape, is at most base.
    """
    ones = ms_ones(profile.m)
    levels = _suffix_levels(profile, ones)[0]
    prefixes = [scaled_tables(profile)[1][0]] + [
        or_value_table(profile, ones, k + 1) for k in range(1, profile.n - 1)]
    at_prefix, at_level = _holding(profile.m)
    group = (1 << profile.m - 1) + 1
    best = [base] * profile.m
    # A lone agent joins the all-zero level n, which is at most base too.
    for prefix, level in zip(prefixes, levels[1:]):
        sums = map(add, at_prefix(prefix), at_level(level))
        # max(*[sums] * group) takes the best of the next item's group.
        best = list(map(max, best, map(max, *[sums] * group)))
    return best


def welfare_value(profile: BidProfile, supply, exclude: int | None = None) -> Fraction:
    """W(supply), optionally leaving agent ``exclude`` out (zero for a lone
    agent)."""
    ms = tuple(supply)
    check_multiset(profile.m, ms)
    if exclude is not None and not (type(exclude) is int and 0 <= exclude < profile.n):
        raise IndexError(f"agent index {exclude} out of range for n={profile.n}")
    shape = tuple(2 if c == 2 else 1 for c in ms)
    strides = _layout(shape)[1]  # of each item, at its one-item bundle
    idx = sum(c * strides[1 << j] for j, c in enumerate(ms))
    (value,) = _scaled_welfare(profile, shape, (idx,), exclude)
    denom, _ = scaled_tables(profile)
    return Fraction(value, denom)


def _welfare_argmax(profile: BidProfile, ms: tuple[int, ...],
                    stop: int = 1) -> tuple[int, tuple[int, ...]]:
    """D * W(ms) and the canonical maximizing assignment of :func:`welfare_max`,
    from level 0 folded in full (``stop`` 0, and on the ones shape where
    agent 0 carries fold rows) or merged at ms alone (1)."""
    _, tables = scaled_tables(profile)
    if stop and getattr(tables[0], "rows", None) and ms == ms_ones(profile.m):
        stop = 0  # one item fold into level 0, which W(1) reads as well
    levels, size, ssum, clamps = _suffix_levels(profile, ms, stop)
    idx = size - 1  # the top state, ms itself
    value = (levels[0][idx] if stop == 0
             else _fold_at(tables[0], levels[1], idx, ssum, clamps))
    return value, _backtrack(tables, levels, idx, value, ssum, clamps)


def _backtrack(tables, levels, idx: int, target: int, ssum: tuple[int, ...],
               clamps: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical assignment of state ``idx``, worth ``target``, to the
    agents of ``tables`` in index order: each takes the smallest bundle that
    leaves levels[k + 1] enough.  The one tie-breaking rule of every DP."""
    bundles = []
    for tab, nxt_level in zip(tables, levels[1:]):
        cm = clamps[idx]
        chosen = b = 0
        while True:  # the submasks of cm, ascending
            if tab[b] + nxt_level[idx - ssum[b]] == target:
                chosen = b
                break
            if b == cm:
                break
            b = (b - cm) & cm
        bundles.append(chosen)
        idx -= ssum[chosen]
        target = nxt_level[idx]
    return tuple(bundles)


def welfare_max(profile: BidProfile, supply) -> tuple[Fraction, tuple[int, ...]]:
    """Best declared welfare and one canonical maximizing assignment.

    Agents are processed in index order; among equal-value choices an agent
    takes the bundle with the smallest bitmask.  The assignment may leave
    items unused; see ``mechanisms.allocate_declared`` for the full-partition
    variant.
    """
    ms = tuple(supply)
    check_multiset(profile.m, ms)
    value, bundles = _welfare_argmax(profile, ms, stop=0)
    denom, _ = scaled_tables(profile)
    return Fraction(value, denom), bundles


def welfare_marginal(profile: BidProfile, add, base,
                     exclude: int | None = None) -> Fraction:
    """W(add + base) - W(base), optionally leaving agent ``exclude`` out."""
    return marginal_value(lambda ms: welfare_value(profile, ms, exclude), add, base)


def assignment_value(profile: BidProfile, bundles) -> Fraction:
    """Sum of v_i(bundles[i]): the profile's total value of an assignment
    (declared welfare for bids, true welfare for types)."""
    return sum((v.value(x) for v, x in zip(profile.bids, bundles, strict=True)),
               ZERO)
