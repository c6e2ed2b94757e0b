"""Walrasian price lattice endpoints, equilibrium verification, tatonnement.

The minimum and maximum market-clearing price vectors of a bid profile have
closed forms in terms of welfare marginals:

    low_j  = W(1_j | 1)        extra benefit of one more copy of item j
    high_j = W(1_j | 1 - 1_j)  harm of removing item j

Both are computed exactly on the profile's scaled integers, from the
ones-shape tables of ``welfare``: W(1) and W(1 - 1_j) by its one reader
``_scaled_welfare``, and W(1 + 1_j) by a join of prefix and suffix tables
that each hold a copy of j.  The english and dutch payment rules read the
same integers; the ``poa_search`` kernel folds the opponents over each
shape 1 + 1_j instead and merges agent 0's bids at its top state, one
profile per lane of one int, in the same pass as its merge for W.
Verification and the ascending-price procedure put their prices on the
tables' denominator.  Verification prices every bundle once and accepts an
agent whose utility is its best over that table; for an agent that fails
it reports the lowest best bundle from its utility row.  The ascending-price
procedure is kept only as a cross-check: with discrete increments it can
approach but not hit the lattice bottom, so payment rules never use it.
Like every allocation in the package, its provisional assignment is one
bundle mask per agent.
It skips a bidding war's repeats exactly, as utilities fall linearly in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .bundles import _doubling, disjoint_union, full_mask, iter_bits, ms_ones
from .money import on_one_denominator, parse_money
from .valuations import _demanded, _parse_prices
from .welfare import (
    Allocation,
    BidProfile,
    _doubled_welfare,
    _full_partition,
    _scaled_welfare,
    scaled_tables,
)


_LOOKBACK = 4  # pass starts searched for a repeat: fewer skip less, more gain nothing


class IterationCapExceeded(RuntimeError):
    """Ascent did not settle; either the bids are not gross substitutes or
    the increment is too small for the cap."""


@dataclass(frozen=True)
class DemandViolation:
    agent: int
    assigned: int
    better: int
    gain: Fraction


@dataclass(frozen=True)
class ClearingViolation:
    unsold: int  # bitmask of unallocated items


@dataclass(frozen=True)
class WalrasianCertificate:
    is_equilibrium: bool
    failures: tuple


@dataclass(frozen=True)
class TatonnementResult:
    prices: tuple[Fraction, ...]
    allocation: Allocation
    steps: int


def _scaled_prices(profile: BidProfile, lowest: bool) -> tuple[int, ...]:
    """D times the lowest or the highest Walrasian prices, with D from
    ``scaled_tables(profile)``.  Cached per profile."""
    key = "lowest_prices" if lowest else "highest_prices"
    if key not in profile._cache:
        m, full = profile.m, full_mask(profile.m)
        states = [full] if lowest else [full] + [full ^ 1 << j for j in range(m)]
        base, *rest = _scaled_welfare(profile, ms_ones(m), states)
        profile._cache[key] = tuple([w - base for w in _doubled_welfare(profile, base)]
                                    if lowest else [base - w for w in rest])
    return profile._cache[key]


def min_walrasian_prices(profile: BidProfile) -> tuple[Fraction, ...]:
    """Lowest point of the Walrasian price lattice (exact, for GS bids)."""
    denom, _ = scaled_tables(profile)
    return tuple(Fraction(p, denom) for p in _scaled_prices(profile, lowest=True))


def max_walrasian_prices(profile: BidProfile) -> tuple[Fraction, ...]:
    """Highest point of the Walrasian price lattice."""
    denom, _ = scaled_tables(profile)
    return tuple(Fraction(p, denom) for p in _scaled_prices(profile, lowest=False))


def verify_walrasian_equilibrium(profile: BidProfile, allocation,
                                 prices) -> WalrasianCertificate:
    """Check that every agent's bundle is demanded at the given prices.

    ``allocation`` may be an :class:`Allocation` or a raw bundle sequence.
    Overlapping bundles are malformed input and raise; unsold items are
    reported as market-clearing violations in the certificate.
    """
    bundles = (allocation.bundles if isinstance(allocation, Allocation)
               else tuple(allocation))
    unsold = full_mask(profile.m) & ~disjoint_union(profile.m, bundles)
    if len(bundles) != profile.n:
        raise ValueError(f"allocation has {len(bundles)} bundles for {profile.n} agents")
    price_denom, p = _parse_prices(prices, profile.m)
    # Tables and prices on one denominator, so utilities compare as ints.
    table_denom, tabs = scaled_tables(profile)
    denom, (*tabs, p) = on_one_denominator(
        [(table_denom, tab) for tab in tabs] + [(price_denom, p)])

    cost = _doubling(p)  # every bundle's cost, shared by the agents
    failures: list = []
    if unsold:
        failures.append(ClearingViolation(unsold))
    for i, (tab, mine) in enumerate(zip(tabs, bundles)):
        best, have = max(map(sub, tab, cost)), tab[mine] - cost[mine]
        if have != best:  # the lowest bundle it demands instead, from its utility row
            better = list(map(sub, tab, cost)).index(best)
            failures.append(DemandViolation(i, mine, better, Fraction(best - have, denom)))
    return WalrasianCertificate(not failures, tuple(failures))


def _repeats(tabs, log, rise, most: int) -> int:
    """How many times, up to ``most``, the logged steps recur, each ask up by
    ``rise`` once more.  After k rises bundle x is worth u(x) - k*d(x), d(x) its
    cost at ``rise``: a step's winners are its old winners of least d until a
    bundle of lower d catches up, and must keep or drop its holding as before
    and, if it moved, start with the same bundle."""
    rise_cost = _doubling(rise)
    for i, ask, winners, mine in log:
        low = min(rise_cost[x] for x in winners)
        if not most or rise_cost[mine if mine in winners else winners[0]] > low:
            return 0
        cost = _doubling(ask)
        best = tabs[i][winners[0]] - cost[winners[0]]
        most = min([most] + [(best - t + c - 1) // (low - dx)
                             for t, c, dx in zip(tabs[i], cost, rise_cost) if dx < low])
    return most


def tatonnement(profile: BidProfile, epsilon, *,
                max_steps: int | None = None) -> TatonnementResult:
    """Ascending-price auction with provisional assignment.

    Prices start at zero and every agent holds nothing.  Agents are visited
    round-robin (lowest index first); one whose held bundle is not demanded
    (items others hold asked one increment above their price) takes its
    lowest demanded bundle, releasing what it held outside it, and each item
    it takes from another agent goes up by ``epsilon``.  Stops when a full
    pass changes nothing; the items nobody holds then go to agent 0.  Passes
    that recur, the prices up by one rise each time, are skipped as often as
    ``_repeats`` proves they recur, so result and cap are the stepwise loop's.

    On gross-substitutes bids the final prices land within m*epsilon of the
    minimum Walrasian prices; that is a tested tolerance, not something
    proved here.  Runs on scaled integers internally, so results are exact
    and deterministic.
    """
    eps = parse_money(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if max_steps is not None and (type(max_steps) is not int or max_steps < 0):
        raise ValueError(f"max_steps must be an int of at least 0, got {max_steps!r}")
    m, n = profile.m, profile.n
    table_denom, tabs = scaled_tables(profile)
    denom, (*tabs_int, (eps_int,)) = on_one_denominator(
        [(table_denom, tab) for tab in tabs] + [(eps.denominator, (eps.numerator,))])
    max_value = max(tab[full_mask(m)] for tab in tabs_int)
    if max_steps is None:
        max_steps = max(10 * m * (max_value // eps_int + 1), 4 * n)

    prices = [0] * m
    held = [0] * n
    steps = 0
    passes = []  # (holdings, prices, step log) of the last passes, from their starts
    while True:
        log = []
        passes = (passes + [(tuple(held), tuple(prices), log)])[-_LOOKBACK:]
        for i in range(n):
            steps += 1
            if steps > max_steps:
                raise IterationCapExceeded(
                    f"no convergence within {max_steps} steps; bids may not be "
                    "gross substitutes or epsilon is too small")
            theirs = sum(held) - held[i]
            ask = [p + eps_int if theirs >> j & 1 else p for j, p in enumerate(prices)]
            winners = _demanded(tabs_int[i], ask)
            log.append((i, ask, winners, held[i]))
            if held[i] in winners:
                continue  # current holding is demanded; no move
            best = winners[0]
            for j in iter_bits(best & theirs):
                prices[j] += eps_int
            held = [x & ~best for x in held]
            held[i] = best
        if all(mine in winners for _, _, winners, mine in log):
            break  # the pass changed nothing
        for back, (was, before, _) in enumerate(reversed(passes), 1):
            rise = [p - q for p, q in zip(prices, before)]
            fit = (max_steps - steps) // (back * n)  # repeats under the cap
            cycles = was == tuple(held) and _repeats(
                tabs_int, [s for *_, part in passes[-back:] for s in part], rise, fit + 1)
            if cycles:  # fit + 1 of them pass the cap, and the next step raises
                steps += cycles * back * n
                prices = [p + cycles * r for p, r in zip(prices, rise)]
                passes = []
                break

    return TatonnementResult(
        prices=tuple(Fraction(p, denom) for p in prices),
        allocation=Allocation(m, _full_partition(m, held)),
        steps=steps,
    )
