"""Walrasian price lattice endpoints, equilibrium verification, tatonnement.

The minimum and maximum market-clearing price vectors of a bid profile have
closed forms in terms of welfare marginals:

    low_j  = W(1_j | 1)        extra benefit of one more copy of item j
    high_j = W(1_j | 1 - 1_j)  harm of removing item j

Both are computed exactly, on the profile's scaled integer welfare tables;
the english and dutch payment rules read the same integers.  The
ascending-price procedure is kept only as a
cross-check: with discrete increments it can approach but not hit the lattice
bottom, so payment rules never use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bundles import full_mask, iter_bits, ms_ones
from .money import ZERO, parse_money
from .valuations import demand_set
from .welfare import Allocation, BidProfile, _scaled_welfare, scaled_tables


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
    price_history: tuple[tuple[Fraction, ...], ...] | None = None


def _scaled_prices(profile: BidProfile, lowest: bool) -> tuple[int, ...]:
    """D times the lowest or the highest Walrasian prices, with D from
    ``scaled_tables(profile)``."""
    ones = ms_ones(profile.m)

    def with_copies(j: int, copies: int) -> int:
        return _scaled_welfare(profile, ones[:j] + (copies,) + ones[j + 1:], None)

    base = _scaled_welfare(profile, ones, None)
    if lowest:
        return tuple(with_copies(j, 2) - base for j in range(profile.m))
    return tuple(base - with_copies(j, 0) for j in range(profile.m))


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
    if isinstance(allocation, Allocation):
        bundles = allocation.bundles
    else:
        bundles = tuple(allocation)
        union = 0
        for b in bundles:
            if b < 0 or b >> profile.m:
                raise ValueError("allocation bundle outside the item range")
            if union & b:
                raise ValueError("allocation bundles overlap")
            union |= b
    if len(bundles) != profile.n:
        raise ValueError(f"allocation has {len(bundles)} bundles for {profile.n} agents")
    p = [parse_money(q) for q in prices]
    if len(p) != profile.m:
        raise ValueError("price vector length mismatch")

    failures: list = []
    unsold = full_mask(profile.m)
    for b in bundles:
        unsold &= ~b
    if unsold:
        failures.append(ClearingViolation(unsold))
    for i, bid in enumerate(profile.bids):
        winners = demand_set(bid, p)
        if bundles[i] not in winners:
            better = winners[0]
            cost = sum((p[j] for j in iter_bits(better)), ZERO)
            have = sum((p[j] for j in iter_bits(bundles[i])), ZERO)
            gain = (bid.value(better) - cost) - (bid.value(bundles[i]) - have)
            failures.append(DemandViolation(i, bundles[i], better, gain))
    return WalrasianCertificate(not failures, tuple(failures))


def tatonnement(profile: BidProfile, epsilon, *,
                max_steps: int | None = None,
                record_history: bool = False) -> TatonnementResult:
    """Ascending-price auction with provisional assignment.

    Prices start at zero.  Agents are visited round-robin (lowest index
    first); an unsatisfied agent grabs its cheapest demanded bundle (held
    items at the current price, everything else one increment above), and
    every item taken away from another holder goes up by ``epsilon``.  Stops
    when a full pass changes nothing.

    On gross-substitutes bids the final prices land within m*epsilon of the
    minimum Walrasian prices; that is a tested tolerance, not something
    proved here.  Runs on scaled integers internally, so results are exact
    and deterministic.
    """
    eps = parse_money(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    m, n = profile.m, profile.n
    table_denom, tabs_int = scaled_tables(profile)
    denom = lcm(table_denom, eps.denominator)
    factor = denom // table_denom
    if factor != 1:
        tabs_int = [[v * factor for v in tab] for tab in tabs_int]
    eps_int = eps.numerator * (denom // eps.denominator)
    max_value = max(tab[full_mask(m)] for tab in tabs_int)
    if max_steps is None:
        max_steps = max(10 * m * (max_value // eps_int + 1), 4 * n)

    size = 1 << m
    prices = [0] * m
    holder = [-1] * m
    history: list[tuple[Fraction, ...]] = []
    steps = 0
    settled = False
    while not settled:
        settled = True
        for i in range(n):
            steps += 1
            if steps > max_steps:
                raise IterationCapExceeded(
                    f"no convergence within {max_steps} steps; bids may not be "
                    "gross substitutes or epsilon is too small")
            held = 0
            for j in range(m):
                if holder[j] == i:
                    held |= 1 << j
            ask = [prices[j] if holder[j] in (-1, i) else prices[j] + eps_int
                   for j in range(m)]
            cost = [0] * size
            for mask in range(1, size):
                low = mask & -mask
                cost[mask] = cost[mask ^ low] + ask[low.bit_length() - 1]
            tab = tabs_int[i]
            best_mask = 0
            best_u = tab[0]
            for mask in range(1, size):
                u = tab[mask] - cost[mask]
                if u > best_u:
                    best_u = u
                    best_mask = mask
            if tab[held] - cost[held] == best_u:
                continue  # current holding is demanded; no move
            settled = False
            raised = False
            for j in iter_bits(best_mask & ~held):
                if holder[j] not in (-1, i):
                    prices[j] += eps_int
                    raised = True
                holder[j] = i
            for j in iter_bits(held & ~best_mask):
                holder[j] = -1
            if raised and record_history:
                history.append(tuple(Fraction(p, denom) for p in prices))

    bundles = [0] * n
    for j in range(m):
        bundles[holder[j] if holder[j] >= 0 else 0] |= 1 << j
    return TatonnementResult(
        prices=tuple(Fraction(p, denom) for p in prices),
        allocation=Allocation(m, tuple(bundles)),
        steps=steps,
        price_history=tuple(history) if record_history else None,
    )
