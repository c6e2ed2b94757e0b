"""Declared-welfare-maximizer mechanisms.

All four mechanisms share one allocation rule (the exact declared-welfare
maximizer with canonical tie-breaking) and differ only in payments:

    vcg      externality: W_without_i(1) - W_without_i(1 - x_i)
    english  minimum Walrasian prices of the declared market, per item won
    dutch    maximum Walrasian prices of the declared market, per item won
    paybid   the declared value of the bundle won

Payments stay well-defined for non-GS bids (the marginals always exist);
only the Walrasian interpretation of the english/dutch price vectors can
fail then, which `check_payment_ordering` flags.

All four rules run on the profile's scaled integer tables (D times every
value, see ``welfare.scaled_tables``); payments and prices become
``Fraction(x, D)`` only in the returned outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import product

from .bundles import full_mask, iter_bits, ms_ones
from .money import ZERO, parse_money
from .valuations import Additive, Valuation, budget_additive
from .walrasian import _scaled_prices, verify_walrasian_equilibrium
from .welfare import (
    Allocation,
    BidProfile,
    _scaled_welfare,
    _welfare_argmax,
    scaled_tables,
)


class PaymentRule(str, Enum):
    VCG = "vcg"
    ENGLISH = "english"
    DUTCH = "dutch"
    PAY_YOUR_BID = "paybid"


@dataclass(frozen=True)
class MechanismOutcome:
    """Allocation, payments and (english/dutch) item prices of one run.

    ``_scaled_payments`` are the payments times ``_denom``, the D of the
    profile's scaled tables, for callers that stay on integers; the
    underscore keeps them out of reports and they take no part in equality.
    """

    rule: PaymentRule
    allocation: Allocation
    payments: tuple[Fraction, ...]
    prices_used: tuple[Fraction, ...] | None
    _denom: int = field(compare=False, repr=False)
    _scaled_payments: tuple[int, ...] = field(compare=False, repr=False)


def allocate_declared(bids: BidProfile) -> Allocation:
    """Welfare-maximizing partition under the bids, canonical tie-breaking.

    Items the maximizer leaves unused carry zero marginal declared value;
    they are handed to agent 0 so the partition is full.
    """
    key = "declared_allocation"
    cached = bids._cache.get(key)
    if cached is not None:
        return cached
    _, bundles = _welfare_argmax(bids, ms_ones(bids.m))
    used = 0
    for b in bundles:
        used |= b
    leftover = full_mask(bids.m) & ~used
    alloc = Allocation(bids.m, (bundles[0] | leftover,) + bundles[1:])
    bids._cache[key] = alloc
    return alloc


def _scaled_externality(bids: BidProfile, i: int, bundle: int) -> int:
    """D * W_without_i(bundle | 1 - bundle): the welfare the others forgo
    when agent i takes ``bundle``."""
    m = bids.m
    rest = tuple(1 - (bundle >> j & 1) for j in range(m))
    return _scaled_welfare(bids, ms_ones(m), i) - _scaled_welfare(bids, rest, i)


def _outcome(rule: PaymentRule, bids: BidProfile,
             alloc: Allocation) -> MechanismOutcome:
    """The rule's payments and prices on ``alloc``, computed as D times their
    value (D from ``scaled_tables(bids)``) and converted once."""
    denom, tables = scaled_tables(bids)
    prices = None
    if rule is PaymentRule.VCG:
        pays = tuple(_scaled_externality(bids, i, x) if x else 0
                     for i, x in enumerate(alloc.bundles))
    elif rule is PaymentRule.PAY_YOUR_BID:
        pays = tuple(tab[x] for tab, x in zip(tables, alloc.bundles))
    else:
        prices = _scaled_prices(bids, lowest=rule is PaymentRule.ENGLISH)
        pays = tuple(sum(prices[j] for j in iter_bits(x)) for x in alloc.bundles)
    return MechanismOutcome(
        rule, alloc,
        tuple(Fraction(p, denom) for p in pays),
        None if prices is None else tuple(Fraction(p, denom) for p in prices),
        denom, pays)


def payments(rule: PaymentRule, bids: BidProfile,
             alloc: Allocation) -> tuple[Fraction, ...]:
    """Per-agent payments for the rule; ``alloc`` must be the declared optimum."""
    if alloc != allocate_declared(bids):
        raise ValueError("allocation mismatch: payments are defined on the "
                         "declared-optimal allocation")
    return _outcome(PaymentRule(rule), bids, alloc).payments


def run_mechanism(rule: PaymentRule, bids: BidProfile) -> MechanismOutcome:
    return _outcome(PaymentRule(rule), bids, allocate_declared(bids))


def utility(true_v: Valuation, outcome: MechanismOutcome, i: int) -> Fraction:
    """Quasi-linear utility: value of the bundle won minus the payment."""
    return true_v.value(outcome.allocation.bundles[i]) - outcome.payments[i]


# -- payment-rule comparison ---------------------------------------------------

@dataclass(frozen=True)
class PaymentOrderingReport:
    allocation: Allocation
    payments_by_rule: dict
    links_per_agent: tuple[tuple[bool, bool, bool], ...]
    chain_ok_per_agent: tuple[bool, ...]
    chain_ok: bool
    english_prices_walrasian: bool
    dutch_prices_walrasian: bool


_CHAIN = (PaymentRule.VCG, PaymentRule.ENGLISH,
          PaymentRule.DUTCH, PaymentRule.PAY_YOUR_BID)


def check_payment_ordering(bids: BidProfile) -> PaymentOrderingReport:
    """Evaluate all four rules on the shared allocation and compare payments.

    For gross-substitutes bids the chain vcg <= english <= dutch <= paybid
    holds agent by agent; outside GS it can break, so the result is a report
    rather than an assertion.  ``links_per_agent`` holds the three adjacent
    comparisons per agent, in chain order.
    """
    alloc = allocate_declared(bids)
    by_rule = {rule: _outcome(rule, bids, alloc) for rule in _CHAIN}
    links = []
    for i in range(bids.n):
        seq = [by_rule[rule]._scaled_payments[i] for rule in _CHAIN]
        links.append(tuple(a <= b for a, b in zip(seq, seq[1:])))
    return PaymentOrderingReport(
        allocation=alloc,
        payments_by_rule={rule.value: by_rule[rule].payments for rule in _CHAIN},
        links_per_agent=tuple(links),
        chain_ok_per_agent=tuple(all(row) for row in links),
        chain_ok=all(all(row) for row in links),
        english_prices_walrasian=verify_walrasian_equilibrium(
            bids, alloc, by_rule[PaymentRule.ENGLISH].prices_used).is_equilibrium,
        dutch_prices_walrasian=verify_walrasian_equilibrium(
            bids, alloc, by_rule[PaymentRule.DUTCH].prices_used).is_equilibrium,
    )


@dataclass(frozen=True)
class RankingSearchReport:
    instances_checked: int
    witness_found: bool
    witness: dict | None
    other_link_violations: int


def search_vcg_english_inversion(*, steps=None, scale=100) -> RankingSearchReport:
    """Scan the submodular three-item family for a vcg > english payment.

    The family fixes a dominant two-item additive bidder and a budget-additive
    third bidder min(6, 3A + 5B + 3C), and sweeps a small additive middle
    bidder over a weight grid.  Budget-additive valuations are submodular but
    not gross substitutes, so the usual payment chain is not guaranteed; the
    scan reports whether an inversion actually occurs (no numbers asserted).
    """
    if steps is None:
        steps = [Fraction(k) for k in range(0, 7)]
    else:
        steps = [parse_money(s) for s in steps]
    big = parse_money(scale)
    v1 = Additive((big, big, ZERO))
    v3 = budget_additive((3, 5, 3), 6)
    checked = 0
    witness = None
    other = 0
    for w in product(steps, repeat=3):
        bids = BidProfile(3, (v1, Additive(w), v3))
        report = check_payment_ordering(bids)
        checked += 1
        pays = report.payments_by_rule
        for i in range(3):
            if pays["vcg"][i] > pays["english"][i] and witness is None:
                witness = {
                    "middle_bidder_weights": w,
                    "agent": i,
                    "vcg": pays["vcg"][i],
                    "english": pays["english"][i],
                }
        if not report.chain_ok:
            other += 1
    return RankingSearchReport(
        instances_checked=checked,
        witness_found=witness is not None,
        witness=witness,
        other_link_violations=other,
    )
