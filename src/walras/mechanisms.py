"""Declared-welfare-maximizer mechanisms.

All four mechanisms share one allocation rule (the exact declared-welfare
maximizer with canonical tie-breaking) and differ only in payments:

    vcg      externality: W_without_i(1) - W_without_i(1 - x_i)
    english  minimum Walrasian prices of the declared market, per item won
    dutch    maximum Walrasian prices of the declared market, per item won
    paybid   the declared value of the bundle won

Payments stay well-defined for non-GS bids (the marginals always exist);
only the english/dutch prices can then fail to be Walrasian, which the
price layer's ``verify_walrasian_equilibrium`` checks (``walras prices``).

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
from .valuations import Additive, Valuation, budget_additive
from .walrasian import _scaled_prices
from .welfare import (
    Allocation,
    BidProfile,
    _full_partition,
    _scaled_welfare,
    _welfare_argmax,
    scaled_tables,
)


class PaymentRule(str, Enum):
    """The payment rules in chain order: vcg <= english <= dutch <= paybid."""
    VCG = "vcg"
    ENGLISH = "english"
    DUTCH = "dutch"
    PAY_YOUR_BID = "paybid"


@dataclass(frozen=True)
class MechanismOutcome:
    """Allocation, payments and (english/dutch) item prices of one run.

    ``_scaled_payments`` are the payments times D, the denominator of the
    profile's scaled tables (``welfare.scaled_tables``), for callers that
    stay on integers; the underscore keeps them out of reports and they take
    no part in equality.
    """

    rule: PaymentRule
    allocation: Allocation
    payments: tuple[Fraction, ...]
    prices_used: tuple[Fraction, ...] | None
    _scaled_payments: tuple[int, ...] = field(compare=False, repr=False)


def allocate_declared(bids: BidProfile) -> Allocation:
    """Welfare-maximizing partition under the bids, canonical tie-breaking.

    Items the maximizer leaves unused carry zero marginal declared value;
    ``welfare._full_partition`` hands them to agent 0.
    """
    alloc = bids._cache.get("declared_allocation")
    if alloc is None:
        _, bundles = _welfare_argmax(bids, ms_ones(bids.m))
        alloc = bids._cache["declared_allocation"] = Allocation(
            bids.m, _full_partition(bids.m, bundles))
    return alloc


def _scaled_externality(bids: BidProfile, i: int, bundle: int) -> int:
    """D * W_without_i(bundle | 1 - bundle): the welfare the others forgo
    when agent i takes ``bundle``."""
    full = full_mask(bids.m)
    everything, rest = _scaled_welfare(bids, ms_ones(bids.m),
                                       (full, full & ~bundle), i)
    return everything - rest


def run_mechanism(rule: PaymentRule, bids: BidProfile) -> MechanismOutcome:
    """The rule's payments and prices on the declared allocation, computed as
    D times their value (D from ``scaled_tables(bids)``) and converted once."""
    rule = PaymentRule(rule)
    alloc = allocate_declared(bids)
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
        pays)


def utility(true_v: Valuation, outcome: MechanismOutcome, i: int) -> Fraction:
    """Quasi-linear utility: value of the bundle won minus the payment."""
    return true_v.value(outcome.allocation.bundles[i]) - outcome.payments[i]


# -- payment-rule comparison ---------------------------------------------------

@dataclass(frozen=True)
class PaymentOrderingReport:
    payments_by_rule: dict
    links_per_agent: tuple[tuple[bool, bool, bool], ...]
    chain_ok: bool


def check_payment_ordering(bids: BidProfile) -> PaymentOrderingReport:
    """Run all four rules on the shared allocation and compare payments.

    For gross-substitutes bids the chain vcg <= english <= dutch <= paybid
    holds agent by agent; outside GS it can break, so the result is a report
    rather than an assertion.  The rules run in ``PaymentRule`` order, the
    chain order; ``links_per_agent`` holds each agent's three adjacent links.
    """
    runs = [run_mechanism(rule, bids) for rule in PaymentRule]
    links = tuple(
        tuple(a <= b for a, b in zip(seq, seq[1:]))
        for seq in zip(*(run._scaled_payments for run in runs)))
    return PaymentOrderingReport(
        payments_by_rule={run.rule.value: run.payments for run in runs},
        links_per_agent=links,
        chain_ok=all(all(row) for row in links),
    )


@dataclass(frozen=True)
class RankingSearchReport:
    instances_checked: int
    witness_found: bool
    witness: dict | None


def search_vcg_english_inversion() -> RankingSearchReport:
    """Scan the submodular three-item family for a vcg > english payment.

    The family fixes a dominant two-item additive bidder and a budget-additive
    third bidder min(6, 3A + 5B + 3C), and sweeps a small additive middle
    bidder over the weights 0..6 on each item.  Budget-additive valuations
    are submodular but not gross substitutes, so the usual payment chain is
    not guaranteed; the scan runs the two rules it compares on each profile
    and reports whether an inversion actually occurs (no numbers asserted).
    """
    v1 = Additive((100, 100, 0))
    v3 = budget_additive((3, 5, 3), 6)
    checked = 0
    witness = None
    for w in product([Fraction(k) for k in range(7)], repeat=3):
        bids = BidProfile(3, (v1, Additive(w), v3))
        vcg, english = (run_mechanism(rule, bids).payments
                        for rule in (PaymentRule.VCG, PaymentRule.ENGLISH))
        checked += 1
        for i in range(3):
            if vcg[i] > english[i] and witness is None:
                witness = {
                    "middle_bidder_weights": w,
                    "agent": i,
                    "vcg": vcg[i],
                    "english": english[i],
                }
    return RankingSearchReport(
        instances_checked=checked,
        witness_found=witness is not None,
        witness=witness,
    )
