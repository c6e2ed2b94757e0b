"""Seeded property suites.

Each suite draws a reproducible stream of random instances or bid profiles
and checks one family of exact inequalities: the leave-one-out marginal
bounds, the payment-rule ordering chain, the half-truthful deviation bound
and the price-lattice facts.  A single exact violation is a failure; the
first counterexample is kept in a JSON-friendly form.

The same functions back the ``property-test`` CLI subcommand and the
acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .analysis import Instance, marginal_sum_bound, smoothness_certificate
from .bundles import ms_ones
from .mechanisms import PaymentRule, allocate_declared, check_payment_ordering
from .money import ZERO
from .serialize import jsonable
from .valuations import sample_valuation
from .walrasian import (
    min_walrasian_prices,
    max_walrasian_prices,
    tatonnement,
    verify_walrasian_equilibrium,
)
from .welfare import Allocation, BidProfile, assignment_value, welfare_value


@dataclass(frozen=True)
class SuiteReport:
    name: str
    runs: int
    failures: int
    first_failure: dict | None
    detail: dict

    @property
    def ok(self) -> bool:
        return self.failures == 0


GS_CLASSES = ("additive", "unit_demand", "oxs")


def random_gs_profile(rng: random.Random, *, m_range=(2, 4), n_range=(2, 4),
                      classes=GS_CLASSES) -> BidProfile:
    """Random mix of additive / unit-demand / assignment bids, weights up to
    4 over denominators 1, 2 and 4; all GS."""
    m = rng.randint(*m_range)
    n = rng.randint(*n_range)
    return BidProfile(m, tuple(
        sample_valuation(rng.choice(list(classes)), m, 4,
                         seed=rng.randrange(1 << 30), denominators=(1, 2, 4))
        for _ in range(n)))


def random_xos_profile(rng: random.Random) -> BidProfile:
    """Random explicit-XOS bids: m and n in 2..4, weights up to 4."""
    m = rng.randint(2, 4)
    n = rng.randint(2, 4)
    return BidProfile(m, tuple(
        sample_valuation("xos", m, 4, seed=rng.randrange(1 << 30))
        for _ in range(n)))


def _random_partition(rng: random.Random, m: int, n: int) -> Allocation:
    bundles = [0] * n
    for j in range(m):
        bundles[rng.randrange(n)] |= 1 << j
    return Allocation(m, tuple(bundles))


PARTITIONS = 10  # random partitions checked per drawn profile


def _lemma_suite(name: str, rng: random.Random, draw, factor: int,
                 runs: int) -> SuiteReport:
    """Sum of leave-one-out marginals <= factor * W(1) on each of the
    ``runs`` profiles ``draw`` takes from ``rng``, over PARTITIONS random
    partitions each; factor-1 breaks are counted too."""
    failures = factor1_breaks = 0
    first = None
    for k in range(runs):
        bids = draw(rng)
        for _ in range(PARTITIONS):
            part = _random_partition(rng, bids.m, bids.n)
            rep = marginal_sum_bound(bids, part)
            factor1_breaks += not rep.factor1_ok
            if not (rep.factor1_ok if factor == 1 else rep.factor2_ok):
                failures += 1
                if first is None:
                    first = jsonable({"run": k, "partition": part.bundles,
                                      "total": rep.total,
                                      "bound": factor * rep.single_bound,
                                      "profile": bids})
    detail = {"partitions_per_run": PARTITIONS}
    if factor > 1:
        detail["factor1_interesting_witnesses"] = factor1_breaks
    return SuiteReport(name, runs, failures, first, detail)


def lemma_gs_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """Sum of leave-one-out marginals <= W(1) on gross-substitutes bids."""
    rng = random.Random(("lemma-gs", seed).__repr__())
    return _lemma_suite("lemma_gs", rng, random_gs_profile, 1, runs)


def lemma_xos_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """Sum of leave-one-out marginals <= 2 W(1) on explicit-XOS bids.

    Factor-1 violations are legal for XOS and recorded as curiosities.
    """
    rng = random.Random(("lemma-xos", seed).__repr__())
    return _lemma_suite("lemma_xos", rng, random_xos_profile, 2, runs)


def ordering_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """vcg <= english <= dutch <= paybid per agent on GS bid profiles."""
    rng = random.Random(("ordering", seed).__repr__())
    failures = 0
    first = None
    for k in range(runs):
        bids = random_gs_profile(rng)
        rep = check_payment_ordering(bids)
        bad_chain = not rep.chain_ok
        bad_dwm = any(
            pay > bid.value(x)
            for pay, bid, x in zip(rep.payments_by_rule["paybid"], bids.bids,
                                   rep.allocation.bundles))
        if bad_chain or bad_dwm:
            failures += 1
            if first is None:
                first = jsonable({"run": k, "profile": bids,
                                  "payments": rep.payments_by_rule})
    return SuiteReport("ordering", runs, failures, first, {})


def smoothness_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """Half-truthful deviation bound, all four rules, GS types and GS bids.

    Also requires every computed outcome to charge at most the bid (the
    declared-welfare-maximizer payment property).
    """
    rng = random.Random(("smoothness", seed).__repr__())
    failures = 0
    first = None
    for k in range(runs):
        types = random_gs_profile(rng)
        bids = random_gs_profile(
            rng, m_range=(types.m, types.m), n_range=(types.n, types.n),
            classes=("additive", "oxs"))
        instance = Instance(types.m, types)
        for rule in PaymentRule:
            cert = smoothness_certificate(instance, bids, rule)
            if not (cert.holds and cert.dwm_ok and cert.per_agent_ok):
                failures += 1
                if first is None:
                    first = jsonable({"run": k, "rule": rule.value, "lhs": cert.lhs,
                                      "rhs": cert.rhs, "dwm_ok": cert.dwm_ok,
                                      "per_agent_ok": cert.per_agent_ok,
                                      "types": types, "bids": bids})
    return SuiteReport("smoothness", runs, failures, first,
                       {"rules": [r.value for r in PaymentRule]})


TAT_EPSILON = Fraction(1, 64)  # price increment of the ascending cross-check


def lattice_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """Lattice ordering, equilibrium verification at both endpoints, declared
    welfare recovered from any verified pair, and the ascending cross-check.
    """
    rng = random.Random(("lattice", seed).__repr__())
    failures = 0
    first = None
    tat_worst = ZERO
    for k in range(runs):
        bids = random_gs_profile(rng)
        low = min_walrasian_prices(bids)
        high = max_walrasian_prices(bids)
        value = welfare_value(bids, ms_ones(bids.m))
        alloc = allocate_declared(bids)
        problems = []
        if not all(a <= b for a, b in zip(low, high)):
            problems.append("lattice order")
        for name, prices in (("low", low), ("high", high)):
            cert = verify_walrasian_equilibrium(bids, alloc, prices)
            if not cert.is_equilibrium:
                problems.append(f"verify {name}")
            elif assignment_value(bids, alloc.bundles) != value:
                problems.append(f"first-welfare at {name}")
        result = tatonnement(bids, TAT_EPSILON)
        tolerance = bids.m * TAT_EPSILON
        gaps = [abs(a - b) for a, b in zip(result.prices, low)]
        tat_worst = max(tat_worst, max(gaps))
        if any(g > tolerance for g in gaps):
            problems.append("tatonnement distance")
        if problems:
            failures += 1
            if first is None:
                first = jsonable({"run": k, "problems": problems,
                                  "profile": bids, "low": low, "high": high,
                                  "tatonnement": result.prices})
    return SuiteReport("lattice", runs, failures, first,
                       jsonable({"tat_epsilon": TAT_EPSILON,
                                 "worst_tatonnement_gap": tat_worst}))


_SUITES = {
    "lemmas": (lemma_gs_suite, lemma_xos_suite),
    "ordering": (ordering_suite,),
    "smoothness": (smoothness_suite,),
    "lattice": (lattice_suite,),
}


def run_suites(name: str, runs: int, seed: int = 0) -> list[SuiteReport]:
    """Dispatch for the CLI: one of lemmas|ordering|smoothness|lattice|all."""
    if name == "all":
        picked = [fn for fns in _SUITES.values() for fn in fns]
    elif name in _SUITES:
        picked = list(_SUITES[name])
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(_SUITES)} or 'all'")
    return [fn(runs, seed) for fn in picked]
