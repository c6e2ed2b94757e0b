"""Seeded property suites.

Each suite checks one family of exact inequalities on a seeded stream of
random instances or bid profiles: the leave-one-out marginal bounds, the
payment-rule ordering chain, the half-truthful deviation bound and the
price-lattice facts.  It supplies a generator that draws one case and yields
each exact violation; one driver, ``_suite``, runs it, counts the failures
and keeps the first counterexample in a JSON-friendly form.

The same functions back the ``property-test`` CLI subcommand and the
acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .analysis import Instance, marginal_sum_bound, smoothness_certificates
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


def _suite(name: str, runs: int, seed: int, violations, detail: dict) -> SuiteReport:
    """Run ``violations(rng)`` on ``runs`` draws from the stream of suite
    ``name``, tagged by the name with dashes.  It may update ``detail``,
    which the report carries as it is at the end."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    rng = random.Random((name.replace("_", "-"), seed).__repr__())
    failures = 0
    first = None
    for k in range(runs):
        for violation in violations(rng):
            failures += 1
            if first is None:
                first = jsonable({"run": k, **violation})
    return SuiteReport(name, runs, failures, first, jsonable(detail))


def _lemma_suite(name: str, draw, factor: int, runs: int, seed: int) -> SuiteReport:
    """Sum of leave-one-out marginals <= factor * W(1) on each profile
    ``draw`` takes, over PARTITIONS random partitions each; for factor 2 the
    factor-1 breaks are counted too."""
    detail = {"partitions_per_run": PARTITIONS}
    if factor > 1:
        detail["factor1_interesting_witnesses"] = 0

    def violations(rng):
        bids = draw(rng)
        for _ in range(PARTITIONS):
            part = _random_partition(rng, bids.m, bids.n)
            rep = marginal_sum_bound(bids, part)
            if factor > 1:
                detail["factor1_interesting_witnesses"] += not rep.factor1_ok
            if not (rep.factor1_ok if factor == 1 else rep.factor2_ok):
                yield {"partition": part.bundles, "total": rep.total,
                       "bound": factor * rep.single_bound, "profile": bids}

    return _suite(name, runs, seed, violations, detail)


def lemma_gs_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """Sum of leave-one-out marginals <= W(1) on gross-substitutes bids."""
    return _lemma_suite("lemma_gs", random_gs_profile, 1, runs, seed)


def lemma_xos_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """Sum of leave-one-out marginals <= 2 W(1) on explicit-XOS bids.

    Factor-1 violations are legal for XOS and recorded as curiosities.
    """
    return _lemma_suite("lemma_xos", random_xos_profile, 2, runs, seed)


def ordering_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """vcg <= english <= dutch <= paybid per agent on GS bid profiles."""
    def violations(rng):
        bids = random_gs_profile(rng)
        rep = check_payment_ordering(bids)
        if not rep.chain_ok:
            yield {"profile": bids, "payments": rep.payments_by_rule}

    return _suite("ordering", runs, seed, violations, {})


def smoothness_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """Half-truthful deviation bound, all four rules, GS types and GS bids.

    Also requires every computed outcome to charge at most the bid (the
    declared-welfare-maximizer payment property).
    """
    def violations(rng):
        types = random_gs_profile(rng)
        bids = random_gs_profile(
            rng, m_range=(types.m, types.m), n_range=(types.n, types.n),
            classes=("additive", "oxs"))
        for cert in smoothness_certificates(Instance(types.m, types), bids):
            if not (cert.holds and cert.dwm_ok and cert.per_agent_ok):
                yield {"rule": cert.rule.value, "lhs": cert.lhs, "rhs": cert.rhs,
                       "dwm_ok": cert.dwm_ok, "per_agent_ok": cert.per_agent_ok,
                       "types": types, "bids": bids}

    return _suite("smoothness", runs, seed, violations,
                  {"rules": [r.value for r in PaymentRule]})


TAT_EPSILON = Fraction(1, 64)  # price increment of the ascending cross-check


def lattice_suite(runs: int = 500, seed: int = 0) -> SuiteReport:
    """Lattice ordering, equilibrium verification at both endpoints, declared
    welfare recovered from any verified pair, and the ascending cross-check.
    """
    detail = {"tat_epsilon": TAT_EPSILON, "worst_tatonnement_gap": ZERO}

    def violations(rng):
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
        gap = max(abs(a - b) for a, b in zip(result.prices, low))
        detail["worst_tatonnement_gap"] = max(detail["worst_tatonnement_gap"], gap)
        if gap > bids.m * TAT_EPSILON:
            problems.append("tatonnement distance")
        if problems:
            yield {"problems": problems, "profile": bids, "low": low,
                   "high": high, "tatonnement": result.prices}

    return _suite("lattice", runs, seed, violations, detail)


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
