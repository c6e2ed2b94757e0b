"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.

Run with  pytest tests/test_acceptance.py -v  (add -s to stream the lines).
"""

import sys
from fractions import Fraction as F

from walras.analysis import (
    BidGrid,
    Instance,
    construct_efficient_profile,
    exposure_factor_bound,
    poa_search,
    verify_nash,
)
from walras.instancefile import load_fixture
from walras.mechanisms import (
    PaymentRule,
    run_mechanism,
    search_vcg_english_inversion,
    utility,
)
from walras.suites import (
    GS_CLASSES,
    SuiteReport,
    _suite,
    lattice_suite,
    lemma_gs_suite,
    lemma_xos_suite,
    ordering_suite,
    smoothness_suite,
)
from walras.valuations import Additive, UnitDemand, sample_valuation, valuation_from_json
from walras.walrasian import min_walrasian_prices, verify_walrasian_equilibrium
from walras.welfare import BidProfile, assignment_value, welfare_max
from walras.bundles import ms_ones
from walras.reproduce import run_case

EPS = F(1, 8)
SEED = 20250

RESULT_LINES: list[str] = []  # echoed by conftest's terminal summary


def _line(number: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:>2}: {status} - {text}"
    RESULT_LINES.append(line)
    print(line, file=sys.stderr, flush=True)


def test_criterion_01_overbidding_reproduction_exact():
    instance = load_fixture("appendix_overbidding.json")
    truthful = instance.true_valuations
    value, bundles = welfare_max(truthful, ms_ones(3))
    prices = min_walrasian_prices(truthful)
    out = run_mechanism(PaymentRule.ENGLISH, truthful)
    u_truthful = utility(truthful.bids[0], out, 0)

    deviated = truthful.replace(0, valuation_from_json(
        {"type": "xos", "clauses": [["4", "2", "0"], ["4", "0", "3"]]}))
    dev_prices = min_walrasian_prices(deviated)
    out_dev = run_mechanism(PaymentRule.ENGLISH, deviated)
    u_dev = utility(truthful.bids[0], out_dev, 0)

    ok = (value == 8 and prices == (1, 1, 1) and u_truthful == 4
          and dev_prices == (0, 0, 1) and u_dev > u_truthful)
    show = lambda vec: "(" + ",".join(str(p) for p in vec) + ")"
    _line(1, ok, f"welfare {value}, prices {show(prices)}->{show(dev_prices)}, "
                 f"deviation utility {u_dev} (recomputed; exceeds {u_truthful})")
    assert value == 8
    assert prices == (1, 1, 1)
    assert u_truthful == 4
    assert dev_prices == (0, 0, 1)
    assert u_dev > u_truthful and u_dev == 5


def test_criterion_02_demand_reduction_equilibrium():
    instance = load_fixture("example1_eps_0.125.json")
    grid = BidGrid.additive(2, 2, F(1, 8), F(4))
    opt, _ = instance.optimal()

    truthful_report = verify_nash(instance, PaymentRule.ENGLISH,
                                  instance.true_valuations, grid)
    witness = Additive((F(2), F(0)))
    base = run_mechanism(PaymentRule.ENGLISH, instance.true_valuations)
    dev = run_mechanism(PaymentRule.ENGLISH,
                        instance.true_valuations.replace(1, witness))
    v2 = instance.true_valuations.bids[1]
    witness_improves = utility(v2, dev, 1) > utility(v2, base, 1)

    reduced = instance.true_valuations.replace(1, witness)
    nash_report = verify_nash(instance, PaymentRule.ENGLISH, reduced, grid)
    ratio = nash_report.ratio
    ok = (opt == 4 and not truthful_report.is_nash and witness_improves
          and nash_report.is_nash and nash_report.welfare == 3 + EPS
          and ratio >= F(128, 100))
    _line(2, ok, f"optimum {opt}, truthful grid-Nash fails, named deviation "
                 f"improves, equilibrium welfare {nash_report.welfare}, "
                 f"ratio {ratio}")
    assert opt == 4
    assert not truthful_report.is_nash
    assert witness_improves
    assert nash_report.is_nash
    assert nash_report.welfare == 3 + EPS
    assert ratio == F(4) / (3 + EPS) >= F(128, 100)


def test_criterion_03_miscoordination_equilibrium():
    ok1, report1 = run_case("example2")
    instance = load_fixture("example2_eps_0.125.json")
    grid = BidGrid.additive(2, 2, F(1, 4), F(2))
    mis = BidProfile(2, (Additive((F(0), F(1))), Additive((F(1), F(0)))))
    rep = verify_nash(instance, PaymentRule.ENGLISH, mis, grid)

    from walras.analysis import exposure_factor_bound
    gamma = F(1)
    lo = 2 / (2 + gamma)
    variant = Instance(2, BidProfile(2, (UnitDemand((2 - EPS, lo)),
                                         UnitDemand((lo, 2 - EPS)))))
    overbid = 2 * (1 + gamma) / (2 + gamma)
    gbids = BidProfile(2, (Additive((F(0), overbid)), Additive((overbid, F(0)))))
    bounds = tuple(exposure_factor_bound(v, b) for v, b in
                   zip(variant.true_valuations.bids, gbids.bids))
    outg = run_mechanism(PaymentRule.ENGLISH, gbids)
    wg = sum(v.value(x) for v, x in
             zip(variant.true_valuations.bids, outg.allocation.bundles))
    gratio = (4 - 2 * EPS) / wg

    ok = (ok1 and rep.is_nash and rep.welfare == 2
          and rep.optimal_welfare == 4 - 2 * EPS and rep.ratio == F(15, 8)
          and bounds == (1, 1) and gratio >= (2 + gamma) * (1 - EPS))
    _line(3, ok, f"grid-Nash welfare {rep.welfare} vs {rep.optimal_welfare}, "
                 f"ratio {rep.ratio}; gamma-variant exposure {bounds[0]}, "
                 f"ratio {gratio}")
    assert ok1, report1
    assert rep.is_nash and rep.welfare == 2
    assert rep.ratio == F(15, 8) >= 2 - 2 * EPS
    assert bounds == (1, 1)
    assert gratio >= (2 + gamma) * (1 - EPS)


def test_criterion_04_marginal_sum_bound_gs():
    report = lemma_gs_suite(runs=500, seed=SEED)
    _line(4, report.ok, f"{report.runs} GS profiles x 10 partitions, "
                        f"{report.failures} violations of the factor-1 bound")
    assert report.failures == 0, report.first_failure


def test_criterion_05_marginal_sum_bound_xos():
    report = lemma_xos_suite(runs=500, seed=SEED)
    _line(5, report.ok, f"{report.runs} XOS profiles x 10 partitions, "
                        f"{report.failures} violations of the factor-2 bound")
    assert report.failures == 0, report.first_failure


def test_criterion_06_half_truthful_deviation_bound():
    report = smoothness_suite(runs=500, seed=SEED)
    _line(6, report.ok, f"{report.runs} (types, bids) pairs x 4 rules, "
                        f"{report.failures} violations (payment bound included)")
    assert report.failures == 0, report.first_failure


def test_criterion_07_vcg_enumeration():
    instance = load_fixture("example2_eps_0.125.json")
    grid = BidGrid.additive(2, 2, F(1, 4), F(2))
    report = poa_search(instance, PaymentRule.VCG, grid, 0)
    ok = report.worst_ratio <= 2 and report.worst_ratio >= 2 - F(1, 4)
    _line(7, ok, f"externality rule, gamma=0: worst ratio "
                 f"{report.worst_ratio} over {report.equilibrium_count} "
                 f"equilibria ({report.profiles_checked} profiles)")
    assert report.worst_ratio <= 2
    assert report.worst_ratio >= 2 - F(1, 4)
    assert report.witness is not None


def test_criterion_08_english_enumeration():
    instance = load_fixture("example2_eps_0.125.json")
    grid = BidGrid.additive(2, 2, F(1, 4), F(2))
    at0 = poa_search(instance, PaymentRule.ENGLISH, grid, 0)
    at1 = poa_search(instance, PaymentRule.ENGLISH, grid, 1)
    ok = at0.worst_ratio <= 4 and at1.worst_ratio <= 6
    _line(8, ok, f"min-price rule: worst ratio {at0.worst_ratio} at gamma=0 "
                 f"(bound 4), {at1.worst_ratio} at gamma=1 (bound 6)")
    assert at0.worst_ratio <= 4
    assert at1.worst_ratio <= 6


def test_criterion_09_payment_ordering():
    report = ordering_suite(runs=500, seed=SEED)
    search = search_vcg_english_inversion()
    ok = report.ok and search.instances_checked > 0
    _line(9, ok, f"{report.runs} GS profiles, {report.failures} chain "
                 f"violations; family scan of {search.instances_checked} "
                 f"instances, inversion witness "
                 f"{'found' if search.witness_found else 'not found'}")
    assert report.failures == 0, report.first_failure
    assert search.instances_checked == 343
    assert isinstance(search.witness_found, bool)


def test_criterion_10_lattice_suite():
    report = lattice_suite(runs=500, seed=SEED)
    instance = load_fixture("and_bidder.json")
    profile = instance.true_valuations
    _, bundles = welfare_max(profile, ms_ones(2))
    spot = verify_walrasian_equilibrium(profile, bundles, ("1", "1"))
    ok = report.ok and not spot.is_equilibrium
    _line(10, ok, f"{report.runs} GS draws: order, verification and ascent "
                  f"within m*eps all hold ({report.failures} failures); "
                  f"pair-bidder fixture fails verification at (1,1)")
    assert report.failures == 0, report.first_failure
    assert not spot.is_equilibrium


def stability_suite(runs: int = 100, seed: int = 0) -> SuiteReport:
    """Efficient-profile construction: optimal welfare, zero payments, zero
    exposure, and a grid-Nash pass on the instance's default grid."""
    def violations(rng):
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        types = BidProfile(m, tuple(
            sample_valuation(rng.choice(GS_CLASSES), m, 2,
                             seed=rng.randrange(1 << 30), denominators=(1,))
            for _ in range(n)))
        instance = Instance(types.m, types)
        bids = construct_efficient_profile(instance)
        out = run_mechanism(PaymentRule.ENGLISH, bids)
        opt, _ = instance.optimal()
        problems = []
        if assignment_value(types, out.allocation.bundles) != opt:
            problems.append("welfare below optimum")
        if any(p != 0 for p in out.payments):
            problems.append("nonzero payment")
        if any(exposure_factor_bound(v, b) != 0
               for v, b in zip(types.bids, bids.bids)):
            problems.append("exposure")
        rep = verify_nash(instance, PaymentRule.ENGLISH, bids,
                          BidGrid.default_for(instance))
        if not rep.is_nash:
            problems.append("grid deviation found")
        if problems:
            yield {"problems": problems, "types": types, "bids": bids}

    return _suite("stability", runs, seed, violations, {})


def test_criterion_11_stability_evidence():
    report = stability_suite(runs=100, seed=SEED)
    _line(11, report.ok, f"{report.runs} instances: efficient profile gives "
                         f"optimal welfare, zero payments, zero exposure, "
                         f"grid-Nash ({report.failures} failures)")
    assert report.failures == 0, report.first_failure
