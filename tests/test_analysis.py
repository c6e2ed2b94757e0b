import itertools
import math
import random
from fractions import Fraction as F

import pytest

from walras.analysis import (
    BidGrid,
    EnumerationBudgetExceeded,
    Instance,
    best_response_dynamics,
    construct_efficient_profile,
    exposure_factor_bound,
    half_clause_deviation,
    marginal_sum_bound,
    poa_search,
    smoothness_certificate,
    vcg_deviation_certificate,
    verify_nash,
)
from walras.mechanisms import PaymentRule, run_mechanism
from walras.valuations import (
    Additive,
    UnitDemand,
    Xos,
    sample_valuation,
)
from walras.welfare import Allocation, BidProfile

EPS = F(1, 8)

EX1 = Instance(2, BidProfile(2, (UnitDemand((1 + EPS, 1 + EPS)),
                                 Additive((F(2), F(2))))), name="demand-reduction")
EX2 = Instance(2, BidProfile(2, (UnitDemand((2 - EPS, F(1))),
                                 UnitDemand((F(1), 2 - EPS)))), name="miscoordination")
MISCOORDINATION = BidProfile(2, (Additive((F(0), F(1))),
                                 Additive((F(1), F(0)))))


def test_exposure_factor_bound_basics():
    v = UnitDemand((F(2), F(1)))
    assert exposure_factor_bound(v, v) == 0
    assert exposure_factor_bound(v, v.scale(F(1, 2))) == 0
    assert exposure_factor_bound(v, v.scale(2)) == 1
    assert exposure_factor_bound(
        UnitDemand((F(0), F(1))), Additive((F(1), F(0)))) == math.inf


def test_exposure_factor_gamma_family():
    for gamma in (F(1, 2), F(1), F(3)):
        v = UnitDemand((2 - EPS, 2 / (2 + gamma)))
        b = Additive((F(0), 2 * (1 + gamma) / (2 + gamma)))
        assert exposure_factor_bound(v, b) == gamma


def test_grid_construction():
    grid = BidGrid.additive(2, 2, F(1, 2), F(1))
    assert grid.sizes() == (9, 9)
    default = BidGrid.default_for(EX1)
    # granularity 1/8, largest single-item value 2
    assert len(default.per_agent[0]) == 17 ** 2
    with pytest.raises(ValueError):
        BidGrid.additive(2, 2, 0, 1)


def test_verify_nash_on_the_miscoordination_profile():
    grid = BidGrid.additive(2, 2, F(1, 4), F(2))
    report = verify_nash(EX2, PaymentRule.ENGLISH, MISCOORDINATION, grid)
    assert report.is_nash
    assert report.welfare == 2
    assert report.optimal_welfare == 4 - 2 * EPS
    assert report.ratio == F(15, 8)


def test_verify_nash_flags_demand_reduction_gain():
    grid = BidGrid.additive(2, 2, F(1, 8), F(4))
    report = verify_nash(EX1, PaymentRule.ENGLISH, EX1.true_valuations, grid)
    assert not report.is_nash
    assert report.deviations[0].gain == 0
    assert report.deviations[1].gain == 2 * EPS

    reduced = EX1.true_valuations.replace(1, Additive((F(2), F(0))))
    report = verify_nash(EX1, PaymentRule.ENGLISH, reduced, grid)
    assert report.is_nash
    assert report.welfare == 3 + EPS


def test_verify_nash_injects_truthful_and_half_truthful_deviations():
    # a one-bid grid would otherwise see no deviation at all
    lame_grid = BidGrid(((Additive((F(0), F(0))),),) * 2)
    report = verify_nash(EX1, PaymentRule.ENGLISH,
                         BidProfile(2, (Additive((F(0), F(0))),) * 2), lame_grid)
    assert not report.is_nash  # truthful deviation wins both items for free


def test_verify_nash_respects_deviation_tolerance():
    grid = BidGrid.additive(2, 2, F(1, 8), F(4))
    report = verify_nash(EX1, PaymentRule.ENGLISH, EX1.true_valuations, grid,
                         eps_dev=F(1, 4))
    assert report.is_nash  # the best gain is exactly 2*eps = 1/4
    report = verify_nash(EX1, PaymentRule.ENGLISH, EX1.true_valuations, grid,
                         eps_dev=F(1, 8))
    assert not report.is_nash


def test_construct_efficient_profile_demand_reduction_instance():
    bids = construct_efficient_profile(EX1)
    assert bids.bids[0] == Additive((F(0), F(0)))
    assert bids.bids[1] == Additive((1 + EPS, 1 + EPS))
    out = run_mechanism(PaymentRule.ENGLISH, bids)
    welfare = sum(v.value(x) for v, x in
                  zip(EX1.true_valuations.bids, out.allocation.bundles))
    assert welfare == 4 and out.payments == (0, 0)


def test_construct_efficient_profile_single_bidder_bids_zero():
    solo = Instance(2, BidProfile(2, (Additive((F(2), F(3))),)))
    bids = construct_efficient_profile(solo)
    assert bids.bids[0] == Additive((F(0), F(0)))
    out = run_mechanism(PaymentRule.ENGLISH, bids)
    assert out.allocation.bundles == (0b11,) and out.payments == (0,)


def test_construct_efficient_profile_overbidding_instance():
    inst = Instance(3, BidProfile(3, (
        Xos(((F(4), F(2), F(0)), (F(4), F(0), F(2)))),
        UnitDemand((F(2), F(2), F(0))),
        Additive((F(0), F(0), F(1))))))
    bids = construct_efficient_profile(inst)
    out = run_mechanism(PaymentRule.ENGLISH, bids)
    welfare = sum(v.value(x) for v, x in
                  zip(inst.true_valuations.bids, out.allocation.bundles))
    assert welfare == 8
    assert all(p == 0 for p in out.payments)
    for v, b in zip(inst.true_valuations.bids, bids.bids):
        assert exposure_factor_bound(v, b) == 0


def test_construct_efficient_profile_rejects_non_gs_types():
    from walras.valuations import budget_additive
    inst = Instance(3, BidProfile(3, (
        budget_additive((3, 5, 3), 6),
        Additive((F(1), F(1), F(1))),
        Additive((F(0), F(1), F(0))))))
    with pytest.raises(ValueError):
        construct_efficient_profile(inst)


def test_smoothness_certificate_trivial_single_agent():
    solo = Instance(2, BidProfile(2, (Additive((F(2), F(3))),)))
    zero = BidProfile(2, (Additive((F(0), F(0))),))
    cert = smoothness_certificate(solo, zero, PaymentRule.PAY_YOUR_BID)
    assert cert.lhs == cert.rhs == F(5, 2)  # tight when the bid is zero
    assert cert.holds


def test_smoothness_certificate_on_efficient_profile():
    bids = construct_efficient_profile(EX1)
    for rule in PaymentRule:
        cert = smoothness_certificate(EX1, bids, rule)
        assert cert.holds and cert.slack >= 0
        assert cert.dwm_ok and cert.per_agent_ok


def test_smoothness_certificate_random_gs_draws():
    rng = random.Random(43)
    for trial in range(20):
        m = rng.randint(2, 3)
        n = rng.randint(2, 3)
        mk = lambda kinds: BidProfile(m, tuple(
            sample_valuation(rng.choice(kinds), m, 4,
                             seed=rng.randrange(10**6)) for _ in range(n)))
        inst = Instance(m, mk(["additive", "unit_demand", "oxs"]))
        bids = mk(["additive", "oxs"])
        for rule in PaymentRule:
            cert = smoothness_certificate(inst, bids, rule)
            assert cert.holds and cert.dwm_ok and cert.per_agent_ok


def test_vcg_deviation_certificate():
    report = vcg_deviation_certificate(EX2, MISCOORDINATION)
    assert report.holds
    assert report.equilibrium_welfare == 2
    assert report.ratio == F(15, 8)

    from walras.suites import vcg_deviation_suite
    suite = vcg_deviation_suite(runs=80, seed=7)
    assert suite.failures == 0, suite.first_failure

    solo = Instance(2, BidProfile(2, (Additive((F(2), F(3))),)))
    zero = BidProfile(2, (Additive((F(0), F(0))),))
    r = vcg_deviation_certificate(solo, zero)
    assert r.lhs_total == 5 and r.rhs_total == 5 and r.holds


def test_marginal_sum_bound_additive_and_xos():
    bids = BidProfile(2, (Additive((F(1), F(2))), Additive((F(3), F(1)))))
    rep = marginal_sum_bound(bids, Allocation(2, (0b01, 0b10)))
    assert rep.classification == "gross_substitutes"
    assert rep.factor1_ok and rep.factor2_ok

    rng = random.Random(47)
    for trial in range(15):
        m = rng.randint(2, 3)
        n = rng.randint(2, 3)
        xos_bids = BidProfile(m, tuple(
            sample_valuation("xos", m, 4, seed=rng.randrange(10**6))
            for _ in range(n)))
        bundles = [0] * n
        for j in range(m):
            bundles[rng.randrange(n)] |= 1 << j
        rep = marginal_sum_bound(xos_bids, Allocation(m, tuple(bundles)))
        assert rep.factor2_ok


def test_marginal_sum_bound_rejects_mismatched_partition():
    bids = BidProfile(2, (Additive((F(1), F(2))), Additive((F(3), F(1)))))
    with pytest.raises(ValueError):
        marginal_sum_bound(bids, Allocation(3, (0b111, 0, 0)))


def test_half_clause_deviation():
    single = Xos(((F(2), F(4)),))
    assert half_clause_deviation(single, 0b11) == Additive((F(1), F(2)))

    b1p = Xos(((F(4), F(2), F(0)), (F(4), F(0), F(3))))
    dev = half_clause_deviation(b1p, 0b101)
    assert dev == Additive((F(2), F(0), F(3, 2)))
    for mask in range(8):
        assert dev.value(mask) <= b1p.value(mask) / 2
    assert dev.value(0b101) == b1p.value(0b101) / 2

    ud = Xos(((F(3), F(0)), (F(0), F(1))))
    assert half_clause_deviation(ud, 0b01) == Additive((F(3, 2), F(0)))


def test_poa_search_small_grid_finds_miscoordination():
    grid = BidGrid.additive(2, 2, F(1), F(2))
    report = poa_search(EX2, PaymentRule.VCG, grid, 0)
    assert report.equilibrium_count > 0
    assert F(15, 8) >= report.worst_ratio >= F(7, 4)
    assert report.witness is not None
    assert report.profiles_checked == 9 ** 2


def test_poa_search_budget_guard():
    grid = BidGrid.additive(2, 2, F(1, 8), F(4))
    with pytest.raises(EnumerationBudgetExceeded):
        poa_search(EX2, PaymentRule.VCG, grid, 0, max_profiles=100)


def test_poa_search_parallel_matches_serial():
    grid = BidGrid.additive(2, 2, F(1), F(2))
    serial = poa_search(EX2, PaymentRule.ENGLISH, grid, 0)
    parallel = poa_search(EX2, PaymentRule.ENGLISH, grid, 0, jobs=2)
    assert serial == parallel


def test_poa_search_matches_brute_force_on_odd_denominators():
    # Types over sevenths and thirds, a grid over halves and a tolerance over
    # ninths: the common denominator is none of theirs alone.  The tolerance
    # matters here: at eps_dev = 0 the vcg count is 14, not 18.
    inst = Instance(2, BidProfile(2, (UnitDemand((F(1, 3), F(5, 7))),
                                      UnitDemand((F(5, 7), F(8, 7))))))
    grid = BidGrid.additive(2, 2, "1/2", "1")
    eps = F(1, 9)
    gamma = F(1)
    types = inst.true_valuations.bids
    for rule in PaymentRule:
        count, worst, witness = 0, None, None
        for bids in itertools.product(*grid.per_agent):
            if any(exposure_factor_bound(v, b) > gamma for v, b in zip(types, bids)):
                continue
            nash = verify_nash(inst, rule, BidProfile(2, bids), grid, eps)
            if nash.is_nash:
                count += 1
                if worst is None or nash.ratio > worst:
                    worst, witness = nash.ratio, bids
        report = poa_search(inst, rule, grid, gamma, eps_dev=eps)
        assert report.equilibrium_count == count
        assert report.worst_ratio == (worst if worst is not None else 1)
        assert (report.witness.bids if report.witness else None) == witness
        assert report == poa_search(inst, rule, grid, gamma, eps_dev=eps, jobs=2)
    vcg = poa_search(inst, PaymentRule.VCG, grid, gamma, eps_dev=eps)
    assert (vcg.equilibrium_count, vcg.worst_ratio) == (18, F(31, 24))


def test_best_response_dynamics_examples():
    grid = (BidGrid.additive(2, 2, F(1, 8), F(2))
            .with_extra(0, (EX1.true_valuations.bids[0],))
            .with_extra(1, (EX1.true_valuations.bids[1],)))
    trace = best_response_dynamics(EX1, PaymentRule.ENGLISH, grid,
                                   EX1.true_valuations, max_iter=25)
    assert trace.status == "converged"
    out = run_mechanism(PaymentRule.ENGLISH, trace.profile)
    welfare = sum(v.value(x) for v, x in
                  zip(EX1.true_valuations.bids, out.allocation.bundles))
    assert welfare == 3 + EPS

    efficient = construct_efficient_profile(EX1)
    fixed = (BidGrid.default_for(EX1)
             .with_extra(0, (efficient.bids[0],))
             .with_extra(1, (efficient.bids[1],)))
    trace = best_response_dynamics(EX1, PaymentRule.ENGLISH, fixed,
                                   efficient, max_iter=5)
    assert trace.status == "converged" and not trace.steps

    solo = Instance(2, BidProfile(2, (Additive((F(2), F(3))),)))
    grid1 = BidGrid.additive(2, 1, F(1), F(3))
    start = BidProfile(2, (Additive((F(3), F(3))),))
    trace = best_response_dynamics(solo, PaymentRule.PAY_YOUR_BID, grid1, start)
    assert trace.status == "converged"
    assert trace.profile.bids[0] == Additive((F(0), F(0)))


def test_best_response_requires_start_on_grid():
    grid = BidGrid.additive(2, 2, F(1), F(2))
    with pytest.raises(ValueError):
        best_response_dynamics(EX1, PaymentRule.ENGLISH, grid,
                               EX1.true_valuations)
