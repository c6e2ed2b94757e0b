import collections
import itertools
import math
import pickle
import random
import re
from fractions import Fraction as F
from operator import getitem

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import (
    brute_blocking,
    brute_poa,
    brute_value,
    brute_welfare,
    fraction_best_response_dynamics,
    fraction_exposure_factor_bound,
    fraction_smoothness_certificate,
    fraction_vcg_deviation_certificate,
    fraction_verify_nash,
    granularity,
    rational_gcd,
    scaled_profile_outcomes,
)
from strategies import any_profile, any_valuation

from walras import analysis, valuations
from walras import welfare as welfare_module
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
    smoothness_certificates,
    vcg_deviation_certificate,
    verify_nash,
)
from walras.bundles import fold_rows
from walras.mechanisms import PaymentRule, run_mechanism
from walras.money import INFINITY, ZERO
from walras.valuations import (
    CHECKER_MAX_ITEMS,
    Additive,
    Oxs,
    Tabular,
    UnitDemand,
    Xos,
    is_gross_substitutes,
    sample_valuation,
)
from walras.suites import SuiteReport, _suite, random_gs_profile, random_xos_profile
from walras.welfare import Allocation, BidProfile

EPS = F(1, 8)

EX1 = Instance(2, BidProfile(2, (UnitDemand((1 + EPS, 1 + EPS)),
                                 Additive((F(2), F(2))))), name="demand-reduction")
EX2 = Instance(2, BidProfile(2, (UnitDemand((2 - EPS, F(1))),
                                 UnitDemand((F(1), 2 - EPS)))), name="miscoordination")
MISCOORDINATION = BidProfile(2, (Additive((F(0), F(1))),
                                 Additive((F(1), F(0)))))


def with_extra(grid, bids):
    """The grid with bids[i] appended to agent i's bids where missing."""
    return BidGrid(tuple(g + ((b,) if b not in g else ())
                         for g, b in zip(grid.per_agent, bids)))


def test_exposure_factor_bound_basics():
    v = UnitDemand((F(2), F(1)))
    assert exposure_factor_bound(v, v) == 0
    assert exposure_factor_bound(v, v.scale(F(1, 2))) == 0
    assert exposure_factor_bound(v, v.scale(2)) == 1
    assert exposure_factor_bound(
        UnitDemand((F(0), F(1))), Additive((F(1), F(0)))) is INFINITY


def test_exposure_factor_gamma_family():
    for gamma in (F(1, 2), F(1), F(3)):
        v = UnitDemand((2 - EPS, 2 / (2 + gamma)))
        b = Additive((F(0), 2 * (1 + gamma) / (2 + gamma)))
        assert exposure_factor_bound(v, b) == gamma


@st.composite
def exposure_cases(draw):
    """A type and a bid of any kind over m <= 3 items, and a gamma below, at
    or above 0."""
    m = draw(st.integers(1, 3))
    return (draw(any_valuation(m)), draw(any_valuation(m)),
            draw(st.fractions(min_value=-1, max_value=3, max_denominator=4)))


@settings(max_examples=120)
@given(exposure_cases())
# A bid on a worthless bundle, two monotone tables, a non-monotone type, and
# two types negative on a bundle (the Fraction loop gives 1/3 and 0).
@example((Tabular((F(0), F(0))), Tabular((F(0), F(1))), F(3)))
@example((Tabular((F(0), F(0), F(1), F(1))), Tabular((F(0), F(0), F(2), F(1))), F(0)))
@example((Tabular((F(0), F(2), F(1), F(1))), Tabular((F(0), F(1), F(0), F(3))), F(2)))
@example((Tabular((F(0), F(2), F(-1), F(3))), Tabular((F(0), F(1), F(0), F(4))), F(1, 3)))
@example((Tabular((F(0), F(-1))), Tabular((F(0), F(1))), F(0)))
def test_integer_exposure_matches_the_fraction_loop(case):
    v, b, gamma = case
    expected = fraction_exposure_factor_bound(v, b)
    assert exposure_factor_bound(v, b) == expected
    # poa_search keeps b exactly when its bound is at most gamma: alone under
    # vcg, an agent wins every item and pays nothing whatever it bids, so
    # its one grid profile is an equilibrium if and only if b is kept.
    instance, grid = Instance(v.m, BidProfile(v.m, (v,))), BidGrid(((b,),))
    for g in (F(0), F(1), abs(gamma)):
        report = poa_search(instance, PaymentRule.VCG, grid, g)
        assert report.equilibrium_count == (expected <= g)


def test_grid_construction():
    grid = BidGrid.additive(2, 2, F(1, 2), F(1))
    assert grid.sizes() == (9, 9)
    default = BidGrid.default_for(EX1)
    # granularity 1/8, largest single-item value 2
    assert len(default.per_agent[0]) == 17 ** 2
    with pytest.raises(ValueError):
        BidGrid.additive(2, 2, 0, 1)
    for empty in (lambda: BidGrid(()), lambda: BidGrid.additive(2, 0, 1, 1)):
        with pytest.raises(ValueError, match="a bid grid needs at least one agent"):
            empty()


def test_a_grid_bid_worth_something_at_the_empty_bundle_is_refused():
    """The kernel scores agent 0's empty bundle as 0 and its english rows
    read the opponents' tables there, so a grid refuses a table worth
    anything at the empty bundle, naming the agent and the bid."""
    lifted = Tabular((F(1, 3), F(1), F(1), F(2)))
    bids = (Additive((F(1), F(1))), lifted)
    with pytest.raises(ValueError, match=r"grid bid 1 of agent 0, \{'type': 'tabular', "
                       r"'values': \['1/3', '1', '1', '2'\]\}, is worth 1/3 at the "
                       "empty bundle, not 0"):
        BidGrid((bids, bids[:1]))
    with pytest.raises(ValueError, match="grid bid 0 of agent 1, .* is worth -1 at"):
        BidGrid((bids[:1], (Tabular((F(-1), F(0), F(0), F(0))),)))


def _oracle_default_grid(instance):
    """The default grid from the oracle's Fraction fold: step granularity(all
    values), cap the largest single-item value."""
    m, bids = instance.m, instance.true_valuations.bids
    values = [brute_value(v, x) for v in bids for x in range(1 << m)]
    cap = max(brute_value(v, 1 << j) for v in bids for j in range(m))
    return BidGrid.additive(m, len(bids), granularity(values), cap)


def _instance(*bids):
    return Instance(bids[0].m, BidProfile(bids[0].m, bids))


def test_default_grid_step_is_the_rational_gcd():
    assert rational_gcd(F(0), F(5)) == 5
    assert rational_gcd(F(3, 4), F(1, 2)) == F(1, 4)
    for bids, step, cap in [
        ((Additive((F(9, 8), F(2))),), F(1, 8), F(2)),  # 9/8 and 2
        ((Additive((F(2), F(4))),), F(2), F(4)),  # 2 and 4
        ((Additive((F(3, 2), F(3, 4))), UnitDemand((F(9, 4), F(1, 2)))),
         F(1, 4), F(9, 4)),  # a gcd above the floor, set by the second bid
        ((Xos(((F(1), F(1, 3)), (F(2, 3), F(1)))),
          Oxs(((F(1, 2), F(0)), (F(1), F(0))))), F(1, 6), F(1)),
        ((Tabular((F(0), F(1, 2), F(1), F(5, 2))),), F(1, 2), F(1)),
        ((Tabular((F(0), F(-1, 2), F(3, 4), F(1))),), F(1, 4), F(3, 4)),
    ]:
        instance = _instance(*bids)
        grid = BidGrid.default_for(instance)
        assert grid == _oracle_default_grid(instance)
        assert grid == BidGrid.additive(instance.m, len(bids), step, cap)


def test_default_grid_step_floor():
    assert granularity([F(1, 64), F(1, 2)]) == F(1, 8)
    assert granularity([]) == F(1, 8)
    mixed = _instance(Additive((F(1, 3), F(1, 4))), UnitDemand((F(1, 2), F(0))))
    assert BidGrid.default_for(mixed) == _oracle_default_grid(mixed)
    assert BidGrid.default_for(mixed) == BidGrid.additive(2, 2, F(1, 8), F(1, 2))
    zeros = _instance(Additive((F(0), F(0))), Xos(((F(0), F(0)),)))
    assert BidGrid.default_for(zeros).per_agent == ((Additive((F(0), F(0))),),) * 2


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


def test_smallest_positive_marginal_matches_the_bid_values():
    rng = random.Random(23)
    for _ in range(20):
        m = rng.randint(1, 4)
        prof = BidProfile(m, tuple(
            sample_valuation(rng.choice(["additive", "unit_demand", "oxs", "xos"]),
                             m, 4, seed=rng.randrange(10**6)) for _ in range(2)))
        gaps = [brute_value(v, x | 1 << j) - brute_value(v, x) for v in prof.bids
                for x in range(1 << m) for j in range(m) if not x >> j & 1]
        assert analysis._smallest_positive_marginal(prof) == min(
            (g for g in gaps if g > 0), default=0)


def test_construct_efficient_profile_without_a_positive_marginal():
    # No bid has a positive marginal, so the bump is 0 and every bid is zero.
    zeros = Instance(2, BidProfile(2, (Additive((F(0), F(0))),
                                       UnitDemand((F(0), F(0))))))
    assert analysis._smallest_positive_marginal(zeros.true_valuations) == 0
    assert construct_efficient_profile(zeros).bids == (Additive((F(0), F(0))),) * 2


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


def vcg_deviation_suite(runs: int = 200, seed: int = 0) -> SuiteReport:
    """Truthful-deviation bound under the externality rule, GS draws."""
    def violations(rng):
        types = random_gs_profile(rng)
        bids = random_gs_profile(
            rng, m_range=(types.m, types.m), n_range=(types.n, types.n))
        if not vcg_deviation_certificate(Instance(types.m, types), bids).holds:
            yield {"types": types, "bids": bids}

    return _suite("vcg_deviation", runs, seed, violations, {})


def test_vcg_deviation_certificate():
    report = vcg_deviation_certificate(EX2, MISCOORDINATION)
    assert report.holds
    assert report.equilibrium_welfare == 2
    assert report.ratio == F(15, 8)

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


def test_marginal_sum_bound_matches_the_brute_oracles():
    """The sum of enumerated blocking terms, W(1) by enumeration and both
    flags, on GS and XOS draws and random partitions, and on complements
    whose sum exceeds W(1)."""
    rng = random.Random(4049)
    complements = BidProfile(2, (Tabular((F(0), F(0), F(0), F(3))),
                                 Additive((F(1), F(1))), Additive((F(1), F(1)))))
    cases = [(complements, (0, 0b01, 0b10))]
    for draw in (random_gs_profile, random_xos_profile) * 15:
        bids = draw(rng)
        owners = [rng.randrange(bids.n) for _ in range(bids.m)]
        cases.append((bids, tuple(sum(1 << j for j, o in enumerate(owners) if o == i)
                                  for i in range(bids.n))))
    for bids, bundles in cases:
        part = Allocation(bids.m, bundles)
        rep = marginal_sum_bound(bids, part)
        total = sum((brute_blocking(bids, i, x) for i, x in enumerate(part.bundles)), F(0))
        full = brute_welfare(bids.bids, (1,) * bids.m)
        assert (rep.total, rep.single_bound, rep.double_bound) == (total, full, 2 * full)
        assert (rep.factor1_ok, rep.factor2_ok) == (total <= full, total <= 2 * full)
        assert all(type(x) is F for x in (rep.total, rep.single_bound, rep.double_bound))
    assert not marginal_sum_bound(complements, Allocation(2, cases[0][1])).factor1_ok


def test_marginal_sum_bound_unknown_class():
    # Complements: neither gross substitutes nor XOS.
    bids = BidProfile(2, (Tabular((F(0), F(1), F(1), F(3))), Additive((F(1), F(1)))))
    rep = marginal_sum_bound(bids, Allocation(2, (0b11, 0)))
    assert rep.classification == "unknown"
    assert (rep.total, rep.single_bound) == (2, 3)


def test_marginal_sum_bound_rejects_mismatched_partition():
    bids = BidProfile(2, (Additive((F(1), F(2))), Additive((F(3), F(1)))))
    with pytest.raises(ValueError):
        marginal_sum_bound(bids, Allocation(3, (0b111, 0, 0)))


def _never_called(*args):
    raise AssertionError("called above the class-checker limit")


def test_checker_limit_is_one_constant_and_checked_first(monkeypatch):
    m = CHECKER_MAX_ITEMS + 1
    bids = BidProfile(m, (Additive((F(1),) * m), Additive((F(2),) * m)))
    monkeypatch.setattr(analysis, "is_gross_substitutes", _never_called)
    monkeypatch.setattr(valuations, "_exchange_holds", _never_called)
    rep = marginal_sum_bound(bids, Allocation(m, ((1 << m) - 1, 0)))
    assert rep.classification == "xos"
    # The refusal comes before any table is built.
    monkeypatch.setattr(valuations.Valuation, "table", _never_called)
    limit = f"m <= CHECKER_MAX_ITEMS = {CHECKER_MAX_ITEMS}, got m = {m}"
    with pytest.raises(ValueError, match=limit):
        construct_efficient_profile(Instance(m, bids))


def test_gross_substitutes_verdict_is_computed_once_per_valuation(monkeypatch):
    runs = collections.Counter()
    loop = valuations._exchange_holds

    def counted(v):
        runs[id(v)] += 1
        return loop(v)

    monkeypatch.setattr(valuations, "_exchange_holds", counted)
    bids = BidProfile(3, (Additive((F(1), F(2, 3), F(0))),
                          UnitDemand((F(3, 5), F(1), F(2))),
                          Oxs(((F(1), F(0)), (F(1, 7), F(2)), (F(1), F(1))))))
    rng = random.Random(11)
    for _ in range(10):
        owners = [rng.randrange(3) for _ in range(3)]
        part = Allocation(3, tuple(sum(1 << j for j in range(3) if owners[j] == i)
                                   for i in range(3)))
        rep = marginal_sum_bound(bids, part)
        assert rep.classification == "gross_substitutes"
    assert all(is_gross_substitutes(b) for b in bids.bids)  # the kept verdicts
    assert runs == {id(b): 1 for b in bids.bids}
    # A table that fails the precondition is checked, and raises, every time.
    bad = Tabular((F(1), F(2), F(2), F(3)))
    for _ in range(2):
        with pytest.raises(ValueError):
            is_gross_substitutes(bad)
    assert runs[id(bad)] == 2


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


def test_poa_search_budget_guard(monkeypatch):
    def no_scaling(*args, **kwargs):
        raise AssertionError("the grid was scaled before the budget check")

    monkeypatch.setattr(analysis._Scaled, "of", no_scaling)
    grid = BidGrid.additive(2, 2, F(1, 8), F(4))
    with pytest.raises(EnumerationBudgetExceeded,
                       match="1185921 grid profiles exceed the budget of 200000$"):
        poa_search(EX2, PaymentRule.VCG, grid, 0)


def test_additive_grid_refuses_before_building_a_bid(monkeypatch):
    def no_bids(*args, **kwargs):
        raise AssertionError("a bid was built")

    with monkeypatch.context() as patch:
        patch.setattr(Additive, "_trusted", no_bids)
        with pytest.raises(EnumerationBudgetExceeded,
                           match=r"delta 0.001, cap 1 and m=2 give 1002001 bids"):
            BidGrid.additive(2, 2, "1/1000", "1")
        with pytest.raises(EnumerationBudgetExceeded, match="m=6 give 531441 bids"):
            BidGrid.additive(6, 1, F(1, 4), F(2))
    # Within the budget the grid is built (447^2 = 199,809 bids per agent).
    grid = BidGrid.additive(2, 1, F(1, 446), F(1))
    assert grid.sizes() == (447 ** 2,)
    assert grid.per_agent[0][-1] == Additive((F(1), F(1)))


@st.composite
def level_grids(draw):
    """(instance, additive grid, eps) over m = 1..4 items: a step over
    1..4ths, a cap that may be below it (one level, all bids zero) and at
    most 400 bids per agent."""
    m = draw(st.integers(1, 4))
    delta = F(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    cap = F(draw(st.integers(0, 6)), draw(st.integers(1, 4)))
    assume((cap // delta + 1) ** m <= 400)
    n = draw(st.integers(1, 2))
    types = BidProfile(m, tuple(draw(any_valuation(m)) for _ in range(n)))
    eps = F(draw(st.integers(0, 3)), draw(st.sampled_from((1, 3, 8))))
    return Instance(m, types), BidGrid.additive(m, n, delta, cap), eps


@settings(max_examples=40)
@example((Instance(1, BidProfile(1, (Additive((F(2, 3),)),))),
          BidGrid.additive(1, 1, F(1, 2), F(1, 3)), F(1, 8)))
@given(level_grids())
def test_level_tables_equal_tabulated_tables_on_the_calls_denominator(case):
    """An additive grid's tables, sums of its level indices, are those
    ``_tabulate`` gives the same bids in a hand-built grid, on the call's D:
    so D, ``top`` and every pair are the same, and D_g is the lcm of the
    bids' own denominators (1 when the cap is below the step)."""
    instance, grid, eps = case
    by_hand = BidGrid(grid.per_agent)
    assert by_hand == grid and by_hand._levels is None and grid._levels
    for rule in PaymentRule:
        level = analysis._Scaled.of(instance, rule, grid, eps_dev=eps)
        assert level == analysis._Scaled.of(instance, rule, by_hand, eps_dev=eps)
        assert [type(t) for _, t in level.grid[0]] == [
            type(t) for _, t in analysis._Scaled.of(instance, rule, by_hand).grid[0]]
    ((bids, d_g, tables),) = grid._groups
    assert d_g == math.lcm(*(valuations._tabulate(b)[0] for b in bids))
    assert [[F(x, d_g) for x in t] for t in tables] == [list(b.table()) for b in bids]


@settings(max_examples=25)
@given(level_grids(), st.randoms(use_true_random=False))
def test_a_seeded_profile_runs_like_a_checked_profile(case, rng):
    """``_Scaled.seeded`` runs no check, and gives the outcome under every
    rule, payments on D included, of a checked profile of the same bids
    seeded with the same tables, and the Fractions of one that is not."""
    instance, grid, _ = case
    scaled = analysis._Scaled.of(instance, PaymentRule.VCG, grid)
    pairs = tuple(rng.choice(g + (t, h)) for g, t, h in zip(
        scaled.grid, scaled.truthful, scaled.half))
    seeded = scaled.seeded(pairs)
    bids, tables = zip(*pairs)
    checked, plain = BidProfile(instance.m, bids), BidProfile(instance.m, bids)
    checked._cache["scaled"] = (scaled.denom, tables)
    assert seeded == checked and seeded._cache.keys() == {"scaled"}
    for rule in PaymentRule:
        out = run_mechanism(rule, seeded)
        assert out == run_mechanism(rule, plain)
        assert out._scaled_payments == run_mechanism(rule, checked)._scaled_payments


def test_every_grid_refusal_fires_with_its_message():
    """The checks an additive grid runs once for the whole grid refuse what
    the per-bid checks refused, with the same messages."""
    cases = [
        (lambda: BidGrid.additive(2, 0, 1, 1), ValueError,
         "^a bid grid needs at least one agent$"),
        (lambda: BidGrid.additive(0, 2, 1, 1), ValueError,
         "^item count must be in 1..16, got 0$"),
        (lambda: BidGrid.additive(17, 2, 1, 1), ValueError,
         "^item count must be in 1..16, got 17$"),
        (lambda: BidGrid.additive(17, 2, 1, 0), ValueError,
         "^item count must be in 1..16, got 17$"),
        (lambda: BidGrid.additive(17, 2, 1, 2), EnumerationBudgetExceeded,
         "m=17 give 129140163 bids per agent, over 200000$"),
        (lambda: BidGrid.additive(2, 2, 0, 1), ValueError, "^grid delta must be positive$"),
        (lambda: BidGrid.additive(2, 2, "-1/2", 1), ValueError,
         "^grid delta must be positive$"),
        (lambda: BidGrid.additive(2, 2, 1, -1), ValueError,
         "^grid cap must be non-negative, got -1$"),
        (lambda: BidGrid.additive(2, 2, "1/1000", 1), EnumerationBudgetExceeded,
         "give 1002001 bids per agent"),
        (lambda: poa_search(EX2, PaymentRule.VCG, BidGrid.additive(3, 2, 1, 1), 0),
         ValueError, "^grid bid 0 of agent 0 is over 3 items, the instance has 2$"),
        (lambda: verify_nash(EX2, PaymentRule.VCG, MISCOORDINATION,
                             BidGrid.additive(1, 2, 1, 1)),
         ValueError, "^grid bid 0 of agent 0 is over 1 items, the instance has 2$"),
        (lambda: poa_search(EX2, PaymentRule.VCG, BidGrid.additive(2, 3, 1, 1), 0),
         ValueError, "^the grid has 3 agents, the instance 2$"),
        (lambda: BidGrid(((Additive((F(1), F(0))),), (Tabular((F(1, 2), F(1), F(1), F(1))),))),
         ValueError, r"^grid bid 0 of agent 1, \{'type': 'tabular', 'values': "
         r"\['0.5', '1', '1', '1'\]\}, is worth 0.5 at the empty bundle, not 0$"),
    ]
    for build, error, message in cases:
        with pytest.raises(error, match=message):
            build()


def test_poa_search_rejects_jobs_below_one():
    grid = BidGrid.additive(2, 2, F(1, 2), F(1))
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            poa_search(EX2, PaymentRule.VCG, grid, 0, jobs=jobs)


def test_poa_search_parallel_matches_serial():
    grid = BidGrid.additive(2, 2, F(1), F(2))
    serial = poa_search(EX2, PaymentRule.ENGLISH, grid, 0)
    parallel = poa_search(EX2, PaymentRule.ENGLISH, grid, 0, jobs=2)
    assert serial == parallel


def _assert_brute_force(report, inst, rule, grid, gamma, eps):
    """``report`` is ``oracles.brute_poa``'s: the equilibrium count, the worst
    ratio and its witness, from one mechanism run per grid profile and per
    deviation, every truthful and half-truthful deviation run."""
    witness = report.witness.bids if report.witness else None
    assert (report.equilibrium_count, report.worst_ratio, witness) == brute_poa(
        inst.true_valuations.bids, rule, grid.per_agent, gamma, eps)


def test_poa_search_matches_brute_force_on_odd_denominators():
    # Types over sevenths and thirds, a grid over halves and a tolerance over
    # ninths: the common denominator is none of theirs alone.  The tolerance
    # matters here: at eps_dev = 0 the vcg count is 14, not 18.
    inst = Instance(2, BidProfile(2, (UnitDemand((F(1, 3), F(5, 7))),
                                      UnitDemand((F(5, 7), F(8, 7))))))
    grid = BidGrid.additive(2, 2, "1/2", "1")
    eps = F(1, 9)
    gamma = F(1)
    for rule in PaymentRule:
        report = poa_search(inst, rule, grid, gamma, eps_dev=eps)
        _assert_brute_force(report, inst, rule, grid, gamma, eps)
        assert report == poa_search(inst, rule, grid, gamma, eps_dev=eps, jobs=2)
    vcg = poa_search(inst, PaymentRule.VCG, grid, gamma, eps_dev=eps)
    assert (vcg.equilibrium_count, vcg.worst_ratio) == (18, F(31, 24))


@st.composite
def poa_games(draw):
    """Types of any kind at m <= 2 and n <= 3; one to three drawn grid bids
    per agent, and now and then its type or twice it; a gamma of 0, 1/2 or
    1; and a tolerance of 0 or 1/9."""
    types = draw(any_profile(st.integers(1, 2), st.integers(1, 3)))
    grid = BidGrid(tuple(tuple(draw(st.lists(any_valuation(types.m), min_size=1, max_size=3)))
                         + draw(st.sampled_from(((), (v,), (v.scale(2),))))
                         for v in types.bids))
    return (Instance(types.m, types), grid, draw(st.sampled_from((F(0), F(1, 2), F(1)))),
            draw(st.sampled_from((F(0), F(1, 9)))))


@settings(max_examples=40)
@given(poa_games(), st.sampled_from(PaymentRule))
def test_poa_search_matches_brute_force_on_drawn_games(game, rule):
    instance, grid, gamma, eps = game
    report = poa_search(instance, rule, grid, gamma, eps_dev=eps)
    _assert_brute_force(report, instance, rule, grid, gamma, eps)


def test_a_type_negative_on_a_bundle_bounds_the_bids_from_below():
    """Agent 0's type is worth -1 on item 0 alone, where a bid b is within
    gamma when b >= (1 + gamma) * -1, so a zero bid passes there.  The
    counts are brute force's, over verify_nash and the Fraction bound."""
    instance = Instance(2, BidProfile(2, (Tabular((F(0), F(-1), F(1), F(1))),
                                          Additive((F(1), F(1))))))
    grid = BidGrid.additive(2, 2, "1/2", "1")
    counts = []
    for rule in PaymentRule:
        for gamma in (0, 1):
            report = poa_search(instance, rule, grid, gamma)
            _assert_brute_force(report, instance, rule, grid, gamma, 0)
            counts.append(report.equilibrium_count)
    assert counts == [16, 30, 16, 30, 7, 12, 7, 12]


def test_best_response_dynamics_examples():
    grid = with_extra(BidGrid.additive(2, 2, F(1, 8), F(2)),
                      EX1.true_valuations.bids)
    trace = best_response_dynamics(EX1, PaymentRule.ENGLISH, grid,
                                   EX1.true_valuations, max_iter=25)
    assert trace.status == "converged"
    out = run_mechanism(PaymentRule.ENGLISH, trace.profile)
    welfare = sum(v.value(x) for v, x in
                  zip(EX1.true_valuations.bids, out.allocation.bundles))
    assert welfare == 3 + EPS

    efficient = construct_efficient_profile(EX1)
    fixed = with_extra(BidGrid.default_for(EX1), efficient.bids)
    trace = best_response_dynamics(EX1, PaymentRule.ENGLISH, fixed,
                                   efficient, max_iter=5)
    assert trace.status == "converged" and not trace.steps

    solo = Instance(2, BidProfile(2, (Additive((F(2), F(3))),)))
    grid1 = BidGrid.additive(2, 1, F(1), F(3))
    start = BidProfile(2, (Additive((F(3), F(3))),))
    trace = best_response_dynamics(solo, PaymentRule.PAY_YOUR_BID, grid1, start)
    assert trace.status == "converged"
    assert trace.profile.bids[0] == Additive((F(0), F(0)))


def test_best_response_dynamics_reports_a_cycle():
    types = BidProfile(2, (UnitDemand((F(4), F(3))), Additive((F(3), F(1))),
                           Additive((F(0), F(3)))))
    start = BidProfile(2, (Additive((F(2), F(2))), Additive((F(1), F(0))),
                           Additive((F(0), F(0)))))
    trace = best_response_dynamics(Instance(2, types), PaymentRule.PAY_YOUR_BID,
                                   BidGrid.additive(2, 3, 1, 2), start)
    assert trace.status == "cycle"
    assert trace.rounds == 4


def test_best_response_requires_start_on_grid():
    grid = BidGrid.additive(2, 2, F(1), F(2))
    with pytest.raises(ValueError):
        best_response_dynamics(EX1, PaymentRule.ENGLISH, grid,
                               EX1.true_valuations)


@st.composite
def deviation_cases(draw):
    """Types of any kind at m, n <= 3, an additive grid over halves, a
    current profile with some bids off the grid, and a grid start profile
    for best response."""
    types = draw(any_profile(st.integers(1, 3), st.integers(1, 3)))
    m, n = types.m, types.n
    grid = BidGrid.additive(m, n, "1/2", "1" if m < 3 else "1/2")
    start = tuple(draw(st.integers(0, len(g) - 1)) for g in grid.per_agent)
    current = tuple(draw(st.sampled_from(grid.per_agent[i] + (draw(any_valuation(m)),)))
                    for i in range(n))
    return Instance(m, types), grid, BidProfile(m, current), BidProfile(
        m, tuple(g[k] for g, k in zip(grid.per_agent, start)))


@settings(max_examples=60)
@given(deviation_cases())
def test_deviation_reports_match_the_fraction_loops(case):
    """verify_nash, both certificates and best response give the same
    reports as the Fraction loops they replaced, under every rule."""
    instance, grid, current, start = case
    eps = F(1, 9)
    for rule in PaymentRule:
        assert verify_nash(instance, rule, current, grid, eps) == (
            fraction_verify_nash(instance, rule, current, grid, eps))
        assert smoothness_certificate(instance, current, rule) == (
            fraction_smoothness_certificate(instance, current, rule))
        assert best_response_dynamics(instance, rule, grid, start, 3) == (
            fraction_best_response_dynamics(instance, rule, grid, start, 3))
    assert smoothness_certificates(instance, current) == tuple(
        fraction_smoothness_certificate(instance, current, rule) for rule in PaymentRule)
    assert vcg_deviation_certificate(instance, current) == (
        fraction_vcg_deviation_certificate(instance, current))


def test_smoothness_folds_each_seeded_profile_once(monkeypatch):
    """Certifying all four rules of a draw folds the ones-shape suffix levels
    of its n + 1 profiles (the bids and each agent's deviation) once each:
    as many folds as certifying any one rule."""
    from walras import welfare

    folds, inside = collections.Counter(), []
    real_levels, real_step = welfare._suffix_levels, welfare._or_step

    def suffix_levels(profile, supply, stop=1, reverse=False):
        inside.append("prefix" if reverse else "suffix")
        try:
            return real_levels(profile, supply, stop, reverse)
        finally:
            inside.pop()

    def or_step(*args):
        folds[inside[-1] if inside else "other"] += 1
        return real_step(*args)

    monkeypatch.setattr(welfare, "_suffix_levels", suffix_levels)
    monkeypatch.setattr(welfare, "_or_step", or_step)
    rng = random.Random(5)
    for _ in range(10):
        types = random_gs_profile(rng)
        bids = random_gs_profile(rng, m_range=(types.m,) * 2,
                                 n_range=(types.n,) * 2, classes=("additive", "oxs"))
        instance = Instance(types.m, types)
        instance.optimal()  # the types' own folds, before counting

        def suffix_folds(rules):
            folds.clear()
            smoothness_certificates(instance, bids, rules)
            return folds["suffix"]

        expected = (types.n + 1) * (types.n - 1)  # levels 1..n-1 of each profile
        assert suffix_folds(tuple(PaymentRule)) == expected
        assert [suffix_folds((rule,)) for rule in PaymentRule] == [expected] * 4


def test_no_deviation_is_rescaled(monkeypatch):
    """A call scales its tables once: the welfare layer's own scaling (the
    join of the bids' integer tables in ``scaled_tables``) runs as often on
    a 9-bid grid as on a 25-bid one, and at n = 2 as at n = 3."""
    from walras import welfare

    calls = []
    real = welfare.on_one_denominator
    monkeypatch.setattr(welfare, "on_one_denominator",
                        lambda scaled: calls.append(1) or real(scaled))

    def fresh(inst):  # profiles with cold caches
        return Instance(inst.m, BidProfile(inst.m, inst.true_valuations.bids))

    def count(call):
        before = len(calls)
        call()
        return len(calls) - before

    def grid_calls(delta):
        grid = BidGrid.additive(2, 2, delta, "1")
        start = BidProfile(2, (grid.per_agent[0][0], grid.per_agent[1][-1]))
        return [count(lambda: verify_nash(fresh(EX2), rule, start, grid)) +
                count(lambda: best_response_dynamics(fresh(EX2), rule, grid, start))
                + count(lambda: poa_search(fresh(EX2), rule, grid, 0))
                for rule in PaymentRule]

    assert len(BidGrid.additive(2, 2, "1/2", "1").per_agent[0]) == 9
    assert grid_calls("1/2") == grid_calls("1/4")

    def certificate_calls(n):
        types = BidProfile(2, (EX1.true_valuations.bids * 2)[:n])
        bids = BidProfile(2, (MISCOORDINATION.bids * 2)[:n])
        return [count(lambda: smoothness_certificate(fresh(Instance(2, types)),
                                                     bids, rule))
                for rule in PaymentRule] + [
            count(lambda: vcg_deviation_certificate(fresh(Instance(2, types)), bids))]

    assert certificate_calls(2) == certificate_calls(3)


def _kernel_rows(scaled, contexts):
    """The kernel's columns over ``contexts`` rebuilt as per-profile rows:
    one row per context, indexed by agent 0's grid index, of D times
    (welfare, utilities).  Checks the format on the way: a welfare list and
    one utility list per agent, each of ints, one entry per profile, context
    by context with agent 0's grid index fastest."""
    welfare, utils = analysis._grid_outcomes(scaled, contexts)
    count = len(scaled.grid[0])
    assert len(utils) == len(scaled.grid)
    for column in (welfare, *utils):
        assert type(column) is list and len(column) == count * len(contexts)
        assert all(type(x) is int for x in column)
    profiles = list(zip(welfare, zip(*utils)))
    return [profiles[c:c + count] for c in range(0, len(profiles), count)]


@st.composite
def grid_cases(draw):
    """n, m <= 3; types and one to three grid bids per agent, of any kind; a
    nonzero tolerance over elevenths; and a point to split the opponent
    contexts at."""
    types = draw(any_profile(st.integers(1, 3), st.integers(1, 3)))
    grid = BidGrid(tuple(tuple(draw(st.lists(any_valuation(types.m), min_size=1, max_size=3)))
                         for _ in range(types.n)))
    return Instance(types.m, types), grid, F(draw(st.integers(1, 10)), 11), draw(
        st.integers(0, math.prod(grid.sizes()[1:])))


def _assert_kernel_matches_runs(instance, grid, eps=ZERO, split=1):
    """Under every rule, the kernel gives each grid profile D times the
    welfare and utilities of a full mechanism run on it, and two calls on a
    split of the opponent contexts give the rows of one.  Returns each
    rule's ``_Scaled``."""
    sizes = grid.sizes()
    contexts = list(itertools.product(*map(range, sizes[1:])))
    calls = []
    for rule in PaymentRule:
        scaled = analysis._Scaled.of(instance, rule, grid, eps_dev=eps)
        rows = _kernel_rows(scaled, contexts)
        assert [row[a] for a in range(sizes[0]) for row in rows] == scaled_profile_outcomes(
            instance.true_valuations.bids, rule, grid.per_agent, scaled.denom)
        assert rows == (_kernel_rows(scaled, contexts[:split])
                        + _kernel_rows(scaled, contexts[split:]))
        calls.append(scaled)
    return calls


# Past the draws' three items: two agents, and three whose middle agent bids
# a table that is not monotone, which the kernel folds over every 1 + 1_j.
NON_MONOTONE_4 = Tabular((F(0),) + tuple(F(k * 4 % 7, 3) for k in range(1, 16)))
KERNEL_M4_N2 = (
    Instance(4, BidProfile(4, (Additive((F(1), F(2, 3), F(1, 5), F(4, 7))),
                               UnitDemand((F(2), F(1, 3), F(4, 9), F(1)))))),
    BidGrid(((Additive((F(1, 3), F(1), F(0), F(2, 5))),
              UnitDemand((F(5, 7), F(1, 9), F(2), F(1, 3)))),
             (Oxs(((F(1), F(1, 3)), (F(2, 5), F(0)), (F(1, 7), F(1)),
                   (F(4, 9), F(2, 3)))),
              Additive((F(2, 9), F(1, 5), F(3, 7), F(1)))))),
    F(1, 11), 1)
KERNEL_M4_N3 = (
    Instance(4, BidProfile(4, (UnitDemand((F(1), F(5, 3), F(2, 7), F(1, 3))),
                               NON_MONOTONE_4,
                               Additive((F(1, 5), F(1), F(2, 3), F(4, 9)))))),
    BidGrid(((Additive((F(2, 3), F(1, 3), F(1), F(0))),
              UnitDemand((F(1), F(4, 5), F(1, 7), F(5, 9)))),
             (NON_MONOTONE_4, Additive((F(1, 9), F(2, 3), F(1), F(1, 5)))),
             (Oxs(((F(1, 3),), (F(1),), (F(2, 7),), (F(4, 5),))),))),
    F(3, 11), 1)
# No grid bid values item 2, which agent 0's type values most: the kernel
# must hand it to agent 0 as the per-profile runs do.
KERNEL_WORTHLESS_ITEM = (
    Instance(3, BidProfile(3, (Additive((F(1), F(1), F(2))),
                               UnitDemand((F(3), F(1), F(1))),
                               Additive((F(1), F(2), F(1)))))),
    BidGrid(((Additive((F(0), F(1), F(0))), UnitDemand((F(1), F(1), F(0)))),
             (Additive((F(3), F(0), F(0))), Additive((F(1), F(1), F(0)))),
             (UnitDemand((F(1), F(2), F(0))),))),
    F(1, 11), 1)

# Agent 0's best bundle leaves items to no one, which fall to it: pay-your-bid
# charges its non-monotone bid on the full-partition bundle ({0, 1} and
# {0, 2}: 1/3), not on the best one ({0}: 2).  Alone (n = 1) it keeps every item.
LEFTOVER_BID = Tabular((F(0), F(2), F(0), F(1, 3), F(0), F(1, 3), F(0), F(1, 3)))
KERNEL_LONE_AGENT = (
    Instance(3, BidProfile(3, (Additive((F(1), F(2), F(1, 2))),))),
    BidGrid(((LEFTOVER_BID, Additive((F(1, 3), F(0), F(1)))),)), F(1, 11), 1)
KERNEL_LEFTOVER = (
    Instance(3, BidProfile(3, (Additive((F(1), F(2), F(1, 2))),
                               UnitDemand((F(1), F(1), F(1)))))),
    BidGrid(((LEFTOVER_BID,), (UnitDemand((F(0), F(1), F(0))),
                               Additive((F(0), F(0), F(1, 5)))))), F(1, 11), 1)


@settings(max_examples=60)
@example(KERNEL_LONE_AGENT)
@example(KERNEL_LEFTOVER)
@example(KERNEL_M4_N2)
@example(KERNEL_M4_N3)
@example(KERNEL_WORTHLESS_ITEM)
@given(grid_cases())
def test_grid_kernel_matches_the_per_profile_runs(case):
    """Under every rule, poa_search's kernel gives each grid profile the
    welfare and utilities of a full mechanism run on that profile, and two
    runs on a split of the opponent contexts give the rows of one."""
    _assert_kernel_matches_runs(*case)


# Five items, where an additive bid, a one-slot OXS bid and a two-clause XOS
# bid carry fold rows and a four-clause XOS bid does not; the last opponent
# also bids a table that is not monotone.
NON_MONOTONE_5 = Tabular((F(0),) + tuple(F(k * 4 % 7, 3) for k in range(1, 32)))
KERNEL_M5_ROWED = (
    Instance(5, BidProfile(5, (Additive((F(1), F(2, 3), F(1, 5), F(4, 7), F(1, 2))),
                               Oxs(((F(2),), (F(1, 3),), (F(4, 9),), (F(1),), (F(2, 5),))),
                               UnitDemand((F(1, 2), F(1), F(1, 3), F(2, 7), F(1)))))),
    BidGrid(((Additive((F(1, 3), F(1), F(0), F(2, 5), F(1, 2))),
              Xos(((F(1),) * 5, (F(0), F(2), F(1, 3), F(0), F(1))))),
             (Oxs(((F(5, 7),), (F(1, 9),), (F(2),), (F(1, 3),), (F(1),))),
              Xos(tuple((F(k, 4),) * 5 for k in range(1, 5)))),
             (Additive((F(2, 9), F(1, 5), F(3, 7), F(1), F(0))), NON_MONOTONE_5))),
    F(1, 11), 1)


def test_grid_kernel_item_folds_rowed_opponents_at_five_items(monkeypatch):
    """The kernel builds its grid tables as the DP does, so at five items
    the opponents' rowed bids fold item by item, and each grid profile still
    gets the welfare and utilities of a full mechanism run, under every
    rule, and two runs on a split of the opponent contexts the rows of one."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fold_rows(*args)

    monkeypatch.setattr(welfare_module, "fold_rows", counted)
    contexts = list(itertools.product(range(2), range(2)))
    for scaled in _assert_kernel_matches_runs(*KERNEL_M5_ROWED):
        rowed = [[getattr(t, "rows", None) is not None for _, t in bids] for bids in scaled.grid]
        assert rowed == [[True, True], [True, False], [True, False]]
        calls.clear()
        _kernel_rows(scaled, contexts)
        assert calls  # the kernel's own folds


def test_calls_and_profiles_build_one_table_type():
    """``_Scaled.of`` and ``scaled_tables`` build a bid's table by one
    function: for the same bids, the same type, entries, slots and rows,
    each on its own D.  A pickle round trip, as the ``--jobs`` pool makes,
    keeps the entries, rows and slots."""
    bids = (*KERNEL_M5_ROWED[1].per_agent[1], *KERNEL_M5_ROWED[0].true_valuations.bids,
            NON_MONOTONE_5)
    profile = BidProfile(5, bids)
    scaled = analysis._Scaled.of(Instance(5, profile), PaymentRule.VCG, current=profile)
    denom, tables = welfare_module.scaled_tables(profile)

    def view(tab, d):
        rows = getattr(tab, "rows", None)
        return (type(tab), [F(x, d) for x in tab], getattr(tab, "slots", None),
                rows and [[F(x, d) for x in row] for row in rows])

    assert [view(t, scaled.denom) for _, t in scaled.current] == [
        view(t, denom) for t in tables]
    assert [type(t) for t in tables] == [welfare_module._FoldRows] * 5 + [tuple]
    assert [t.rows is not None for t in tables[:5]] == [True, False, True, True, True]
    loaded = pickle.loads(pickle.dumps(scaled))
    assert [view(t, denom) for _, t in loaded.current] == [
        view(t, denom) for _, t in scaled.current]


# The lane width is read from the largest sum a call can take.  Agent i bids
# a/p on item i alone and, second, a/p there and about a/2p on the next item
# as a unit-demand bid; the types are the first bids.  In the profile of
# first bids each agent wins its item, so W's merge packs D * W = 2na (the
# half-truthful tables put D at 2p) above the m bits of the state left to
# the others, full - 1: the largest packed sum.  A large prime p makes D
# large while the weights stay small.
LANE_PRIMES = {7: 251, 15: 65_521, 31: 2_147_483_647, 63: 2_305_843_009_213_693_951}


def _lane_edge_case(n: int, numerator: int, prime: int):
    weight, nearby = F(numerator, prime), F(numerator // 2, prime)
    grid = BidGrid(tuple(
        (Additive(tuple(weight if j == i else F(0) for j in range(n))),
         UnitDemand(tuple(weight if j == i else nearby if j == (i + 1) % n else F(0)
                          for j in range(n))))
        for i in range(n)))
    return Instance(n, BidProfile(n, tuple(g[0] for g in grid.per_agent))), grid


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("edge", sorted(LANE_PRIMES))
def test_grid_kernel_is_exact_on_both_sides_of_every_lane_edge(edge, n):
    """At n = m = 2 and 3, with the largest packed sum just below 2^edge
    and at or just above it, the kernel gives every profile the welfare and
    utilities of a full mechanism run, under every rule, and two runs on a
    split of the opponent contexts give the rows of one."""
    m, full, prime = n, (1 << n) - 1, LANE_PRIMES[edge]
    below = (2 ** edge - full) // (n << m + 1)
    for numerator, above in ((below, False), (below + 1, True)):
        largest = (2 * n * numerator << m) + full - 1
        assert (largest >= 2 ** edge) == above
        for scaled in _assert_kernel_matches_runs(*_lane_edge_case(n, numerator, prime)):
            assert scaled.denom == 2 * prime


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("low", [F(-63, 4), F(-1000)])
def test_grid_kernel_is_exact_with_negative_entries(low, n):
    """A tabular bid or type may be negative on any bundle but the empty
    one.  With the types, the others' grid bids and, or not, agent 0's
    reaching ``low``, far below the largest positive entry, the kernel gives
    every profile the welfare and utilities of a full mechanism run under
    every rule, and two runs on a split of the opponent contexts give the
    rows of one."""
    types = (Tabular((F(0), low, F(1), F(2))), Additive((F(1), F(1, 2))),
             Tabular((F(0), F(2), low, F(1))))
    others = (Additive((F(1, 2), F(1))), Tabular((F(0), low, F(2), F(-4))),
              UnitDemand((F(2), F(1))))
    instance = Instance(2, BidProfile(2, types[:n]))
    for own in ((Tabular((F(0), F(-1, 2), F(3, 4), F(1))), Tabular((F(0), low, F(-2), F(3))),
                 Additive((F(1), F(0)))), (Additive((F(1), F(0))), UnitDemand((F(2), F(3))))):
        _assert_kernel_matches_runs(instance, BidGrid((own,) + (others,) * (n - 1)))


def test_grid_kernel_lane_width_counts_the_lift():
    """Agent 0 bids -10 and 10, so its entries are lifted by 10 (20 at
    D = 2) and its best merge packs 40 above the m bits, over 2^7, while n
    times the largest magnitude packs below it: the lane must be wider."""
    instance = Instance(2, BidProfile(2, (Tabular((F(0), F(1), F(1), F(1))),)))
    grid = BidGrid(((Tabular((F(0), F(-10), F(10), F(10))), Additive((F(1), F(2)))),))
    assert (20 << 2 | 3) < 2 ** 7 <= 40 << 2
    for scaled in _assert_kernel_matches_runs(instance, grid):
        assert (scaled.denom, scaled.top) == (2, 20)


def test_grid_kernel_rows_do_not_depend_on_the_pass():
    """Agent 0 bids so often that a pass holds three opponent contexts, so
    agent 1's eight bids take three passes: under every rule the rows equal
    those of one call per context, and under english and pay-your-bid (a
    price path and a bid path) poa_search reports equal at jobs 1, 2 and 3."""
    count = analysis._PASS // 3 + 1
    assert -(-analysis._PASS // count) == 3
    levels = [F(k, 8) for k in range(60)]
    grid = BidGrid((
        tuple(Additive(w) for w in itertools.islice(itertools.product(levels, repeat=2),
                                                     count)),
        tuple(Additive((F(k, 3), F(7 - k, 4))) for k in range(8))))
    instance = Instance(2, BidProfile(2, (UnitDemand((F(5), F(4))),
                                          Additive((F(3, 2), F(2))))))
    contexts = [(k,) for k in range(8)]
    for rule in PaymentRule:
        scaled = analysis._Scaled.of(instance, rule, grid)
        assert _kernel_rows(scaled, contexts) == [
            _kernel_rows(scaled, [context])[0] for context in contexts]
    for rule in (PaymentRule.ENGLISH, PaymentRule.PAY_YOUR_BID):
        serial = poa_search(instance, rule, grid, 1, eps_dev=F(1, 4))
        assert serial.equilibrium_count > 0
        for jobs in (2, 3):
            assert poa_search(instance, rule, grid, 1, eps_dev=F(1, 4), jobs=jobs) == serial


THREE = Instance(2, BidProfile(2, (UnitDemand((F(2), F(1))),
                                   Additive((F(1), F(1, 2))),
                                   UnitDemand((F(1, 3), F(4, 3))))))


def _uneven_grid():
    """Grids of 3, 5 and 5 bids: 25 opponent contexts, which two processes
    split 13/12 and three split 9/9/7."""
    bids = BidGrid.additive(2, 1, "1/2", "1").per_agent[0]
    return BidGrid((bids[:3], bids[2:7], bids[4:]))


def test_poa_search_reports_equal_for_one_two_and_three_jobs():
    grid = _uneven_grid()
    for rule in PaymentRule:
        serial = poa_search(THREE, rule, grid, 1, eps_dev=1)
        assert serial.equilibrium_count > 1
        for jobs in (2, 3):
            assert poa_search(THREE, rule, grid, 1, eps_dev=1, jobs=jobs) == serial


TIES = Instance(2, BidProfile(2, (UnitDemand((F(1), F(2))),
                                  Additive((F(1), F(1))),
                                  Additive((F(0), F(0))))))


def test_poa_search_matches_brute_force_at_three_agents():
    """At n = 3 the least equilibrium welfare ties across opponent contexts
    (``TIES``): the witness is the tie with the smallest flat index (last
    agent fastest), not the first one the kernel's loop meets.  Grids of 3,
    5 and 5 bids, and of 5, 5 and 3 bids in falling order (the low bids that
    tend to be best responses last), give the agents their own strides and
    grid sizes, so a stride or a size read for the wrong agent shows."""
    uneven = _uneven_grid()
    falling = BidGrid(tuple(g[::-1] for g in uneven.per_agent[::-1]))
    for instance, grid, eps in ((TIES, BidGrid.additive(2, 3, 1, 1), F(1, 2)),
                                (THREE, uneven, F(1)),
                                (THREE, uneven, F(0)),
                                (THREE, falling, F(0))):
        for rule in PaymentRule:
            report = poa_search(instance, rule, grid, 1, eps_dev=eps)
            _assert_brute_force(report, instance, rule, grid, 1, eps)


# At gamma 0 and at 1/2 every agent keeps some but not all of its
# _uneven_grid bids (2, 3 and 2 of 3, 5 and 5 bids at 0; 2, 3 and 4 at 1/2).
PARTIAL = Instance(2, BidProfile(2, (UnitDemand((F(2), F(1, 2))),
                                     Additive((F(1), F(1, 2))),
                                     UnitDemand((F(1), F(1))))))


def _passing(instance, grid, gamma):
    """Each agent's grid indices whose bids are within ``gamma``."""
    return [[k for k, b in enumerate(bids) if exposure_factor_bound(v, b) <= gamma]
            for v, bids in zip(instance.true_valuations.bids, grid.per_agent)]


def test_poa_search_matches_brute_force_where_exposure_drops_bids():
    """At gamma = 0 a bid passes only if it is at most the type on every
    bundle.  ``mixed`` loses part of each agent's grid, and ``THREE`` every
    grid bid of agent 2, which leaves no equilibrium, no witness and the
    ratio 1.  ``PARTIAL`` loses part of each of its three agents' grids at
    gamma 0 and 1/2, so opponent contexts with none, one and two failing
    opponents all occur.  Each report is the same at one, two and three
    jobs."""
    mixed = Instance(2, BidProfile(2, (Additive((F(1), F(1, 2))),
                                       UnitDemand((F(1), F(1))))))
    for instance, grid, gamma, eps in ((mixed, BidGrid.additive(2, 2, "1/2", "1"), 0, 0),
                                       (THREE, _uneven_grid(), 0, 0),
                                       (PARTIAL, _uneven_grid(), 0, F(1, 2)),
                                       (PARTIAL, _uneven_grid(), F(1, 2), F(1, 2))):
        passing = _passing(instance, grid, gamma)
        if instance is THREE:
            assert len(passing[2]) == 0 < len(passing[1]) < grid.sizes()[1]
        else:  # contexts with every count of failing opponents, 0 to n - 1
            assert all(0 < len(p) < s for p, s in zip(passing, grid.sizes()))
            assert {sum(k not in p for k, p in zip(ctx, passing[1:])) for ctx in
                    itertools.product(*map(range, grid.sizes()[1:]))} == set(range(instance.n))
        for rule in PaymentRule:
            report = poa_search(instance, rule, grid, gamma, eps_dev=eps)
            _assert_brute_force(report, instance, rule, grid, gamma, eps)
            for jobs in (2, 3):
                assert poa_search(instance, rule, grid, gamma, eps_dev=eps,
                                  jobs=jobs) == report
            if instance is THREE:
                assert (report.equilibrium_count, report.witness,
                        report.worst_ratio) == (0, None, 1)
            else:
                assert report.equilibrium_count > 0


def test_a_deviation_over_gamma_still_counts():
    """At gamma 0 the appendix's overbidding deviation (3 on the third item,
    where the XOS type has 2) fails the exposure filter, yet under english
    it is the one profitable deviation from the truthful profile.  Wherever
    the overbidder sits, as agent 0 (whose best is read within a context) or
    as agent 1 or 2 (read across contexts), its best grid utility counts
    that bid, so poa_search finds no equilibrium, as brute force does."""
    types = (Xos(((F(4), F(2), F(0)), (F(4), F(0), F(2)))),
             UnitDemand((F(2), F(2), F(0))), Additive((F(0), F(0), F(1))))
    over = Xos(((F(4), F(2), F(0)), (F(4), F(0), F(3))))
    assert exposure_factor_bound(types[0], over) > 0
    grids = ((types[0], over), types[1:2], types[2:])
    for order in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
        instance = Instance(3, BidProfile(3, tuple(types[k] for k in order)))
        grid = BidGrid(tuple(grids[k] for k in order))
        for rule in PaymentRule:
            report = poa_search(instance, rule, grid, 0)
            _assert_brute_force(report, instance, rule, grid, 0, 0)
            if rule is PaymentRule.ENGLISH:
                assert report.equilibrium_count == 0


def test_poa_search_prices_only_the_profiles_its_pass_can_read(monkeypatch):
    """The kernel prices exactly the profiles with at most one agent off its
    passing bids, under every rule; with an agent that has no passing bid
    (THREE at gamma 0) it is not called and no mechanism runs."""
    priced, runs = [], []
    real_kernel, real_run = analysis._grid_outcomes, analysis.run_mechanism
    monkeypatch.setattr(analysis, "_grid_outcomes", lambda scaled, contexts: priced.append(
        len(scaled.grid[0]) * len(contexts)) or real_kernel(scaled, contexts))
    monkeypatch.setattr(analysis, "run_mechanism",
                        lambda rule, bids: runs.append(bids) or real_run(rule, bids))
    ex2_grid = BidGrid.additive(2, 2, "1/4", "2")
    for instance, grid, gamma in ((EX2, ex2_grid, F(0)), (EX2, ex2_grid, F(1)),
                                  (PARTIAL, _uneven_grid(), F(0)),
                                  (PARTIAL, _uneven_grid(), F(1, 2))):
        sizes = grid.sizes()
        passing = [set(p) for p in _passing(instance, grid, gamma)]
        readable = sum(sum(k not in p for k, p in zip(idxs, passing)) <= 1
                       for idxs in itertools.product(*map(range, sizes)))
        assert readable < math.prod(sizes)
        for rule in PaymentRule:
            priced.clear()
            report = poa_search(instance, rule, grid, gamma)
            assert (sum(priced), report.profiles_checked) == (readable, math.prod(sizes))
    priced.clear()
    runs.clear()
    for rule in PaymentRule:
        report = poa_search(THREE, rule, _uneven_grid(), 0)
        assert (report.equilibrium_count, report.witness, report.worst_ratio,
                report.profiles_checked) == (0, None, 1, 75)
    assert priced == runs == []


def test_the_kernel_merges_agent_0_by_gathers_not_per_profile_folds(monkeypatch):
    """Agent 0's merges are gathers over its table: the kernel calls no
    ``_fold_at`` itself, and backtracks the others' share at most once per
    context and bundle of agent 0, however many bids agent 0 has."""
    calls = collections.Counter()
    real_backtrack = analysis._backtrack

    def fold_at(*args):
        calls["fold_at"] += 1
        return welfare_module._fold_at(*args)

    def backtrack(*args):
        calls["backtrack"] += 1
        return real_backtrack(*args)

    monkeypatch.setattr(analysis, "_fold_at", fold_at, raising=False)
    monkeypatch.setattr(analysis, "_backtrack", backtrack)
    many = BidGrid.additive(2, 1, "1/4", "2").per_agent[0]  # 81 bids
    for instance, grid in ((EX2, BidGrid((many, many[:3]))),
                           (THREE, BidGrid((many, many[:2], many[3:5])))):
        contexts = list(itertools.product(*map(range, grid.sizes()[1:])))
        for rule in PaymentRule:
            calls.clear()
            scaled = analysis._Scaled.of(instance, rule, grid)
            rows = _kernel_rows(scaled, contexts)
            assert [len(row) for row in rows] == [len(many)] * len(contexts)
            assert calls["fold_at"] == 0
            assert 0 < calls["backtrack"] <= len(contexts) * (1 << instance.m)


def _grid_checks(instance, rule, grid, gamma, eps):
    """Whether a profile of grid indices has every bid within ``gamma`` and
    no agent gaining over ``eps`` by another bid of its grid, the injected
    deviations left out; read from the kernel over every profile."""
    scaled = analysis._Scaled.of(instance, rule, grid, eps_dev=F(eps))
    sizes = grid.sizes()
    rows = _kernel_rows(scaled, list(itertools.product(*map(range, sizes[1:]))))
    outcomes = [row[a] for a in range(sizes[0]) for row in rows]  # last agent fastest
    flat = {idxs: f for f, idxs in enumerate(itertools.product(*map(range, sizes)))}
    within = [[exposure_factor_bound(v, b) <= gamma for b in bids]
              for v, bids in zip(instance.true_valuations.bids, grid.per_agent)]

    def passes(idxs):
        utils = outcomes[flat[tuple(idxs)]][1]
        return all(map(getitem, within, idxs)) and all(
            outcomes[flat[(*idxs[:i], k, *idxs[i + 1:])]][1][i] - utils[i] <= scaled.eps
            for i in range(len(sizes)) for k in range(sizes[i]))
    return passes


def _deviators(runs, grid):
    """(agent, bid) of each run's deviating agent: the one agent whose bid
    is none of its grid's bid objects."""
    deviators = []
    for bids in runs:
        (dev,) = [(i, b) for i, (b, g) in enumerate(zip(bids.bids, grid.per_agent))
                  if not any(b is x for x in g)]
        deviators.append(dev)
    return deviators


def test_poa_search_runs_the_mechanism_only_for_injected_deviations(monkeypatch):
    """The kernel makes no mechanism run and no Fraction; poa_search runs
    the mechanism only for the truthful and half-truthful deviations, at
    most two per agent and opponent context of that agent, none whose table
    is one of that agent's grid tables, and only from a base profile that
    passes every agent's exposure filter and grid check."""
    runs = []
    real_run = analysis.run_mechanism
    monkeypatch.setattr(analysis, "run_mechanism",
                        lambda rule, bids: runs.append(bids) or real_run(rule, bids))
    fractions = []
    real_new = F.__new__

    def counted_new(cls, *args, **kwargs):
        fractions.append(args)
        return real_new(cls, *args, **kwargs)

    # EX1's agent 1 bids (2, 2) and (1, 1) on its grid, so only agent 0 deviates.
    for instance, grid in ((THREE, _uneven_grid()),
                           (EX2, BidGrid.additive(2, 2, "1/2", "1")),
                           (EX1, BidGrid.additive(2, 2, 1, 2))):
        sizes = grid.sizes()
        total = math.prod(sizes)
        contexts = list(itertools.product(*map(range, sizes[1:])))
        for rule in PaymentRule:
            scaled = analysis._Scaled.of(instance, rule, grid)
            runs.clear()
            monkeypatch.setattr(F, "__new__", counted_new)
            rows = _kernel_rows(scaled, contexts)
            monkeypatch.setattr(F, "__new__", real_new)
            assert runs == [] and fractions == []
            assert all(type(x) is int for row in rows for w, u in row
                       for x in (w, *u))

            deviations = {(i, b) for i in range(instance.n)
                          for b in (instance.true_valuations.bids[i],
                                    instance.true_valuations.bids[i].scale(F(1, 2)))}
            grid_tables = [{b.table() for b in g} for g in grid.per_agent]
            for eps in (1, 0):
                runs.clear()
                poa_search(instance, rule, grid, 1, eps_dev=eps)
                assert 0 < len(runs) <= sum(2 * total // s for s in sizes)
                for i, b in _deviators(runs, grid):
                    assert (i, b) in deviations and b.table() not in grid_tables[i]
                passes = _grid_checks(instance, rule, grid, 1, eps)
                for bids in runs:
                    # Some profile of the run's context passes every grid check.
                    on_grid = [g.index(b) if b in g else None
                               for b, g in zip(bids.bids, grid.per_agent)]
                    bases = [(*on_grid[:i], k, *on_grid[i + 1:])
                             for i, b in enumerate(bids.bids) if (i, b) in deviations
                             and None not in on_grid[:i] + on_grid[i + 1:]
                             for k in range(sizes[i])]
                    assert any(map(passes, bases))


def test_poa_search_runs_no_deviation_that_is_on_the_grid(monkeypatch):
    """Agent 0's type and its half are additive bids of its grid, agent 1's
    type is a ``Tabular`` with the table of one of its grid bids (its half
    too), and agent 2's type is on its grid while its half is not: only
    agent 2's half-truthful deviation runs, and the reports are brute
    force's."""
    bids = BidGrid.additive(2, 1, "1/2", "1").per_agent[0]
    grid = BidGrid((bids[4::2], (bids[2], bids[3], bids[6]), (bids[2], bids[4], *bids[7:])))
    types = (Additive((F(1), F(1))), Tabular((F(0), F(1), F(0), F(1))),
             Additive((F(1), F(1, 2))))
    instance = Instance(2, BidProfile(2, types))
    half = types[2].scale(F(1, 2)).table()
    runs = []
    real_run = analysis.run_mechanism
    monkeypatch.setattr(analysis, "run_mechanism",
                        lambda rule, bids: runs.append(bids) or real_run(rule, bids))
    equilibria = []
    for rule, gamma, eps in itertools.product(PaymentRule, (0, 1), (0, 1)):
        runs.clear()
        report = poa_search(instance, rule, grid, gamma, eps_dev=eps)
        deviators = _deviators(runs, grid)
        assert all(i == 2 and b.table() == half for i, b in deviators)
        assert len(deviators) <= len(grid.per_agent[0]) * len(grid.per_agent[1])
        _assert_brute_force(report, instance, rule, grid, gamma, eps)
        equilibria.append((report.equilibrium_count, len(deviators)))
    assert any(count and ran for count, ran in equilibria)


def test_a_grid_that_does_not_fit_the_instance_is_refused():
    narrow = BidGrid.additive(2, 2, 1, 1)
    wide = BidGrid.additive(3, 2, 1, 1)
    start = BidProfile(2, (narrow.per_agent[0][0],) * 2)
    calls = (lambda g: poa_search(EX2, "vcg", g, 0),
             lambda g: verify_nash(EX2, "vcg", EX2.true_valuations, g),
             lambda g: best_response_dynamics(EX2, "vcg", g, start))
    off = Additive((F(1),) * 3)
    cases = (
        (wide, "grid bid 0 of agent 0 is over 3 items, the instance has 2"),
        (with_extra(narrow, (narrow.per_agent[0][0], off)),
         "grid bid 4 of agent 1 is over 3 items"),
        (BidGrid.additive(2, 3, 1, 1), "the grid has 3 agents, the instance 2"),
    )
    for grid, message in cases:
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(grid)
    with pytest.raises(ValueError, match="the profile has 1 agents, the instance 2"):
        verify_nash(EX2, "vcg", BidProfile(2, start.bids[:1]), narrow)


def test_deviations_are_read_from_the_kernel_not_run(monkeypatch):
    """verify_nash, best response and the vcg certificate read every
    deviation and the current profile from the grid kernel: with
    run_mechanism refused they give the Fraction loops' reports, under every
    rule, at n = 1, 2 and 3, with every current bid off the grid."""
    from walras import mechanisms

    types = (UnitDemand((F(3, 2), F(1, 3))), Additive((F(2, 3), F(5, 7))),
             Oxs(((F(1), F(0)), (F(1, 2), F(4, 5)))))
    off = (Additive((F(1, 3), F(2, 3))), UnitDemand((F(3, 4), F(1, 5))),
           Xos(((F(1, 7), F(1)), (F(2, 3), F(0)))))
    halves = BidGrid.additive(2, 1, "1/2", "1").per_agent[0]
    cases = []
    for n in (1, 2, 3):
        instance = Instance(2, BidProfile(2, types[:n]))
        grid = BidGrid((halves,) * n)
        current = BidProfile(2, off[:n])
        assert not any(b in halves for b in current.bids)
        start = BidProfile(2, tuple(halves[k] for k in (4, 1, 7)[:n]))
        for rule in PaymentRule:
            cases.append((instance, rule, grid, current, start, (
                fraction_verify_nash(instance, rule, current, grid, F(1, 9)),
                fraction_best_response_dynamics(instance, rule, grid, start, 3))))
        cases.append((instance, None, grid, current, start,
                       fraction_vcg_deviation_certificate(instance, current)))

    def refuse(*args):
        raise AssertionError("a deviation ran the mechanism")

    monkeypatch.setattr(analysis, "run_mechanism", refuse)
    monkeypatch.setattr(mechanisms, "run_mechanism", refuse)
    for instance, rule, grid, current, start, expected in cases:
        if rule is None:
            assert vcg_deviation_certificate(instance, current) == expected
        else:
            assert (verify_nash(instance, rule, current, grid, F(1, 9)),
                    best_response_dynamics(instance, rule, grid, start, 3)) == expected


def test_the_exposure_filter_at_its_edges():
    """poa_search keeps a bid of exactly (1 + gamma) v, drops one a unit of D
    above it on one bundle, and drops a positive bid on a worthless bundle
    at any gamma.  One agent under vcg wins everything and pays nothing
    whatever it bids, so its equilibria are exactly the kept bids."""
    v = Additive((F(0), F(1)))  # item 0 is worthless
    bids = (Tabular((F(0),) * 4),
            Tabular((F(0), F(0), F(3, 2), F(3, 2))),  # (1 + 1/2) v
            Tabular((F(0), F(0), F(7, 4), F(3, 2))),  # 1/4 above it on item 1
            Tabular((F(0), F(1, 4), F(0), F(0))))  # 1/4 on item 0 alone
    instance = Instance(2, BidProfile(2, (v,)))
    grid = BidGrid((bids,))
    assert analysis._Scaled.of(instance, PaymentRule.VCG, grid).denom == 4
    assert exposure_factor_bound(v, bids[3]) is INFINITY
    for gamma, kept in ((F(0), 1), (F(1, 2), 2), (F(3, 4), 3), (F(10 ** 6), 3)):
        assert sum(exposure_factor_bound(v, b) <= gamma for b in bids) == kept
        report = poa_search(instance, PaymentRule.VCG, grid, gamma)
        assert (report.equilibrium_count, report.profiles_checked) == (kept, 4)


def test_the_pool_gets_no_more_workers_than_chunks_or_cpus(monkeypatch):
    """``jobs`` splits the priced opponent contexts into chunks, so the
    reports stay equal, but one poa_search call starts at most one pool,
    with at most one worker per chunk, per job and per CPU (a fork-started
    pool starts all of them at once), and one worker runs inline with no
    pool.  A recording executor that maps inline stands in for the process
    pool."""
    import concurrent.futures
    import os

    workers = []

    class Inline:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
    grid = BidGrid.additive(2, 2, "1/4", "2")
    serial = poa_search(EX2, PaymentRule.ENGLISH, grid, 1)
    assert workers == []
    # At gamma = 1 agent 1 keeps 80 of its 81 bids, so the kernel prices
    # agent 0's whole grid in 80 contexts and its passing bids in one.
    passing = [sum(exposure_factor_bound(v, b) <= 1 for b in bids)
               for v, bids in zip(EX2.true_valuations.bids, grid.per_agent)]
    assert passing == [80, 80]
    # 64 jobs: chunks of two contexts, 40 full ones and one of agent 0's
    # passing bids; 3 jobs: chunks of 27, three full and one; 2 jobs:
    # chunks of 41, two full and one.
    for cpus, jobs, expected in ((2, 64, [2]), (64, 64, [41]), (None, 64, []),
                                 (1, 3, []), (8, 3, [3]), (8, 2, [2])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert poa_search(EX2, PaymentRule.ENGLISH, grid, 1, jobs=jobs) == serial
        assert workers == expected and len(workers) <= 1
        workers.clear()


def test_jobs_and_max_iter_must_be_ints_of_at_least_one():
    grid = BidGrid.additive(2, 2, F(1), F(2))
    start = BidProfile(2, (grid.per_agent[0][0],) * 2)
    for bad in (0, -1, 2.0, "2", True, None):
        got = re.escape(f"at least 1, got {bad!r}")
        with pytest.raises(ValueError, match=f"^jobs must be an int of {got}$"):
            poa_search(EX2, PaymentRule.VCG, grid, 0, jobs=bad)
        with pytest.raises(ValueError, match=f"^max_iter must be an int of {got}$"):
            best_response_dynamics(EX2, PaymentRule.VCG, grid, start, max_iter=bad)
    trace = best_response_dynamics(EX2, PaymentRule.VCG, grid, start, max_iter=1)
    assert trace.rounds == 1
