import random
from fractions import Fraction as F

import pytest

from oracles import brute_max_prices, brute_min_prices, brute_welfare
from walras.bundles import iter_bits
from walras.mechanisms import (
    PaymentRule,
    allocate_declared,
    check_payment_ordering,
    payments,
    run_mechanism,
    search_vcg_english_inversion,
    utility,
)
from walras.valuations import Additive, Tabular, UnitDemand, Xos, sample_valuation
from walras.walrasian import max_walrasian_prices, min_walrasian_prices
from walras.welfare import Allocation, BidProfile, scaled_tables

EPS = F(1, 8)

OVERBID = BidProfile(3, (
    Xos(((F(4), F(2), F(0)), (F(4), F(0), F(2)))),
    UnitDemand((F(2), F(2), F(0))),
    Additive((F(0), F(0), F(1))),
))
OVERBID_DEVIATED = OVERBID.replace(
    0, Xos(((F(4), F(2), F(0)), (F(4), F(0), F(3)))))
MISCOORDINATION = BidProfile(2, (Additive((F(0), F(1))),
                                 Additive((F(1), F(0)))))


def _gs_profile(rng):
    m = rng.randint(2, 4)
    n = rng.randint(2, 4)
    kinds = ["additive", "unit_demand", "oxs"]
    return BidProfile(m, tuple(
        sample_valuation(rng.choice(kinds), m, 4, seed=rng.randrange(10**6))
        for _ in range(n)))


def _odd_denominator_profile(rng):
    """Bids with denominators 3, 5, 7 and 9 (XOS too, so not all GS) plus one
    table bid with a 1/11 entry."""
    m = rng.randint(2, 4)
    n = rng.randint(2, 3)
    bids = [sample_valuation(rng.choice(["additive", "unit_demand", "oxs", "xos"]),
                             m, 3, seed=rng.randrange(10**6),
                             denominators=(3, 5, 7, 9))
            for _ in range(n - 1)]
    bids.append(Tabular(tuple(F(x.bit_count(), 11) for x in range(1 << m))))
    rng.shuffle(bids)
    return BidProfile(m, tuple(bids))


def test_run_mechanism_matches_oracles_on_odd_denominators():
    rng = random.Random(59)
    for trial in range(12):
        prof = _odd_denominator_profile(rng)
        bids, m = prof.bids, prof.m
        ones = (1,) * m
        bundles = allocate_declared(prof).bundles
        assert sum(b.value(x) for b, x in zip(bids, bundles)) == brute_welfare(bids, ones)
        vcg = tuple(
            brute_welfare(bids[:i] + bids[i + 1:], ones)
            - brute_welfare(bids[:i] + bids[i + 1:],
                            tuple(1 - (x >> j & 1) for j in range(m)))
            if x else 0
            for i, x in enumerate(bundles))
        low = brute_min_prices(bids, m)
        high = brute_max_prices(bids, m)
        expected = {
            PaymentRule.VCG: (vcg, None),
            PaymentRule.ENGLISH: (tuple(sum(low[j] for j in iter_bits(x))
                                        for x in bundles), low),
            PaymentRule.DUTCH: (tuple(sum(high[j] for j in iter_bits(x))
                                      for x in bundles), high),
            PaymentRule.PAY_YOUR_BID: (tuple(b.value(x)
                                             for b, x in zip(bids, bundles)), None),
        }
        # Seeding the tables over a larger common denominator changes nothing.
        denom, tables = scaled_tables(prof)
        seeded = BidProfile.with_scaled_tables(
            m, bids, 10 * denom, [[10 * x for x in tab] for tab in tables])
        for rule, (pays, prices) in expected.items():
            out = run_mechanism(rule, prof)
            assert out.allocation.bundles == bundles
            assert (out.payments, out.prices_used) == (pays, prices)
            assert all(type(p) is F for p in out.payments + (out.prices_used or ()))
            assert payments(rule, prof, out.allocation) == pays
            again = run_mechanism(rule, seeded)
            assert again == out
            assert again._scaled_payments == tuple(10 * p for p in out._scaled_payments)


def test_allocate_declared():
    assert allocate_declared(OVERBID_DEVIATED).bundles == (0b101, 0b010, 0)
    solo = BidProfile(2, (Additive((F(1), F(0))),))
    assert allocate_declared(solo).bundles == (0b11,)  # worthless leftover too
    assert allocate_declared(MISCOORDINATION).bundles == (0b10, 0b01)


def test_payments_per_rule_on_the_overbidding_instance():
    alloc = allocate_declared(OVERBID)
    assert payments(PaymentRule.ENGLISH, OVERBID, alloc) == (2, 1, 0)
    assert payments(PaymentRule.PAY_YOUR_BID, OVERBID, alloc) == (6, 2, 0)
    out = run_mechanism(PaymentRule.ENGLISH, OVERBID)
    assert utility(OVERBID.bids[0], out, 0) == 4


def test_payments_allocation_mismatch_rejected():
    with pytest.raises(ValueError):
        payments(PaymentRule.ENGLISH, OVERBID, Allocation(3, (0b111, 0, 0)))


def test_vcg_bullying_winner_pays_nothing():
    bids = BidProfile(1, (Additive((F(0),)), Additive((F(10),))))
    out = run_mechanism(PaymentRule.VCG, bids)
    assert out.allocation.bundles == (0, 1)
    assert out.payments == (0, 0)


def test_english_miscoordination_prices_zero():
    out = run_mechanism(PaymentRule.ENGLISH, MISCOORDINATION)
    assert out.payments == (0, 0)
    assert out.prices_used == (0, 0)


def test_english_payment_after_overbidding_deviation():
    out = run_mechanism(PaymentRule.ENGLISH, OVERBID_DEVIATED)
    assert out.prices_used == (0, 0, 1)
    assert out.payments[0] == 1
    assert utility(OVERBID.bids[0], out, 0) == 5


def test_vcg_on_crossed_unit_demand_truthful():
    prof = BidProfile(2, (UnitDemand((2 - EPS, F(1))),
                          UnitDemand((F(1), 2 - EPS))))
    out = run_mechanism(PaymentRule.VCG, prof)
    assert out.payments == (0, 0)


def test_prices_used_are_the_lattice_endpoints():
    rng = random.Random(3)
    for trial in range(10):
        prof = _gs_profile(rng)
        english = run_mechanism(PaymentRule.ENGLISH, prof)
        dutch = run_mechanism(PaymentRule.DUTCH, prof)
        assert english.prices_used == min_walrasian_prices(prof)
        assert dutch.prices_used == max_walrasian_prices(prof)
        for out, prices in ((english, english.prices_used),
                            (dutch, dutch.prices_used)):
            for x, pay in zip(out.allocation.bundles, out.payments):
                assert pay == sum(prices[j] for j in iter_bits(x))


def test_dwm_payment_bound_and_nonnegativity_on_gs_draws():
    rng = random.Random(5)
    for trial in range(15):
        prof = _gs_profile(rng)
        allocations = set()
        for rule in PaymentRule:
            out = run_mechanism(rule, prof)
            allocations.add(out.allocation.bundles)
            for i, x in enumerate(out.allocation.bundles):
                assert 0 <= out.payments[i] <= prof.bids[i].value(x)
            if rule is PaymentRule.VCG:
                for i in range(prof.n):
                    assert utility(prof.bids[i], out, i) >= 0
        assert len(allocations) == 1  # every rule shares the allocation


def test_ordering_chain_on_gs_draws():
    rng = random.Random(11)
    for trial in range(25):
        prof = _gs_profile(rng)
        report = check_payment_ordering(prof)
        assert report.chain_ok, (prof, report.payments_by_rule)
        assert all(all(row) for row in report.links_per_agent)
        assert len(report.links_per_agent) == prof.n
        assert report.english_prices_walrasian
        assert report.dutch_prices_walrasian


def test_additive_bids_collapse_to_item_auctions():
    # per-item second price for vcg/english, per-item first price for
    # dutch/paybid
    rng = random.Random(13)
    for trial in range(15):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        prof = BidProfile(m, tuple(
            sample_valuation("additive", m, 4, seed=rng.randrange(10**6))
            for _ in range(n)))
        report = check_payment_ordering(prof)
        pays = report.payments_by_rule
        assert pays["vcg"] == pays["english"]
        assert pays["dutch"] == pays["paybid"]
        for i, x in enumerate(report.allocation.bundles):
            top = sum(max(b.weights[j] for b in prof.bids)
                      for j in iter_bits(x))
            second = sum(
                max([b.weights[j] for k, b in enumerate(prof.bids) if k != i]
                    or [F(0)])
                for j in iter_bits(x))
            assert pays["paybid"][i] == prof.bids[i].value(x)
            # winners carry the top weight per item they win
            assert pays["dutch"][i] == top if x else pays["dutch"][i] == 0
            assert pays["english"][i] == second if x else pays["english"][i] == 0


def test_inversion_search_completes_and_reports():
    report = search_vcg_english_inversion()
    assert report.instances_checked == 7 ** 3
    assert isinstance(report.witness_found, bool)
    if report.witness_found:
        assert set(report.witness) >= {"agent", "vcg", "english"}


def test_submodular_ranking_instance_stays_well_defined():
    from walras.instancefile import load_fixture
    inst = load_fixture("payment_ranking.json")
    report = check_payment_ordering(inst.true_valuations)
    assert set(report.payments_by_rule) == {"vcg", "english", "dutch", "paybid"}
