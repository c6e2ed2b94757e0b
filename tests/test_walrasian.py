import random
from fractions import Fraction as F

import pytest

from oracles import brute_max_prices, brute_min_prices
from walras.bundles import ms_ones
from walras.mechanisms import allocate_declared
from walras.valuations import Additive, Tabular, UnitDemand, Xos, sample_valuation
from walras.walrasian import (
    ClearingViolation,
    DemandViolation,
    IterationCapExceeded,
    max_walrasian_prices,
    min_walrasian_prices,
    tatonnement,
    verify_walrasian_equilibrium,
)
from walras.welfare import BidProfile, welfare_max

EPS = F(1, 8)

OVERBID = BidProfile(3, (
    Xos(((F(4), F(2), F(0)), (F(4), F(0), F(2)))),
    UnitDemand((F(2), F(2), F(0))),
    Additive((F(0), F(0), F(1))),
))


def _gs_profile(rng, m_hi=4, n_hi=4):
    m = rng.randint(2, m_hi)
    n = rng.randint(2, n_hi)
    kinds = ["additive", "unit_demand", "oxs"]
    return BidProfile(m, tuple(
        sample_valuation(rng.choice(kinds), m, 4, seed=rng.randrange(10**6))
        for _ in range(n)))


def test_min_prices_closed_form():
    assert min_walrasian_prices(OVERBID) == (1, 1, 1)
    deviated = OVERBID.replace(0, Xos(((F(4), F(2), F(0)), (F(4), F(0), F(3)))))
    assert min_walrasian_prices(deviated) == (0, 0, 1)
    solo = BidProfile(2, (Additive((F(2), F(5))),))
    assert min_walrasian_prices(solo) == (0, 0)


def test_max_prices_closed_form():
    solo = BidProfile(2, (Additive((F(2), F(5))),))
    assert max_walrasian_prices(solo) == (2, 5)
    two = BidProfile(2, (Additive((F(1), F(4))), Additive((F(3), F(2)))))
    assert max_walrasian_prices(two) == (3, 4)
    ex2 = BidProfile(2, (UnitDemand((2 - EPS, F(1))),
                         UnitDemand((F(1), 2 - EPS))))
    assert max_walrasian_prices(ex2) == (2 - EPS, 2 - EPS)


def test_prices_match_brute_force_marginals():
    rng = random.Random(7)
    for trial in range(15):
        prof = _gs_profile(rng, m_hi=3, n_hi=3)
        assert min_walrasian_prices(prof) == brute_min_prices(prof.bids, prof.m)
        assert max_walrasian_prices(prof) == brute_max_prices(prof.bids, prof.m)


def _odd_denominator_profile(rng, m_hi=4, n_hi=3):
    """Bids with denominators 3, 5, 7 and 9 plus one table bid with a 1/11
    entry, so the integer core scales by a non-power-of-two."""
    m = rng.randint(2, m_hi)
    n = rng.randint(2, n_hi)
    bids = [sample_valuation(rng.choice(["additive", "unit_demand", "oxs"]), m, 3,
                             seed=rng.randrange(10**6), denominators=(3, 5, 7, 9))
            for _ in range(n - 1)]
    bids.append(Tabular(tuple(F(x.bit_count(), 11) for x in range(1 << m))))
    return BidProfile(m, tuple(bids))


def test_lattice_endpoints_match_oracles_on_odd_denominators():
    rng = random.Random(43)
    for trial in range(10):
        prof = _odd_denominator_profile(rng)
        low = min_walrasian_prices(prof)
        high = max_walrasian_prices(prof)
        assert all(type(p) is F for p in low + high)
        assert low == brute_min_prices(prof.bids, prof.m)
        assert high == brute_max_prices(prof.bids, prof.m)
        result = tatonnement(prof, F(1, 6))
        assert all(type(p) is F for p in result.prices)


def test_min_prices_fold_one_doubled_item_at_a_time():
    rng = random.Random(47)
    prof = _gs_profile(rng, m_hi=4)
    while prof.m != 4:
        prof = _gs_profile(rng, m_hi=4)
    min_walrasian_prices(prof)
    # All-agents tables are cached as level 0 of the suffix levels.
    supplies = [key[1] for key in prof._cache
                if isinstance(key, tuple) and key[0] in ("table", "suffix")]
    assert len(supplies) == prof.m + 1  # the all-ones table and one per item
    assert all(supply.count(2) <= 1 for supply in supplies)


def test_verify_unit_prices_on_overbidding_instance():
    _, bundles = welfare_max(OVERBID, ms_ones(3))
    cert = verify_walrasian_equilibrium(OVERBID, bundles, ("1", "1", "1"))
    assert cert.is_equilibrium and not cert.failures


def test_verify_lattice_endpoints_on_random_gs_profiles():
    rng = random.Random(21)
    for trial in range(25):
        prof = _gs_profile(rng)
        alloc = allocate_declared(prof)
        value, _ = welfare_max(prof, ms_ones(prof.m))
        for prices in (min_walrasian_prices(prof), max_walrasian_prices(prof)):
            cert = verify_walrasian_equilibrium(prof, alloc, prices)
            assert cert.is_equilibrium, (prof, prices, cert.failures)
            declared = sum(b.value(x) for b, x in zip(prof.bids, alloc.bundles))
            assert declared == value  # any verified pair carries optimal welfare


def test_verify_failure_modes():
    pair_bidder = Tabular((F(0), F(0), F(0), F(3)))
    ud = UnitDemand((F(2), F(2)))
    prof = BidProfile(2, (pair_bidder, ud))
    _, bundles = welfare_max(prof, ms_ones(2))
    assert bundles == (0b11, 0)
    cert = verify_walrasian_equilibrium(prof, bundles, ("1", "1"))
    assert not cert.is_equilibrium
    assert any(isinstance(f, DemandViolation) for f in cert.failures)

    with pytest.raises(ValueError):
        verify_walrasian_equilibrium(prof, (0b01, 0b01), ("1", "1"))

    cert = verify_walrasian_equilibrium(prof, (0b01, 0b00), ("0", "0"))
    assert any(isinstance(f, ClearingViolation) for f in cert.failures)


def test_no_price_vector_clears_the_pair_bidder_market():
    # exhaustive quarter-step scan; the demand sets are incompatible
    prof = BidProfile(2, (Tabular((F(0), F(0), F(0), F(3))),
                          UnitDemand((F(2), F(2)))))
    _, bundles = welfare_max(prof, ms_ones(2))
    grid = [F(k, 4) for k in range(0, 17)]
    assert all(
        not verify_walrasian_equilibrium(prof, bundles, (pa, pb)).is_equilibrium
        for pa in grid for pb in grid)


def test_tatonnement_single_bidder():
    solo = BidProfile(2, (Additive((F(2), F(5))),))
    result = tatonnement(solo, F(1, 64))
    assert result.prices == (0, 0)
    assert result.allocation.bundles == (0b11,)


def test_tatonnement_demand_reduction_instance():
    prof = BidProfile(2, (UnitDemand((1 + EPS, 1 + EPS)), Additive((F(2), F(2)))))
    result = tatonnement(prof, F(1, 64), record_history=True)
    low = min_walrasian_prices(prof)
    assert all(abs(a - b) <= 2 * F(1, 64) for a, b in zip(result.prices, low))
    assert result.allocation.bundles == (0, 0b11)
    assert all(p >= 0 for p in result.prices)
    for before, after in zip(result.price_history, result.price_history[1:]):
        assert all(x <= y for x, y in zip(before, after))


def test_tatonnement_overbidding_instance():
    result = tatonnement(OVERBID, F(1, 64))
    low = min_walrasian_prices(OVERBID)
    assert all(abs(a - b) <= 3 * F(1, 64) for a, b in zip(result.prices, low))
    welfare = sum(b.value(x) for b, x in
                  zip(OVERBID.bids, result.allocation.bundles))
    assert welfare == 8


def test_tatonnement_near_min_prices_on_random_gs():
    rng = random.Random(33)
    eps = F(1, 64)
    for trial in range(25):
        prof = _gs_profile(rng)
        result = tatonnement(prof, eps)
        low = min_walrasian_prices(prof)
        assert all(abs(a - b) <= prof.m * eps
                   for a, b in zip(result.prices, low)), (prof, result.prices, low)


def test_tatonnement_iteration_cap():
    prof = BidProfile(2, (UnitDemand((1 + EPS, 1 + EPS)), Additive((F(2), F(2)))))
    with pytest.raises(IterationCapExceeded):
        tatonnement(prof, F(1, 64), max_steps=3)
    with pytest.raises(ValueError):
        tatonnement(prof, 0)
