import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (brute_max_prices, brute_min_prices, fraction_walrasian_certificate,
                     reference_tatonnement)
from strategies import STRUCTURED, any_profile, weights
from walras import walrasian, welfare
from walras.bundles import ms_ones
from walras.mechanisms import PaymentRule, allocate_declared, run_mechanism
from walras.valuations import (Additive, Tabular, UnitDemand, Xos, budget_additive,
                               demand_set, sample_valuation)
from walras.walrasian import (
    ClearingViolation,
    DemandViolation,
    IterationCapExceeded,
    max_walrasian_prices,
    min_walrasian_prices,
    tatonnement,
    verify_walrasian_equilibrium,
)
from walras.welfare import Allocation, BidProfile, scaled_tables, welfare_max

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


def test_min_prices_fold_only_ones_shape_tables(monkeypatch):
    import walras.welfare as welfare

    folds = []
    fold = welfare._or_step

    def counted(*args):
        folds.append(args[2])  # the table size
        return fold(*args)

    monkeypatch.setattr(welfare, "_or_step", counted)
    rng = random.Random(47)
    prof = _gs_profile(rng, m_hi=4)
    while prof.m != 4 or prof.n < 3:
        prof = _gs_profile(rng, m_hi=4)
    pair = BidProfile(prof.m, prof.bids[:2])
    for market in (prof, pair):
        folds.clear()
        min_walrasian_prices(market)
        # The ones-shape suffix levels and prefix tables are the only
        # folds; two agents join agent 0's own table with level 1.
        assert set(folds) == {1 << market.m}
        assert len(folds) <= 2 * (market.n - 1)
        if market.n == 2:
            assert len(folds) == 1
        supplies = {key[1] for key in market._cache if isinstance(key, tuple)}
        assert supplies == {ms_ones(market.m)}  # no doubled supply


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


@st.composite
def verification_inputs(draw):
    """A profile of 1-3 bids of any kind over 1-4 items, any assignment of
    the items to the agents or to nobody, and any non-negative prices."""
    profile = draw(any_profile())
    m, n = profile.m, profile.n
    bundles = [0] * n
    for j in range(m):
        owner = draw(st.integers(0, n))  # n leaves item j unsold
        if owner < n:
            bundles[owner] |= 1 << j
    return profile, tuple(bundles), tuple(draw(weights()) for _ in range(m))


@settings(max_examples=150)
@given(verification_inputs())
@example((OVERBID, (0b001, 0b010, 0b100), (F(1),) * 3))  # an equilibrium
@example((BidProfile(2, (Tabular((F(0), F(0), F(0), F(3))), UnitDemand((F(2), F(2))))),
          (0b01, 0), (F(0), F(1, 3))))  # unsold item and two violations
def test_verification_matches_the_fraction_certificate(case):
    profile, bundles, prices = case
    expected = fraction_walrasian_certificate(profile, bundles, prices)
    assert verify_walrasian_equilibrium(profile, bundles, prices) == expected
    as_text = tuple(str(p) for p in prices)
    if sum(bundles) == (1 << profile.m) - 1:
        bundles = Allocation(profile.m, bundles)
    assert verify_walrasian_equilibrium(profile, bundles, as_text) == expected


@st.composite
def rowed_inputs(draw):
    """A profile of 2-3 structured bids over 5-7 items, each carrying fold
    rows, and per item a choice to keep its lattice price, zero it or raise
    it above every bid's value of all items; item 0 is always raised."""
    profile = draw(any_profile(st.integers(5, 7), st.integers(2, 3), STRUCTURED))
    moves = (2,) + tuple(draw(st.integers(0, 2)) for _ in range(profile.m - 1))
    return profile, moves


@settings(max_examples=30)
@given(rowed_inputs())
def test_rowed_profiles_price_allocate_and_verify_as_tables(case):
    """Agent 0 folds item by item, so W is read from level 0; the same bids
    as ``Tabular`` carry no rows and merge agent 0 at each state.  Both give
    the same lattice endpoints, allocation and payments, and verification
    agrees with the Fraction certificate at both endpoints and at prices that
    make the holder of item 0 drop it."""
    profile, moves = case
    assert scaled_tables(profile)[1][0].rows
    tabular = BidProfile(profile.m, tuple(Tabular(b.table()) for b in profile.bids))
    low, high = min_walrasian_prices(profile), max_walrasian_prices(profile)
    assert (low, high) == (min_walrasian_prices(tabular), max_walrasian_prices(tabular))
    alloc = allocate_declared(profile)
    assert alloc == allocate_declared(tabular)
    for rule in PaymentRule:
        assert run_mechanism(rule, profile) == run_mechanism(rule, tabular)
    top = 1 + max(v.value((1 << profile.m) - 1) for v in profile.bids)
    moved = tuple((p, F(0), p + top)[k] for p, k in zip(high, moves))
    for prices in (low, high, moved):
        expected = fraction_walrasian_certificate(profile, alloc.bundles, prices)
        assert verify_walrasian_equilibrium(profile, alloc, prices) == expected
    assert not expected.is_equilibrium


def test_verification_reads_its_utility_rows_and_scans_no_demand(monkeypatch):
    """Verification compares each agent's utility with its best over one
    shared cost table and reports the lowest best bundle from the agent's
    utility row: it scans demand for no agent, at the lattice endpoints of a
    7-item gross-substitutes market or at prices where one or several agents
    fail, and its failures equal the Fraction certificate's."""
    scans = []
    demanded = walrasian._demanded
    monkeypatch.setattr(walrasian, "_demanded",
                        lambda tab, p: scans.append(1) or demanded(tab, p))
    prof = BidProfile(7, tuple(sample_valuation(kind, 7, 4, seed) for seed, kind in
                               enumerate(("additive", "unit_demand", "oxs", "oxs"), 1)))
    alloc = allocate_declared(prof)
    low, high = min_walrasian_prices(prof), max_walrasian_prices(prof)
    for prices in (low, high):
        assert verify_walrasian_equilibrium(prof, alloc, prices).is_equilibrium
    holder = next(i for i, x in enumerate(alloc.bundles) if x & 1)
    raised = (low[0] + 100,) + low[1:]  # above every bid's value of item 0
    cert = verify_walrasian_equilibrium(prof, alloc, raised)
    assert [f.agent for f in cert.failures] == [holder]
    assert cert == fraction_walrasian_certificate(prof, alloc.bundles, raised)
    cert = verify_walrasian_equilibrium(prof, alloc, (0,) * 7)
    assert len(cert.failures) > 1
    assert cert == fraction_walrasian_certificate(prof, alloc.bundles, (0,) * 7)
    assert scans == []


@pytest.mark.parametrize("bundles,prices,message", [
    ((0b01, 0b11), ("1", "1", "-1"), "bundles overlap on items 0x1"),
    ((0b100, 0b01), ("1",), "bundle 0x4 has bits outside the 2 items"),
    ((0b01,), ("1",), "allocation has 1 bundles for 2 agents"),
    ((0b01, 0b10), ("1", "1", "-1"),
     "price vector length mismatch: 3 prices for m=2 items"),
    ((0b01, 0b10), ("-1/3", "1"), "prices must be non-negative"),
    ((True, 0b10), ("1",), "bundle True is not an int"),
    ((1.0, 0b10), ("1",), "bundle 1.0 is not an int"),
])
def test_verification_errors_in_order(bundles, prices, message):
    prof = BidProfile(2, (Additive((F(1), F(1))), UnitDemand((F(2), F(1)))))
    with pytest.raises(ValueError) as raised:
        verify_walrasian_equilibrium(prof, bundles, prices)
    assert str(raised.value) == message


def test_demand_and_verification_share_one_price_parser():
    prof = BidProfile(2, (Additive((F(1), F(1))), UnitDemand((F(2), F(1)))))
    for prices in (("1", "1", "-1"), ("-1/3", "1")):
        with pytest.raises(ValueError) as demanded:
            demand_set(prof.bids[0], prices)
        with pytest.raises(ValueError) as verified:
            verify_walrasian_equilibrium(prof, (0b01, 0b10), prices)
        assert str(demanded.value) == str(verified.value)


def test_allocation_and_certificate_share_one_disjointness_check():
    prof = BidProfile(2, (Additive((F(1), F(1))),) * 2)
    for bundles, message in (((0b01, 0b11), "overlap"), ((0b100, 0b01), "outside")):
        with pytest.raises(ValueError, match=message) as built:
            Allocation(2, bundles)
        with pytest.raises(ValueError, match=message) as checked:
            verify_walrasian_equilibrium(prof, bundles, ("1", "1"))
        assert str(built.value) == str(checked.value)


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
    result = tatonnement(prof, F(1, 64))
    low = min_walrasian_prices(prof)
    assert all(abs(a - b) <= 2 * F(1, 64) for a, b in zip(result.prices, low))
    assert result.allocation.bundles == (0, 0b11)
    assert all(p >= 0 for p in result.prices)


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


def test_tatonnement_releases_items_an_agent_stops_demanding():
    # With a complementary bid in the market, an agent gives up an item it
    # holds: the release step of the ascent.
    prof = BidProfile(2, (Tabular((F(0), F(3), F(3), F(8))),
                          Additive((F(1), F(2))), UnitDemand((F(4), F(5)))))
    result = tatonnement(prof, F(1, 4))
    assert result.prices == (F(7, 2), F(9, 2))
    assert result.steps == 45
    assert result.allocation.bundles == (0b01, 0, 0b10)



def _ascents_agree(prof, eps):
    """Prices, allocation and step count of the ascent equal the Fraction
    loop's, a cap at the count stops neither, and a cap one step short of it
    stops both.  Returns the reference loop's releases."""
    releases = []
    result = tatonnement(prof, eps)
    assert result == reference_tatonnement(prof, eps, releases=releases)
    for ascent in (tatonnement, reference_tatonnement):
        assert ascent(prof, eps, max_steps=result.steps) == result
    for ascent in (tatonnement, reference_tatonnement):
        with pytest.raises(IterationCapExceeded):
            ascent(prof, eps, max_steps=result.steps - 1)
    return releases


def test_tatonnement_matches_the_reference_loop():
    """The ascent agrees with the Fraction loop on GS draws over 1-5 items
    and 1-4 agents."""
    rng = random.Random(2113)
    for _ in range(60):
        m = rng.randint(1, 5)
        prof = BidProfile(m, tuple(
            sample_valuation(rng.choice(("additive", "unit_demand", "oxs")), m, 4,
                             seed=rng.randrange(10**6), denominators=(1, 2, 4))
            for _ in range(rng.randint(1, 4))))
        _ascents_agree(prof, rng.choice((F(1, 4), F(1, 8), F(1, 16))))


def _pair(m, j, k, c):
    """A tabular bid worth c on items j and k together and nothing otherwise."""
    return Tabular(tuple(F(c) if x >> j & 1 and x >> k & 1 else 0 for x in range(1 << m)))


def _pair_bid(rng, m):
    j, k = rng.sample(range(m), 2)
    return _pair(m, j, k, F(rng.randint(1, 8), rng.choice((1, 2))))


def test_tatonnement_matches_the_reference_loop_when_agents_release_items():
    """The ascent agrees with the Fraction loop on draws over 2-4 items that
    mix XOS, budget-additive and tabular pair bids with GS ones, where an
    agent can give up items it held; some draws do."""
    rng = random.Random(1982)
    releasing = 0
    for _ in range(60):
        m = rng.randint(2, 4)
        bids = []
        for _ in range(rng.randint(2, 4)):
            kind = rng.choice(("xos", "budget", "pair", "unit_demand", "additive"))
            if kind == "budget":
                bids.append(budget_additive([F(rng.randint(0, 8), 2) for _ in range(m)],
                                            rng.randint(1, 6)))
            elif kind == "pair":
                bids.append(_pair_bid(rng, m))
            else:
                bids.append(sample_valuation(kind, m, 4, seed=rng.randrange(10**6),
                                             denominators=(1, 2, 4)))
        eps = rng.choice((F(1, 2), F(1, 4), F(1, 8)))
        releasing += bool(_ascents_agree(BidProfile(m, tuple(bids)), eps))
    assert releasing >= 3


def _drawn(kind, m, seed):
    return sample_valuation(kind, m, 4, seed=seed, denominators=(1, 2, 4))


def test_tatonnement_matches_the_reference_loop_on_long_bidding_wars():
    """At epsilon 1/256 bidding wars repeat one to four passes hundreds of
    times, and the ascent skips the repeats; it still agrees with the
    Fraction loop, step for step, on GS markets and on markets with a pair
    bid, where an agent gives up items it held.  (A cycle with no price
    rise cannot occur: at fixed prices every move raises the sum of the
    agents' utilities of their holdings, so holdings never recur.)"""
    eps = F(1, 256)
    gs = [
        # A 1-pass war, then a 2-pass one.
        BidProfile(3, (UnitDemand((F(0), F(2), F(5, 2))), Additive((F(5, 2), F(4), F(13, 4))))),
        BidProfile(2, (_drawn("unit_demand", 2, 773), _drawn("additive", 2, 251))),
        BidProfile(2, (_drawn("oxs", 2, 158), _drawn("oxs", 2, 82))),  # 2-pass
        BidProfile(3, (_drawn("unit_demand", 3, 821), _drawn("oxs", 3, 784))),  # 3-pass
        BidProfile(4, (_drawn("oxs", 4, 51), _drawn("oxs", 4, 381))),  # 4-pass
    ]
    releasing = [
        BidProfile(2, (_drawn("xos", 2, 301), _pair(2, 1, 0, 1))),
        BidProfile(2, (_drawn("unit_demand", 2, 803), _pair(2, 0, 1, 1))),
        BidProfile(3, (_drawn("unit_demand", 3, 428), _drawn("unit_demand", 3, 119),
                       _pair(3, 2, 0, 1))),
    ]
    for prof in gs:
        assert not _ascents_agree(prof, eps)
    for prof in releasing:
        assert _ascents_agree(prof, eps)
    assert all(tatonnement(prof, eps).steps > 60 for prof in gs + releasing)


def test_tatonnement_skips_the_repeats_of_a_one_item_war(monkeypatch):
    """Two bidders raise one item by 1/1024 about two thousand times, and
    the ascent scans demand for only a few of those steps; any cap short of
    the step count still stops it."""
    prof = BidProfile(1, (Additive((F(3),)), Additive((F(2),))))
    eps = F(1, 1024)
    scans = []
    demanded = walrasian._demanded
    monkeypatch.setattr(walrasian, "_demanded",
                        lambda tab, p: scans.append(1) or demanded(tab, p))
    result = tatonnement(prof, eps)
    assert result.prices == (2,) and result.allocation.bundles == (1, 0)
    assert len(scans) < result.steps // 10
    for cap in (0, 1, 5, 100, 1000, result.steps // 2, result.steps - 2):
        with pytest.raises(IterationCapExceeded):
            tatonnement(prof, eps, max_steps=cap)
    _ascents_agree(prof, eps)
