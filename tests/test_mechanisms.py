import dataclasses
import random
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from oracles import (brute_max_prices, brute_min_prices, brute_welfare, matching_welfare,
                     reference_tatonnement)
from strategies import any_profile
from walras.analysis import BidGrid, Instance, poa_search, verify_nash
from walras.bundles import iter_bits, ms_ones
from walras.mechanisms import (
    PaymentRule,
    allocate_declared,
    check_payment_ordering,
    run_mechanism,
    search_vcg_english_inversion,
    utility,
)
from walras.valuations import Additive, Oxs, Tabular, UnitDemand, Xos, sample_valuation
from walras.suites import random_gs_profile
from walras.walrasian import (max_walrasian_prices, min_walrasian_prices, tatonnement,
                              verify_walrasian_equilibrium)
from walras.welfare import BidProfile, scaled_tables, welfare_value

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
        seeded = BidProfile._seeded(
            m, bids, 10 * denom, [[10 * x for x in tab] for tab in tables])
        for rule, (pays, prices) in expected.items():
            out = run_mechanism(rule, prof)
            assert out.allocation.bundles == bundles
            assert (out.payments, out.prices_used) == (pays, prices)
            assert all(type(p) is F for p in out.payments + (out.prices_used or ()))
            again = run_mechanism(rule, seeded)
            assert again == out
            assert again._scaled_payments == tuple(10 * p for p in out._scaled_payments)


def test_allocate_declared():
    assert allocate_declared(OVERBID_DEVIATED).bundles == (0b101, 0b010, 0)
    solo = BidProfile(2, (Additive((F(1), F(0))),))
    assert allocate_declared(solo).bundles == (0b11,)  # worthless leftover too
    assert allocate_declared(MISCOORDINATION).bundles == (0b10, 0b01)


def test_an_item_no_bidder_values_goes_to_agent_0():
    """The declared allocation and the ascent, like the Fraction loop, give
    agent 0 the item nobody bids on, whether or not agent 0 wins anything."""
    for bids, bundles in (
            ((Additive((F(0), F(1), F(0))), Additive((F(3), F(0), F(0))),
              UnitDemand((F(1), F(2), F(0)))), (0b100, 0b001, 0b010)),
            ((UnitDemand((F(2), F(0), F(1))), Additive((F(1), F(0), F(3)))),
             (0b011, 0b100))):
        prof = BidProfile(3, bids)
        assert allocate_declared(prof).bundles == bundles
        result = tatonnement(prof, F(1, 8))
        assert result == reference_tatonnement(prof, F(1, 8))
        assert result.allocation.bundles == bundles


def test_payments_per_rule_on_the_overbidding_instance():
    assert run_mechanism(PaymentRule.PAY_YOUR_BID, OVERBID).payments == (6, 2, 0)
    out = run_mechanism(PaymentRule.ENGLISH, OVERBID)
    assert out.payments == (2, 1, 0)
    assert utility(OVERBID.bids[0], out, 0) == 4


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


def _match_the_assignment_oracle(prof):
    """W(1), W(1 - 1_j), both price endpoints and every rule's payments of
    ``prof`` equal what the Hungarian matching oracle gives; the min prices
    read W(1 + 1_j).  Returns the oracle's W(1 + 1_j) per item."""
    bids, m, ones = prof.bids, prof.m, ms_ones(prof.m)
    top = matching_welfare(bids, ones)
    less = [matching_welfare(bids, ones[:j] + (0,) + ones[j + 1:]) for j in range(m)]
    more = [matching_welfare(bids, ones[:j] + (2,) + ones[j + 1:]) for j in range(m)]
    assert welfare_value(prof, ones) == top
    assert [welfare_value(prof, ones[:j] + (0,) + ones[j + 1:])
            for j in range(m)] == less
    low, high = min_walrasian_prices(prof), max_walrasian_prices(prof)
    assert low == tuple(w - top for w in more)
    assert high == tuple(top - w for w in less)
    bundles = allocate_declared(prof).bundles
    held = [tuple(x >> j & 1 for j in range(m)) for x in bundles]
    expected = {
        PaymentRule.VCG: [matching_welfare(bids, ones, i)
                          - matching_welfare(bids, tuple(1 - c for c in mine), i)
                          for i, mine in enumerate(held)],
        PaymentRule.ENGLISH: [sum(low[j] for j in iter_bits(x)) for x in bundles],
        PaymentRule.DUTCH: [sum(high[j] for j in iter_bits(x)) for x in bundles],
        PaymentRule.PAY_YOUR_BID: [matching_welfare((bid,), mine)
                                   for bid, mine in zip(bids, held)],
    }
    assert sum(expected[PaymentRule.PAY_YOUR_BID]) == top
    for rule, pays in expected.items():
        assert list(run_mechanism(rule, prof).payments) == pays, (rule, prof)
    return more


def test_gs_markets_to_twelve_items_match_the_assignment_oracle():
    """On generated additive, unit-demand and OXS markets over 6-12 items and
    1-4 agents, the DP, prices and payments match the assignment oracle, and
    both endpoints verify as Walrasian prices of the declared allocation."""
    rng = random.Random(1971)
    for m, n in ((6, 4), (7, 3), (8, 1), (9, 4), (10, 3), (11, 2), (12, 4), (12, 1)):
        prof = random_gs_profile(rng, m_range=(m, m), n_range=(n, n))
        _match_the_assignment_oracle(prof)
        bundles = allocate_declared(prof).bundles
        for prices in (min_walrasian_prices(prof), max_walrasian_prices(prof)):
            assert verify_walrasian_equilibrium(prof, bundles, prices).is_equilibrium


def _sampled(rng, kind, m):
    """A bid of ``kind`` over m items; ``xos3`` is an XOS bid of 3 clauses."""
    if kind.startswith("xos"):
        return Xos(tuple(_sampled(rng, "additive", m).weights
                         for _ in range(int(kind[3:]))))
    return sample_valuation(kind, m, 4, seed=rng.randrange(1 << 30),
                            denominators=(1, 2, 4))


def test_xos_markets_to_sixteen_items_match_the_assignment_oracle():
    """Markets that mix XOS bids of 2-3 clauses, where the XOS item fold is
    on (from m = 7 for 2 clauses and m = 8 for 3), with additive, unit-demand
    and OXS bids match the oracle's best matching over one clause per XOS
    bid.  XOS bids need not be GS, so no price vector is verified.  W(1 + 1_j)
    is also read directly up to m = 10; above, its submask fold is slow."""
    rng = random.Random(1971)
    for m, kinds in ((7, ("xos2", "oxs")),
                     (8, ("xos3", "additive", "unit_demand", "xos2")),
                     (9, ("xos3",)),
                     (10, ("oxs", "xos3", "additive")),
                     (11, ("unit_demand", "xos2")),
                     (12, ("xos3", "additive", "oxs", "xos2")),
                     (12, ("xos3",)),
                     (14, ("additive", "xos3")),
                     (16, ("additive", "xos3"))):
        prof = BidProfile(m, tuple(_sampled(rng, kind, m) for kind in kinds))
        more = _match_the_assignment_oracle(prof)
        if m <= 10:
            ones = ms_ones(m)
            assert [welfare_value(prof, ones[:j] + (2,) + ones[j + 1:])
                    for j in range(m)] == more


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
        # both charged price vectors are the lattice endpoints, so Walrasian
        alloc = allocate_declared(prof)
        for rule in (PaymentRule.ENGLISH, PaymentRule.DUTCH):
            prices = run_mechanism(rule, prof).prices_used
            assert verify_walrasian_equilibrium(prof, alloc, prices).is_equilibrium


def test_payment_rules_are_listed_in_chain_order():
    assert tuple(PaymentRule) == (PaymentRule.VCG, PaymentRule.ENGLISH,
                                  PaymentRule.DUTCH, PaymentRule.PAY_YOUR_BID)


def test_ordering_report_runs_each_rule_once_and_verifies_no_prices(monkeypatch):
    from walras import mechanisms

    def refuse(*args):
        raise AssertionError("the ordering report verifies no prices")

    monkeypatch.setattr(mechanisms, "verify_walrasian_equilibrium", refuse,
                        raising=False)
    calls = []

    def counting(rule, bids):
        calls.append(rule)
        return run_mechanism(rule, bids)

    monkeypatch.setattr(mechanisms, "run_mechanism", counting)
    report = check_payment_ordering(OVERBID)
    assert calls == list(PaymentRule)
    assert [f.name for f in dataclasses.fields(report)] == [
        "payments_by_rule", "links_per_agent", "chain_ok"]
    assert list(report.payments_by_rule) == [rule.value for rule in PaymentRule]


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
        pays = check_payment_ordering(prof).payments_by_rule
        assert pays["vcg"] == pays["english"]
        assert pays["dutch"] == pays["paybid"]
        for i, x in enumerate(allocate_declared(prof).bundles):
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


# -- metamorphic relations -----------------------------------------------------
# Exact relations between the outcomes of two related markets, checked at
# sizes beyond the brute-force oracles.  Numbers are over 1, 3, 5, 7, 9 and
# 11, so the two markets' scaled tables rarely share a denominator.

METAMORPHIC = settings(max_examples=100)
# 1-4 bids of any kind over 1-6 items.
MARKETS = any_profile(st.integers(1, 6), st.integers(1, 4))


def _sampled_market(m):
    """One bid of each structured kind over m items."""
    return BidProfile(m, tuple(
        sample_valuation(kind, m, 3, seed=k, denominators=(3, 5, 7, 9))
        for k, kind in enumerate(("xos", "oxs", "unit_demand", "additive"))))


# The largest market drawn, which the draws above rarely reach, and two
# beyond it, where the item-by-item folds run on every structured kind.
SIX_ITEMS, NINE_ITEMS, TEN_ITEMS = map(_sampled_market, (6, 9, 10))


@METAMORPHIC
@example(SIX_ITEMS, F(5, 3))
@example(NINE_ITEMS, F(7, 2))
@example(TEN_ITEMS, F(5, 3))
@given(MARKETS, st.builds(F, st.integers(1, 12), st.sampled_from((1, 2, 3, 5, 7))))
def test_scaling_every_bid_scales_welfare_prices_and_payments(profile, c):
    scaled = BidProfile(profile.m, tuple(b.scale(c) for b in profile.bids))
    ones = ms_ones(profile.m)
    assert welfare_value(scaled, ones) == c * welfare_value(profile, ones)
    for prices in (min_walrasian_prices, max_walrasian_prices):
        assert prices(scaled) == tuple(c * p for p in prices(profile))
    for rule in PaymentRule:
        before, after = run_mechanism(rule, profile), run_mechanism(rule, scaled)
        assert after.allocation == before.allocation
        assert after.payments == tuple(c * p for p in before.payments)


@METAMORPHIC
@example(BidProfile(6, SIX_ITEMS.bids[:3]))
@given(any_profile(st.integers(1, 6), st.integers(1, 3)))
def test_a_zero_bidder_appended_last_changes_nothing(profile):
    joined = BidProfile(profile.m, profile.bids + (Additive((F(0),) * profile.m),))
    for prices in (min_walrasian_prices, max_walrasian_prices):
        assert prices(joined) == prices(profile)
    for rule in PaymentRule:
        before, after = run_mechanism(rule, profile), run_mechanism(rule, joined)
        assert after.allocation.bundles == before.allocation.bundles + (0,)
        assert after.payments == before.payments + (0,)


def _relabel(v, perm):
    """``v`` with its item j renamed ``perm[j]``, of the same kind."""
    def move(row):
        out = [None] * len(row)
        for j, w in enumerate(row):
            out[perm[j]] = w
        return tuple(out)

    if isinstance(v, (Additive, UnitDemand)):
        return type(v)(move(v.weights))
    if isinstance(v, Xos):
        return Xos(tuple(move(c) for c in v.clauses))
    if isinstance(v, Oxs):
        return Oxs(move(v.matrix))
    values = [None] * len(v.values)
    for x, w in enumerate(v.values):
        values[sum(1 << perm[j] for j in iter_bits(x))] = w
    return Tabular(tuple(values))


@st.composite
def relabelled_markets(draw):
    profile = draw(MARKETS)
    return profile, tuple(draw(st.permutations(range(profile.m))))


@METAMORPHIC
@example((SIX_ITEMS, (5, 3, 0, 4, 1, 2)))
@example((NINE_ITEMS, (8, 6, 0, 4, 2, 7, 1, 3, 5)))
@example((TEN_ITEMS, (9, 0, 7, 2, 5, 3, 8, 1, 6, 4)))
@given(relabelled_markets())
def test_relabelling_the_items_permutes_both_price_vectors(case):
    profile, perm = case
    moved = BidProfile(profile.m, tuple(_relabel(b, perm) for b in profile.bids))
    ones = ms_ones(profile.m)
    assert welfare_value(moved, ones) == welfare_value(profile, ones)
    for prices in (min_walrasian_prices, max_walrasian_prices):
        before, after = prices(profile), prices(moved)
        assert tuple(after[perm[j]] for j in range(profile.m)) == before


@settings(max_examples=25)
@example(SIX_ITEMS)
@example(NINE_ITEMS)
@example(TEN_ITEMS)
@given(any_profile(st.integers(6, 8), st.integers(1, 3)))
def test_lattice_endpoints_are_welfare_differences(profile):
    # Read through the general table DP over two copies of item j, not the
    # prefix x suffix join the price routines read.
    m = profile.m
    ones = ms_ones(m)
    full = welfare_value(profile, ones)
    low, high = min_walrasian_prices(profile), max_walrasian_prices(profile)
    for j in range(m):
        two = ones[:j] + (2,) + ones[j + 1:]
        none = ones[:j] + (0,) + ones[j + 1:]
        assert low[j] == welfare_value(profile, two) - full
        assert high[j] == full - welfare_value(profile, none)


# (items, agents, weights per item) of additive grids with at most 81 profiles.
SMALL_GRIDS = ((1, 2, 9), (1, 3, 4), (1, 4, 3), (2, 2, 3), (3, 2, 2))
RATIONALS = st.builds(F, st.integers(1, 12), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def grid_games(draw):
    """Types, a bid profile, grid delta, cap and eps_dev of a small game."""
    m, n, count = draw(st.sampled_from(SMALL_GRIDS))
    types, bids = (draw(any_profile(st.just(m), st.just(n))) for _ in range(2))
    delta = draw(RATIONALS) / 4
    eps_dev = draw(st.sampled_from((F(0), F(1, 4), F(1))))
    return types, bids, delta, (count - 1) * delta, eps_dev


def _scale_profile(profile, c):
    return BidProfile(profile.m, tuple(b.scale(c) for b in profile.bids))


# The miscoordination example: two crossed unit-demand types, and bids that
# each take the other agent's favourite item.
MISCOORDINATION_GAME = (
    BidProfile(2, (UnitDemand((F(15, 8), F(1))), UnitDemand((F(1), F(15, 8))))),
    MISCOORDINATION, F(1, 2), F(1), F(0))


@METAMORPHIC
@example(MISCOORDINATION_GAME, F(5, 3))
@given(grid_games(), RATIONALS)
def test_scaling_types_bids_and_grid_scales_verify_nash(game, c):
    types, bids, delta, cap, eps_dev = game
    m, n = types.m, types.n
    before = verify_nash(Instance(m, types), PaymentRule.ENGLISH, bids,
                         BidGrid.additive(m, n, delta, cap), eps_dev)
    after = verify_nash(Instance(m, _scale_profile(types, c)), PaymentRule.ENGLISH,
                        _scale_profile(bids, c),
                        BidGrid.additive(m, n, c * delta, c * cap), c * eps_dev)
    assert after.is_nash == before.is_nash
    assert after.welfare == c * before.welfare
    assert after.ratio == before.ratio
    assert [d.gain for d in after.deviations] == [c * d.gain
                                                  for d in before.deviations]


@METAMORPHIC
@example(MISCOORDINATION_GAME, F(5, 3), PaymentRule.VCG)
@given(grid_games(), RATIONALS, st.sampled_from(PaymentRule))
def test_scaling_types_and_grid_keeps_the_poa_search(game, c, rule):
    types, _, delta, cap, eps_dev = game
    m, n = types.m, types.n
    before = poa_search(Instance(m, types), rule,
                        BidGrid.additive(m, n, delta, cap), 0, eps_dev=eps_dev)
    after = poa_search(Instance(m, _scale_profile(types, c)), rule,
                       BidGrid.additive(m, n, c * delta, c * cap), 0,
                       eps_dev=c * eps_dev)
    assert after.equilibrium_count == before.equilibrium_count
    assert after.worst_ratio == before.worst_ratio
    if before.witness is None:
        assert after.witness is None
    else:
        assert after.witness == _scale_profile(before.witness, c)
