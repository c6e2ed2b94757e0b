import contextlib
import io
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import walras.valuations as valuations
import walras.welfare as welfare
from oracles import (
    brute_fold_rows,
    brute_max_prices,
    brute_min_prices,
    brute_welfare,
    brute_welfare_maps,
    submask_fold,
    table_welfare,
)
from strategies import STRUCTURED, any_profile, any_valuation, weights
from walras.bundles import fold_rows, ms_ones
from walras.cli import main
from walras.instancefile import fixture_path
from walras.money import on_one_denominator, scale_rows
from walras.mechanisms import PaymentRule, _scaled_externality, run_mechanism
from walras.valuations import (
    Additive,
    Oxs,
    Tabular,
    UnitDemand,
    Xos,
    _tabulate,
    is_gross_substitutes,
    is_monotone_normalized,
    is_submodular,
    sample_valuation,
)
from walras.walrasian import max_walrasian_prices, min_walrasian_prices
from walras.welfare import (
    Allocation,
    BidProfile,
    _layout,
    _welfare_argmax,
    scaled_tables,
    welfare_marginal,
    welfare_max,
    welfare_value,
)

EPS = F(1, 8)

OVERBID = BidProfile(3, (
    Xos(((F(4), F(2), F(0)), (F(4), F(0), F(2)))),
    UnitDemand((F(2), F(2), F(0))),
    Additive((F(0), F(0), F(1))),
))

DEMAND_REDUCTION = BidProfile(2, (
    UnitDemand((1 + EPS, 1 + EPS)),
    Additive((F(2), F(2))),
))


def _unit(m, j):
    """The multiset holding one copy of item j."""
    return tuple(int(k == j) for k in range(m))


def _random_profile(rng, m_hi=4, n_hi=4):
    m = rng.randint(2, m_hi)
    n = rng.randint(1, n_hi)
    kinds = ["additive", "unit_demand", "oxs", "xos"]
    bids = tuple(sample_valuation(rng.choice(kinds), m, 4,
                                  seed=rng.randrange(10**6))
                 for _ in range(n))
    return BidProfile(m, bids)


def _odd_denominator_profile(rng, m_hi=4, n_hi=3):
    """Bids with denominators 3, 5, 7 and 9, the first of them replaced by a
    table that carries a 1/11 on the full bundle, so the common denominator
    of the integer core is not a power of two."""
    m = rng.randint(2, m_hi)
    n = rng.randint(1, n_hi)
    kinds = ["additive", "unit_demand", "oxs", "xos"]
    bids = [sample_valuation(rng.choice(kinds), m, 3, seed=rng.randrange(10**6),
                             denominators=(3, 5, 7, 9))
            for _ in range(n)]
    full = (1 << m) - 1
    bids[0] = Tabular(tuple(bids[0].value(x) + (F(1, 11) if x == full else 0)
                            for x in range(1 << m)))
    return BidProfile(m, tuple(bids))


def test_profile_validation():
    with pytest.raises(ValueError):
        BidProfile(2, ())
    with pytest.raises(ValueError):
        BidProfile(3, (Additive((F(1), F(1))),))


def test_a_bid_worth_something_at_the_empty_bundle_is_refused():
    """Every welfare reader takes the empty bundle to be worth 0, so a table
    worth anything there is refused where it enters a profile, with a
    message that names the agent and the bid.  The table itself is kept, so
    the checkers can still classify it."""
    lifted = Tabular((F(1), F(1), F(1), F(2)))
    half = Additive((F(1, 2), F(1, 2)))
    for bids, agent in (((lifted, half), 0), ((half, lifted), 1)):
        with pytest.raises(ValueError, match=rf"the bid of agent {agent}, \{{'type': "
                           r"'tabular', 'values': \['1', '1', '1', '2'\]\}, is worth 1 "
                           "at the empty bundle, not 0"):
            BidProfile(2, bids)
    with pytest.raises(ValueError, match="the bid of agent 1, .* is worth -1/3 at"):
        BidProfile(2, (half, half)).replace(1, Tabular((F(-1, 3), F(0), F(0), F(0))))
    assert not is_monotone_normalized(lifted)


def test_three_bidder_optimum():
    value, bundles = welfare_max(OVERBID, ms_ones(3))
    assert value == 8
    assert bundles == (0b101, 0b010, 0)


def test_single_agent_takes_everything_valuable():
    prof = BidProfile(2, (Additive((F(2), F(3))),))
    value, bundles = welfare_max(prof, ms_ones(2))
    assert value == 5 and bundles == (0b11,)


def test_demand_reduction_instance_optimum():
    value, _ = welfare_max(DEMAND_REDUCTION, ms_ones(2))
    assert value == 4


def test_welfare_matches_assignment_map_oracle():
    rng = random.Random(3)
    for trial in range(40):
        prof = _random_profile(rng)
        value, bundles = welfare_max(prof, ms_ones(prof.m))
        assert value == brute_welfare_maps(prof.bids, prof.m)
        # the returned assignment achieves the returned value exactly
        achieved = sum(bid.value(b) for bid, b in zip(prof.bids, bundles))
        assert achieved == value
        union = 0
        for b in bundles:
            assert union & b == 0
            union |= b


def test_welfare_multiset_supply_matches_copy_oracle():
    rng = random.Random(9)
    for trial in range(15):
        prof = _random_profile(rng, m_hi=3, n_hi=3)
        supply = tuple(rng.randint(0, 2) for _ in range(prof.m))
        assert welfare_value(prof, supply) == brute_welfare(prof.bids, supply)


def test_supply_multiplicity_capped_at_two():
    with pytest.raises(ValueError):
        welfare_value(OVERBID, (3, 0, 0))


@pytest.mark.parametrize("count", [1.5, F(1, 2), "1", True])
def test_supply_multiplicity_must_be_an_int(count):
    with pytest.raises(ValueError, match=r"multiplicity .* at item 1 is not an int"):
        welfare_value(OVERBID, (1, count, 0))
    with pytest.raises(ValueError, match="at item 1 is not an int"):
        welfare_max(OVERBID, (1, count, 0))


def test_welfare_monotone_in_supply():
    rng = random.Random(13)
    for trial in range(20):
        prof = _random_profile(rng, m_hi=3)
        lo = tuple(rng.randint(0, 2) for _ in range(prof.m))
        hi = tuple(min(2, c + rng.randint(0, 1)) for c in lo)
        assert welfare_value(prof, lo) <= welfare_value(prof, hi)


def test_welfare_excluding():
    assert welfare_value(
        BidProfile(2, (Additive((F(1), F(1))),)), ms_ones(2), exclude=0) == 0
    assert welfare_value(OVERBID, ms_ones(3), exclude=0) == 3
    ex2 = BidProfile(2, (UnitDemand((2 - EPS, F(1))),
                         UnitDemand((F(1), 2 - EPS))))
    assert welfare_value(ex2, ms_ones(2), exclude=0) == 2 - EPS
    with pytest.raises(IndexError):
        welfare_value(OVERBID, ms_ones(3), exclude=5)


def test_leave_one_out_rejects_an_agent_outside_the_profile():
    prof = BidProfile(2, (Additive((1, 2)), Additive((3, 1))))
    assert welfare_value(prof, (1, 1)) == 5
    assert welfare_value(prof, (1, 1), exclude=0) == 4
    assert welfare_marginal(prof, (1, 0), (0, 1), exclude=0) == 3
    for bad in (5, -1, 2, True, 1.0):  # True would read agent 1
        with pytest.raises(IndexError, match="out of range"):
            welfare_value(prof, (1, 1), exclude=bad)
        with pytest.raises(IndexError, match="out of range"):
            welfare_marginal(prof, (1, 0), (0, 1), exclude=bad)
        with pytest.raises(IndexError, match="out of range"):
            prof.replace(bad, Additive((0, 0)))
    for bundle in (True, 1.0):  # True would read bundle {0}
        with pytest.raises(ValueError, match=f"bundle {bundle} is not an int"):
            Additive((1, 2)).value(bundle)


def test_excluding_agent_never_helps():
    rng = random.Random(19)
    for trial in range(25):
        prof = _random_profile(rng, m_hi=3)
        full, _ = welfare_max(prof, ms_ones(prof.m))
        for i in range(prof.n):
            assert welfare_value(prof, ms_ones(prof.m), exclude=i) <= full


def test_welfare_marginal():
    assert welfare_marginal(OVERBID, (0, 0, 0), ms_ones(3)) == 0
    for j in range(3):
        assert welfare_marginal(OVERBID, _unit(3, j), ms_ones(3)) == 1
    for j in range(2):
        assert welfare_marginal(DEMAND_REDUCTION, _unit(2, j), ms_ones(2)) == 1 + EPS


def test_generic_marginal_applies_to_the_welfare_function():
    from walras.valuations import marginal_value
    w = lambda ms: welfare_value(OVERBID, ms)
    assert marginal_value(w, _unit(3, 2), ms_ones(3)) == 1
    assert marginal_value(w, (0, 0, 0), (1, 1, 1)) == 0


def test_or_closure_keeps_gross_substitutes():
    rng = random.Random(29)
    for trial in range(15):
        m = rng.randint(2, 3)
        n = rng.randint(2, 3)
        bids = tuple(
            sample_valuation(rng.choice(["additive", "unit_demand", "oxs"]),
                             m, 4, seed=rng.randrange(10**6))
            for _ in range(n))
        prof = BidProfile(m, bids)
        table = tuple(welfare_value(prof, tuple((mask >> j) & 1 for j in range(m)))
                      for mask in range(1 << m))
        combined = Tabular(table)
        assert is_gross_substitutes(combined)
        assert is_submodular(combined)


def test_allocation_validation():
    Allocation(2, (0b01, 0b10))
    with pytest.raises(ValueError):
        Allocation(2, (0b01, 0b01))
    with pytest.raises(ValueError):
        Allocation(2, (0b01, 0b00))


def test_canonical_tie_breaking_prefers_small_bitmask_for_early_agents():
    # both agents value both items identically; agent 0 should keep nothing
    prof = BidProfile(2, (Additive((F(1), F(1))), Additive((F(1), F(1)))))
    value, bundles = welfare_max(prof, ms_ones(2))
    assert value == 2
    assert bundles == (0, 0b11)


def test_integer_core_matches_oracles_on_odd_denominators():
    rng = random.Random(41)
    for trial in range(12):
        prof = _odd_denominator_profile(rng)
        m = prof.m
        value, bundles = welfare_max(prof, ms_ones(m))
        assert type(value) is F
        assert value == brute_welfare(prof.bids, ms_ones(m))
        assert sum(bid.value(b) for bid, b in zip(prof.bids, bundles)) == value
        # a multiset with at most two doubled items keeps the oracle small
        supply = [1] * m
        for j in rng.sample(range(m), rng.randint(0, 2)):
            supply[j] = rng.choice((0, 2))
        supply = tuple(supply)
        w = welfare_value(prof, supply)
        assert type(w) is F
        assert w == brute_welfare(prof.bids, supply)
        for i in range(prof.n):
            rest = prof.bids[:i] + prof.bids[i + 1:]
            w_ex = welfare_value(prof, supply, exclude=i)
            assert type(w_ex) is F
            assert w_ex == brute_welfare(rest, supply)
        j = rng.randrange(m)
        gain = welfare_marginal(prof, _unit(m, j), ms_ones(m))
        assert type(gain) is F
        assert gain == (brute_welfare(prof.bids, ms_ones(m)[:j] + (2,) + ms_ones(m)[j + 1:])
                        - brute_welfare(prof.bids, ms_ones(m)))


def test_layout_is_shared_and_guarded():
    first = _layout((1, 2, 1))
    assert first is _layout((1, 2, 1))
    size, ssum, clamps = first
    assert size == 12 and type(ssum) is tuple and type(clamps) is tuple
    # 3^14 states: refused before any per-state work
    with pytest.raises(ValueError, match="welfare table too large"):
        _layout((2,) * 14)


def test_all_agents_table_is_folded_once(monkeypatch):
    import walras.welfare as welfare
    from walras.mechanisms import PaymentRule, allocate_declared, run_mechanism

    folds = []
    fold = welfare._or_step

    def counted(*args):
        folds.append(args[2])  # the table size
        return fold(*args)

    monkeypatch.setattr(welfare, "_or_step", counted)
    prof = BidProfile(5, tuple(sample_valuation("additive", 5, 3, seed=s)
                               for s in range(4)))
    allocate_declared(prof)
    # Suffix levels n-1..0: agent 0 carries fold rows at m = 5, so it is
    # folded into level 0 once rather than merged at the top state.
    assert folds == [32] * prof.n
    # The highest prices and the dutch and pay-your-bid rules read the same
    # levels; the lowest prices (english) add the n-1 prefix folds, and vcg
    # joins the same prefix tables with no fold of its own.
    max_walrasian_prices(prof)
    for rule in ("dutch", "paybid"):
        run_mechanism(rule, prof)
    assert len(folds) == prof.n
    min_walrasian_prices(prof)
    run_mechanism("english", prof)
    assert len(folds) == prof.n + prof.n - 1
    before = len(folds)
    run_mechanism(PaymentRule.VCG, prof)
    assert len(folds) == before
    assert set(folds) == {32}  # no two-copy table
    assert not any(2 in key[1] for key in prof._cache if isinstance(key, tuple))


MERGE_EXAMPLES = settings(max_examples=100)
# Non-monotone: v({0}) = 2 > v({0, 1}) = 1.
NON_MONOTONE = Tabular((F(0), F(2), F(1, 3), F(1)))
# 1-4 bids of any kind over 1-5 items.
MERGE_PROFILES = any_profile(st.integers(1, 5), st.integers(1, 4))


@MERGE_EXAMPLES
@example(BidProfile(2, (NON_MONOTONE, Additive((F(1, 4), F(1, 3))),
                        UnitDemand((F(1, 5), F(6, 7))))), 0)
@given(MERGE_PROFILES, st.integers(0, 1 << 20))
def test_point_merges_match_the_table_paths(prof, seed):
    """Min and max prices, the vcg externality at any bundle, and W with and
    without one agent at multisets with doubled items all equal the values
    read from full welfare tables."""
    rng = random.Random(seed)
    m, bids = prof.m, prof.bids
    denom, _ = scaled_tables(prof)
    assert min_walrasian_prices(prof) == brute_min_prices(bids, m, table_welfare)
    assert max_walrasian_prices(prof) == brute_max_prices(bids, m, table_welfare)
    # The allocation's argmax merges agent 0 at one state; welfare_max reads
    # a folded level 0.  Same value, same canonical bundles.
    assert _welfare_argmax(prof, ms_ones(m)) == _welfare_argmax(prof, ms_ones(m), 0)
    assert welfare_max(prof, ms_ones(m))[0] == table_welfare(bids, ms_ones(m))
    supply = tuple(rng.choice((0, 1, 2)) for _ in range(m))
    assert welfare_value(prof, supply) == table_welfare(bids, supply)
    for i in range(prof.n):
        assert welfare_value(prof, supply, exclude=i) == table_welfare(
            bids, supply, exclude=i)
        bundle = rng.randrange(1 << m)
        rest = tuple(1 - (bundle >> j & 1) for j in range(m))
        assert F(_scaled_externality(prof, i, bundle), denom) == (
            table_welfare(bids, ms_ones(m), exclude=i)
            - table_welfare(bids, rest, exclude=i))


@MERGE_EXAMPLES
@given(MERGE_PROFILES, st.data())
def test_prefix_tables_match_the_oracle_fold(prof, data):
    """For every k from 0 to n, the prefix table of agents 0..k-1 on the
    one-copy and on a doubled shape is the oracle fold of bids[:k] at every
    state; no agents give all zeros."""
    doubled = data.draw(st.tuples(*[st.sampled_from((1, 2))] * prof.m))
    _, tables = scaled_tables(prof)
    for shape in (ms_ones(prof.m), doubled):
        expected = [0] * _layout(shape)[0]
        assert welfare.or_value_table(prof, shape, 0) == tuple(expected)
        for k in range(1, prof.n + 1):
            expected = submask_fold(tables[k - 1], expected, shape)
            assert list(welfare.or_value_table(prof, shape, k)) == expected
    with pytest.raises(IndexError, match="out of range"):
        welfare.or_value_table(prof, ms_ones(prof.m), prof.n + 1)


def test_table_limit_names_the_states_and_the_limit():
    # 3^14 = 4,782,969 states with every item doubled
    prof = BidProfile(14, (Additive((F(1),) * 14),))
    with pytest.raises(ValueError, match="welfare table too large") as exc:
        welfare_value(prof, (2,) * 14)
    assert "4782969" in str(exc.value) and "2000000" in str(exc.value)


def _rowed_tables(prof):
    """(D, plain tables, tables with every structured bid's fold rows on D,
    whatever m and the row count)."""
    denom, plain = on_one_denominator(_tabulate(b) for b in prof.bids)
    rowed = tuple(t if b._slots is None else welfare._FoldRows(b, t, denom)
                  for b, t in zip(prof.bids, plain))
    return denom, plain, rowed


def _assert_folds_agree(prof, shape):
    """Level by level, ``_or_step`` on the tables with fold rows equals the
    submask fold of the plain tables, and the last level is table_welfare;
    on the ones shape the prefix x suffix join of W(1 + 1_j) is table_welfare
    at every 1 + 1_j."""
    denom, plain, rowed = _rowed_tables(prof)
    size, ssum, clamps = _layout(shape)
    levels = [None] * prof.n + [(0,) * size]
    for k in reversed(range(prof.n)):
        expected = submask_fold(plain[k], levels[k + 1], shape)
        levels[k] = welfare._or_step(rowed[k], levels[k + 1], size, ssum, clamps)
        assert list(levels[k]) == expected
    assert F(levels[0][-1], denom) == table_welfare(prof.bids, shape)
    if 2 not in shape:
        joined = welfare._doubled_welfare(prof, levels[0][-1])
        assert [F(w, denom) for w in joined] == [
            table_welfare(prof.bids, shape[:j] + (2,) + shape[j + 1:])
            for j in range(prof.m)]


@MERGE_EXAMPLES
@given(MERGE_PROFILES, st.data())
def test_item_fold_matches_the_submask_fold(prof, data):
    """Every kind on every supply shape, with fold rows attached at any m:
    the item fold runs on the ones shape, and tables and doubled shapes keep
    the submask fold."""
    shape = data.draw(st.tuples(*[st.sampled_from((1, 2))] * prof.m))
    _assert_folds_agree(prof, shape)
    _assert_folds_agree(prof, ms_ones(prof.m))
    # A structured bid carries rows where ``_item_fold_pays`` says so: over
    # these 1-5 items, only at five items with up to three rows.
    for bid, tab in zip(prof.bids, scaled_tables(prof)[1]):
        pays = bid._slots is not None and prof.m == 5 and len(bid._fold_rows[1]) <= 3
        assert welfare._item_fold_pays(bid) is pays
        assert type(tab) is (welfare._FoldRows if pays else tuple)


@pytest.mark.parametrize("m, k, pays", [(4, 1, False), (5, 1, True), (5, 3, True),
                                        (5, 4, False)])
def test_item_fold_pays_on_either_side_of_its_boundary(m, k, pays):
    """The cells either side of the crossover, for k OXS slots and k XOS
    clauses: no rows below five items, up to three rows at five."""
    for bid in (Oxs(((F(1),) * k,) * m), Xos(((F(1),) * m,) * k)):
        assert welfare._item_fold_pays(bid) is pays
        prof = BidProfile(m, (bid, Additive((F(1, 2),) * m)))
        assert type(scaled_tables(prof)[1][0]) is (welfare._FoldRows if pays else tuple)
        _assert_folds_agree(prof, ms_ones(m))


@st.composite
def fold_rows_inputs(draw, m, slot):
    """A table and rows on one denominator: any valuation's table over m
    items, each entry by its magnitude (``fold_rows`` folds non-negative
    tables only), and 1-3 rows of weights, or up to m + 2 slots at up to 3
    items, more slots than items."""
    k = draw(st.integers(1, m + 2 if slot and m <= 3 else 3))
    base = draw(any_valuation(m))
    _, (table, *rows) = scale_rows([list(map(abs, base.table()))] + [
        [draw(weights()) for _ in range(m)] for _ in range(k)])
    return table, rows


@pytest.mark.parametrize("slot", [True, False])
@pytest.mark.parametrize("m", range(1, 11))
@settings(max_examples=3)
@given(data=st.data())
def test_fold_rows_matches_the_brute_force_fold(m, slot, data):
    table, rows = data.draw(fold_rows_inputs(m, slot))
    assert fold_rows(table, rows, slot) == brute_fold_rows(table, rows, slot)


@pytest.mark.parametrize("table, rows, slot", [
    ((0, 5, 3, 2), ((1, 4), (2, 0), (7, 7)), True),  # more slots than items
    ((0, 7, 3, 1, 2, 0, 9, 4), ((3, 0, 2), (1, 5, 1)), False),  # not monotone
    ((0, 1 << 70, 3, 1 << 66), ((1 << 65, 2),), False),  # lanes past 64 bits
    ((0, 1 << 70, 5, 4), ((1 << 65, 2), (0, 1 << 66)), True),
    ((0, 100, 27, 127), ((1, 1),), True),  # 128 takes a 16-bit lane
])
def test_fold_rows_matches_the_brute_force_fold_on_edge_cases(table, rows, slot):
    assert fold_rows(table, rows, slot) == brute_fold_rows(table, rows, slot)


def test_the_package_hands_fold_rows_no_negative_entry(monkeypatch):
    """``fold_rows`` is exact on non-negative tables only.  Its two callers
    hand it a welfare level, which every fold lets the agent take nothing
    from, and a slot table of non-negative weights: check that on a 7-item,
    4-bidder market's prices and rules, one ``poa`` golden and one
    ``property-test`` draw, all tabulated afresh."""
    tables = []

    def watched(table, rows, slot):
        tables.append(table)
        return fold_rows(table, rows, slot)

    for module in (valuations, welfare):
        monkeypatch.setattr(module, "fold_rows", watched)
    _tabulate.cache_clear()
    rng = random.Random(1)
    profile = BidProfile(7, tuple(
        sample_valuation(kind, 7, 4, rng.randrange(1 << 30))
        for kind in ("additive", "oxs", "unit_demand", "oxs")))
    min_walrasian_prices(profile)
    max_walrasian_prices(profile)
    for rule in PaymentRule:
        run_mechanism(rule, profile)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["poa", str(fixture_path("and_bidder.json")), "--rule", "english",
                     "--gamma", "1", "--eps-dev", "1"]) == 0
        assert main(["property-test", "--seeds", "1"]) == 0
    assert tables and min(map(min, tables)) >= 0


def test_min_prices_never_fold_a_rowed_bid_onto_nothing(monkeypatch):
    """A table with fold rows is its rows folded onto the all-zero level, so
    ``_or_step`` returns it there: min prices on a fresh 7-item, 4-bidder
    market make 5 item folds (suffix levels 2..0, for W(1) from level 0, and
    prefix levels 2..1), not the 7 that would refold the last agent of the
    suffix levels and agent 0 of the prefix levels.  The same market as
    ``Tabular`` bids carries no rows, so every fold runs, and prices agree."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fold_rows(*args)

    monkeypatch.setattr(welfare, "fold_rows", counted)
    bids = tuple(sample_valuation(kind, 7, 4, seed) for seed, kind in enumerate(
        ("additive", "unit_demand", "oxs", "oxs"), 1))
    prof = BidProfile(7, bids)
    assert all(isinstance(t, welfare._FoldRows) for t in scaled_tables(prof)[1])
    low = min_walrasian_prices(prof)
    assert len(calls) == 5
    tabular = BidProfile(7, tuple(Tabular(b.table()) for b in bids))
    assert min_walrasian_prices(tabular) == low
    assert len(calls) == 5


@settings(max_examples=8)
@given(any_profile(st.just(8), st.integers(2, 3), STRUCTURED))
def test_item_fold_matches_the_submask_fold_at_eight_items(prof):
    _assert_folds_agree(prof, ms_ones(8))


def test_two_slots_of_one_bidder_never_take_both_copies_of_an_item():
    # Agent 1's two slots each value item 0 at 4.  With a second copy of
    # item 0 it may still take only one: agent 2 gets the other, so the
    # lowest price of item 0 is W(1 + 1_0) - W(1) = (4 + 1) - 4 = 1, not the
    # 8 - 4 = 4 of a bidder holding both copies.
    zeros = (F(0),) * 6
    prof = BidProfile(7, (
        Additive(zeros + (F(1, 2),)),
        Oxs(((F(4), F(4)),) + ((F(0), F(0)),) * 6),
        Additive((F(1),) + zeros),
    ))
    assert isinstance(scaled_tables(prof)[1][1], welfare._FoldRows)
    low = min_walrasian_prices(prof)
    assert low[0] == 1
    assert low == brute_min_prices(prof.bids, prof.m, table_welfare)


@pytest.mark.parametrize("bids", [
    (Oxs(((F(3), F(1)), (F(2), F(5, 2)))),),
    (NON_MONOTONE, Additive((F(1), F(3, 2)))),
    (NON_MONOTONE, Oxs(((F(3, 2),), (F(1, 2),)))),
])
def test_min_prices_of_one_and_two_agents_match_the_oracle(bids):
    """A lone agent pays 0.  With two, the join reads agent 0's own table,
    here not monotone (v({0}) = 2 > v({0, 1}) = 1), as the prefix."""
    prof = BidProfile(2, bids)
    low = min_walrasian_prices(prof)
    assert low == brute_min_prices(bids, 2, table_welfare)
    assert (low == (0, 0)) == (len(bids) == 1)
