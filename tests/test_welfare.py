import random
from fractions import Fraction as F

import pytest

from oracles import brute_welfare, brute_welfare_maps
from walras.bundles import ms_ones, ms_unit
from walras.valuations import (
    Additive,
    Tabular,
    UnitDemand,
    Xos,
    is_gross_substitutes,
    is_submodular,
    sample_valuation,
)
from walras.welfare import (
    Allocation,
    BidProfile,
    _layout,
    welfare_excluding,
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


def test_welfare_monotone_in_supply():
    rng = random.Random(13)
    for trial in range(20):
        prof = _random_profile(rng, m_hi=3)
        lo = tuple(rng.randint(0, 2) for _ in range(prof.m))
        hi = tuple(min(2, c + rng.randint(0, 1)) for c in lo)
        assert welfare_value(prof, lo) <= welfare_value(prof, hi)


def test_welfare_excluding():
    assert welfare_excluding(
        BidProfile(2, (Additive((F(1), F(1))),)), 0, ms_ones(2)) == 0
    assert welfare_excluding(OVERBID, 0, ms_ones(3)) == 3
    ex2 = BidProfile(2, (UnitDemand((2 - EPS, F(1))),
                         UnitDemand((F(1), 2 - EPS))))
    assert welfare_excluding(ex2, 0, ms_ones(2)) == 2 - EPS
    with pytest.raises(IndexError):
        welfare_excluding(OVERBID, 5, ms_ones(3))


def test_excluding_agent_never_helps():
    rng = random.Random(19)
    for trial in range(25):
        prof = _random_profile(rng, m_hi=3)
        full, _ = welfare_max(prof, ms_ones(prof.m))
        for i in range(prof.n):
            assert welfare_excluding(prof, i, ms_ones(prof.m)) <= full


def test_welfare_marginal():
    assert welfare_marginal(OVERBID, (0, 0, 0), ms_ones(3)) == 0
    for j in range(3):
        assert welfare_marginal(OVERBID, ms_unit(3, j), ms_ones(3)) == 1
    for j in range(2):
        assert welfare_marginal(DEMAND_REDUCTION, ms_unit(2, j), ms_ones(2)) == 1 + EPS


def test_generic_marginal_applies_to_the_welfare_function():
    from walras.valuations import marginal_value
    w = lambda ms: welfare_value(OVERBID, ms)
    assert marginal_value(w, ms_unit(3, 2), ms_ones(3)) == 1
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
            w_ex = welfare_excluding(prof, i, supply)
            assert type(w_ex) is F
            assert w_ex == brute_welfare(rest, supply)
        j = rng.randrange(m)
        gain = welfare_marginal(prof, ms_unit(m, j), ms_ones(m))
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
    from walras.mechanisms import allocate_declared
    from walras.walrasian import max_walrasian_prices

    folds = []
    fold = welfare._or_step

    def counted(*args):
        folds.append(args[2])  # the table size
        return fold(*args)

    monkeypatch.setattr(welfare, "_or_step", counted)
    prof = BidProfile(5, tuple(sample_valuation("additive", 5, 3, seed=s)
                               for s in range(4)))
    allocate_declared(prof)
    assert len(folds) == 4
    # max prices read W(1) and W(1 - 1_j) from the same all-agents table
    max_walrasian_prices(prof)
    levels = welfare._suffix_levels(prof, ms_ones(5))[0]
    assert welfare.or_value_table(prof, ms_ones(5)) is levels[0]
    assert len(folds) == 4
