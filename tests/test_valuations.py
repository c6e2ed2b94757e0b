import random
from fractions import Fraction as F

import pytest

from oracles import brute_demand, brute_matching_value
from walras.valuations import (
    Additive,
    Oxs,
    Tabular,
    UnitDemand,
    Xos,
    budget_additive,
    demand_set,
    evaluate,
    is_gross_substitutes,
    is_monotone_normalized,
    is_submodular,
    marginal_value,
    sample_valuation,
    valuation_from_json,
    valuation_to_json,
    xos_supporting_clause,
)

# the three-bidder overbidding instance reused across the suite
V1 = Xos(((F(4), F(2), F(0)), (F(4), F(0), F(2))))
V2 = UnitDemand((F(2), F(2), F(0)))
V3 = Additive((F(0), F(0), F(1)))
BUDGET = budget_additive((3, 5, 3), 6)


def test_evaluate_examples():
    assert evaluate(Additive((F(2), F(2))), 0b11) == 4
    for v in (V1, V2, V3, BUDGET):
        assert evaluate(v, 0) == 0
    assert evaluate(V1, 0b101) == 6


def test_evaluate_rejects_out_of_range_bundle():
    with pytest.raises(ValueError):
        evaluate(Additive((F(1), F(1))), 0b100)


def test_multiset_value_clamps():
    assert V2.multiset_value((2, 0, 1)) == 2
    assert V3.multiset_value((0, 0, 2)) == 1


def test_marginal_value():
    add = Additive((F(3), F(5)))
    assert marginal_value(add.multiset_value, (0, 1), (0, 0)) == 5
    assert marginal_value(add.multiset_value, (0, 0), (1, 1)) == 0


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        Additive((F(-1), F(1)))
    with pytest.raises(ValueError):
        Oxs(((F(1), F(-2)),))


def test_oxs_matches_brute_force_matching():
    rng = random.Random(5)
    for trial in range(30):
        v = sample_valuation("oxs", rng.randint(1, 4), 6,
                             seed=rng.randrange(10**6))
        for bundle in range(1 << v.m):
            assert v.value(bundle) == brute_matching_value(v.matrix, bundle)


def test_oxs_integer_matching_on_odd_denominators():
    rng = random.Random(6)
    for trial in range(15):
        v = sample_valuation("oxs", rng.randint(1, 4), 3,
                             seed=rng.randrange(10**6), denominators=(3, 5, 7, 9))
        for bundle in range(1 << v.m):
            value = v.value(bundle)
            assert type(value) is F
            assert value == brute_matching_value(v.matrix, bundle)


def test_demand_set_additive_characterization():
    v = Additive((F(3), F(1), F(2)))
    p = (F(1), F(2), F(2))
    winners = demand_set(v, p)
    # item 0 strictly profitable, item 1 strictly bad, item 2 indifferent
    assert winners == [0b001, 0b101]
    assert winners == brute_demand(v, p)


def test_demand_set_matches_oracle_on_odd_denominators():
    rng = random.Random(61)
    for trial in range(20):
        m = rng.randint(1, 4)
        v = sample_valuation(rng.choice(["additive", "unit_demand", "oxs", "xos"]),
                             m, 3, seed=rng.randrange(10**6), denominators=(3, 7, 9))
        # Prices on the value grid make ties; prices over fifths and
        # elevenths need a denominator the table does not have.
        p = tuple(rng.choice([v.value(1 << j), F(rng.randint(0, 15), 5),
                              F(rng.randint(0, 33), 11)]) for j in range(m))
        assert demand_set(v, p) == brute_demand(v, p)


def test_demand_set_overbidder_at_unit_prices():
    assert demand_set(V1, ("1", "1", "1")) == [0b011, 0b101]


def test_demand_set_unit_demand_top_item():
    eps = F(1, 8)
    v = UnitDemand((2 - eps, F(1)))
    winners = demand_set(v, (0, 0))
    assert winners == [b for b in range(4) if b & 1]  # every bundle with item A
    assert winners == brute_demand(v, (F(0), F(0)))


def test_demand_set_contains_everything_at_zero_prices():
    rng = random.Random(11)
    for kind in ("additive", "unit_demand", "oxs", "xos"):
        v = sample_valuation(kind, 3, 4, seed=rng.randrange(10**6))
        full = (1 << v.m) - 1
        assert full in demand_set(v, (0,) * v.m)


def test_demand_set_rejects_negative_prices():
    with pytest.raises(ValueError):
        demand_set(V3, ("0", "0", "-1"))


def test_monotone_normalized():
    assert is_monotone_normalized(Additive((F(1), F(1))))
    assert is_monotone_normalized(BUDGET)
    assert not is_monotone_normalized(Tabular((F(1), F(1), F(1), F(1))))
    assert not is_monotone_normalized(Tabular((F(0), F(2), F(1), F(1))))


def test_submodular():
    assert is_submodular(Additive((F(1), F(2))))
    assert is_submodular(BUDGET)
    and_pair = Tabular((F(0), F(0), F(0), F(1)))
    assert not is_submodular(and_pair)


def test_checkers_reject_non_normalized():
    bad = Tabular((F(1), F(2), F(2), F(3)))
    with pytest.raises(ValueError):
        is_submodular(bad)
    with pytest.raises(ValueError):
        is_gross_substitutes(bad)


def test_gross_substitutes_members():
    assert is_gross_substitutes(Additive((F(1), F(2), F(3))))
    assert is_gross_substitutes(UnitDemand((F(2), F(1))))
    assert is_gross_substitutes(V2)


def test_budget_additive_is_submodular_but_not_gs():
    assert is_submodular(BUDGET)
    assert not is_gross_substitutes(BUDGET)


def test_random_oxs_is_gross_substitutes():
    rng = random.Random(17)
    for trial in range(40):
        v = sample_valuation("oxs", rng.randint(2, 4), 6,
                             seed=rng.randrange(10**6))
        assert is_gross_substitutes(v)


def test_gs_implies_submodular_on_random_draws():
    rng = random.Random(23)
    for trial in range(40):
        kind = rng.choice(["additive", "unit_demand", "oxs", "xos"])
        v = sample_valuation(kind, 3, 4, seed=rng.randrange(10**6))
        if is_gross_substitutes(v):
            assert is_submodular(v)


def test_xos_supporting_clause():
    single = Xos(((F(1), F(2)),))
    assert xos_supporting_clause(single, 0b01) == (F(1), F(2))

    ud_as_xos = Xos(((2 - F(1, 8), F(0)), (F(0), F(1))))
    assert xos_supporting_clause(ud_as_xos, 0b01) == (2 - F(1, 8), F(0))

    b1p = Xos(((F(4), F(2), F(0)), (F(4), F(0), F(3))))
    assert xos_supporting_clause(b1p, 0b101) == (F(4), F(0), F(3))


def test_xos_supporting_clause_is_a_lower_bound_everywhere():
    rng = random.Random(29)
    for trial in range(25):
        v = sample_valuation("xos", 3, 4, seed=rng.randrange(10**6))
        for target in range(1 << v.m):
            clause = xos_supporting_clause(v, target)
            dot = lambda mask: sum(clause[j] for j in range(v.m) if mask >> j & 1)
            assert dot(target) == v.value(target)
            for other in range(1 << v.m):
                assert dot(other) <= v.value(other)


def test_xos_value_is_max_clause_dot():
    rng = random.Random(31)
    for trial in range(25):
        v = sample_valuation("xos", 3, 5, seed=rng.randrange(10**6))
        for mask in range(1 << v.m):
            dots = [sum(c[j] for j in range(v.m) if mask >> j & 1)
                    for c in v.clauses]
            assert v.value(mask) == max(dots)


def test_sampler_determinism_and_invariants():
    a = sample_valuation("additive", 2, 4, seed=0)
    b = sample_valuation("additive", 2, 4, seed=0)
    assert a == b
    rng = random.Random(37)
    for kind in ("additive", "unit_demand", "oxs", "xos"):
        for trial in range(10):
            v = sample_valuation(kind, rng.randint(1, 4), 4,
                                 seed=rng.randrange(10**6))
            assert is_monotone_normalized(v)
            cap = F(4)
            assert all(v.value(1 << j) <= cap for j in range(v.m))


def test_scale():
    assert V1.scale(F(1, 2)).value(0b101) == 3
    assert BUDGET.scale(2).value(0b111) == 12
    assert V2.scale(F(1, 2)) == UnitDemand((F(1), F(1), F(0)))


def test_json_round_trip():
    rng = random.Random(41)
    samples = [V1, V2, V3, BUDGET]
    for kind in ("additive", "unit_demand", "oxs", "xos"):
        samples.append(sample_valuation(kind, 3, 4, seed=rng.randrange(10**6)))
    for v in samples:
        assert valuation_from_json(valuation_to_json(v)) == v


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        valuation_from_json({"weights": ["1"]})
    with pytest.raises(ValueError):
        valuation_from_json({"type": "mystery", "weights": ["1"]})
    with pytest.raises(ValueError):
        valuation_from_json({"type": "tabular", "values": ["1", "0"]})
