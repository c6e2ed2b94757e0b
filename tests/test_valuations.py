import random
from fractions import Fraction as F

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from oracles import (
    brute_demand,
    brute_gross_substitutes,
    brute_matching_value,
    brute_monotone_normalized,
    brute_submodular,
    brute_value,
)
from strategies import STRUCTURED, any_profile, any_valuation, weights
from walras.analysis import Instance
from walras.instancefile import instance_from_dict, instance_to_dict
from walras.mechanisms import PaymentRule, run_mechanism
from walras.money import format_money, parse_money, scale_rows
from walras.valuations import (
    Additive,
    Oxs,
    Tabular,
    UnitDemand,
    Xos,
    _BY_TYPE,
    _tabulate,
    budget_additive,
    demand_set,
    is_gross_substitutes,
    is_monotone_normalized,
    is_submodular,
    marginal_value,
    sample_valuation,
    valuation_from_json,
    valuation_to_json,
    xos_supporting_clause,
)
from walras.welfare import BidProfile, scaled_tables, welfare_max, welfare_value

# the three-bidder overbidding instance reused across the suite
V1 = Xos(((F(4), F(2), F(0)), (F(4), F(0), F(2))))
V2 = UnitDemand((F(2), F(2), F(0)))
V3 = Additive((F(0), F(0), F(1)))
BUDGET = budget_additive((3, 5, 3), 6)


def test_evaluate_examples():
    assert Additive((F(2), F(2))).value(0b11) == 4
    for v in (V1, V2, V3, BUDGET):
        assert v.value(0) == 0
    assert V1.value(0b101) == 6
    assert V2.value(0b101) == 2
    assert V3.value(0b100) == 1


def test_multiset_value_clamps():
    # a lone agent facing two copies of an item values it as one copy
    assert welfare_value(BidProfile(3, (V2,)), (2, 0, 1)) == 2
    assert welfare_value(BidProfile(3, (V3,)), (0, 0, 2)) == 1


def test_budget_additive_checks_the_item_count_first():
    with pytest.raises(ValueError, match=r"item count must be in 1\.\.16, got 18"):
        budget_additive([1] * 18, 5)
    with pytest.raises(ValueError, match=r"item count must be in 1\.\.16, got 0"):
        budget_additive([], 5)
    assert BUDGET.table() == (0, 3, 5, 6, 3, 6, 6, 6)
    assert budget_additive((F(1, 2), F(1, 3)), F(3, 4)).table() == (
        0, F(1, 2), F(1, 3), F(3, 4))


def test_evaluate_rejects_out_of_range_bundle():
    with pytest.raises(ValueError):
        Additive((F(1), F(1))).value(0b100)


def test_marginal_value():
    add = Additive((F(3), F(5)))

    def clamped(ms):  # extra copies of an item add nothing
        return add.value(sum(1 << j for j, count in enumerate(ms) if count))

    assert marginal_value(clamped, (0, 1), (0, 0)) == 5
    assert marginal_value(clamped, (0, 0), (1, 1)) == 0


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        Additive((F(-1), F(1)))
    with pytest.raises(ValueError):
        Oxs(((F(1), F(-2)),))


def test_a_valuation_hashes_its_weights_once():
    hashed = []

    class Counted(F):
        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    w = (Counted(1, 2), Counted(3), Counted(0))
    for v in (Additive(w), UnitDemand(w), Xos((w, w)), Oxs((w, w, w)),
              Tabular(w + (Counted(4),))):
        hashed.clear()
        first = hash(v)
        v.value(1)  # table lookups hash the valuation again
        v.table()
        assert hash(v) == first
        numbers = getattr(v, v._field)
        assert len(hashed) == sum(map(len, numbers if v._rows else (numbers,)))
        # The same value as the dataclass hash of the fields.
        assert first == hash((numbers,))


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


# The shared weights' denominators have an lcm above the largest of them, so
# a checker that scaled by the largest denominator would compare wrong integers.
CHECKER_EXAMPLES = settings(max_examples=150)


@st.composite
def monotone_tables(draw, m):
    """v(x) = max(a fresh number, v of x's one-item-smaller subsets).
    Entries keep their own denominators, so a table's lcm is often above its
    largest denominator."""
    values = [F(0)]
    for x in range(1, 1 << m):
        below = max(values[x ^ (1 << j)] for j in range(m) if x >> j & 1)
        values.append(max(below, draw(weights())))
    return values


@st.composite
def checker_inputs(draw):
    """Any kind but a table that is not monotone, and the kinds only the
    checkers read: budget-additive and OXS tabulated."""
    m = draw(st.sampled_from((1, 2, 3, 3, 4, 4)))
    kind = draw(st.sampled_from(("any", "budget", "gs_table", "table")))
    if kind == "any":
        return draw(any_valuation(m, STRUCTURED))
    if kind == "gs_table":
        return Tabular(draw(any_valuation(m, ("oxs",))).table())
    if kind == "budget":
        items = tuple(draw(weights()) for _ in range(m))
        return budget_additive(items, max(items) + draw(weights()))
    return Tabular(tuple(draw(monotone_tables(m))))


@CHECKER_EXAMPLES
@example(BUDGET)  # submodular, not gross substitutes
@example(UnitDemand((F(4, 3), F(6, 5))))  # times 5, not 15, it reads 0, 4, 6, 4
@given(checker_inputs())
def test_class_checkers_match_fraction_reference(v):
    assert is_monotone_normalized(v) and brute_monotone_normalized(v)
    assert is_submodular(v) == brute_submodular(v)
    assert is_gross_substitutes(v) == brute_gross_substitutes(v)


@CHECKER_EXAMPLES
@given(st.integers(1, 4).flatmap(monotone_tables), st.data())
def test_checkers_reject_non_monotone_tables_like_the_reference(values, data):
    x = data.draw(st.integers(0, len(values) - 1))
    drop = data.draw(weights().filter(bool))
    if x == 0:
        values[0] += drop  # v(empty) > 0
    else:
        values[x] = values[x & (x - 1)] - drop  # dropping an item gains
    v = Tabular(tuple(values))
    assert not is_monotone_normalized(v) and not brute_monotone_normalized(v)
    # is_gross_substitutes twice: a failed precondition is never cached.
    for check in (is_submodular, is_gross_substitutes, is_gross_substitutes,
                  brute_submodular, brute_gross_substitutes):
        with pytest.raises(ValueError):
            check(v)


@settings(CHECKER_EXAMPLES, max_examples=80)
@given(st.integers(1, 5).flatmap(lambda m: st.integers(1, 4).flatmap(
    lambda slots: st.lists(st.lists(weights(), min_size=slots, max_size=slots),
                           min_size=m, max_size=m))))
def test_oxs_slot_fold_matches_brute_force_matching(matrix):
    v = Oxs(tuple(tuple(row) for row in matrix))
    assert v.table() == tuple(brute_matching_value(v.matrix, bundle)
                              for bundle in range(1 << v.m))


def test_xos_supporting_clause():
    single = Xos(((F(1), F(2)),))
    assert xos_supporting_clause(single, 0b01) == (F(1), F(2))

    ud_as_xos = Xos(((2 - F(1, 8), F(0)), (F(0), F(1))))
    assert xos_supporting_clause(ud_as_xos, 0b01) == (2 - F(1, 8), F(0))

    b1p = Xos(((F(4), F(2), F(0)), (F(4), F(0), F(3))))
    assert xos_supporting_clause(b1p, 0b101) == (F(4), F(0), F(3))

    tied = Xos(((F(1), F(2)), (F(2), F(1))))  # a tie goes to the lowest index
    assert xos_supporting_clause(tied, 0b11) == (F(1), F(2))


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


def test_sampler_draws_every_kind_that_declares_slots():
    structured = [k for k in _BY_TYPE.values() if k._slots is not None]
    assert {k._type for k in structured} == {"additive", "unit_demand", "xos", "oxs"}
    for kind in structured:
        v = sample_valuation(kind._type, 3, 4, seed=5)
        assert type(v) is kind and v.m == 3
    for name in ("tabular", "budget_additive", "XOS"):
        with pytest.raises(ValueError, match="unknown valuation class"):
            sample_valuation(name, 3, 4, seed=5)
    with pytest.raises(ValueError, match="cap must be non-negative, got -1"):
        sample_valuation("additive", 2, -1, 0)


def test_scale():
    for v in (V1, V2, V3, BUDGET, Oxs(((F(1),), (F(2),)))):
        with pytest.raises(ValueError, match="scale factor must be non-negative"):
            v.scale(F(-1, 3))
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


ROUND_TRIPS = settings(max_examples=60)


def valuations(m):
    """Any kind over m items as an instance file takes it: a table only if
    it is monotone and normalized, since instance files refuse other tables."""
    return any_valuation(m, STRUCTURED) | monotone_tables(m).map(Tabular)


@ROUND_TRIPS
@given(st.integers(1, 4).flatmap(valuations))
def test_json_round_trip_of_every_kind(v):
    assert valuation_from_json(valuation_to_json(v)) == v


def _times(c, numbers):
    """A JSON number field with every number multiplied by c."""
    if isinstance(numbers, list):
        return [_times(c, x) for x in numbers]
    return format_money(c * parse_money(numbers))


@ROUND_TRIPS
@given(st.integers(1, 4).flatmap(valuations), weights())
def test_scale_multiplies_every_json_number(v, c):
    data = valuation_to_json(v)
    expected = {k: x if k == "type" else _times(c, x) for k, x in data.items()}
    assert v.scale(c) == valuation_from_json(expected)


@ROUND_TRIPS
@given(st.integers(1, 4).flatmap(any_valuation), weights())
def test_scale_is_the_kind_built_from_the_products(v, c):
    """``v.scale(c)`` checks only c, and is what the kind's constructor
    builds from the same products: by ``==``, ``hash``, ``table()`` and JSON."""
    numbers = getattr(v, v._field)
    built = type(v)([[c * w for w in r] for r in numbers] if v._rows
                    else [c * w for w in numbers])
    scaled = v.scale(c)
    assert type(scaled) is type(v) and scaled == built and hash(scaled) == hash(built)
    assert scaled.table() == built.table() == tuple(c * x for x in v.table())
    assert valuation_to_json(scaled) == valuation_to_json(built)


def test_scale_refuses_a_negative_or_float_factor():
    for v in (V1, V2, V3, BUDGET, Oxs(((F(1),), (F(2),)))):
        with pytest.raises(ValueError, match="^scale factor must be non-negative, got -1/3$"):
            v.scale("-1/3")
        with pytest.raises(TypeError, match="^refusing float 0.5: pass a decimal string"):
            v.scale(0.5)


@ROUND_TRIPS
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(valuations(m), min_size=1, max_size=3))),
    st.sampled_from(("", "round trip")))
def test_instance_dict_round_trip(shape, name):
    m, bids = shape
    instance = Instance(m, BidProfile(m, tuple(bids)), name=name)
    assert instance_from_dict(instance_to_dict(instance)) == instance


# Integer tables against the brute-force values: numbers over 1, 3, 5, 7, 9
# and 11, so the kinds' own denominators D_v rarely equal a table's lcm.
ORACLE_EXAMPLES = settings(max_examples=80)
# A clause over thirds that is never the best: every value is whole, D_v is 3.
HIDDEN_THIRDS = Xos(((F(1), F(1)), (F(1, 3), F(0))))


@ORACLE_EXAMPLES
@example(HIDDEN_THIRDS)
@example(Additive((F(0),) * 6))
@example(UnitDemand((F(0),) * 6))
@example(Xos(((F(0),) * 6,) * 2))
@example(Oxs(((F(0), F(0)),) * 6))
@example(Tabular((F(0), F(1, 2), F(2, 3), F(5, 7))))
@given(st.integers(1, 6).flatmap(any_valuation))
def test_integer_table_matches_brute_values(v):
    denom, ints = _tabulate(v)
    assert all(type(t) is int for t in ints)
    assert [F(t, denom) for t in ints] == [brute_value(v, x) for x in range(1 << v.m)]
    assert v.table() == tuple(F(t, denom) for t in ints)


@ORACLE_EXAMPLES
@given(st.integers(1, 10).flatmap(
    lambda m: st.lists(weights(), min_size=m, max_size=m)))
def test_kinds_declaring_the_same_rows_build_the_same_table(w):
    """A one-slot OXS matrix declares the fold row of a unit-demand bid, and
    one XOS clause that of an additive bid: the one builder gives each pair
    the same fold rows and the same table."""
    for kind, same in ((UnitDemand(w), Oxs(tuple((x,) for x in w))),
                       (Additive(w), Xos((tuple(w),)))):
        assert same.m == kind.m == len(w)
        assert same._fold_rows == kind._fold_rows
        assert _tabulate(same) == _tabulate(kind)


def test_the_shared_strategy_reaches_what_the_api_takes():
    """Drawn bids reach a table negative on a nonempty bundle, a numerator of
    2^64 or more, and a profile whose D is none of its bids' own D_v.  The
    first draw found is kept: shrinking it only costs time."""
    drawn, first = st.integers(1, 3).flatmap(any_valuation), settings(phases=[Phase.generate])
    assert min(find(drawn, lambda v: isinstance(v, Tabular) and min(v.values) < 0,
                    settings=first).values) < 0
    assert max(abs(x.numerator) for x in find(drawn, lambda v: any(
        abs(x.numerator) >= 1 << 64 for x in v.table()), settings=first).table()) >= 1 << 64
    prof = find(any_profile(), lambda p: scaled_tables(p)[0] not in {
        _tabulate(b)[0] for b in p.bids}, settings=first)
    assert scaled_tables(prof)[0] not in {_tabulate(b)[0] for b in prof.bids}


def test_table_denominator_is_a_common_multiple():
    assert _tabulate(HIDDEN_THIRDS) == (3, (0, 3, 3, 6))
    assert _tabulate(Additive((F(0),) * 3)) == (1, (0,) * 8)
    assert _tabulate(Tabular((F(0), F(1, 2), F(2, 3), F(5, 7))))[0] == 42


@ORACLE_EXAMPLES
@example(BidProfile(2, (HIDDEN_THIRDS, Additive((F(1, 2), F(1))))))
@given(any_profile())
def test_scaled_tables_match_a_profile_seeded_over_the_lcm(prof):
    """D, a common multiple of the bids' own D_v, gives the brute-force
    values; and allocations, ties and payments equal those of the same
    profile seeded over the lcm of every value's denominator."""
    m, bids = prof.m, prof.bids
    values = [[brute_value(b, x) for x in range(1 << m)] for b in bids]
    denom, tables = scaled_tables(prof)
    assert [[F(t, denom) for t in tab] for tab in tables] == values
    lcm_denom, lcm_tables = scale_rows(values)
    assert denom % lcm_denom == 0
    seeded = BidProfile._seeded(m, bids, lcm_denom, lcm_tables)
    assert welfare_max(prof, (1,) * m) == welfare_max(seeded, (1,) * m)
    for rule in PaymentRule:
        assert run_mechanism(rule, prof) == run_mechanism(rule, seeded)
