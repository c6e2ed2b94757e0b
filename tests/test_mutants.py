"""A standing mutation census: each row is a small edit to one function of
``walras`` and a killer, a check that passes on the code as it is and
fails on the edited copy.  So a change to the suite that stops killing a
mutant it killed before fails here, by name.

A row names a function, an exact fragment of its source, the fragment's
replacement and the killer.  The edited source of that one function is
compiled in its module's globals and swapped in through ``__code__`` (for
a cached function, ``__wrapped__``'s), and the original is put back in
``finally``; no file is written.  A row whose fragment does not occur
exactly once in its function, or whose function has free variables, is
refused, so an edit to the source fails the census loudly and the row is
updated with it.  Killers build fresh profiles, and every cache a mutant
could poison is cleared on the way in and out.

Equivalent mutants, left out as rows because no check can tell them from
the code:
- ``welfare._scaled_welfare`` folding level 0 on every shape where agent 0
  carries fold rows, not only on the ones shape (``and shape ==
  ms_ones(profile.m)`` dropped): such rows exist only at five or more
  items, where a shape with a doubled item folds level 0 by submasks and
  reads it, the value a merge at the states asked gives; only the work
  differs, and no killer here times it.
- ``welfare._item_fold_pays`` without its ``m >= 5`` short-circuit: the
  cost test already fails below five items, the short-circuit only spares
  reading the bid's fold rows there.
- ``analysis.poa_search`` without its pruning of the injected deviations
  that are on the agent's grid: it runs them, and their utilities are
  already in the agent's floor.
"""

import __future__
import ast
import inspect
import itertools
import textwrap
from contextlib import contextmanager
from fractions import Fraction as F
from typing import Callable, NamedTuple

import pytest
from oracles import (
    brute_blocking,
    brute_canonical_assignment,
    brute_fold_rows,
    brute_gross_substitutes,
    brute_max_prices,
    brute_min_prices,
    brute_poa,
    brute_welfare,
    fraction_vcg_deviation_certificate,
    fraction_walrasian_certificate,
    reference_tatonnement,
    scaled_profile_outcomes,
)

from walras import analysis, bundles, valuations, walrasian, welfare
from walras.analysis import BidGrid, Instance, poa_search, vcg_deviation_certificate
from walras.bundles import fold_rows, iter_bits
from walras.mechanisms import PaymentRule, allocate_declared, run_mechanism
from walras.valuations import (Additive, Oxs, Tabular, UnitDemand, budget_additive,
                               is_gross_substitutes)
from walras.walrasian import min_walrasian_prices, tatonnement, verify_walrasian_equilibrium
from walras.welfare import BidProfile, welfare_max, welfare_value

CACHES = (valuations._tabulate, bundles._item_lanes, welfare._layout, analysis._merges,
          welfare._holding, valuations._demand_steps, valuations._weight_grid)


def _clear_caches():
    for cached in CACHES:
        cached.cache_clear()


def _code_owner(func):
    """The plain function whose ``__code__`` runs for ``func``."""
    func = getattr(func, "__func__", func)  # a classmethod
    return getattr(func, "__wrapped__", func)  # a cached function


def _mutated_code(func, fragment: str, replacement: str):
    """``func``'s code with ``fragment`` of its source replaced; refused
    unless the fragment occurs exactly once and ``func`` has no free
    variables."""
    assert not func.__code__.co_freevars, f"{func.__qualname__} has free variables"
    source = textwrap.dedent(inspect.getsource(func))
    count = source.count(fragment)
    assert count == 1, f"{func.__qualname__}: fragment found {count} times"
    (node,) = ast.parse(source.replace(fragment, replacement)).body
    node.decorator_list = []
    code = compile(ast.Module([node], []), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    space = {}
    exec(code, func.__globals__, space)
    return space[node.name].__code__


@contextmanager
def _applied(func, fragment: str, replacement: str):
    owner = _code_owner(func)
    clean, owner.__code__ = owner.__code__, _mutated_code(owner, fragment, replacement)
    _clear_caches()
    try:
        yield
    finally:
        owner.__code__ = clean
        _clear_caches()


# -- killers -------------------------------------------------------------------

def _markets():
    """Fresh small markets: a lone table that is not monotone, two additive
    bids over three items, an integer OXS bid and an additive bid over
    thirds at five items, both rowed, and two one-item bids whose best split
    wins by 1."""
    return (
        BidProfile(2, (Tabular((F(0), F(2), F(1, 3), F(1))),)),
        BidProfile(3, (Additive((F(1), F(2), F(3))), Additive((F(2), F(1), F(1))))),
        BidProfile(5, (Oxs(((F(2), F(1)), (F(1), F(0)), (F(1), F(2)), (F(0), F(1)),
                            (F(4), F(1)))),
                       Additive((F(1, 3), F(2, 3), F(0), F(1), F(1, 3))))),
        BidProfile(1, (Additive((F(2),)), Additive((F(1),)))),
    )


def welfare_matches_brute_force():
    """``welfare_max`` and ``welfare_value`` at the ones shape equal
    ``oracles.brute_welfare`` on every market of :func:`_markets`."""
    for prof in _markets():
        ones = (1,) * prof.m
        expected = brute_welfare(prof.bids, ones)
        assert welfare_value(prof, ones) == expected
        assert welfare_max(BidProfile(prof.m, prof.bids), ones)[0] == expected


def certificates_match_the_fraction_certificate():
    """``verify_walrasian_equilibrium`` equals
    ``oracles.fraction_walrasian_certificate`` where an agent fails on a
    three-way tie (lowest bundle 1, not 3) and where prices are over thirds
    and the tables over ones."""
    for prices in ((F(0), F(0)), (F(0), F(1, 3))):
        prof = BidProfile(2, (Tabular((F(0), F(0), F(0), F(3))), UnitDemand((F(2), F(2)))))
        expected = fraction_walrasian_certificate(prof, (0b01, 0), prices)
        assert verify_walrasian_equilibrium(prof, (0b01, 0), prices) == expected


def vcg_certificate_matches_the_fraction_certificate():
    """``vcg_deviation_certificate`` equals
    ``oracles.fraction_vcg_deviation_certificate`` on bids that differ from
    the types, so declared and true welfare differ."""
    types = BidProfile(2, (UnitDemand((F(3), F(1))), Additive((F(1), F(2)))))
    bids = BidProfile(2, (Additive((F(1, 2), F(3))), Additive((F(2), F(0)))))
    instance = Instance(2, types)
    assert vcg_deviation_certificate(instance, bids) == fraction_vcg_deviation_certificate(
        instance, bids)


def kernel_matches_the_runs():
    """The poa kernel's welfare and utilities equal
    ``oracles.scaled_profile_outcomes`` on a grid whose agent 0 bids below
    zero, under every rule."""
    types = BidProfile(2, (Additive((F(1), F(1, 2))), UnitDemand((F(2), F(1)))))
    grid = BidGrid(((Tabular((F(0), F(-3, 2), F(1), F(2))), Additive((F(1), F(0)))),
                    (Additive((F(1, 2), F(1))), UnitDemand((F(2), F(3))))))
    for rule in PaymentRule:
        scaled = analysis._Scaled.of(Instance(2, types), rule, grid)
        welfare_list, utils = analysis._grid_outcomes(scaled, [(0,), (1,)])
        profiles = list(zip(welfare_list, zip(*utils)))  # agent 0's index fastest
        assert [profiles[2 * c + a] for a, c in itertools.product(range(2), range(2))] == (
            scaled_profile_outcomes(types.bids, rule, grid.per_agent, scaled.denom))


def poa_matches_brute_force():
    """``poa_search`` equals ``oracles.brute_poa`` under every rule at gamma
    0 and 1 where agent 1's truthful bid is on its grid and its half-truthful
    bid only on agent 0's, and agent 0's deviations are on neither grid."""
    types = (Additive((F(1), F(2))), Additive((F(1), F(1))))
    grid = ((Additive((F(1), F(1, 2))), Additive((F(1, 2), F(1, 2)))),
            (Additive((F(1), F(0))), Additive((F(1), F(1)))))
    instance = Instance(2, BidProfile(2, types))
    for rule, gamma in itertools.product(PaymentRule, (0, 1)):
        report = poa_search(instance, rule, BidGrid(grid), gamma)
        witness = report.witness and report.witness.bids
        assert (report.equilibrium_count, report.worst_ratio, witness) == brute_poa(
            types, rule, grid, gamma, 0)


def one_table_type():
    """``analysis._Scaled.of`` gives each bid the table type and rows that
    ``welfare.scaled_tables`` gives it."""
    prof = _markets()[2]
    scaled = analysis._Scaled.of(Instance(prof.m, prof), PaymentRule.VCG, current=prof)
    tables = welfare.scaled_tables(prof)[1]
    assert [type(t) for _, t in scaled.current] == [type(t) for t in tables]
    assert [t.rows is None for _, t in scaled.current] == [t.rows is None for t in tables]


def level_tables_match_tabulate():
    """An additive grid over quarters, three levels, puts the tables that
    ``_tabulate`` gives its bids in a hand-built grid on the call's D."""
    instance = Instance(2, BidProfile(2, (Additive((F(1, 3), F(1))), UnitDemand((F(2), F(1))))))
    grid = BidGrid.additive(2, 2, F(3, 4), F(2))
    assert analysis._Scaled.of(instance, PaymentRule.VCG, grid) == analysis._Scaled.of(
        instance, PaymentRule.VCG, BidGrid(grid.per_agent))


def poa_matches_brute_force_at_a_negative_type_entry():
    """``poa_search`` equals ``oracles.brute_poa`` at gamma 0 and 1 where
    agent 0's type is worth -1 on item 0, which no grid bid is below."""
    types = (Tabular((F(0), F(-1), F(1), F(2))), Additive((F(1), F(1))))
    instance, grid = Instance(2, BidProfile(2, types)), BidGrid.additive(2, 2, 1, 1)
    for rule, gamma in itertools.product(PaymentRule, (0, 1)):
        report = poa_search(instance, rule, grid, gamma)
        witness = report.witness and report.witness.bids
        assert (report.equilibrium_count, report.worst_ratio, witness) == brute_poa(
            types, rule, grid.per_agent, gamma, 0)


def seeded_profiles_run_on_their_tables():
    """A profile seeded over 10 D runs like the checked profile under every
    rule, with its payments on 10 D."""
    prof = _markets()[1]
    denom, tables = welfare.scaled_tables(prof)
    seeded = BidProfile._seeded(prof.m, prof.bids, 10 * denom,
                                [[10 * x for x in t] for t in tables])
    for rule in PaymentRule:
        out, again = run_mechanism(rule, prof), run_mechanism(rule, seeded)
        assert again == out
        assert again._scaled_payments == tuple(10 * p for p in out._scaled_payments)


THREE = (Additive((F(1), F(2), F(3))), UnitDemand((F(2), F(1), F(1))),
         Additive((F(0), F(1), F(2))))


def welfare_without_an_agent_matches_brute_force():
    """Once ``welfare_max`` has folded level 0, ``welfare_value`` without
    each agent of :data:`THREE` equals ``oracles.brute_welfare`` of the
    others."""
    prof, ones = BidProfile(3, THREE), (1, 1, 1)
    welfare_max(prof, ones)
    for i in range(3):
        assert welfare_value(prof, ones, exclude=i) == brute_welfare(THREE[:i] + THREE[i + 1:],
                                                                     ones)


def a_folded_level_0_is_read():
    """Once ``welfare_max`` has folded level 0 of :data:`THREE`, the
    allocation and ``welfare_value`` at the ones shape make no
    ``_fold_at`` call (``welfare.py``'s global, counted while they run)."""
    prof, ones = BidProfile(3, THREE), (1, 1, 1)
    welfare_max(prof, ones)
    calls, fold_at = [], welfare._fold_at
    welfare._fold_at = lambda *args: calls.append(args) or fold_at(*args)
    try:
        allocate_declared(prof)
        welfare_value(prof, ones)
    finally:
        welfare._fold_at = fold_at
    assert calls == []


def argmax_matches_brute_force():
    """``welfare_max`` equals ``oracles.brute_canonical_assignment`` on the
    markets of :func:`_markets` and where two bids tie for one item, so
    agent 0 takes nothing."""
    tie = BidProfile(1, (Additive((F(1),)), Additive((F(1),))))
    for prof in _markets() + (tie,):
        assert welfare_max(prof, (1,) * prof.m) == brute_canonical_assignment(prof.bids, prof.m)


def min_prices_match_brute_force():
    """``min_walrasian_prices`` equals ``oracles.brute_min_prices`` on the
    markets of :func:`_markets` and on :data:`THREE`."""
    for prof in _markets() + (BidProfile(3, THREE),):
        assert min_walrasian_prices(prof) == brute_min_prices(prof.bids, prof.m)


def ascent_matches_the_reference_loop():
    """``tatonnement`` equals ``oracles.reference_tatonnement`` where two
    bidders raise one item by 1/1024 about two thousand times, and where a
    war over three items repeats one pass and then two at 1/256."""
    for prof, eps in (
            (BidProfile(1, (Additive((F(3),)), Additive((F(2),)))), F(1, 1024)),
            (BidProfile(3, (UnitDemand((F(0), F(2), F(5, 2))),
                            Additive((F(5, 2), F(4), F(13, 4))))), F(1, 256))):
        assert tatonnement(prof, eps) == reference_tatonnement(prof, eps)


def fold_rows_matches_brute_force():
    """``bundles.fold_rows`` equals ``oracles.brute_fold_rows`` where the
    fold reaches 128, the top bit of an 8-bit lane, and past 64 bits."""
    for table, rows, slot in (((0, 127, 0, 127), ((1, 1),), True),
                              ((0, 1 << 70, 3, 1 << 66), ((1 << 65, 2),), False)):
        assert fold_rows(table, rows, slot) == brute_fold_rows(table, rows, slot)


def payments_match_their_formulas():
    """``run_mechanism`` on :data:`THREE` charges, at the declared
    allocation, what each rule's formula gives on ``oracles`` values: vcg
    ``brute_blocking``, english and dutch the bundle's sum of
    ``brute_min_prices`` and ``brute_max_prices`` (also the prices used),
    paybid the bid's value."""
    prof = BidProfile(3, THREE)
    bundles = allocate_declared(prof).bundles
    low, high = brute_min_prices(THREE, 3), brute_max_prices(THREE, 3)
    expected = {
        PaymentRule.VCG: ([brute_blocking(prof, i, x) if x else 0
                           for i, x in enumerate(bundles)], None),
        PaymentRule.ENGLISH: ([sum(low[j] for j in iter_bits(x)) for x in bundles], low),
        PaymentRule.DUTCH: ([sum(high[j] for j in iter_bits(x)) for x in bundles], high),
        PaymentRule.PAY_YOUR_BID: ([v.value(x) for v, x in zip(THREE, bundles)], None),
    }
    assert low != high
    for rule, (pays, prices) in expected.items():
        out = run_mechanism(rule, BidProfile(3, THREE))
        assert (out.payments, out.prices_used) == (tuple(pays), prices)


def gross_substitutes_matches_brute_force():
    """``is_gross_substitutes`` equals ``oracles.brute_gross_substitutes``
    on a unit-demand bid, which passes only by a swap, an OXS bid, an
    additive bid, and two that fail: complements and a budget-additive bid."""
    for v in (UnitDemand((F(2), F(1))), Oxs(((F(2), F(1)), (F(1), F(3)), (F(1), F(1)))),
              Additive((F(1), F(2), F(3))), Tabular((F(0), F(1), F(1), F(3))),
              budget_additive((3, 5, 3), 6)):
        assert is_gross_substitutes(v) == brute_gross_substitutes(v)


# -- the census ----------------------------------------------------------------

class Mutant(NamedTuple):
    what: str
    function: Callable
    fragment: str
    replacement: str
    killer: Callable


MUTANTS = [
    Mutant("the onto-nothing read applied to tabular tables too", welfare._or_step,
           "isinstance(tab, _FoldRows) and not any(cur)", "not any(cur)",
           welfare_matches_brute_force),
    Mutant("the onto-nothing read without its all-zero test", welfare._or_step,
           "isinstance(tab, _FoldRows) and not any(cur)", "isinstance(tab, _FoldRows)",
           welfare_matches_brute_force),
    Mutant("fold rows left on the bid's own denominator", welfare._table_on,
           "rows if own == denom else", "rows if True else", welfare_matches_brute_force),
    Mutant("OXS slots folded as additive clauses", welfare._table_on,
           "out.slots, out.rows = bid._slots,", "out.slots, out.rows = False,",
           welfare_matches_brute_force),
    Mutant("W read from level 1, without agent 0", welfare._scaled_welfare,
           "[levels[0][idx] for", "[levels[1][idx] for",
           welfare_matches_brute_force),
    Mutant("a merge that misses a gain of 1", welfare._fold_at,
           "if cand > best:", "if cand > best + 1:", welfare_matches_brute_force),
    Mutant("the highest best bundle reported, not the lowest",
           walrasian.verify_walrasian_equilibrium, "list(map(sub, tab, cost)).index(best)",
           "len(tab) - 1 - list(map(sub, tab, cost))[::-1].index(best)",
           certificates_match_the_fraction_certificate),
    Mutant("a violation's gain over the tables' denominator",
           walrasian.verify_walrasian_equilibrium, "Fraction(best - have, denom)",
           "Fraction(best - have, table_denom)",
           certificates_match_the_fraction_certificate),
    Mutant("equilibrium welfare read from the bids, not the types",
           analysis.vcg_deviation_certificate, "zip(scaled.truthful, allocate_declared",
           "zip(scaled.current, allocate_declared",
           vcg_certificate_matches_the_fraction_certificate),
    Mutant("agent 0's negative entries packed without the lift", analysis._grid_outcomes,
           "lift = max(0, -min(map(min, own)))", "lift = 0", kernel_matches_the_runs),
    Mutant("vcg's utilities without the declared welfare", analysis._grid_outcomes,
           "u - w + declared", "u - w", kernel_matches_the_runs),
    Mutant("english and dutch prices with their sign swapped", analysis._grid_outcomes,
           "w - declared if doubled else declared - w",
           "declared - w if doubled else w - declared", kernel_matches_the_runs),
    Mutant("paybid's agent 0 not charged its bid", analysis._grid_outcomes,
           "utils[0] -= int.from_bytes", "utils[0] -= 0 * int.from_bytes",
           kernel_matches_the_runs),
    Mutant("english and dutch charge each item in every lane", analysis._grid_outcomes,
           "price & (bit << width) - bit", "price", kernel_matches_the_runs),
    Mutant("the exchange test tries no swap", valuations.is_gross_substitutes,
           "for bit_j in only_y:", "for bit_j in ():", gross_substitutes_matches_brute_force),
    Mutant("deviations pruned by agent 0's grid tables for every agent", poa_search,
           "scaled.grid[i]}", "scaled.grid[0]}", poa_matches_brute_force),
    Mutant("only the deviations on the grid run", poa_search,
           "dev[1] not in on_grid", "dev[1] in on_grid", poa_matches_brute_force),
    Mutant("the half-truthful deviation pruned by the truthful table", poa_search,
           "dev[1] not in on_grid", "scaled.truthful[i][1] not in on_grid",
           poa_matches_brute_force),
    Mutant("grid tables not built by the DP's builder", analysis._Scaled.of,
           "map(_table_on, g, zip(*[iter(r)] * size), repeat(denom))", "zip(*[iter(r)] * size)",
           one_table_type),
    Mutant("the level tables' unit off by the step's denominator", BidGrid._groups.func,
           "k * step.numerator", "k * step.numerator * step.denominator",
           level_tables_match_tabulate),
    Mutant("a level index dropped from the level tables", BidGrid._groups.func,
           "for k in range(count)", "for k in range(count - 1)", level_tables_match_tabulate),
    Mutant("the column filter with le and ge swapped at a negative type entry", poa_search,
           "ge if x >= 0 else le", "ge if x >= 0 else ge",
           poa_matches_brute_force_at_a_negative_type_entry),
    Mutant("a seeded profile without its scaled tables", BidProfile._seeded,
           '_cache={"scaled": (denom, tuple(tables))}', "_cache={}",
           seeded_profiles_run_on_their_tables),
    Mutant("a folded level 0 read when an agent is left out", welfare._scaled_welfare,
           "exclude is None and levels[0] is not None", "levels[0] is not None",
           welfare_without_an_agent_matches_brute_force),
    Mutant("a folded level 0 merged again", welfare._scaled_welfare,
           "exclude is None and levels[0] is not None", "False", a_folded_level_0_is_read),
    Mutant("the backtrack keeps the largest bundle of a tie", welfare._backtrack,
           "chosen = b\n                break", "chosen = b", argmax_matches_brute_force),
    Mutant("the doubled join's groups one entry short", welfare._doubled_welfare,
           "group = (1 << profile.m - 1) + 1", "group = 1 << profile.m - 1",
           min_prices_match_brute_force),
    Mutant("repeats counted by a division that is not strict", walrasian._repeats,
           "(best - t + c - 1) // (low - dx)", "(best - t + c) // (low - dx)",
           ascent_matches_the_reference_loop),
    Mutant("lanes without their guard bit", bundles.lane_width,
           "1 << top.bit_length().bit_length()", "1 << (top.bit_length() - 1).bit_length()",
           fold_rows_matches_brute_force),
    Mutant("vcg charges every agent agent 0's externality", run_mechanism,
           "_scaled_externality(bids, i, x)", "_scaled_externality(bids, 0, x)",
           payments_match_their_formulas),
    Mutant("english charges the highest prices", run_mechanism,
           "lowest=rule is PaymentRule.ENGLISH", "lowest=False", payments_match_their_formulas),
    Mutant("dutch charges the lowest prices", run_mechanism,
           "lowest=rule is PaymentRule.ENGLISH", "lowest=True", payments_match_their_formulas),
    Mutant("english and dutch charge every item's price", run_mechanism,
           "sum(prices[j] for j in iter_bits(x))", "sum(prices)", payments_match_their_formulas),
    Mutant("paybid charges the bid for all items", run_mechanism,
           "tab[x] for tab, x in", "tab[-1] for tab, x in", payments_match_their_formulas),
]


@pytest.mark.parametrize("row", MUTANTS, ids=[row.what for row in MUTANTS])
def test_the_killer_passes_clean_and_fails_on_the_mutant(row):
    _clear_caches()
    row.killer()
    with _applied(row.function, row.fragment, row.replacement):
        with pytest.raises(Exception):
            row.killer()
    row.killer()


def test_a_fragment_must_occur_exactly_once():
    with pytest.raises(AssertionError, match="found 0 times"):
        _mutated_code(welfare._or_step, "no such fragment", "")
    with pytest.raises(AssertionError, match="found 3 times"):
        _mutated_code(welfare._or_step, "return ", "return ")
