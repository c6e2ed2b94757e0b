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
- ``welfare._item_fold_pays`` without its ``m >= 5`` short-circuit: the
  cost test already fails below five items, the short-circuit only spares
  reading the bid's fold rows there.
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
    brute_welfare,
    fraction_vcg_deviation_certificate,
    fraction_walrasian_certificate,
    scaled_profile_outcomes,
)

from walras import analysis, bundles, valuations, walrasian, welfare
from walras.analysis import BidGrid, Instance, vcg_deviation_certificate
from walras.mechanisms import PaymentRule
from walras.valuations import Additive, Oxs, Tabular, UnitDemand
from walras.walrasian import verify_walrasian_equilibrium
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


def one_table_type():
    """``analysis._Scaled.of`` gives each bid the table type and rows that
    ``welfare.scaled_tables`` gives it."""
    prof = _markets()[2]
    scaled = analysis._Scaled.of(Instance(prof.m, prof), PaymentRule.VCG, current=prof)
    tables = welfare.scaled_tables(prof)[1]
    assert [type(t) for _, t in scaled.current] == [type(t) for t in tables]
    assert [t.rows is None for _, t in scaled.current] == [t.rows is None for t in tables]


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
           "_suffix_levels(profile, shape, 0)[0][0]", "_suffix_levels(profile, shape, 0)[0][1]",
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
    Mutant("grid tables not built by the DP's builder", analysis._Scaled.of,
           "map(_table_on, group, it, repeat(denom))", "it", one_table_type),
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
