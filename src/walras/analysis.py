"""Equilibrium analysis: exposure, grid Nash checks, efficient-profile
construction, proof-inequality certificates, and worst-case-ratio search.

Nash over an unbounded bid space is not decidable here, so every "Nash"
statement is grid-relative: deviations range over a finite per-agent grid,
always extended with the agent's truthful bid and half-truthful bid (the two
deviations the welfare-loss arguments rely on).  All comparisons are exact;
the default deviation tolerance is zero.

A call puts the tables of all the bids and types it reads on one common
denominator D once, as the DP builds them (``_Scaled``).  A grid owns its
tables on its own denominator, built once: an additive grid's from its
integer levels, checked once for the whole grid.  One kernel,
``_grid_outcomes``, prices grid profiles with no mechanism run: D times
their welfare and each agent's utility, in passes that hold one profile per
fixed-width lane of one Python int, so each merge over agent 0's bundles is
a few big-int operations, exact at any width.  ``poa_search`` reads from it,
context by context (``_outcomes``), only the profiles its pass can read,
those with at most one bid over gamma; ``verify_nash`` (welfare too), best
response and the vcg certificate read the deviating agent's utilities over
grids of singletons with the candidates at that agent (``_Scaled.column``).
Only the smoothness certificates and ``poa_search``'s injected deviations,
for profiles that pass every grid check, run the mechanism (``_Scaled.run``);
a deviation whose table is one of the agent's grid tables is not run, as
the grid check has priced it already.
Values become Fractions only in the reports.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from fractions import Fraction
from itertools import chain, compress, cycle, repeat
from math import gcd, prod
from operator import add, ge, getitem, itemgetter, le, sub

from .bundles import (check_item_count, iter_bits, lane_max, lane_width, ms_ones, pack_lanes,
                      unpack_lanes)
from .money import (INFINITY, ZERO, Infinity, _parse_non_negative, format_money,
                    on_one_denominator, parse_money)
from .mechanisms import PaymentRule, _scaled_externality, allocate_declared, run_mechanism
from .valuations import (
    CHECKER_MAX_ITEMS,
    Additive,
    Valuation,
    Xos,
    _marginal_gaps,
    _tabulate,
    _worth_at_empty,
    is_gross_substitutes,
    xos_supporting_clause,
)
from .walrasian import min_walrasian_prices
from .welfare import (
    Allocation,
    BidProfile,
    _backtrack,
    _fold_levels,
    _full_partition,
    _layout,
    _scaled_welfare,
    _table_on,
    scaled_tables,
    welfare_max,
)


MAX_PROFILES = 200_000  # budget of one poa_search, in grid profiles
_PASS = 8192  # profiles per pass of the poa kernel


@cache
def _merges(rule: PaymentRule, m: int, n: int) -> tuple:
    """The poa kernel's merges under ``rule``: english's shapes 1 + 1_j,
    each a layout with getters of a ones-shape level at its indices and of
    its level at each bundle's index; dutch's getters of 1 - 1_j less each
    bundle lacking j; the bundles s of each merge, W's first; and how many
    bundles a lane's record holds."""
    size, full = 1 << m, (1 << m) - 1
    doubled = tuple((*shape, itemgetter(*shape[2]), itemgetter(*shape[1])) for shape in map(
        _layout, (ms_ones(j) + (2,) + ms_ones(m - 1 - j) for j in range(m)))
    ) if rule is PaymentRule.ENGLISH else ()
    # dutch: the bundles lacking j, then the empty one until there are 2^m
    less = [(*(s for s in range(size) if not s >> j & 1), *(0,) * (size >> 1))
            for j in range(m)] if rule is PaymentRule.DUTCH else []
    at_less = tuple(itemgetter(*(full ^ 1 << j ^ s for s in bs)) for j, bs in enumerate(less))
    merges = ((range(size),) * (1 + len(doubled) + (n - 1) * (rule is PaymentRule.VCG))
              + tuple(less))
    spare = n if doubled or less else 0
    return doubled, at_less, merges, spare


class EnumerationBudgetExceeded(RuntimeError):
    """The requested profile enumeration is larger than the stated budget."""


@dataclass(frozen=True)
class Instance:
    """True agent types (the bids live in plain BidProfiles)."""

    m: int
    true_valuations: BidProfile
    name: str = ""

    def __post_init__(self):
        if self.true_valuations.m != self.m:
            raise ValueError("instance m does not match its valuations")

    @property
    def n(self) -> int:
        return self.true_valuations.n

    def optimal(self) -> tuple[Fraction, tuple[int, ...]]:
        return welfare_max(self.true_valuations, ms_ones(self.m))


def _additive_levels(m: int, delta, cap) -> tuple[Fraction, int]:
    """(delta, count) of the per-item weights 0, delta, ..., cap of an
    additive grid, which gives every agent count^m bids; refused when that
    is over MAX_PROFILES, then when m is no item count."""
    step = parse_money(delta)
    top = _parse_non_negative(cap, "grid cap")
    if step <= 0:
        raise ValueError("grid delta must be positive")
    count = top // step + 1
    if count ** m > MAX_PROFILES:
        raise EnumerationBudgetExceeded(
            f"grid delta {format_money(step)}, cap {format_money(top)} and "
            f"m={m} give {count ** m} bids per agent, over {MAX_PROFILES}")
    check_item_count(m)
    return step, count


def count_profiles(sizes) -> int:
    """The profiles of a grid, the product of its per-agent ``sizes``;
    refused over MAX_PROFILES, the budget of one :func:`poa_search`."""
    total = prod(sizes)
    if total > MAX_PROFILES:
        raise EnumerationBudgetExceeded(
            f"{total} grid profiles exceed the budget of {MAX_PROFILES}")
    return total


@dataclass(frozen=True)
class BidGrid:
    """Finite per-agent sets of candidate bids; ``_levels`` is (m, step,
    count) where :meth:`additive` built them, checked once for the grid."""

    per_agent: tuple[tuple[Valuation, ...], ...]
    _levels: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "per_agent",
                           tuple(tuple(g) for g in self.per_agent))
        if not self.per_agent:
            raise ValueError("a bid grid needs at least one agent")
        if any(len(g) == 0 for g in self.per_agent):
            raise ValueError("every agent needs a non-empty bid grid")
        for i, bids in enumerate(() if self._levels else self.per_agent):
            for k, bid in enumerate(bids):
                _worth_at_empty(bid, "grid bid {} of agent {}", k, i)

    @cached_property
    def _groups(self) -> tuple:
        """(bids, D_g, each bid's table on D_g) per distinct tuple of bids:
        ``_tabulate``'s tables on their lcm, or for an additive grid each
        bundle's sum of level indices times the step's numerator, on the
        step's denominator (on 1 when the one level is 0, as ``_tabulate``)."""
        if self._levels is None:
            return tuple((g, *on_one_denominator(map(_tabulate, g)))
                         for g in {id(g): g for g in self.per_agent}.values())
        m, step, count = self._levels
        adds = [k * step.numerator for k in range(count)]
        columns = [[0] * count ** m]  # each bundle's entry of every bid, by bitmask
        for j in range(m):  # item j's level of every bid, item 0's slowest
            item = [a for a in adds for _ in range(count ** (m - 1 - j))] * count ** j
            columns += [list(map(add, c, item)) for c in columns]
        return ((self.per_agent[0], step.denominator if count > 1 else 1, [*zip(*columns)]),)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.per_agent)

    @classmethod
    def additive(cls, m: int, n: int, delta, cap) -> "BidGrid":
        """All additive bids with per-item weights 0, delta, ..., cap; refused
        before any is built when one agent would get over MAX_PROFILES."""
        step, count = _additive_levels(m, delta, cap)
        levels = [k * step for k in range(count)]
        bids = tuple(map(Additive._trusted, itertools.product(levels, repeat=m)))
        return cls((bids,) * n, (m, step, count))

    @staticmethod
    def additive_sizes(m: int, n: int, delta, cap) -> tuple[int, ...]:
        """``sizes()`` of ``additive(m, n, delta, cap)``, without a bid built."""
        return (_additive_levels(m, delta, cap)[1] ** m,) * n

    @classmethod
    def default_for(cls, instance: Instance) -> "BidGrid":
        """Step = the largest rational that divides every instance value
        (floored at 1/8), cap = the largest single-item value."""
        denom, tables = scaled_tables(instance.true_valuations)
        step = gcd(*(x for tab in tables for x in tab))
        top = max(tab[1 << j] for tab in tables for j in range(instance.m))
        delta = max(Fraction(step, denom), Fraction(1, 8))
        return cls.additive(instance.m, instance.n, delta, Fraction(top, denom))


# -- exposure ------------------------------------------------------------------

def exposure_factor_bound(v: Valuation, b: Valuation) -> Fraction | Infinity:
    """Upper bound on the exposure factor of bidding ``b`` with type ``v``.

    max over bundles S of b(S)/v(S) - 1, clamped at zero; ``INFINITY`` when
    b bids positively on a worthless bundle.  A declared-welfare maximizer
    never charges above the bid, so with a bound of g the agent never pays
    more than (1+g) times a positive true value, whatever the others do.
    """
    if v.m != b.m:
        raise ValueError("type and bid are over different item counts")
    _, (vt, bt) = on_one_denominator((_tabulate(v), _tabulate(b)))
    top = bottom = 1  # the ratio 1, so the bound is clamped at zero
    for x, y in zip(vt[1:], bt[1:]):  # each nonempty bundle's type and bid
        if x == 0 < y:
            return INFINITY
        if x < 0:  # the same ratio y/x, over a positive denominator
            x, y = -x, -y
        if y * bottom > top * x:
            top, bottom = y, x
    return Fraction(top, bottom) - 1


# -- grid Nash ----------------------------------------------------------------

@dataclass(frozen=True)
class AgentDeviation:
    agent: int
    current_utility: Fraction
    best_utility: Fraction
    best_bid: Valuation
    gain: Fraction


@dataclass(frozen=True)
class NashReport:
    is_nash: bool
    eps_dev: Fraction
    deviations: tuple[AgentDeviation, ...]
    welfare: Fraction
    optimal_welfare: Fraction
    ratio: Fraction | Infinity  # INFINITY when the equilibrium welfare is zero


def _ratio(opt: Fraction, welfare: Fraction):
    if welfare == 0:
        return Fraction(1) if opt == 0 else INFINITY
    return opt / welfare


@dataclass(frozen=True)
class _Scaled:
    """The bids and types one analysis call reads, as (bid, D * table) pairs
    over one common denominator D, scaled once.

    ``grid[i]`` holds agent i's grid bids, ``current`` the profile under
    test, ``truthful`` and ``half`` each agent's truthful and half-truthful
    bid (``truthful`` doubles as the types); ``eps`` is D times ``eps_dev``
    and ``top`` the largest magnitude of an entry of any of them.  A profile
    is a tuple of one pair per agent.  ``of`` refuses a grid or profile that
    does not fit the instance.
    """

    rule: PaymentRule
    m: int
    denom: int
    grid: tuple
    current: tuple
    truthful: tuple
    half: tuple
    eps: int
    top: int

    @classmethod
    def of(cls, instance: Instance, rule: PaymentRule, grid: BidGrid | None = None,
           current: BidProfile | None = None, eps_dev: Fraction = ZERO) -> "_Scaled":
        agents = () if grid is None else grid.per_agent
        for what, per_agent in (("grid", None if grid is None else agents),
                                ("profile", current and [(b,) for b in current.bids])):
            if per_agent is not None and len(per_agent) != instance.n:
                raise ValueError(f"the {what} has {len(per_agent)} agents, "
                                 f"the instance {instance.n}")
            if what == "grid" and agents and grid._levels:  # all over the levels' m
                per_agent = [agents[0][:1]]
            for i, k, bid in ((i, k, b) for i, bids in enumerate(per_agent or ())
                              for k, b in enumerate(bids) if b.m != instance.m):
                raise ValueError(f"{what} bid {k} of agent {i} is over {bid.m} "
                                 f"items, the instance has {instance.m}")
        types, size = instance.true_valuations.bids, 1 << instance.m
        groups = [*(() if grid is None else grid._groups), *(
            (g, *on_one_denominator(map(_tabulate, g)))
            for g in (current.bids if current else (), types))]
        # A half-truthful table is the truthful one over twice its denominator.
        _, d, tabs = groups[-1]
        groups.append((tuple(v.scale(Fraction(1, 2)) for v in types), 2 * d, tabs))
        # Each group's tables, one after another, make one row; eps is the last.
        denom, rows = on_one_denominator(
            [(d, tuple(chain.from_iterable(tabs))) for _, d, tabs in groups]
            + [(eps_dev.denominator, (eps_dev.numerator,))])
        pairs = [tuple(zip(g, map(_table_on, g, zip(*[iter(r)] * size), repeat(denom))))
                 for (g, _, _), r in zip(groups, rows)]
        built = {id(g): p for (g, _, _), p in zip(groups[:-3], pairs)}
        return cls(PaymentRule(rule), instance.m, denom, tuple(built[id(g)] for g in agents),
                   *pairs[-3:], rows[-1][0], max(map(abs, chain.from_iterable(rows))))

    def seeded(self, pairs: tuple) -> BidProfile:
        """The profile of ``pairs`` (bids :meth:`of` checked), seeded with their tables."""
        bids, tables = zip(*pairs)
        return BidProfile._seeded(self.m, bids, self.denom, tables)

    def run(self, profile: BidProfile, rule: PaymentRule | None = None) -> tuple:
        """The ``MechanismOutcome`` of a :meth:`seeded` profile under ``rule``
        (the call's by default) and D * every utility."""
        out = run_mechanism(rule or self.rule, profile)
        values = [t[x] for (_, t), x in zip(self.truthful, out.allocation.bundles)]
        return out, tuple(map(sub, values, out._scaled_payments))

    def column(self, pairs: tuple, i: int, candidates) -> tuple[list, list]:
        """D times the true welfare and agent i's utility with each candidate
        pair in place of agent i's pair in ``pairs``, in candidate order: the
        kernel on the grid of singletons with ``candidates`` at i."""
        grid = (*zip(pairs[:i]), tuple(candidates), *zip(pairs[i + 1:]))
        welfare, utils = _grid_outcomes(replace(self, grid=grid), list(
            itertools.product(*(range(len(g)) for g in grid[1:]))))
        return welfare, utils[i]


def verify_nash(instance: Instance, rule: PaymentRule, profile: BidProfile,
                grid: BidGrid, eps_dev=ZERO) -> NashReport:
    """Exact best-deviation check over the grid plus injected deviations.

    The candidate set for agent i is grid_i together with the current bid,
    the truthful bid and the half-truthful bid.  ``is_nash`` means no
    candidate improves any agent's utility by more than ``eps_dev``.
    """
    eps_dev = _parse_non_negative(eps_dev, "deviation tolerance")
    scaled = _Scaled.of(instance, rule, grid, profile)
    denom, current = scaled.denom, scaled.current
    rows = []
    for i in range(instance.n):
        cands = scaled.grid[i] + (current[i], scaled.truthful[i], scaled.half[i])
        at = len(scaled.grid[i])  # the current profile's candidate
        welfares, utils = scaled.column(current, i, cands)
        welfare, here = welfares[at], utils[at]
        best = max(utils)  # >= here; a repeated bid ties at its first copy
        best_bid = cands[utils.index(best)][0] if best > here else current[i][0]
        rows.append(AgentDeviation(i, Fraction(here, denom), Fraction(best, denom),
                                   best_bid, Fraction(best - here, denom)))
    opt, _ = instance.optimal()
    welfare = Fraction(welfare, denom)
    return NashReport(is_nash=all(r.gain <= eps_dev for r in rows),
                      eps_dev=eps_dev, deviations=tuple(rows), welfare=welfare,
                      optimal_welfare=opt, ratio=_ratio(opt, welfare))


# -- efficient equilibrium construction ----------------------------------------

def _smallest_positive_marginal(profile: BidProfile) -> Fraction:
    """The smallest positive marginal value of any bid, 0 when none is."""
    denom, tables = scaled_tables(profile)
    gaps = (gap for tab in tables for gap in _marginal_gaps(tab) if gap > 0)
    return Fraction(min(gaps, default=0), denom)


def construct_efficient_profile(instance: Instance) -> BidProfile:
    """Additive bids supporting the efficient outcome at minimum Walrasian
    prices: each agent bids p_j on each item it wins in the optimal
    allocation, nothing elsewhere.

    Zero-priced items an agent has positive marginal value for get a bump
    of (smallest positive marginal in the instance)/(4m) so the allocation
    survives tie-breaking; the bump stays strictly below true marginals, so
    bids never exceed true values on any bundle.  Agent 0 needs no bumps;
    unclaimed zero-priced items fall to it through the leftover rule.

    Requires every true type to pass the gross-substitutes check (tabulated;
    refused beyond m = CHECKER_MAX_ITEMS).
    """
    if instance.m > CHECKER_MAX_ITEMS:
        raise ValueError(
            "the tabulated gross-substitutes precondition is limited to "
            f"m <= CHECKER_MAX_ITEMS = {CHECKER_MAX_ITEMS}, got m = {instance.m}")
    profile = instance.true_valuations
    for i, v in enumerate(profile.bids):
        if not is_gross_substitutes(v):
            raise ValueError(f"true valuation {i} is not gross substitutes")
    _, optimal_bundles = welfare_max(profile, ms_ones(instance.m))
    prices = min_walrasian_prices(profile)
    bump = _smallest_positive_marginal(profile) / (4 * instance.m)
    _, tables = scaled_tables(profile)
    bids = []
    for i, (tab, mine) in enumerate(zip(tables, optimal_bundles)):
        weights = [ZERO] * instance.m
        for j in iter_bits(mine):
            if prices[j] > 0:
                weights[j] = prices[j]
            elif i > 0 and tab[mine] > tab[mine ^ 1 << j]:
                weights[j] = bump
        bids.append(Additive(tuple(weights)))
    return BidProfile(instance.m, tuple(bids))


# -- proof-inequality certificates ----------------------------------------------

@dataclass(frozen=True)
class SmoothnessRow:
    agent: int
    deviation_utility: Fraction
    half_optimal_share: Fraction
    blocking_term: Fraction
    per_agent_ok: bool


@dataclass(frozen=True)
class SmoothnessReport:
    rule: PaymentRule
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    holds: bool
    rows: tuple[SmoothnessRow, ...]
    declared_on_allocation: Fraction
    optimal_welfare: Fraction
    dwm_ok: bool
    per_agent_ok: bool


def smoothness_certificates(instance: Instance, bids: BidProfile,
                            rules=tuple(PaymentRule)) -> tuple[SmoothnessReport, ...]:
    """Certify the half-truthful deviation bound under each of ``rules``.

    Each agent deviates to half its true valuation; the certified inequality
    is  sum_i u_i(v_i/2, b_-i)  >=  OPT/2 - sum_i b_i(x_i(b)).  The per-agent
    rows additionally compare u_i against  v_i(x*_i)/2 - blocking_i, which is
    guaranteed for gross-substitutes bids.  ``dwm_ok`` states that no run,
    the deviations included, charges an agent more than its bid.  The rules
    share their n + 1 seeded profiles and the blocking terms.
    """
    scaled = _Scaled.of(instance, rules[0], current=bids)
    denom, current = scaled.denom, scaled.current
    pairs = [current] + [current[:i] + (scaled.half[i],) + current[i + 1:]
                         for i in range(instance.n)]
    profiles = [scaled.seeded(p) for p in pairs]
    opt, opt_bundles = instance.optimal()
    values = [t[x] for (_, t), x in zip(scaled.truthful, opt_bundles)]  # D * OPT
    blocking = [_scaled_externality(profiles[0], i, x) for i, x in enumerate(opt_bundles)]
    reports = []
    for rule in rules:
        runs = [scaled.run(p, rule) for p in profiles]
        dwm_ok = all(pay <= t[x] for p, (out, _) in zip(pairs, runs)
                     for (_, t), x, pay in zip(p, out.allocation.bundles,
                                               out._scaled_payments))
        declared = sum(t[x] for (_, t), x in zip(current, runs[0][0].allocation.bundles))
        utils = [run[1][i] for i, run in enumerate(runs[1:])]
        rows = tuple(SmoothnessRow(i, Fraction(u, denom), Fraction(v, 2 * denom),
                                   Fraction(b, denom), 2 * (u + b) >= v)
                     for i, (u, v, b) in enumerate(zip(utils, values, blocking)))
        slack = 2 * (sum(utils) + declared) - sum(values)  # on 2 * D
        reports.append(SmoothnessReport(
            runs[0][0].rule, lhs=Fraction(sum(utils), denom),
            rhs=Fraction(sum(values) - 2 * declared, 2 * denom),
            slack=Fraction(slack, 2 * denom), holds=slack >= 0, rows=rows,
            declared_on_allocation=Fraction(declared, denom), optimal_welfare=opt,
            dwm_ok=dwm_ok, per_agent_ok=all(r.per_agent_ok for r in rows)))
    return tuple(reports)


def smoothness_certificate(instance: Instance, bids: BidProfile,
                           rule: PaymentRule) -> SmoothnessReport:
    """The :func:`smoothness_certificates` report of one rule."""
    return smoothness_certificates(instance, bids, (rule,))[0]


@dataclass(frozen=True)
class VcgDeviationRow:
    agent: int
    deviation_utility: Fraction
    lower_bound: Fraction
    ok: bool


@dataclass(frozen=True)
class VcgDeviationReport:
    rows: tuple[VcgDeviationRow, ...]
    lhs_total: Fraction
    rhs_total: Fraction
    holds: bool
    optimal_welfare: Fraction
    equilibrium_welfare: Fraction
    ratio: Fraction | Infinity


def vcg_deviation_certificate(instance: Instance,
                              bids: BidProfile) -> VcgDeviationReport:
    """Certify the truthful-deviation bound under the externality rule:
    u_i(v_i, b_-i) >= v_i(x*_i) - blocking_i for every agent."""
    opt, opt_bundles = instance.optimal()
    scaled = _Scaled.of(instance, PaymentRule.VCG, current=bids)
    denom, current = scaled.denom, scaled.current
    base = scaled.seeded(current)  # read by the allocation and the externalities
    welfare = sum(t[x] for (_, t), x in zip(scaled.truthful, allocate_declared(base).bundles))
    rows = []
    for i, (v, x) in enumerate(zip(scaled.truthful, opt_bundles)):
        u = Fraction(scaled.column(current, i, (v,))[1][0], denom)
        bound = Fraction(v[1][x] - _scaled_externality(base, i, x), denom)
        rows.append(VcgDeviationRow(i, u, bound, u >= bound))
    welfare = Fraction(welfare, denom)
    return VcgDeviationReport(
        rows=tuple(rows), lhs_total=sum((r.deviation_utility for r in rows), ZERO),
        rhs_total=sum((r.lower_bound for r in rows), ZERO),
        holds=all(r.ok for r in rows), optimal_welfare=opt,
        equilibrium_welfare=welfare, ratio=_ratio(opt, welfare))


@dataclass(frozen=True)
class MarginalSumReport:
    total: Fraction
    single_bound: Fraction
    double_bound: Fraction
    factor1_ok: bool
    factor2_ok: bool
    _bids: BidProfile = field(compare=False, repr=False)

    @cached_property
    def classification(self) -> str:
        """The bids' class, found on first read: the exchange test runs only
        for a reader that asks."""
        bids = self._bids
        if bids.m <= CHECKER_MAX_ITEMS and all(map(is_gross_substitutes, bids.bids)):
            return "gross_substitutes"
        if all(b._slots is not None for b in bids.bids):  # structured kinds are XOS
            return "xos"
        return "unknown"


def marginal_sum_bound(bids: BidProfile, partition: Allocation) -> MarginalSumReport:
    """Sum of leave-one-out marginals against the full declared welfare.

    For gross-substitutes bids the sum never exceeds W(1); for XOS bids it
    never exceeds 2 W(1).  The report states both comparisons, made on D *
    each marginal and D * W(1) (``scaled_tables``), and classifies the
    profile when its ``classification`` is read.
    """
    if partition.m != bids.m or len(partition.bundles) != bids.n:
        raise ValueError("partition does not match the bid profile")
    denom, _ = scaled_tables(bids)
    total = sum(_scaled_externality(bids, i, x)
                for i, x in enumerate(partition.bundles) if x)
    (w_full,) = _scaled_welfare(bids, ms_ones(bids.m), ((1 << bids.m) - 1,))
    return MarginalSumReport(
        total=Fraction(total, denom), single_bound=Fraction(w_full, denom),
        double_bound=Fraction(2 * w_full, denom),
        factor1_ok=total <= w_full, factor2_ok=total <= 2 * w_full, _bids=bids)


def half_clause_deviation(v: Xos, target: int) -> Additive:
    """Half the clause supporting ``target``: an additive bid b with
    b <= v/2 everywhere and equality on the target bundle."""
    clause = xos_supporting_clause(v, target)
    return Additive(tuple(w / 2 for w in clause))


# -- exhaustive ratio search ----------------------------------------------------

@dataclass(frozen=True)
class PoaReport:
    rule: PaymentRule
    gamma: Fraction
    worst_ratio: Fraction | Infinity  # 1 when no equilibrium was found
    witness: BidProfile | None
    equilibrium_count: int
    profiles_checked: int


def _grid_outcomes(scaled: _Scaled, contexts) -> tuple[list, list[list]]:
    """D times the true welfare, and D times each agent's utility, of the
    grid profiles in the opponent contexts ``contexts`` (tuples of grid
    indices of agents 1..n-1): a welfare list and one utility list per
    agent, context by context, agent 0's grid index fastest.

    Each context folds the opponents once and gathers what each bundle s of
    agent 0 leaves them.  All else runs in passes over ``_PASS`` profiles or
    so, one profile per lane of one int (``bundles.pack_lanes``), each wide
    enough that every step is exact.  A merge is the best over s of agent
    0's entry s plus a gather's.  Every merge of a pass runs at once: one
    block of lanes per merge and bundle s holds agent 0's column of entries
    s, repeated per context, plus each context's entry s, repeated per bid,
    packed above the m bits of full - s; halving the blocks by the guard-bit
    max (``bundles.lane_max``) leaves one per merge.  So W's block also holds
    the state left to the others and the smallest best bundle
    (``_backtrack``'s tie rule).  The others' share of each state held then
    fills the lanes that hold it, and the payments are lane sums.
    """
    rule, n, m = scaled.rule, len(scaled.grid), scaled.m
    size, ssum, clamps = _layout(ms_ones(m))
    full, zeros = size - 1, (0,) * size
    own = [t for _, t in scaled.grid[0]]
    count = len(own)
    # Agent 0's entries, lifted by ``lift`` so that none is negative, are
    # the only signed terms of a merge.  No merge, welfare, price or utility
    # exceeds n times the largest entry magnitude plus the lift; each lane
    # holds that times 2^m below its guard bit.
    lift = max(0, -min(map(min, own)))
    width = lane_width((n * scaled.top + lift) << m | full)
    wide = width // 8
    # agent 0's lifted entries s of every bid, above the m bits of full - s
    packed = [pack_lanes([(x + lift) << m | full - s for x in column], width)
              for s, column in enumerate(zip(*own))]
    doubled, at_less, merges, spare = _merges(rule, m, n)
    last = max(n - 1, 1)  # with no opponent, the zero level n
    truthful = [t for _, t in scaled.truthful]
    # paybid: agent 0's lifted bids, one table after another
    bids = [x + lift for t in own for x in t] if rule is PaymentRule.PAY_YOUR_BID else []
    step = -(-_PASS // count)  # contexts per pass
    without, outcomes = {}, [[] for _ in range(n + 1)]  # welfare, each utility
    for lo in range(0, len(contexts), step):
        runs, gathers = [], [[] for _ in merges]  # each merge's entries, in its order
        for idxs in contexts[lo:lo + step]:
            tables = (None,) + tuple(scaled.grid[i][k][1] for i, k in enumerate(idxs, 1))
            levels = [None] * n + [zeros]
            _fold_levels(tables, levels, 1, size, ssum, clamps)
            runs.append((tables, levels))
            gathers[0].append(levels[1][::-1])  # entry s: state full ^ s
            for (dsize, dssum, dclamps, read, low), gathered in zip(doubled, gathers[1:]):
                dlevels = [None] * last + [read(levels[last])]
                _fold_levels(tables, dlevels, 1, dsize, dssum, dclamps)
                gathered.append(low(dlevels[1][::-1]))  # entry s: top state less s
            for get, gathered in zip(at_less, gathers[1:]):
                gathered.append(get(levels[1]))
            # vcg: what agent 0 leaves the others but i
            for i, cat in enumerate(gathers[1:] if rule is PaymentRule.VCG else (), 1):
                key = (i,) + idxs[:i - 1] + idxs[i:]
                if key not in without:  # agents 1..i-1 on level i+1, reversed
                    level = [None] * i + [levels[i + 1]]
                    _fold_levels(tables[:i], level, 1, size, ssum, clamps)
                    without[key] = level[1][::-1]
                cat.append(without[key])
        k = len(runs) * count  # the pass's profiles, one lane each
        every = len(merges) * k  # a block of k lanes per merge
        # One block per bundle s and merge, W's first: agent 0's column of
        # entries s, once per context, plus each context's entry s, once per bid.
        columns = b"".join([packed[bs[s]] * len(runs) for s in range(size) for bs in merges])
        by_bundle = zip(*[zip(*entries) for entries in gathers])
        entries = pack_lanes(chain.from_iterable(chain.from_iterable(by_bundle)), width, count)
        best = int.from_bytes(columns, "little") + (int.from_bytes(entries, "little") << m)
        ones = int.from_bytes(pack_lanes((1,), width) * (size * every // 2), "little")
        heads = ones << width - 1  # the guard bits alone
        for blocks in (every << b for b in reversed(range(m))):  # the max of the two halves
            low = (1 << blocks * width) - 1
            best = lane_max(best >> blocks * width, best & low, heads & low, width)
        block = (1 << k * width) - 1
        held = best & (ones & (1 << every * width) - 1) * full  # W's block: the states left
        best = (best ^ held) >> m
        declared, *merged = [best >> b * k * width & block for b in range(len(merges))]
        states, records, taken, shares = unpack_lanes(held & block, k, width), [], [], []
        by_context = list(zip(*[iter(states)] * count))  # each context's lanes
        for (tables, levels), mine in zip(runs, by_context):
            share, opponents, rest = {}, tables[1:], levels[1:]
            for r in set(mine):  # the others' share of state r
                others = _backtrack(opponents, rest, r, rest[0][r], ssum, clamps)
                bundles = _full_partition(m, (0,) + others)
                values = list(map(getitem, truthful, bundles))
                welfare = sum(values)
                if rule is PaymentRule.VCG:  # less what does not move with agent 0's bid
                    values[0] -= rest[0][full] - rest[0][full ^ bundles[0]]
                if not spare:  # vcg, paybid: each other agent's bid on its bundle
                    values[1:] = map(sub, values[1:], map(getitem, opponents, others))
                if rule is PaymentRule.PAY_YOUR_BID:  # what agent 0's lifted bid is taken from
                    values[0] += lift
                share[r] = len(records)
                records.append((welfare, *values, *bundles[:spare]))
                taken.append(bundles[0])
            shares.append(share.__getitem__)
        # Each lane's record, its context's share of the state it holds, is
        # welfare, each agent's utility less the part of its payment that
        # moves with agent 0's bid, and (english, dutch) each agent's bundle.
        picks = list(chain.from_iterable(map(map, shares, by_context)))
        fields = len(records[0])
        span = fields * wide
        table = pack_lanes(chain.from_iterable(records), width)
        spans = [table[i:i + span] for i in range(0, len(table), span)]  # a record's lanes
        stacked = b"".join(map(spans.__getitem__, picks))
        ones, guards, picked = ones & block, heads & block, []
        for f in range(fields):  # field f of every lane's record, byte by byte
            field = bytearray(k * wide)
            for i in range(wide):
                field[i::wide] = stacked[f * wide + i::span]
            picked.append(int.from_bytes(field, "little"))
        welfare, *utils = picked[:n + 1]
        utils = [u ^ guards for u in utils]  # each plus half
        if rule is PaymentRule.PAY_YOUR_BID:  # agent 0 pays its bid on its bundle
            at = map(add, cycle(range(0, count * size, size)), map(taken.__getitem__, picks))
            utils[0] -= int.from_bytes(pack_lanes(map(bids.__getitem__, at), width), "little")
        elif rule is PaymentRule.VCG:  # W_-i(1) - W_-i(1 - x_i), the latter W - b_i(x_i)
            utils[1:] = [u - w + declared for u, w in zip(utils[1:], merged)]
        elif spare:  # D times the lowest (english) or the highest prices, per bundle
            prices = [w - declared if doubled else declared - w for w in merged]
            for i, x in enumerate(picked[n + 1:]):
                for j, price in enumerate(prices):  # where j is in x, all of the lane
                    bit = x >> j & ones
                    utils[i] -= price & (bit << width) - bit
        for column, x in zip(outcomes, (welfare, *(u ^ guards for u in utils))):
            column += unpack_lanes(x, k, width)
    return outcomes[0], outcomes[1:]


def _outcomes(scaled: _Scaled, passing, jobs: int):
    """The contexts :func:`poa_search`'s pass reads, each once, as (context,
    the opponents off their ``passing`` lists of grid indices, D times the
    true welfare, D times each agent's utility) over agent 0's bids there:
    its whole grid in a context with no opponent off, only its passing bids
    where one is, and no context where two are; none when an agent has no
    passing bid.  The contexts run in ``jobs`` chunks of
    :func:`_grid_outcomes` calls, in one pool of at most ``jobs`` workers,
    one per chunk and per CPU, when that is more than one."""
    if not all(passing):
        return
    sets, classes = [set(p) for p in passing[1:]], ([], [])
    for ctx in itertools.product(*(range(len(g)) for g in scaled.grid[1:])):
        off = [i for i, k in enumerate(ctx, 1) if k not in sets[i - 1]]
        if len(off) < 2:
            classes[len(off)].append((ctx, off))
    own = replace(scaled, grid=(tuple(map(scaled.grid[0].__getitem__, passing[0])),
                                *scaled.grid[1:]))
    chunk = -(-sum(map(len, classes)) // jobs)
    grids, spots = zip(*((grid, cs[c:c + chunk]) for grid, cs in zip((scaled, own), classes)
                         for c in range(0, len(cs), chunk)))
    contexts = [[ctx for ctx, _ in cs] for cs in spots]
    workers = min(len(spots), jobs, os.cpu_count() or 1)
    if workers < 2:
        blocks = map(_grid_outcomes, grids, contexts)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_grid_outcomes, grids, contexts))
    for grid, cs, (welfare, utils) in zip(grids, spots, blocks):
        count = len(grid.grid[0])
        for lo, (ctx, off) in zip(range(0, len(welfare), count), cs):
            yield ctx, off, welfare[lo:lo + count], [u[lo:lo + count] for u in utils]


def poa_search(instance: Instance, rule: PaymentRule, grid: BidGrid, gamma,
               *, eps_dev=ZERO, jobs: int = 1) -> PoaReport:
    """Enumerate every grid profile; keep the ones that are grid-Nash (with
    truthful and half-truthful deviations injected) and whose bids all have
    exposure bound at most gamma; report the worst optimal-to-equilibrium
    welfare ratio and a witness.

    Only the profiles the pass can read, those with at most one bid over
    gamma, are priced (:func:`_outcomes`, ``jobs`` processes), and the pass
    reads each priced context once.  Agent 0's best grid utility in a
    context is the max of its utilities there; agent i's, at each passing
    bid of agent 0, is the element-wise max of its utilities over the
    contexts that differ only in agent i's bid.  Each context whose bids all
    pass is then filtered against both, and the profiles left against the
    injected deviations, agent by agent, run once per agent and context.  A
    deviation whose table on D is one of the agent's grid tables is not run:
    the agent's best grid utility covers it.
    Ties on the worst ratio resolve to the first profile in grid order (last
    agent fastest), so every ``jobs`` reduces identically.
    """
    gamma = _parse_non_negative(gamma, "gamma")
    eps_dev = _parse_non_negative(eps_dev, "deviation tolerance")
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an int of at least 1, got {jobs!r}")
    total = count_profiles(grid.sizes())
    scaled = _Scaled.of(instance, rule, grid, eps_dev=eps_dev)
    # exposure_factor_bound(v, b) <= gamma = num/den iff, on every bundle,
    # b * den <= (den + num) * v where v >= 0 and >= it where v < 0, so a
    # positive bid where v is 0 fails at any gamma; one map per bundle's column.
    num, den = gamma.numerator, gamma.denominator
    passing = []
    for (_, vt), bids in zip(scaled.truthful, scaled.grid):
        tests = [map(ge if x >= 0 else le, repeat((den + num) * x), map(den.__mul__, column))
                 for x, column in zip(vt, zip(*(t for _, t in bids)))]
        passing.append([*compress(range(len(bids)), map(all, zip(*tests)))])
    own = passing[0]
    marks = [*map(set(own).__contains__, range(len(grid.per_agent[0])))]
    columns, rows = {}, []  # (i, context less i) -> agent i's utility rows
    for ctx, off, welfare, utils in _outcomes(scaled, passing, jobs):
        if not off:  # at agent 0's passing bids, with its best grid utility
            top, utils = max(utils[0]), [[*compress(u, marks)] for u in utils]
            rows.append((ctx, top - scaled.eps, [*compress(welfare, marks)], utils))
        for i in off or range(1, instance.n):
            columns.setdefault((i, ctx[:i - 1] + ctx[i:]), []).append(utils[i])
    # Less eps, agent i's best grid utility at each passing bid of agent 0.
    floors = {key: [b - scaled.eps for b in (map(max, *cs) if len(cs) > 1 else cs[0])]
              for key, cs in columns.items()}
    kept = []  # (welfare, grid indices, utilities) of each profile that passes
    for ctx, floor, welfare, utils in rows:
        checks = [map(ge, utils[0], repeat(floor)), *(
            map(ge, u, floors[i, ctx[:i - 1] + ctx[i:]]) for i, u in enumerate(utils[1:], 1))]
        kept += [(welfare[p], (own[p], *ctx), [u[p] for u in utils])
                 for p in compress(range(len(own)), map(all, zip(*checks)))]
    for i in range(instance.n):
        # A deviation with one of agent i's grid tables is in its floor already.
        on_grid = {t for _, t in scaled.grid[i]}
        devs = [dev for dev in (scaled.truthful[i], scaled.half[i]) if dev[1] not in on_grid]
        if not devs:
            continue
        # Run, not read from the kernel, while bench/test_bench.py's
        # test_counts_repeat_at_a_fixed_seed asks poa for runs.
        best, kept, profiles = {}, [], kept
        for profile in profiles:
            idxs = profile[1]
            key = idxs[:i] + idxs[i + 1:]
            if key not in best:
                pairs = list(map(getitem, scaled.grid, idxs))
                best[key] = max(scaled.run(scaled.seeded((*pairs[:i], dev, *pairs[i + 1:])))[1][i]
                                for dev in devs) - scaled.eps
            if profile[2][i] >= best[key]:
                kept.append(profile)
    # The optimum is fixed, so the worst ratio is at the least equilibrium
    # welfare (true welfare never exceeds the optimum), the ties at the
    # first profile in grid order.
    witness, ratio = None, Fraction(1)
    if kept:
        welfare, idxs, _ = min(kept)  # no two share grid indices
        witness = BidProfile(instance.m, tuple(map(getitem, grid.per_agent, idxs)))
        opt, _ = instance.optimal()
        ratio = _ratio(opt, Fraction(welfare, scaled.denom))
    return PoaReport(rule=scaled.rule, gamma=gamma, worst_ratio=ratio,
                     witness=witness, equilibrium_count=len(kept),
                     profiles_checked=total)


# -- best-response dynamics ------------------------------------------------------

@dataclass(frozen=True)
class BestResponseStep:
    round: int
    agent: int
    bid: Valuation
    gain: Fraction


@dataclass(frozen=True)
class BestResponseTrace:
    status: str  # converged | cycle | budget
    profile: BidProfile
    steps: tuple[BestResponseStep, ...]
    rounds: int


def best_response_dynamics(instance: Instance, rule: PaymentRule,
                           grid: BidGrid, start: BidProfile,
                           max_iter: int = 100) -> BestResponseTrace:
    """Round-robin exact best responses over the grid.

    An agent moves only on a strict utility improvement, to the lowest-index
    maximizer; a full silent round is a grid-Nash fixpoint.  Revisiting a
    round-boundary profile reports a cycle.
    """
    if type(max_iter) is not int or max_iter < 1:
        raise ValueError(f"max_iter must be an int of at least 1, got {max_iter!r}")
    scaled = _Scaled.of(instance, rule, grid, start)
    for i, (bid, bids) in enumerate(zip(start.bids, grid.per_agent)):
        if bid not in bids:
            raise ValueError(f"start bid of agent {i} is not on its grid")
    current = [bids.index(bid) for bid, bids in zip(start.bids, grid.per_agent)]
    steps: list[BestResponseStep] = []
    seen = {tuple(current)}
    status = "budget"
    for rounds in range(1, max_iter + 1):
        moved = False
        for i in range(instance.n):
            _, utils = scaled.column(tuple(map(getitem, scaled.grid, current)), i,
                                     scaled.grid[i])
            here = utils[current[i]]
            best = max(utils)
            if best > here:
                current[i] = utils.index(best)
                moved = True
                steps.append(BestResponseStep(rounds, i, grid.per_agent[i][current[i]],
                                              Fraction(best - here, scaled.denom)))
        if not moved:
            status = "converged"
            break
        state = tuple(current)
        if state in seen:
            status = "cycle"
            break
        seen.add(state)
    final = BidProfile(instance.m, tuple(
        grid.per_agent[i][k] for i, k in enumerate(current)))
    return BestResponseTrace(status, final, tuple(steps), rounds)
