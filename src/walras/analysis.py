"""Equilibrium analysis: exposure, grid Nash checks, efficient-profile
construction, proof-inequality certificates, and worst-case-ratio search.

Nash over an unbounded bid space is not decidable here, so every "Nash"
statement is grid-relative: deviations range over a finite per-agent grid,
always extended with the agent's truthful bid and half-truthful bid (the two
deviations the welfare-loss arguments rely on).  All comparisons are exact;
the default deviation tolerance is zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf, prod

from .bundles import iter_bits, ms_ones
from .money import ZERO, granularity, parse_money, scale_rows
from .mechanisms import PaymentRule, _scaled_externality, run_mechanism, utility
from .valuations import (
    Additive,
    Oxs,
    UnitDemand,
    Valuation,
    Xos,
    is_gross_substitutes,
    xos_supporting_clause,
)
from .welfare import Allocation, BidProfile, scaled_tables, welfare_max, welfare_value


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


@dataclass(frozen=True)
class BidGrid:
    """Finite per-agent sets of candidate bids."""

    per_agent: tuple[tuple[Valuation, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "per_agent",
                           tuple(tuple(g) for g in self.per_agent))
        if any(len(g) == 0 for g in self.per_agent):
            raise ValueError("every agent needs a non-empty bid grid")

    @property
    def n(self) -> int:
        return len(self.per_agent)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.per_agent)

    def with_extra(self, agent: int, bids) -> "BidGrid":
        extended = list(self.per_agent)
        extra = tuple(b for b in bids if b not in extended[agent])
        extended[agent] = extended[agent] + extra
        return BidGrid(tuple(extended))

    @classmethod
    def additive(cls, m: int, n: int, delta, cap) -> "BidGrid":
        """All additive bids with per-item weights 0, delta, ..., cap."""
        step = parse_money(delta)
        top = parse_money(cap)
        if step <= 0:
            raise ValueError("grid delta must be positive")
        levels = []
        w = ZERO
        while w <= top:
            levels.append(w)
            w += step
        bids = tuple(Additive(weights)
                     for weights in itertools.product(levels, repeat=m))
        return cls((bids,) * n)

    @classmethod
    def default_for(cls, instance: Instance) -> "BidGrid":
        """Step = gcd-like granularity of the instance values (floored at
        1/8), cap = the largest single-item value."""
        singles = [bid.value(1 << j)
                   for bid in instance.true_valuations.bids
                   for j in range(instance.m)]
        values = [v for bid in instance.true_valuations.bids
                  for v in bid.table()]
        delta = granularity(values)
        cap = max(singles, default=ZERO)
        if cap == 0:
            return cls(((Additive((ZERO,) * instance.m),),) * instance.n)
        return cls.additive(instance.m, instance.n, delta, cap)


# -- exposure ------------------------------------------------------------------

def exposure_factor_bound(v: Valuation, b: Valuation):
    """Upper bound on the exposure factor of bidding ``b`` with type ``v``.

    max over bundles S of b(S)/v(S) - 1, clamped at zero; infinite when b
    bids positively on a worthless bundle.  Because a declared-welfare
    maximizer never charges above the bid, a bound of g here guarantees the
    agent never pays more than (1+g) times true value, whatever the others do.
    """
    if v.m != b.m:
        raise ValueError("type and bid are over different item counts")
    vt, bt = v.table(), b.table()
    worst = ZERO
    for mask in range(1, 1 << v.m):
        if vt[mask] == 0:
            if bt[mask] > 0:
                return inf
            continue
        ratio = bt[mask] / vt[mask] - 1
        if ratio > worst:
            worst = ratio
    return worst


def _exposure_at_most(bound, gamma) -> bool:
    return bound is not inf and bound <= gamma


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
    ratio: object  # Fraction, or inf when the equilibrium welfare is zero


def _true_welfare(instance: Instance, alloc: Allocation) -> Fraction:
    return sum((v.value(x) for v, x in
                zip(instance.true_valuations.bids, alloc.bundles)), ZERO)


def _ratio(opt: Fraction, welfare: Fraction):
    if welfare == 0:
        return Fraction(1) if opt == 0 else inf
    return opt / welfare


def _deviation_candidates(instance: Instance, grid: BidGrid, i: int,
                          current: Valuation) -> list[Valuation]:
    v = instance.true_valuations.bids[i]
    seen = dict.fromkeys(grid.per_agent[i])
    for extra in (current, v, v.scale(Fraction(1, 2))):
        seen.setdefault(extra)
    return list(seen)


def verify_nash(instance: Instance, rule: PaymentRule, profile: BidProfile,
                grid: BidGrid, eps_dev=ZERO) -> NashReport:
    """Exact best-deviation check over the grid plus injected deviations.

    The candidate set for agent i is grid_i together with the current bid,
    the truthful bid and the half-truthful bid.  ``is_nash`` means no
    candidate improves any agent's utility by more than ``eps_dev``.
    """
    rule = PaymentRule(rule)
    eps_dev = parse_money(eps_dev)
    if grid.n != instance.n or profile.n != instance.n:
        raise ValueError("instance, profile and grid disagree on agent count")
    base = run_mechanism(rule, profile)
    rows = []
    for i in range(instance.n):
        v = instance.true_valuations.bids[i]
        current_u = utility(v, base, i)
        best_u = current_u
        best_bid = profile.bids[i]
        for cand in _deviation_candidates(instance, grid, i, profile.bids[i]):
            u = utility(v, run_mechanism(rule, profile.replace(i, cand)), i)
            if u > best_u:
                best_u = u
                best_bid = cand
        rows.append(AgentDeviation(i, current_u, best_u, best_bid,
                                   best_u - current_u))
    opt, _ = instance.optimal()
    welfare = _true_welfare(instance, base.allocation)
    return NashReport(
        is_nash=all(r.gain <= eps_dev for r in rows),
        eps_dev=eps_dev,
        deviations=tuple(rows),
        welfare=welfare,
        optimal_welfare=opt,
        ratio=_ratio(opt, welfare),
    )


# -- efficient equilibrium construction ----------------------------------------

def _smallest_positive_marginal(profile: BidProfile) -> Fraction | None:
    best = None
    for bid in profile.bids:
        tab = bid.table()
        for mask in range(1 << profile.m):
            for j in range(profile.m):
                if mask >> j & 1:
                    continue
                d = tab[mask | (1 << j)] - tab[mask]
                if d > 0 and (best is None or d < best):
                    best = d
    return best


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
    refuse beyond m = 6).
    """
    from .walrasian import min_walrasian_prices

    if instance.m > 6:
        raise ValueError("tabulated gross-substitutes precondition is limited "
                         "to m <= 6")
    profile = instance.true_valuations
    for i, v in enumerate(profile.bids):
        if not is_gross_substitutes(v):
            raise ValueError(f"true valuation {i} is not gross substitutes")
    _, optimal_bundles = welfare_max(profile, ms_ones(instance.m))
    prices = min_walrasian_prices(profile)
    smallest = _smallest_positive_marginal(profile)
    bump = smallest / (4 * instance.m) if smallest is not None else ZERO
    bids = []
    for i, (v, mine) in enumerate(zip(profile.bids, optimal_bundles)):
        weights = [ZERO] * instance.m
        for j in iter_bits(mine):
            if prices[j] > 0:
                weights[j] = prices[j]
            elif i > 0 and v.value(mine) - v.value(mine & ~(1 << j)) > 0:
                weights[j] = bump
        bids.append(Additive(tuple(weights)))
    return BidProfile(instance.m, tuple(bids))


# -- proof-inequality certificates ----------------------------------------------

def _blocking_term(bids: BidProfile, i: int, bundle: int) -> Fraction:
    """W_without_i(bundle | 1 - bundle), the welfare the others forgo."""
    denom, _ = scaled_tables(bids)
    return Fraction(_scaled_externality(bids, i, bundle), denom)


def _dwm_bound_ok(outcome, bids: BidProfile) -> bool:
    return all(outcome.payments[i] <= bids.bids[i].value(x)
               for i, x in enumerate(outcome.allocation.bundles))


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


def smoothness_certificate(instance: Instance, bids: BidProfile,
                           rule: PaymentRule) -> SmoothnessReport:
    """Certify the half-truthful deviation bound.

    Each agent deviates to half its true valuation; the certified inequality
    is  sum_i u_i(v_i/2, b_-i)  >=  OPT/2 - sum_i b_i(x_i(b)).  The per-agent
    rows additionally compare u_i against  v_i(x*_i)/2 - blocking_i, which is
    guaranteed for gross-substitutes bids.
    """
    rule = PaymentRule(rule)
    base = run_mechanism(rule, bids)
    dwm_ok = _dwm_bound_ok(base, bids)
    declared = sum((b.value(x) for b, x in
                    zip(bids.bids, base.allocation.bundles)), ZERO)
    opt, opt_bundles = instance.optimal()
    rows = []
    lhs = ZERO
    for i, v in enumerate(instance.true_valuations.bids):
        half = v.scale(Fraction(1, 2))
        dev_profile = bids.replace(i, half)
        out = run_mechanism(rule, dev_profile)
        dwm_ok = dwm_ok and _dwm_bound_ok(out, dev_profile)
        u = utility(v, out, i)
        lhs += u
        share = v.value(opt_bundles[i]) / 2
        blocking = _blocking_term(bids, i, opt_bundles[i])
        rows.append(SmoothnessRow(i, u, share, blocking, u >= share - blocking))
    rhs = opt / 2 - declared
    return SmoothnessReport(
        rule=rule, lhs=lhs, rhs=rhs, slack=lhs - rhs, holds=lhs >= rhs,
        rows=tuple(rows), declared_on_allocation=declared,
        optimal_welfare=opt, dwm_ok=dwm_ok,
        per_agent_ok=all(r.per_agent_ok for r in rows),
    )


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
    ratio: object


def vcg_deviation_certificate(instance: Instance,
                              bids: BidProfile) -> VcgDeviationReport:
    """Certify the truthful-deviation bound under the externality rule:
    u_i(v_i, b_-i) >= v_i(x*_i) - blocking_i for every agent."""
    opt, opt_bundles = instance.optimal()
    base = run_mechanism(PaymentRule.VCG, bids)
    rows = []
    lhs = rhs = ZERO
    for i, v in enumerate(instance.true_valuations.bids):
        u = utility(v, run_mechanism(PaymentRule.VCG, bids.replace(i, v)), i)
        bound = v.value(opt_bundles[i]) - _blocking_term(bids, i, opt_bundles[i])
        rows.append(VcgDeviationRow(i, u, bound, u >= bound))
        lhs += u
        rhs += bound
    welfare = _true_welfare(instance, base.allocation)
    return VcgDeviationReport(
        rows=tuple(rows), lhs_total=lhs, rhs_total=rhs,
        holds=all(r.ok for r in rows),
        optimal_welfare=opt, equilibrium_welfare=welfare,
        ratio=_ratio(opt, welfare),
    )


@dataclass(frozen=True)
class MarginalSumReport:
    total: Fraction
    single_bound: Fraction
    double_bound: Fraction
    classification: str
    factor1_ok: bool
    factor2_ok: bool


def marginal_sum_bound(bids: BidProfile, partition: Allocation) -> MarginalSumReport:
    """Sum of leave-one-out marginals against the full declared welfare.

    For gross-substitutes bids the sum never exceeds W(1); for XOS bids it
    never exceeds 2 W(1).  The report classifies the profile and states both
    comparisons.
    """
    if partition.m != bids.m or len(partition.bundles) != bids.n:
        raise ValueError("partition does not match the bid profile")
    total = sum((_blocking_term(bids, i, x)
                 for i, x in enumerate(partition.bundles)), ZERO)
    w_full = welfare_value(bids, ms_ones(bids.m))
    if bids.m <= 6 and all(is_gross_substitutes(b) for b in bids.bids):
        classification = "gross_substitutes"
    elif all(isinstance(b, (Additive, UnitDemand, Xos, Oxs)) for b in bids.bids):
        classification = "xos"
    else:
        classification = "unknown"
    return MarginalSumReport(
        total=total, single_bound=w_full, double_bound=2 * w_full,
        classification=classification,
        factor1_ok=total <= w_full,
        factor2_ok=total <= 2 * w_full,
    )


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
    worst_ratio: object  # Fraction (1 when no equilibrium was found) or inf
    witness: BidProfile | None
    equilibrium_count: int
    profiles_checked: int


@dataclass(frozen=True)
class _ScaledSearch:
    """A ``poa_search`` input on one common denominator D, scaled once.

    ``grid[i][k]`` is D times the table of grid bid k of agent i, ``types[i]``
    D times agent i's true type, ``injected[i]`` the truthful and
    half-truthful bids of agent i with their tables times D, and ``eps`` is D
    times ``eps_dev``.
    """

    denom: int
    grid: tuple[tuple[tuple[int, ...], ...], ...]
    types: tuple[tuple[int, ...], ...]
    injected: tuple[tuple[tuple[Valuation, tuple[int, ...]], ...], ...]
    eps: int


def _scale_search(instance: Instance, grid: BidGrid, eps_dev: Fraction) -> _ScaledSearch:
    types = instance.true_valuations.bids
    injected = [(v, v.scale(Fraction(1, 2))) for v in types]
    rows = [b.table() for bids in grid.per_agent for b in bids]
    rows += [v.table() for v in types]
    rows += [cand.table() for pair in injected for cand in pair]
    rows.append((eps_dev,))
    denom, scaled = scale_rows(rows)
    it = iter(scaled)
    grid_tabs = tuple(tuple(next(it) for _ in bids) for bids in grid.per_agent)
    type_tabs = tuple(next(it) for _ in types)
    injected_tabs = tuple(tuple((cand, next(it)) for cand in pair)
                          for pair in injected)
    (eps,) = next(it)
    return _ScaledSearch(denom, grid_tabs, type_tabs, injected_tabs, eps)


def _grid_indices(sizes, index_range: range):
    """Per-agent grid indices of the flat profile indices in ``index_range``
    (step 1), last agent fastest."""
    return itertools.islice(itertools.product(*(range(s) for s in sizes)),
                            index_range.start, index_range.stop)


def _scaled_utilities(rule: PaymentRule, m: int, bids, tables,
                      scaled: _ScaledSearch) -> tuple[int, tuple[int, ...]]:
    """D times the true welfare and every agent's utility of one profile."""
    out = run_mechanism(rule, BidProfile.with_scaled_tables(
        m, bids, scaled.denom, tables))
    values = [t[x] for t, x in zip(scaled.types, out.allocation.bundles)]
    return sum(values), tuple(v - p for v, p in zip(values, out._scaled_payments))


def _profile_outcomes(instance: Instance, rule: PaymentRule, grid: BidGrid,
                      scaled: _ScaledSearch, index_range: range) -> list:
    """D times (welfare, utilities) per flat profile index, in index order."""
    per_agent, tabs = grid.per_agent, scaled.grid
    return [_scaled_utilities(
                rule, instance.m,
                tuple(per_agent[i][k] for i, k in enumerate(idxs)),
                tuple(tabs[i][k] for i, k in enumerate(idxs)), scaled)
            for idxs in _grid_indices(grid.sizes(), index_range)]


def poa_search(instance: Instance, rule: PaymentRule, grid: BidGrid, gamma,
               *, eps_dev=ZERO, max_profiles: int = 200_000,
               jobs: int = 1) -> PoaReport:
    """Enumerate every grid profile; keep the ones that are grid-Nash (with
    truthful and half-truthful deviations injected) and whose bids all have
    exposure bound at most gamma; report the worst optimal-to-equilibrium
    welfare ratio and a witness.

    Cost is the full product of grid sizes.  Every table is scaled once to a
    common denominator, so utilities, welfare and the Nash tests compare
    integers.  Ties on the worst ratio resolve to the smallest enumeration
    index, so parallel runs reduce identically.
    """
    rule = PaymentRule(rule)
    gamma = parse_money(gamma)
    eps_dev = parse_money(eps_dev)
    if grid.n != instance.n:
        raise ValueError("grid and instance disagree on agent count")
    sizes = grid.sizes()
    total = prod(sizes)
    if total > max_profiles:
        raise EnumerationBudgetExceeded(
            f"{total} grid profiles exceed the budget of {max_profiles}")
    scaled = _scale_search(instance, grid, eps_dev)

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunk = (total + jobs - 1) // jobs
        ranges = [range(a, min(a + chunk, total)) for a in range(0, total, chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pieces = list(pool.map(_poa_chunk, [(instance, rule, grid, scaled, r)
                                                for r in ranges]))
        outcomes = [row for piece in pieces for row in piece]
    else:
        outcomes = _profile_outcomes(instance, rule, grid, scaled, range(total))
    profiles = list(zip(_grid_indices(sizes, range(total)), outcomes))

    exposure_ok = [
        [_exposure_at_most(
            exposure_factor_bound(instance.true_valuations.bids[i], b), gamma)
         for b in grid.per_agent[i]]
        for i in range(instance.n)]

    # Best achievable utility per agent within each opponent context (the
    # profile with agent i's index zeroed): the grid part comes from the
    # outcome table, the injected deviations are evaluated once per context.
    strides = [prod(sizes[k + 1:]) for k in range(instance.n)]
    best_grid = [dict() for _ in range(instance.n)]
    for flat, (idxs, (_, utils)) in enumerate(profiles):
        for i in range(instance.n):
            ctx = flat - idxs[i] * strides[i]
            cur = best_grid[i].get(ctx)
            if cur is None or utils[i] > cur:
                best_grid[i][ctx] = utils[i]

    injected_best: list[dict] = [dict() for _ in range(instance.n)]

    def injected_max(i: int, ctx: int, idxs) -> int:
        cached = injected_best[i].get(ctx)
        if cached is not None:
            return cached
        bids = [grid.per_agent[k][idxs[k]] for k in range(instance.n)]
        tables = [scaled.grid[k][idxs[k]] for k in range(instance.n)]
        best = None
        for cand, tab in scaled.injected[i]:
            bids[i], tables[i] = cand, tab
            u = _scaled_utilities(rule, instance.m, tuple(bids), tables, scaled)[1][i]
            if best is None or u > best:
                best = u
        injected_best[i][ctx] = best
        return best

    # The optimum is fixed, so the worst ratio is at the least equilibrium
    # welfare (and true welfare never exceeds the optimum).
    worst_welfare = None
    witness_idxs = None
    equilibria = 0
    for flat, (idxs, (welfare, utils)) in enumerate(profiles):
        if not all(exposure_ok[i][idxs[i]] for i in range(instance.n)):
            continue
        for i in range(instance.n):
            ctx = flat - idxs[i] * strides[i]
            if (best_grid[i][ctx] - utils[i] > scaled.eps
                    or injected_max(i, ctx, idxs) - utils[i] > scaled.eps):
                break
        else:
            equilibria += 1
            if worst_welfare is None or welfare < worst_welfare:
                worst_welfare = welfare
                witness_idxs = idxs
    witness = None
    worst = Fraction(1)
    if witness_idxs is not None:
        witness = BidProfile(instance.m, tuple(
            grid.per_agent[i][k] for i, k in enumerate(witness_idxs)))
        opt, _ = instance.optimal()
        worst = _ratio(opt, Fraction(worst_welfare, scaled.denom))
    return PoaReport(
        rule=rule, gamma=gamma,
        worst_ratio=worst,
        witness=witness,
        equilibrium_count=equilibria,
        profiles_checked=total,
    )


def _poa_chunk(args):
    return _profile_outcomes(*args)


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
    rule = PaymentRule(rule)
    current: list[int] = []
    for i, bid in enumerate(start.bids):
        try:
            current.append(grid.per_agent[i].index(bid))
        except ValueError:
            raise ValueError(f"start bid of agent {i} is not on its grid") from None
    steps: list[BestResponseStep] = []
    seen = {tuple(current)}
    status = "budget"
    rounds = 0
    for rounds in range(1, max_iter + 1):
        moved = False
        for i in range(instance.n):
            v = instance.true_valuations.bids[i]
            utilities = []
            for cand in grid.per_agent[i]:
                bids = tuple(grid.per_agent[k][current[k]] if k != i else cand
                             for k in range(instance.n))
                utilities.append(utility(
                    v, run_mechanism(rule, BidProfile(instance.m, bids)), i))
            here = utilities[current[i]]
            best = max(utilities)
            if best > here:
                target = utilities.index(best)
                current[i] = target
                moved = True
                steps.append(BestResponseStep(rounds, i,
                                              grid.per_agent[i][target],
                                              best - here))
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
