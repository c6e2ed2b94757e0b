"""Independent brute-force oracles for the test suite.

These deliberately avoid the package's DP and table machinery: welfare by
enumerating raw item-to-agent maps, matchings by trying every permutation,
demand by rescanning bundles, a valuation's values from its own numbers
(``brute_value``).  Slow and obviously correct.  ``matching_welfare``
reaches 16 items where they stop near 5: for bids that are sums of
unit-demand slots, W is a Hungarian matching, and for XOS bids the best
such matching over one clause per bid.  The exceptions are kept
as references for the paths that replaced them:

- ``table_welfare``, a plain copy of the full-table welfare path the point
  merges replaced, and ``submask_fold``, its per-agent fold, which the item
  fold replaced for the structured kinds;
- ``brute_fold_rows``, the item fold of weight rows into any table, by
  enumerating each bundle's subsets and slot assignments;
- the ``fraction_*`` deviation loops of the analysis layer, which ran each
  deviation on a fresh profile in Fractions;
- ``scaled_profile_outcomes``, the per-profile mechanism runs the grid
  kernel of ``poa_search`` replaced, each on a fresh ``BidProfile`` with
  the true values from ``brute_value``: it shares no code with the
  analysis layer;
- ``brute_poa``, ``poa_search`` by one mechanism run per grid profile and
  per deviation, each on a fresh ``BidProfile``, with every truthful and
  half-truthful deviation run;
- ``fraction_exposure_factor_bound``, the Fraction loop the integer
  exposure routine replaced;
- ``fraction_walrasian_certificate``, equilibrium verification through
  per-bidder demand sets and Fraction gains;
- ``reference_tatonnement``, the ascending-price loop in Fractions, with
  each agent's demand from ``brute_demand``;
- ``rational_gcd`` and ``granularity``, the pairwise Fraction fold the
  default bid-grid step was computed by.
"""

from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

from walras.money import scale_rows
from walras.valuations import Additive, Oxs, UnitDemand, Xos

ZERO = Fraction(0)


def brute_welfare(bids, supply):
    """Max total value over assignments of each item copy to an agent or to
    nobody, with per-agent consumption clamped to one copy per item."""
    copies = [j for j, count in enumerate(supply) for _ in range(count)]
    n = len(bids)
    best = ZERO
    for assignment in product(range(n + 1), repeat=len(copies)):
        bundles = [0] * n
        for copy, owner in zip(copies, assignment):
            if owner < n:
                bundles[owner] |= 1 << copy
        total = sum((bid.value(b) for bid, b in zip(bids, bundles)), ZERO)
        if total > best:
            best = total
    return best


def brute_welfare_maps(bids, m):
    """0/1 supply special case via all n^m item-to-agent maps."""
    n = len(bids)
    best = ZERO
    for owners in product(range(n), repeat=m):
        bundles = [0] * n
        for j, owner in enumerate(owners):
            bundles[owner] |= 1 << j
        total = sum((bid.value(b) for bid, b in zip(bids, bundles)), ZERO)
        if total > best:
            best = total
    return best


def brute_canonical_assignment(bids, m):
    """(W(1), bundles): among the best maps of the m items to the agents or
    to nobody, the one whose bundle tuple is smallest, agent 0's bundle
    first: ``welfare_max``'s tie rule, by enumeration."""
    n = len(bids)
    best = None
    for owners in product(range(n + 1), repeat=m):
        bundles = [0] * (n + 1)
        for j, owner in enumerate(owners):
            bundles[owner] |= 1 << j
        key = (-sum((bid.value(b) for bid, b in zip(bids, bundles)), ZERO), bundles[:n])
        best = key if best is None else min(best, key)
    return -best[0], tuple(best[1])


def brute_demand(v, prices):
    best = None
    winners = []
    for bundle in range(1 << v.m):
        cost = sum((prices[j] for j in range(v.m) if bundle >> j & 1), ZERO)
        u = v.value(bundle) - cost
        if best is None or u > best:
            best = u
            winners = [bundle]
        elif u == best:
            winners.append(bundle)
    return winners


def reference_tatonnement(profile, epsilon, *, max_steps=None, releases=None):
    """``walrasian.tatonnement`` in Fractions: the same round-robin ascent,
    step count and cap, reading demand from :func:`brute_demand`.  Each
    release (an agent giving up items it held) appends (step, agent,
    released mask) to the list ``releases`` if one is given."""
    from walras.walrasian import IterationCapExceeded, TatonnementResult
    from walras.welfare import Allocation

    eps = Fraction(epsilon)
    m, n = profile.m, profile.n
    if max_steps is None:
        top = max(bid.value((1 << m) - 1) for bid in profile.bids)
        max_steps = max(10 * m * (top // eps + 1), 4 * n)
    prices = [ZERO] * m
    holder = [-1] * m
    steps = 0
    settled = False
    while not settled:
        settled = True
        for i, bid in enumerate(profile.bids):
            steps += 1
            if steps > max_steps:
                raise IterationCapExceeded(f"no convergence within {max_steps} steps")
            held = sum(1 << j for j in range(m) if holder[j] == i)
            ask = [prices[j] if holder[j] in (-1, i) else prices[j] + eps
                   for j in range(m)]
            winners = brute_demand(bid, ask)
            if held in winners:
                continue
            settled = False
            if releases is not None and held & ~winners[0]:
                releases.append((steps, i, held & ~winners[0]))
            for j in range(m):
                takes, had = winners[0] >> j & 1, held >> j & 1
                if takes and not had:
                    if holder[j] != -1:
                        prices[j] += eps
                    holder[j] = i
                elif had and not takes:
                    holder[j] = -1
    bundles = [0] * n
    for j, owner in enumerate(holder):
        bundles[max(owner, 0)] |= 1 << j
    return TatonnementResult(tuple(prices), Allocation(m, tuple(bundles)), steps)


def fraction_walrasian_certificate(profile, bundles, prices):
    """The certificate of ``verify_walrasian_equilibrium`` for well-formed
    input, in Fractions: unsold items first, then for each bidder whose
    bundle ``brute_demand`` leaves out, its lowest demanded bundle and the
    utility it gains there."""
    from walras.walrasian import (ClearingViolation, DemandViolation,
                                  WalrasianCertificate)

    def utility(v, bundle):
        return v.value(bundle) - sum((prices[j] for j in range(v.m)
                                      if bundle >> j & 1), ZERO)

    failures = []
    unsold = (1 << profile.m) - 1 - sum(bundles)
    if unsold:
        failures.append(ClearingViolation(unsold))
    for i, (v, mine) in enumerate(zip(profile.bids, bundles)):
        winners = brute_demand(v, prices)
        if mine not in winners:
            better = winners[0]
            failures.append(DemandViolation(i, mine, better,
                                            utility(v, better) - utility(v, mine)))
    return WalrasianCertificate(not failures, tuple(failures))


def rational_gcd(a, b):
    """Greatest rational g such that a and b are both integer multiples of g."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def granularity(values):
    """The ``rational_gcd`` of a value collection, floored at 1/8."""
    g = ZERO
    for v in values:
        g = rational_gcd(g, v)
    return max(g, Fraction(1, 8))


def brute_matching_value(matrix, bundle):
    """Assignment-valuation oracle: try every injective slot assignment."""
    items = [j for j in range(len(matrix)) if bundle >> j & 1]
    slots = range(len(matrix[0]) if matrix else 0)
    best = ZERO
    for k in range(min(len(items), len(slots)) + 1):
        for chosen in permutations(items, k):
            for assigned in permutations(slots, k):
                total = sum((matrix[i][s] for i, s in zip(chosen, assigned)), ZERO)
                if total > best:
                    best = total
    return best


def _unit_demand_slots(v):
    """The unit-demand slots whose sum is an additive, unit-demand or OXS
    bid, each a weight per item: one slot per item for an additive bid, one
    for a unit-demand bid, the matrix columns for an OXS bid."""
    if isinstance(v, Additive):
        return [tuple(w if k == j else ZERO for k in range(v.m))
                for j, w in enumerate(v.weights)]
    if isinstance(v, UnitDemand):
        return [v.weights]
    if isinstance(v, Oxs):
        return list(zip(*v.matrix))
    raise TypeError(f"{type(v).__name__} is not a sum of unit-demand slots")


def _slot_choices(v):
    """The slot lists ``v`` may bid as: its own unit-demand slots, or for an
    XOS bid those of any one clause, bid as an additive bid."""
    if isinstance(v, Xos):
        return [_unit_demand_slots(Additive(clause)) for clause in v.clauses]
    return [_unit_demand_slots(v)]


def _hungarian(weights):
    """Largest total weight of a matching of rows to columns, for a
    non-negative integer matrix with no more rows than columns: the
    potential-based Hungarian algorithm, minimizing the negated weights
    over complete assignments of the rows."""
    rows, cols = len(weights), len(weights[0])
    u, v = [0] * (rows + 1), [0] * (cols + 1)
    owner, way = [0] * (cols + 1), [0] * (cols + 1)  # owner[c]: row on column c
    for r in range(1, rows + 1):
        owner[0], c0 = r, 0
        slack, used = [None] * (cols + 1), [False] * (cols + 1)  # None: infinite
        while owner[c0]:
            used[c0] = True
            r0, delta, c1 = owner[c0], None, 0
            for c in range(1, cols + 1):
                if not used[c]:
                    cur = -weights[r0 - 1][c - 1] - u[r0] - v[c]
                    if slack[c] is None or cur < slack[c]:
                        slack[c], way[c] = cur, c0
                    if delta is None or slack[c] < delta:
                        delta, c1 = slack[c], c
            for c in range(cols + 1):
                if used[c]:
                    u[owner[c]] += delta
                    v[c] -= delta
                else:
                    slack[c] -= delta
            c0 = c1
        while c0:
            owner[c0], c0 = owner[way[c0]], way[c0]
    return sum(weights[owner[c] - 1][c - 1] for c in range(1, cols + 1) if owner[c])


def _assignment(slots, items, doubled):
    """Best matching of the ``items`` (two copies of the item in
    ``doubled``, if any) to the (agent, weights) ``slots``, every agent
    taking at most one copy of an item."""
    if not items or not slots:
        return 0
    # Weights are non-negative, so a complete assignment of the rows loses
    # nothing; zero columns make room for copies left unmatched.
    pad = [0] * max(0, len(items) + len(doubled) - len(slots))
    if not doubled:
        return _hungarian([[w[j] for _, w in slots] + pad for j in items])
    (j,) = doubled
    return max(_hungarian(
        [[w[k] if k != j or b != a else 0 for b, w in slots] + pad for k in items]
        + [[w[j] if b == a else 0 for b, w in slots] + pad])
        for a in {a for a, _ in slots})


def matching_welfare(bids, supply, exclude=None):
    """W(supply) of additive, unit-demand, OXS and XOS bids (Shapley and
    Shubik 1971): a maximum-weight matching of the supplied item copies to
    every bid's unit-demand slots, leaving out agent ``exclude``.  An XOS
    bid is the best of its clauses, each an additive bid, so W is the best
    such matching over one clause per XOS bid.  Shares no code with the DP,
    and matches integers over the weights' common denominator.  Each agent
    takes at most one copy of an item, so with two copies of item j it is
    the best, over agents a, of a matching in which the extra copy may go
    only to a's slots and the first only to the other agents'; a barred
    edge weighs 0.  At most one item may have two copies."""
    items = [j for j, count in enumerate(supply) if count]
    doubled = [j for j, count in enumerate(supply) if count == 2]
    if len(doubled) > 1 or max(supply, default=0) > 2:
        raise ValueError(f"supply {supply} has more than one doubled item")
    options = [_slot_choices(bid) for a, bid in enumerate(bids) if a != exclude]
    denom = lcm(*(w.denominator for choices in options for slots in choices
                  for slot in slots for w in slot))
    scaled = [[[tuple(w.numerator * (denom // w.denominator) for w in slot)
                for slot in slots] for slots in choices] for choices in options]
    best = max((_assignment([(a, w) for a, slots in enumerate(chosen) for w in slots],
                            items, doubled)
                for chosen in product(*scaled)), default=0)
    return Fraction(best, denom)


def brute_min_prices(bids, m, welfare=brute_welfare):
    ones = (1,) * m
    base = welfare(bids, ones)
    out = []
    for j in range(m):
        supply = tuple(2 if k == j else 1 for k in range(m))
        out.append(welfare(bids, supply) - base)
    return tuple(out)


def brute_max_prices(bids, m, welfare=brute_welfare):
    ones = (1,) * m
    base = welfare(bids, ones)
    out = []
    for j in range(m):
        supply = tuple(0 if k == j else 1 for k in range(m))
        out.append(base - welfare(bids, supply))
    return tuple(out)


def _strides(shape):
    strides = [1]
    for cap in shape:
        strides.append(strides[-1] * (cap + 1))
    return strides


def submask_fold(tab, table, shape):
    """One agent's integer table folded into a welfare table over the states
    of the supply ``shape`` (mixed radix, item 0 fastest): at every state the
    agent takes one copy of each item of a submask of the state's items, the
    empty bundle counting 0, and ``table`` gets the rest.  The submask fold
    every kind ran before the item fold."""
    m = len(shape)
    strides = _strides(shape)
    present = [sum(1 << j for j in range(m) if idx // strides[j] % (shape[j] + 1))
               for idx in range(strides[-1])]
    offset = [sum(strides[j] for j in range(m) if sub >> j & 1)
              for sub in range(1 << m)]
    return [max([table[idx]] + [tab[sub] + table[idx - offset[sub]]
                                for sub in range(1, 1 << m)
                                if not sub & ~present[idx]])
            for idx in range(strides[-1])]


def _submasks(s):
    """Every submask of ``s``, ``s`` first and 0 last."""
    t = s
    while True:
        yield t
        if not t:
            return
        t = (t - 1) & s


def brute_fold_rows(table, rows, slot):
    """``bundles.fold_rows`` by enumeration: at every bundle S, the best over
    the T within S of table[S - T] plus what the rows take of T.  Slots take
    T by the best assignment of its items to distinct slots, every order of
    slots tried; a clause takes all of T, and the best clause wins."""
    m = len(table).bit_length() - 1
    items = [[j for j in range(m) if t >> j & 1] for t in range(1 << m)]
    if slot:
        gains = [{t: max(sum(rows[k][j] for k, j in zip(order, its))
                         for order in permutations(range(len(rows)), len(its)))
                  for t, its in enumerate(items) if len(its) <= len(rows)}]
    else:
        gains = [{t: sum(row[j] for j in its) for t, its in enumerate(items)}
                 for row in rows]
    return tuple(max(table[s ^ t] + gain[t] for gain in gains for t in _submasks(s)
                     if t in gain) for s in range(1 << m))


def table_welfare(bids, supply, exclude=None):
    """W(supply) read from a full table over supply's doubled-item pattern
    (two copies where supply has two, one elsewhere), folding every agent but
    ``exclude``: the two-copy and leave-one-out table paths that the point
    merges replaced.  Runs on the bid tables scaled by the lcm of their
    denominators."""
    shape = tuple(2 if c == 2 else 1 for c in supply)
    denom, tabs = scale_rows(b.table() for b in bids)
    strides = _strides(shape)
    table = [0] * strides[-1]
    for i, tab in enumerate(tabs):
        if i != exclude:
            table = submask_fold(tab, table, shape)
    return Fraction(table[sum(c * s for c, s in zip(supply, strides))], denom)


def brute_value(v, bundle):
    """v(bundle) from the valuation's own numbers, without its table: the
    sum or the largest of the bundle's item weights, the best clause sum, a
    brute-force matching, or the tabular entry."""
    items = [j for j in range(v.m) if bundle >> j & 1]
    if isinstance(v, Additive):
        return sum((v.weights[j] for j in items), ZERO)
    if isinstance(v, UnitDemand):
        return max((v.weights[j] for j in items), default=ZERO)
    if isinstance(v, Xos):
        return max(sum((c[j] for j in items), ZERO) for c in v.clauses)
    if isinstance(v, Oxs):
        return brute_matching_value(v.matrix, bundle)
    return v.values[bundle]


def _fraction_table(v):
    return [brute_value(v, x) for x in range(1 << v.m)]


def brute_monotone_normalized(v):
    """v(empty) = 0 and no added item lowers the value, on Fractions."""
    tab = _fraction_table(v)
    if tab[0] != 0:
        return False
    return all(tab[x | 1 << j] >= tab[x]
               for x in range(1 << v.m) for j in range(v.m))


def _require_normalized(v):
    if not brute_monotone_normalized(v):
        raise ValueError("valuation is not monotone and normalized")
    return _fraction_table(v)


def brute_submodular(v):
    """v(x+i) + v(x+j) >= v(x+i+j) + v(x) for all x and items i, j not in x,
    summed as Fractions."""
    tab = _require_normalized(v)
    m = v.m
    for x in range(1 << m):
        free = [j for j in range(m) if not x >> j & 1]
        for a in range(len(free)):
            i = 1 << free[a]
            for b in range(a + 1, len(free)):
                j = 1 << free[b]
                if tab[x | i] + tab[x | j] < tab[x | i | j] + tab[x]:
                    return False
    return True


def brute_gross_substitutes(v):
    """The discrete exchange test, summed as Fractions: for all bundles X, Y
    and i in X\\Y, v(X)+v(Y) <= v(X-i)+v(Y+i) or v(X-i+j)+v(Y+i-j) for some
    j in Y\\X."""
    tab = _require_normalized(v)
    m = v.m
    for x in range(1 << m):
        for y in range(1 << m):
            lhs = tab[x] + tab[y]
            only_y = [1 << j for j in range(m) if y >> j & 1 and not x >> j & 1]
            for i in range(m):
                bit_i = 1 << i
                if not x & bit_i or y & bit_i:
                    continue
                x_i, y_i = x ^ bit_i, y | bit_i
                if tab[x_i] + tab[y_i] >= lhs:
                    continue
                if not any(tab[x_i | bit_j] + tab[y_i ^ bit_j] >= lhs
                           for bit_j in only_y):
                    return False
    return True


# -- Fraction deviation loops -------------------------------------------------
# Plain copies of the analysis layer's deviation loops as they were before it
# moved onto one scaled-integer rerun path: every deviation builds a fresh
# BidProfile and compares Fraction utilities.  The blocking term is taken
# from ``brute_welfare`` instead of the package's DP.

def _ratio(opt, welfare):
    from walras.money import INFINITY
    if welfare == 0:
        return Fraction(1) if opt == 0 else INFINITY
    return opt / welfare


def brute_blocking(bids, i, bundle):
    """W_without_i(1) - W_without_i(1 - bundle), by enumeration."""
    others = bids.bids[:i] + bids.bids[i + 1:]
    full = (1,) * bids.m
    rest = tuple(0 if bundle >> j & 1 else 1 for j in range(bids.m))
    return brute_welfare(others, full) - brute_welfare(others, rest)


def fraction_verify_nash(instance, rule, profile, grid, eps_dev=ZERO):
    from walras.analysis import AgentDeviation, NashReport
    from walras.mechanisms import run_mechanism, utility
    from walras.welfare import assignment_value

    base = run_mechanism(rule, profile)
    rows = []
    for i in range(instance.n):
        v = instance.true_valuations.bids[i]
        current_u = utility(v, base, i)
        best_u = current_u
        best_bid = profile.bids[i]
        seen = dict.fromkeys(grid.per_agent[i])
        for extra in (profile.bids[i], v, v.scale(Fraction(1, 2))):
            seen.setdefault(extra)
        for cand in seen:
            u = utility(v, run_mechanism(rule, profile.replace(i, cand)), i)
            if u > best_u:
                best_u = u
                best_bid = cand
        rows.append(AgentDeviation(i, current_u, best_u, best_bid,
                                   best_u - current_u))
    opt, _ = instance.optimal()
    welfare = assignment_value(instance.true_valuations, base.allocation.bundles)
    return NashReport(is_nash=all(r.gain <= eps_dev for r in rows),
                      eps_dev=eps_dev, deviations=tuple(rows), welfare=welfare,
                      optimal_welfare=opt, ratio=_ratio(opt, welfare))


def _dwm_bound_ok(outcome, bids):
    return all(outcome.payments[i] <= bids.bids[i].value(x)
               for i, x in enumerate(outcome.allocation.bundles))


def fraction_smoothness_certificate(instance, bids, rule):
    from walras.analysis import SmoothnessReport, SmoothnessRow
    from walras.mechanisms import PaymentRule, run_mechanism, utility
    from walras.welfare import assignment_value

    rule = PaymentRule(rule)
    base = run_mechanism(rule, bids)
    dwm_ok = _dwm_bound_ok(base, bids)
    declared = assignment_value(bids, base.allocation.bundles)
    opt, opt_bundles = instance.optimal()
    rows = []
    lhs = ZERO
    for i, v in enumerate(instance.true_valuations.bids):
        dev_profile = bids.replace(i, v.scale(Fraction(1, 2)))
        out = run_mechanism(rule, dev_profile)
        dwm_ok = dwm_ok and _dwm_bound_ok(out, dev_profile)
        u = utility(v, out, i)
        lhs += u
        share = v.value(opt_bundles[i]) / 2
        blocking = brute_blocking(bids, i, opt_bundles[i])
        rows.append(SmoothnessRow(i, u, share, blocking, u >= share - blocking))
    rhs = opt / 2 - declared
    return SmoothnessReport(
        rule=rule, lhs=lhs, rhs=rhs, slack=lhs - rhs, holds=lhs >= rhs,
        rows=tuple(rows), declared_on_allocation=declared,
        optimal_welfare=opt, dwm_ok=dwm_ok,
        per_agent_ok=all(r.per_agent_ok for r in rows))


def fraction_vcg_deviation_certificate(instance, bids):
    from walras.analysis import VcgDeviationReport, VcgDeviationRow
    from walras.mechanisms import PaymentRule, run_mechanism, utility
    from walras.welfare import assignment_value

    opt, opt_bundles = instance.optimal()
    base = run_mechanism(PaymentRule.VCG, bids)
    rows = []
    lhs = rhs = ZERO
    for i, v in enumerate(instance.true_valuations.bids):
        u = utility(v, run_mechanism(PaymentRule.VCG, bids.replace(i, v)), i)
        bound = v.value(opt_bundles[i]) - brute_blocking(bids, i, opt_bundles[i])
        rows.append(VcgDeviationRow(i, u, bound, u >= bound))
        lhs += u
        rhs += bound
    welfare = assignment_value(instance.true_valuations, base.allocation.bundles)
    return VcgDeviationReport(
        rows=tuple(rows), lhs_total=lhs, rhs_total=rhs,
        holds=all(r.ok for r in rows), optimal_welfare=opt,
        equilibrium_welfare=welfare, ratio=_ratio(opt, welfare))


def fraction_best_response_dynamics(instance, rule, grid, start, max_iter=100):
    from walras.analysis import BestResponseStep, BestResponseTrace
    from walras.mechanisms import run_mechanism, utility
    from walras.welfare import BidProfile

    current = [grid.per_agent[i].index(bid) for i, bid in enumerate(start.bids)]
    steps = []
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
                steps.append(BestResponseStep(rounds, i, grid.per_agent[i][target],
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


def scaled_profile_outcomes(types, rule, grid, denom):
    """``denom`` times (welfare, utilities) of every profile of the per-agent
    grid bids ``grid``, in flat index order (last agent fastest), as ints:
    each profile runs the whole mechanism on a fresh ``BidProfile``, and the
    true values are ``brute_value``'s of ``types``."""
    from walras.mechanisms import run_mechanism
    from walras.welfare import BidProfile

    rows = []
    for bids in product(*grid):
        out = run_mechanism(rule, BidProfile(types[0].m, bids))
        values = [brute_value(v, x) * denom for v, x in zip(types, out.allocation.bundles)]
        row = [sum(values), *(v - p * denom for v, p in zip(values, out.payments))]
        assert all(x.denominator == 1 for x in row)
        rows.append((int(row[0]), tuple(map(int, row[1:]))))
    return rows


def brute_poa(types, rule, grid, gamma, eps):
    """(equilibrium count, worst ratio, witness bids) of ``poa_search`` on
    the per-agent grid bids ``grid``: the profiles whose bids are all within
    ``gamma`` (``fraction_exposure_factor_bound``) and where no agent gains
    over ``eps`` by a bid of its grid, its truthful bid or its half-truthful
    bid, the worst at the first profile in grid order (last agent fastest).
    Every profile runs the whole mechanism on a fresh ``BidProfile``, the
    true values from ``brute_value``."""
    from walras.mechanisms import run_mechanism
    from walras.money import INFINITY
    from walras.welfare import BidProfile

    def outcome(bids):
        out = run_mechanism(rule, BidProfile(types[0].m, bids))
        values = [brute_value(v, x) for v, x in zip(types, out.allocation.bundles)]
        return sum(values, ZERO), [v - p for v, p in zip(values, out.payments)]

    opt = brute_welfare(types, (1,) * types[0].m)
    candidates = [(*bids, v, v.scale(Fraction(1, 2))) for bids, v in zip(grid, types)]
    count, worst, witness = 0, Fraction(1), None
    for bids in product(*grid):
        if any(fraction_exposure_factor_bound(v, b) > gamma for v, b in zip(types, bids)):
            continue
        welfare, utils = outcome(bids)
        if any(outcome((*bids[:i], c, *bids[i + 1:]))[1][i] > utils[i] + eps
               for i, cands in enumerate(candidates) for c in cands):
            continue
        count += 1
        ratio = opt / welfare if welfare else Fraction(1) if opt == 0 else INFINITY
        if witness is None or ratio > worst:
            worst, witness = ratio, bids
    return count, worst, witness


def fraction_exposure_factor_bound(v, b):
    """max over nonempty bundles S of b(S)/v(S) - 1, clamped at zero, as a
    Fraction per bundle; INFINITY when b is positive where v is zero."""
    from walras.money import INFINITY
    vt, bt = v.table(), b.table()
    worst = ZERO
    for mask in range(1, 1 << v.m):
        if vt[mask] == 0:
            if bt[mask] > 0:
                return INFINITY
            continue
        ratio = bt[mask] / vt[mask] - 1
        if ratio > worst:
            worst = ratio
    return worst
