"""Independent brute-force oracles for the test suite.

These deliberately avoid the package's DP and table machinery: welfare by
enumerating raw item-to-agent maps, matchings by trying every permutation,
demand by rescanning bundles.  Slow and obviously correct.  The one
exception is ``table_welfare``, a plain copy of the full-table welfare path
that the point merges replaced, kept as the reference they are tested
against.
"""

from fractions import Fraction
from itertools import permutations, product

from walras.money import scale_rows

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


def table_welfare(bids, supply, exclude=None):
    """W(supply) read from a full table over supply's doubled-item pattern
    (two copies where supply has two, one elsewhere), folding every agent but
    ``exclude``: the two-copy and leave-one-out table paths that the point
    merges replaced.  Runs on the bid tables scaled by the lcm of their
    denominators; an agent's empty bundle counts 0."""
    m = len(supply)
    shape = tuple(2 if c == 2 else 1 for c in supply)
    denom, tabs = scale_rows(b.table() for b in bids)
    strides = [1]
    for cap in shape:
        strides.append(strides[-1] * (cap + 1))
    size = strides[-1]
    present = [sum(1 << j for j in range(m) if idx // strides[j] % (shape[j] + 1))
               for idx in range(size)]
    offset = [sum(strides[j] for j in range(m) if sub >> j & 1)
              for sub in range(1 << m)]
    table = [0] * size
    for i, tab in enumerate(tabs):
        if i == exclude:
            continue
        table = [max([table[idx]] + [tab[sub] + table[idx - offset[sub]]
                                     for sub in range(1, 1 << m)
                                     if not sub & ~present[idx]])
                 for idx in range(size)]
    return Fraction(table[sum(c * s for c, s in zip(supply, strides))], denom)


def _fraction_table(v):
    return [v.value(x) for x in range(1 << v.m)]


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
