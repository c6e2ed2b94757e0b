"""Valuation functions over bundles of indivisible items.

Five representations are supported: additive, unit-demand, XOS (max over
additive clauses), OXS (assignment valuations: max-weight matching of items
to private slots) and tabular (an explicit table of 2^m values).  All are
monotone and normalized (v(empty) = 0) by construction, except tabular,
which is what the class-membership checkers below are for.

Each kind declares its JSON schema once, as class attributes: ``_type`` is
its JSON ``"type"``, ``_field`` the one dataclass field that holds its
numbers (the JSON field of the same name), and ``_rows`` whether that field
is a list of rows.  :func:`valuation_to_json`, :func:`valuation_from_json`
and :meth:`Valuation.scale` read that declaration and nothing per kind.

Class checkers tabulate the valuation, so they are exponential in m; the
analysis layer runs them only up to ``CHECKER_MAX_ITEMS`` items.  They compare
the table scaled to integers by the lcm of its denominators, which keeps the
order of every sum, so each verdict is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .bundles import check_bundle, check_item_count, iter_bits
from .money import ZERO, format_money, parse_money, scale_rows

# Largest m the analysis layer hands to the class checkers: the exchange test
# visits all 4^m bundle pairs.
CHECKER_MAX_ITEMS = 6


def _to_weights(weights: Iterable) -> tuple[Fraction, ...]:
    out = tuple(parse_money(w) for w in weights)
    if any(w < 0 for w in out):
        raise ValueError("valuation weights must be non-negative")
    return out


def _map_numbers(f, numbers, rows: bool) -> list:
    """f over every number of a declared field, keeping its shape."""
    return [list(map(f, r)) for r in numbers] if rows else list(map(f, numbers))


class Valuation:
    """Base interface shared by all valuation representations."""

    m: int
    _type: str | None = None  # the kind declaration, see the module docstring
    _field: str
    _rows = False

    def value(self, bundle: int) -> Fraction:
        raise NotImplementedError

    def table(self) -> tuple[Fraction, ...]:
        """Full table of values, indexed by bundle bitmask.  Cached."""
        return _tabulate(self)

    def scale(self, factor) -> "Valuation":
        """The valuation of the same kind with every number times a
        non-negative ``factor``."""
        c = parse_money(factor)
        if c < 0:
            raise ValueError("scale factor must be non-negative")
        return _BY_TYPE[self._type](_map_numbers(
            lambda w: c * w, getattr(self, self._field), self._rows))

    @cached_property
    def _gross_substitutes(self) -> bool:
        """Exchange-test verdict, computed once per valuation.  A table that
        is not monotone normalized raises, and nothing is cached."""
        return _exchange_holds(self)


@lru_cache(maxsize=1 << 16)
def _tabulate(v: Valuation) -> tuple[Fraction, ...]:
    return tuple(v.value(x) for x in range(1 << v.m))


@dataclass(frozen=True)
class _ItemWeights(Valuation):
    """One weight per item: the shared shape of additive and unit-demand."""

    weights: tuple[Fraction, ...]
    _field = "weights"

    def __post_init__(self):
        object.__setattr__(self, "weights", _to_weights(self.weights))
        check_item_count(len(self.weights))

    @property
    def m(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Additive(_ItemWeights):
    _type = "additive"

    def value(self, bundle: int) -> Fraction:
        check_bundle(self.m, bundle)
        return sum((self.weights[j] for j in iter_bits(bundle)), ZERO)


@dataclass(frozen=True)
class UnitDemand(_ItemWeights):
    _type = "unit_demand"

    def value(self, bundle: int) -> Fraction:
        check_bundle(self.m, bundle)
        return max((self.weights[j] for j in iter_bits(bundle)), default=ZERO)


@dataclass(frozen=True)
class Xos(Valuation):
    """Max over additive clauses; every clause is a weight vector."""

    clauses: tuple[tuple[Fraction, ...], ...]
    _type, _field, _rows = "xos", "clauses", True

    def __post_init__(self):
        clauses = tuple(_to_weights(c) for c in self.clauses)
        if not clauses:
            raise ValueError("an XOS valuation needs at least one clause")
        if len({len(c) for c in clauses}) != 1:
            raise ValueError("all XOS clauses must have the same length")
        check_item_count(len(clauses[0]))
        object.__setattr__(self, "clauses", clauses)

    @property
    def m(self) -> int:
        return len(self.clauses[0])

    def _support(self, bundle: int) -> tuple[Fraction, tuple[Fraction, ...]]:
        """(v(bundle), the lowest-index clause attaining it)."""
        check_bundle(self.m, bundle)
        dots = [sum((c[j] for j in iter_bits(bundle)), ZERO) for c in self.clauses]
        k = dots.index(max(dots))
        return dots[k], self.clauses[k]

    def value(self, bundle: int) -> Fraction:
        return self._support(bundle)[0]


@dataclass(frozen=True)
class Oxs(Valuation):
    """Assignment valuation: rows are items, columns are private slots.

    The value of a bundle is the weight of a maximum matching of its items
    to slots, each slot used at most once.  Assignment valuations are gross
    substitutes.  The values of all bundles are tabulated once, on the
    matrix scaled to integers, and ``value`` reads that table.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    _type, _field, _rows = "oxs", "matrix", True

    def __post_init__(self):
        rows = tuple(_to_weights(r) for r in self.matrix)
        if not rows:
            raise ValueError("OXS matrix needs at least one item row")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("all OXS rows must have the same slot count")
        if len(rows[0]) == 0:
            raise ValueError("OXS matrix needs at least one slot")
        check_item_count(len(rows))
        object.__setattr__(self, "matrix", rows)

    @property
    def m(self) -> int:
        return len(self.matrix)

    @property
    def slots(self) -> int:
        return len(self.matrix[0])

    @cached_property
    def _scaled_values(self) -> tuple[int, tuple[int, ...]]:
        """(D, table): D times the value of every bundle, D the lcm of the
        matrix denominators.  Slots join one at a time, each like a
        unit-demand bidder: with slot k, a bundle either leaves it empty or
        gives it one item i, g_{k+1}(S) = max(g_k(S), g_k(S - i) + w[i][k])."""
        denom, matrix = scale_rows(self.matrix)
        size = 1 << self.m
        best = [0] * size
        for slot in range(self.slots):
            column = [row[slot] for row in matrix]
            prev = best
            best = list(prev)
            for mask in range(1, size):
                top = best[mask]
                rest = mask
                while rest:
                    low = rest & -rest
                    cand = prev[mask ^ low] + column[low.bit_length() - 1]
                    if cand > top:
                        top = cand
                    rest ^= low
                best[mask] = top
        return denom, tuple(best)

    def value(self, bundle: int) -> Fraction:
        check_bundle(self.m, bundle)
        denom, table = self._scaled_values
        return Fraction(table[bundle], denom)


@dataclass(frozen=True)
class Tabular(Valuation):
    """Explicit table of 2^m values in bundle-bitmask order.

    The constructor checks only the shape; monotonicity and normalization
    are the checkers' business, so that invalid tables can be classified.
    """

    values: tuple[Fraction, ...]
    _type, _field = "tabular", "values"

    def __post_init__(self):
        values = tuple(parse_money(v) for v in self.values)
        n = len(values)
        if n < 2 or n & (n - 1):
            raise ValueError(f"table length {n} is not a power of two >= 2")
        check_item_count(n.bit_length() - 1)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return len(self.values).bit_length() - 1

    def value(self, bundle: int) -> Fraction:
        check_bundle(self.m, bundle)
        return self.values[bundle]

    def table(self) -> tuple[Fraction, ...]:
        return self.values


_BY_TYPE = {k._type: k for k in (Additive, UnitDemand, Xos, Oxs, Tabular)}


def budget_additive(weights: Iterable, cap) -> Tabular:
    """min(cap, sum of weights) as an explicit table.

    Budget-additive valuations are submodular but in general not gross
    substitutes; they only exist here in tabular form.
    """
    w = _to_weights(weights)
    limit = parse_money(cap)
    if limit < 0:
        raise ValueError("budget cap must be non-negative")
    m = len(w)
    table = []
    for x in range(1 << m):
        total = sum((w[j] for j in iter_bits(x)), ZERO)
        table.append(min(limit, total))
    return Tabular(tuple(table))


# -- oracles ----------------------------------------------------------------

def marginal_value(f: Callable[[tuple[int, ...]], Fraction],
                   y: Sequence[int], x: Sequence[int]) -> Fraction:
    """f(y | x) = f(y + x) - f(x) for a multiset value oracle f."""
    base = tuple(x)
    added = tuple(a + b for a, b in zip(y, base, strict=True))
    return f(added) - f(base)


def demand_set(v: Valuation, prices: Sequence) -> list[int]:
    """All bundles maximizing v(x) - p.x, ascending bitmask order.

    Ties are kept; callers choose their own selection rule.
    """
    p = [parse_money(q) for q in prices]
    if len(p) != v.m:
        raise ValueError(f"price vector length {len(p)} != m={v.m}")
    if any(q < 0 for q in p):
        raise ValueError("prices must be non-negative")
    # Table and prices on one denominator, so utilities compare as ints.
    _, (tab, p) = scale_rows((v.table(), p))
    return _demanded(tab, p)


def _demanded(tab: Sequence[int], p: Sequence[int]) -> list[int]:
    """The bundles maximizing tab[x] - p.x, ascending, for a table and
    prices over one denominator."""
    cost = [0] * len(tab)
    best = tab[0]
    winners = [0]
    for mask in range(1, len(tab)):
        low = mask & -mask
        cost[mask] = c = cost[mask ^ low] + p[low.bit_length() - 1]
        u = tab[mask] - c
        if u > best:
            best = u
            winners = [mask]
        elif u == best:
            winners.append(mask)
    return winners


# -- class membership checkers ----------------------------------------------

def _scaled_table(v: Valuation) -> tuple[int, ...]:
    """v's table times the lcm of its denominators: same order, int sums."""
    _, (tab,) = scale_rows((v.table(),))
    return tab


def _monotone_normalized(tab: Sequence[int], m: int) -> bool:
    if tab[0] != 0:
        return False
    for mask in range(1 << m):
        for j in range(m):
            if not mask >> j & 1:
                if tab[mask | (1 << j)] < tab[mask]:
                    return False
    return True


def is_monotone_normalized(v: Valuation) -> bool:
    """True iff v(empty) = 0 and adding an item never lowers the value."""
    return _monotone_normalized(_scaled_table(v), v.m)


def _require_normalized(v: Valuation) -> tuple[int, ...]:
    tab = _scaled_table(v)
    if not _monotone_normalized(tab, v.m):
        raise ValueError("valuation is not monotone and normalized")
    return tab


def is_submodular(v: Valuation) -> bool:
    """Decreasing marginal values: v(x+i)+v(x+j) >= v(x+i+j)+v(x)."""
    tab = _require_normalized(v)
    m = v.m
    for mask in range(1 << m):
        free = [j for j in range(m) if not mask >> j & 1]
        for a in range(len(free)):
            i = 1 << free[a]
            for b in range(a + 1, len(free)):
                j = 1 << free[b]
                if tab[mask | i] + tab[mask | j] < tab[mask | i | j] + tab[mask]:
                    return False
    return True


def is_gross_substitutes(v: Valuation) -> bool:
    """Discrete-exchange test for the gross substitutes class.

    For every pair of bundles X, Y and every i in X\\Y there must be a
    repair: either move i across, or swap i against some j in Y\\X, without
    lowering the combined value:

        v(X)+v(Y) <= max( v(X-i)+v(Y+i),
                          max_{j in Y\\X} v(X-i+j)+v(Y+i-j) ).

    Equivalent to the price-based definition for monotone normalized
    valuations, and finitely checkable, which the price form is not.  The
    verdict is kept on the valuation, so each valuation is checked once.
    """
    return v._gross_substitutes


def _exchange_holds(v: Valuation) -> bool:
    """The exchange loop of :func:`is_gross_substitutes`, on integers."""
    tab = _require_normalized(v)
    size = 1 << v.m
    bits = [tuple(1 << i for i in iter_bits(mask)) for mask in range(size)]
    for x in range(size):
        tx = tab[x]
        for y in range(size):
            only_x = x & ~y
            if not only_x:
                continue
            lhs = tx + tab[y]
            only_y = bits[y & ~x]
            for bit_i in bits[only_x]:
                x_i, y_i = x ^ bit_i, y | bit_i
                if tab[x_i] + tab[y_i] >= lhs:
                    continue
                for bit_j in only_y:
                    if tab[x_i | bit_j] + tab[y_i ^ bit_j] >= lhs:
                        break
                else:
                    return False
    return True


def xos_supporting_clause(v: Xos, bundle: int) -> tuple[Fraction, ...]:
    """A clause attaining v(bundle); ties broken by lowest clause index.

    The returned weight vector w satisfies w . 1_bundle = v(bundle) and, by
    the XOS structure, w . 1_T <= v(T) for every bundle T.
    """
    return v._support(bundle)[1]


# -- random generation -------------------------------------------------------

_KINDS = ("additive", "unit_demand", "oxs", "xos")


def sample_valuation(kind: str, m: int, cap, seed: int, *,
                     denominators: Sequence[int] = (1, 2, 4, 8)) -> Valuation:
    """Deterministic random valuation of the given class.

    Weights are rationals w/denominator drawn from ``denominators`` and
    bounded by ``cap``; an OXS valuation has 1..m slots and an XOS one 1..3
    clauses.  Same arguments, same output.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown valuation class {kind!r}")
    check_item_count(m)
    limit = parse_money(cap)
    rng = random.Random(f"{kind}:{m}:{limit}:{seed}")

    def weight() -> Fraction:
        d = rng.choice(list(denominators))
        hi = int(limit * d)
        return Fraction(rng.randint(0, hi), d)

    def weight_row(n: int) -> tuple[Fraction, ...]:
        return tuple(weight() for _ in range(n))

    if kind in ("additive", "unit_demand"):
        return _BY_TYPE[kind](weight_row(m))
    if kind == "oxs":
        slots = rng.randint(1, m)
        return Oxs(tuple(weight_row(slots) for _ in range(m)))
    clauses = rng.randint(1, 3)
    return Xos(tuple(weight_row(m) for _ in range(clauses)))


# -- JSON schema --------------------------------------------------------------

def valuation_to_json(v: Valuation) -> dict:
    if getattr(v, "_type", None) is None:
        raise TypeError(f"cannot serialize {type(v).__name__}")
    return {"type": v._type,
            v._field: _map_numbers(format_money, getattr(v, v._field), v._rows)}


def valuation_from_json(data: dict, *, number=parse_money) -> Valuation:
    """Inverse of :func:`valuation_to_json`.

    ``number`` lets instance files substitute a parametric parser (used for
    epsilon-bound fixtures); it must return an exact Fraction.
    """
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("valuation JSON must be an object with a 'type' field")
    kind = data["type"]
    cls = _BY_TYPE.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown valuation type {kind!r}")
    key, rows = cls._field, cls._rows
    if key not in data:
        raise ValueError(f"valuation JSON missing field {key!r}")
    field = data[key]
    if not (isinstance(field, list)
            and (not rows or all(isinstance(r, list) for r in field))):
        raise ValueError(f"valuation field {key!r} must be a list"
                         + " of lists" * rows)
    try:
        numbers = _map_numbers(number, field, rows)
    except ValueError as exc:
        raise ValueError(f"valuation field {key!r}: {exc}") from exc
    v = cls(numbers)
    if cls is Tabular and not is_monotone_normalized(v):
        raise ValueError("tabular valuation is not monotone normalized")
    return v
