"""Valuation functions over bundles of indivisible items.

Five representations are supported: additive, unit-demand, XOS (max over
additive clauses), OXS (assignment valuations: max-weight matching of items
to private slots) and tabular (an explicit table of 2^m values).  All are
monotone and normalized (v(empty) = 0) by construction, except tabular,
which is what the class-membership checkers below are for.

Class checkers tabulate the valuation, so they are exponential in m; they
are meant for desk-scale inputs (m <= 6 or so).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .bundles import check_bundle, check_item_count, clamp_mask, iter_bits
from .money import ZERO, format_money, parse_money, scale_rows


def _to_weights(weights: Iterable) -> tuple[Fraction, ...]:
    out = tuple(parse_money(w) for w in weights)
    if any(w < 0 for w in out):
        raise ValueError("valuation weights must be non-negative")
    return out


class Valuation:
    """Base interface shared by all valuation representations."""

    m: int

    def value(self, bundle: int) -> Fraction:
        raise NotImplementedError

    def multiset_value(self, ms: Sequence[int]) -> Fraction:
        """Extension to item multisets: extra copies beyond one are ignored."""
        return self.value(clamp_mask(tuple(ms)))

    def table(self) -> tuple[Fraction, ...]:
        """Full table of values, indexed by bundle bitmask.  Cached."""
        return _tabulate(self)

    def scale(self, factor) -> "Valuation":
        raise NotImplementedError


@lru_cache(maxsize=1 << 16)
def _tabulate(v: Valuation) -> tuple[Fraction, ...]:
    return tuple(v.value(x) for x in range(1 << v.m))


@dataclass(frozen=True)
class Additive(Valuation):
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _to_weights(self.weights))
        check_item_count(len(self.weights))

    @property
    def m(self) -> int:
        return len(self.weights)

    def value(self, bundle: int) -> Fraction:
        check_bundle(self.m, bundle)
        return sum((self.weights[j] for j in iter_bits(bundle)), ZERO)

    def scale(self, factor) -> "Additive":
        c = parse_money(factor)
        return Additive(tuple(c * w for w in self.weights))


@dataclass(frozen=True)
class UnitDemand(Valuation):
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _to_weights(self.weights))
        check_item_count(len(self.weights))

    @property
    def m(self) -> int:
        return len(self.weights)

    def value(self, bundle: int) -> Fraction:
        check_bundle(self.m, bundle)
        return max((self.weights[j] for j in iter_bits(bundle)), default=ZERO)

    def scale(self, factor) -> "UnitDemand":
        c = parse_money(factor)
        return UnitDemand(tuple(c * w for w in self.weights))


@dataclass(frozen=True)
class Xos(Valuation):
    """Max over additive clauses; every clause is a weight vector."""

    clauses: tuple[tuple[Fraction, ...], ...]

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

    def value(self, bundle: int) -> Fraction:
        check_bundle(self.m, bundle)
        best = ZERO
        for clause in self.clauses:
            dot = sum((clause[j] for j in iter_bits(bundle)), ZERO)
            if dot > best:
                best = dot
        return best

    def scale(self, factor) -> "Xos":
        c = parse_money(factor)
        return Xos(tuple(tuple(c * w for w in clause) for clause in self.clauses))


@dataclass(frozen=True)
class Oxs(Valuation):
    """Assignment valuation: rows are items, columns are private slots.

    The value of a bundle is the weight of a maximum matching of its items
    to slots, each slot used at most once.  Assignment valuations are gross
    substitutes.
    """

    matrix: tuple[tuple[Fraction, ...], ...]

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
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return scale_rows(self.matrix)

    def value(self, bundle: int) -> Fraction:
        check_bundle(self.m, bundle)
        # DP over items in the bundle, on the matrix scaled to integers;
        # state = set of used slots.
        denom, matrix = self._scaled
        slots = range(self.slots)
        states = {0: 0}
        for item in iter_bits(bundle):
            row = matrix[item]
            nxt = dict(states)  # leaving the item unmatched is allowed
            for used, val in states.items():
                for slot in slots:
                    if used >> slot & 1:
                        continue
                    cand = val + row[slot]
                    key = used | (1 << slot)
                    cur = nxt.get(key)
                    if cur is None or cand > cur:
                        nxt[key] = cand
            states = nxt
        return Fraction(max(states.values()), denom)

    def scale(self, factor) -> "Oxs":
        c = parse_money(factor)
        return Oxs(tuple(tuple(c * w for w in row) for row in self.matrix))


@dataclass(frozen=True)
class Tabular(Valuation):
    """Explicit table of 2^m values in bundle-bitmask order.

    The constructor checks only the shape; monotonicity and normalization
    are the checkers' business, so that invalid tables can be classified.
    """

    values: tuple[Fraction, ...]

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

    def scale(self, factor) -> "Tabular":
        c = parse_money(factor)
        if c < 0:
            raise ValueError("scale factor must be non-negative")
        return Tabular(tuple(c * v for v in self.values))


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


def tabulate(v: Valuation) -> Tabular:
    return v if isinstance(v, Tabular) else Tabular(v.table())


# -- oracles ----------------------------------------------------------------

def evaluate(v: Valuation, bundle: int) -> Fraction:
    """v(bundle); bundle must fit the valuation's m items."""
    return v.value(bundle)


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
    size = 1 << v.m
    cost = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        cost[mask] = cost[mask ^ low] + p[low.bit_length() - 1]
    best = None
    winners: list[int] = []
    for mask in range(size):
        u = tab[mask] - cost[mask]
        if best is None or u > best:
            best = u
            winners = [mask]
        elif u == best:
            winners.append(mask)
    return winners


# -- class membership checkers ----------------------------------------------

def is_monotone_normalized(v: Valuation) -> bool:
    """True iff v(empty) = 0 and adding an item never lowers the value."""
    tab = v.table()
    if tab[0] != 0:
        return False
    m = v.m
    for mask in range(1 << m):
        for j in range(m):
            if not mask >> j & 1:
                if tab[mask | (1 << j)] < tab[mask]:
                    return False
    return True


def _require_normalized(v: Valuation) -> tuple[Fraction, ...]:
    if not is_monotone_normalized(v):
        raise ValueError("valuation is not monotone and normalized")
    return v.table()


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
    valuations, and finitely checkable, which the price form is not.
    """
    tab = _require_normalized(v)
    m = v.m
    size = 1 << m
    for x in range(size):
        for y in range(size):
            only_x = x & ~y
            if not only_x:
                continue
            lhs = tab[x] + tab[y]
            only_y = y & ~x
            for i in iter_bits(only_x):
                bit_i = 1 << i
                best = tab[x ^ bit_i] + tab[y | bit_i]
                if best >= lhs:
                    continue
                ok = False
                for j in iter_bits(only_y):
                    bit_j = 1 << j
                    if tab[(x ^ bit_i) | bit_j] + tab[(y | bit_i) ^ bit_j] >= lhs:
                        ok = True
                        break
                if not ok:
                    return False
    return True


def xos_supporting_clause(v: Xos, bundle: int) -> tuple[Fraction, ...]:
    """A clause attaining v(bundle); ties broken by lowest clause index.

    The returned weight vector w satisfies w . 1_bundle = v(bundle) and, by
    the XOS structure, w . 1_T <= v(T) for every bundle T.
    """
    check_bundle(v.m, bundle)
    best = None
    best_clause = None
    for clause in v.clauses:
        dot = sum((clause[j] for j in iter_bits(bundle)), ZERO)
        if best is None or dot > best:
            best = dot
            best_clause = clause
    assert best_clause is not None
    return best_clause


# -- random generation -------------------------------------------------------

_KINDS = {"additive": "additive", "unit_demand": "unit_demand",
          "oxs": "oxs", "xos": "xos"}


def sample_valuation(kind, m: int, cap, seed: int, *,
                     denominators: Sequence[int] = (1, 2, 4, 8),
                     max_clauses: int = 3,
                     max_slots: int | None = None) -> Valuation:
    """Deterministic random valuation of the given class.

    Weights are rationals w/denominator drawn from ``denominators`` and
    bounded by ``cap``.  Same arguments, same output.
    """
    if isinstance(kind, type):
        kind = {Additive: "additive", UnitDemand: "unit_demand",
                Oxs: "oxs", Xos: "xos"}.get(kind, kind)
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

    if kind == "additive":
        return Additive(weight_row(m))
    if kind == "unit_demand":
        return UnitDemand(weight_row(m))
    if kind == "oxs":
        slots = rng.randint(1, max_slots or m)
        return Oxs(tuple(weight_row(slots) for _ in range(m)))
    clauses = rng.randint(1, max_clauses)
    return Xos(tuple(weight_row(m) for _ in range(clauses)))


# -- JSON schema --------------------------------------------------------------

def valuation_to_json(v: Valuation) -> dict:
    if isinstance(v, Additive):
        return {"type": "additive", "weights": [format_money(w) for w in v.weights]}
    if isinstance(v, UnitDemand):
        return {"type": "unit_demand", "weights": [format_money(w) for w in v.weights]}
    if isinstance(v, Xos):
        return {"type": "xos",
                "clauses": [[format_money(w) for w in c] for c in v.clauses]}
    if isinstance(v, Oxs):
        return {"type": "oxs",
                "matrix": [[format_money(w) for w in row] for row in v.matrix]}
    if isinstance(v, Tabular):
        return {"type": "tabular", "values": [format_money(x) for x in v.values]}
    raise TypeError(f"cannot serialize {type(v).__name__}")


def valuation_from_json(data: dict, *, number=parse_money) -> Valuation:
    """Inverse of :func:`valuation_to_json`.

    ``number`` lets instance files substitute a parametric parser (used for
    epsilon-bound fixtures); it must return an exact Fraction.
    """
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("valuation JSON must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "additive":
            return Additive(tuple(number(w) for w in data["weights"]))
        if kind == "unit_demand":
            return UnitDemand(tuple(number(w) for w in data["weights"]))
        if kind == "xos":
            return Xos(tuple(tuple(number(w) for w in c) for c in data["clauses"]))
        if kind == "oxs":
            return Oxs(tuple(tuple(number(w) for w in row) for row in data["matrix"]))
        if kind == "tabular":
            table = Tabular(tuple(number(x) for x in data["values"]))
            if not is_monotone_normalized(table):
                raise ValueError("tabular valuation is not monotone normalized")
            return table
    except KeyError as exc:
        raise ValueError(f"valuation JSON missing field {exc}") from exc
    raise ValueError(f"unknown valuation type {kind!r}")
