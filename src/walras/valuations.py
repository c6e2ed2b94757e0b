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

The structured kinds also declare what a row is (``_slots``): an additive
clause (additive, XOS) or a slot (unit-demand, OXS); tabular declares
none.  ``_fold_rows`` reads the declared field as rows on D_v, a common
multiple of the kind's weight denominators, an OXS matrix by its slot
columns; a single-row kind is one row.  The welfare DP folds a bid item by
item from these rows, and the one builder ``Valuation._ints`` makes every
structured table from them by the same fold, onto the all-zero table.  The
declaration also decides which kinds :func:`sample_valuation` draws and
which profiles ``analysis.MarginalSumReport`` classes as XOS.

Each kind's integer table ``(D_v, ints)`` is built once (cached by
:func:`_tabulate`): ``ints[x]`` is D_v times the value of bundle x.  Every
reader (the welfare DP, demand sets, the checkers, the analysis layer)
works on those ints; ``value`` and ``table`` are their Fraction views.

Class checkers tabulate the valuation, so they are exponential in m; the
analysis layer runs them only up to ``CHECKER_MAX_ITEMS`` items.  They compare
the integer table, which keeps the order of every sum, so each verdict is
exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .bundles import check_bundle, check_item_count, fold_rows, iter_bits
from .money import (ZERO, _parse_non_negative, format_money, on_one_denominator,
                    parse_money, scale_rows)

# Largest m the analysis layer hands to the class checkers, from a budget of
# 0.1 s per valuation for the exchange test over all 4^m bundle pairs (README).
CHECKER_MAX_ITEMS = 8


def _to_weights(weights: Iterable) -> tuple[Fraction, ...]:
    out = tuple(parse_money(w) for w in weights)
    if any(w.numerator < 0 for w in out):  # parse_money gives Fractions
        raise ValueError("valuation weights must be non-negative")
    return out


def _map_numbers(f, numbers, rows: bool, into=list):
    """f over every number of a declared field, keeping its shape in ``into``s."""
    return into(into(map(f, r)) for r in numbers) if rows else into(map(f, numbers))


class Valuation:
    """Base interface shared by all valuation representations."""

    m: int
    _type: str | None = None  # the kind declaration, see the module docstring
    _field: str
    _rows = False
    _slots: bool | None = None  # fold rows: OXS slots, additive clauses, none

    @cached_property
    def _fold_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D_v, every fold row times D_v): the declared field as rows,
        an OXS matrix read by its slot columns."""
        rows = getattr(self, self._field)
        if not self._rows:
            rows = (rows,)
        elif self._slots:
            rows = zip(*rows)
        return scale_rows(rows)

    def _ints(self) -> tuple[int, tuple[int, ...]]:
        """The kind's integer table: its fold rows folded onto the all-zero
        table by one :func:`bundles.fold_rows` call; read it through
        :func:`_tabulate`.  A clause's table is the running sum of its weights
        and clauses take an element-wise max; slot k gives a bundle's item i
        or nothing: g_{k+1}(S) = max(g_k(S), g_k(S - i) + w[i][k])."""
        denom, rows = self._fold_rows
        return denom, fold_rows((0,) * (1 << self.m), rows, self._slots)

    def value(self, bundle: int) -> Fraction:
        check_bundle(self.m, bundle)
        denom, tab = _tabulate(self)
        return Fraction(tab[bundle], denom)

    def table(self) -> tuple[Fraction, ...]:
        """Full table of values, indexed by bundle bitmask: the Fraction view
        of the integer table."""
        denom, tab = _tabulate(self)
        return tuple(Fraction(t, denom) for t in tab)

    def scale(self, factor) -> "Valuation":
        """The valuation of the same kind with every number times a
        non-negative ``factor``: only the factor is checked, as the products
        of checked numbers by it pass the kind's checks."""
        c = _parse_non_negative(factor, "scale factor")
        numbers = getattr(self, self._field)
        return self._trusted(_map_numbers(c.__mul__, numbers, self._rows, tuple))

    @classmethod
    def _trusted(cls, numbers: tuple) -> "Valuation":
        """This kind holding ``numbers`` as its constructor leaves them, unchecked."""
        v = object.__new__(cls)
        v.__dict__[cls._field] = numbers
        return v

    @cached_property
    def _gross_substitutes(self) -> bool:
        """Exchange-test verdict, computed once per valuation.  A table that
        is not monotone normalized raises, and nothing is cached."""
        return _exchange_holds(self)


@lru_cache(maxsize=1 << 16)
def _tabulate(v: Valuation) -> tuple[int, tuple[int, ...]]:
    """v's integer table ``(D_v, ints)``, built once per valuation: value
    x is ``Fraction(ints[x], D_v)``.  Every table reader starts here."""
    return v._ints()


@dataclass(frozen=True)
class _ItemWeights(Valuation):
    """One weight per item: the shared shape of additive and unit-demand,
    one clause or one slot."""

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
    _type, _slots = "additive", False


@dataclass(frozen=True)
class UnitDemand(_ItemWeights):
    _type, _slots = "unit_demand", True


class _Rows(Valuation):
    """Rows of weights of one length: XOS clauses, each indexed by item, or
    an OXS matrix, one row per item and one column per slot."""

    def __post_init__(self):
        rows = tuple(map(_to_weights, getattr(self, self._field)))
        if not rows or len({len(r) for r in rows}) != 1 or not rows[0]:
            raise ValueError(f"{self._type} valuation field {self._field!r} "
                             "needs one or more rows of one non-zero length")
        object.__setattr__(self, self._field, rows)
        check_item_count(self.m)

    @property
    def m(self) -> int:
        rows = getattr(self, self._field)
        return len(rows) if self._slots else len(rows[0])


@dataclass(frozen=True)
class Xos(_Rows):
    """Max over additive clauses; every clause is a weight vector."""

    clauses: tuple[tuple[Fraction, ...], ...]
    _type, _field, _rows, _slots = "xos", "clauses", True, False


@dataclass(frozen=True)
class Oxs(_Rows):
    """Assignment valuation: rows are items, columns are private slots.

    The value of a bundle is the weight of a maximum matching of its items
    to slots, each slot used at most once.  Assignment valuations are gross
    substitutes.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    _type, _field, _rows, _slots = "oxs", "matrix", True, True


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

    def _ints(self) -> tuple[int, tuple[int, ...]]:
        denom, (tab,) = scale_rows((self.values,))
        return denom, tab

    def table(self) -> tuple[Fraction, ...]:
        return self.values


def _worth_at_empty(v: Valuation, what: str, *at) -> None:
    """Refuse ``v``, ``what.format(*at)`` of a profile or grid, if it is worth
    non-zero at the empty bundle: every welfare reader takes that bundle to
    be worth 0.  Only a ``Tabular`` can be worth anything there."""
    if isinstance(v, Tabular) and v.values[0]:
        raise ValueError(f"{what.format(*at)}, {valuation_to_json(v)}, is worth "
                         f"{format_money(v.values[0])} at the empty bundle, not 0")


_BY_TYPE = {k._type: k for k in (Additive, UnitDemand, Xos, Oxs, Tabular)}


def _hash_once(field_hash):
    """A kind's dataclass hash, kept on the instance after the first call:
    :func:`_tabulate` looks a valuation up by it on every table read, and
    hashing the fields hashes every ``Fraction`` weight."""
    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = field_hash(self)
            return h
    return __hash__


for _kind in _BY_TYPE.values():
    _kind.__hash__ = _hash_once(_kind.__hash__)


def budget_additive(weights: Iterable, cap) -> Tabular:
    """min(cap, sum of weights) as an explicit table.

    Budget-additive valuations are submodular but in general not gross
    substitutes; they only exist here in tabular form.
    """
    total = Additive(weights)  # checks the weights and the item count
    limit = _parse_non_negative(cap, "budget cap")
    return Tabular(tuple(min(limit, x) for x in total.table()))


# -- oracles ----------------------------------------------------------------

def marginal_value(f: Callable[[tuple[int, ...]], Fraction],
                   y: Sequence[int], x: Sequence[int]) -> Fraction:
    """f(y | x) = f(y + x) - f(x) for a multiset value oracle f."""
    base = tuple(x)
    added = tuple(a + b for a, b in zip(y, base, strict=True))
    return f(added) - f(base)


def _parse_prices(prices: Sequence, m: int) -> tuple[int, tuple[int, ...]]:
    """A price vector over m items as (D, every price times D), refused
    unless it has m exact non-negative entries."""
    p = [parse_money(q) for q in prices]
    if len(p) != m:
        raise ValueError(
            f"price vector length mismatch: {len(p)} prices for m={m} items")
    if any(q < 0 for q in p):
        raise ValueError("prices must be non-negative")
    denom, (p,) = scale_rows((p,))
    return denom, p


def demand_set(v: Valuation, prices: Sequence) -> list[int]:
    """All bundles maximizing v(x) - p.x, ascending bitmask order.

    Ties are kept; callers choose their own selection rule.
    """
    # Table and prices on one denominator, so utilities compare as ints.
    _, (tab, p) = on_one_denominator((_tabulate(v), _parse_prices(prices, v.m)))
    return _demanded(tab, p)


@cache
def _demand_steps(size: int) -> tuple[tuple[int, int, int], ...]:
    """(x, x less its lowest item, that item) for each bundle 0 < x < size."""
    return tuple((x, x & x - 1, (x & -x).bit_length() - 1) for x in range(1, size))


def _demanded(tab: Sequence[int], p: Sequence[int]) -> list[int]:
    """The bundles maximizing tab[x] - p.x, ascending, for a table and prices
    over one denominator; x is priced from x less its lowest item."""
    cost = [0] * len(tab)
    best = tab[0]
    winners = [0]
    for mask, rest, j in _demand_steps(len(tab)):
        cost[mask] = c = cost[rest] + p[j]
        u = tab[mask] - c
        if u > best:
            best = u
            winners = [mask]
        elif u == best:
            winners.append(mask)
    return winners


# -- class membership checkers ----------------------------------------------

def _marginal_gaps(tab: Sequence[int]) -> Iterator[int]:
    """tab[x + j] - tab[x] for every bundle x and every item j not in x."""
    m = len(tab).bit_length() - 1
    return (tab[x | 1 << j] - tab[x] for x in range(len(tab))
            for j in range(m) if not x >> j & 1)


def is_monotone_normalized(v: Valuation) -> bool:
    """True iff v(empty) = 0 and adding an item never lowers the value."""
    tab = _tabulate(v)[1]
    return tab[0] == 0 and all(gap >= 0 for gap in _marginal_gaps(tab))


def _require_normalized(v: Valuation) -> tuple[int, ...]:
    if not is_monotone_normalized(v):
        raise ValueError("valuation is not monotone and normalized")
    return _tabulate(v)[1]


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
    check_bundle(v.m, bundle)
    dots = [sum((c[j] for j in iter_bits(bundle)), ZERO) for c in v.clauses]
    return v.clauses[dots.index(max(dots))]


# -- random generation -------------------------------------------------------

@lru_cache(maxsize=16)
def _weight_grid(limit: Fraction, dens: tuple) -> tuple[tuple[Fraction, ...], ...]:
    """Every weight k/d in [0, limit], one row per denominator d, built once."""
    return tuple(tuple(Fraction(k, d) for k in range(int(limit * d) + 1)) for d in dens)


def sample_valuation(kind: str, m: int, cap, seed: int, *,
                     denominators: Sequence[int] = (1, 2, 4, 8)) -> Valuation:
    """Deterministic random valuation of the given structured class.

    Weights are rationals w/denominator drawn from ``denominators`` and
    bounded by ``cap``; an OXS valuation has 1..m slots and an XOS one 1..3
    clauses.  Same arguments, same output.
    """
    cls = _BY_TYPE.get(kind)
    if cls is None or cls._slots is None:
        raise ValueError(f"unknown valuation class {kind!r}")
    check_item_count(m)
    limit = _parse_non_negative(cap, "cap")
    rng = random.Random(f"{kind}:{m}:{limit}:{seed}")
    grid = _weight_grid(limit, tuple(denominators))

    def weight_row(n: int) -> tuple[Fraction, ...]:
        # Draw d, then k/d from its row: one ``_randbelow`` draw each.
        return tuple(rng.choice(rng.choice(grid)) for _ in range(n))

    if not cls._rows:
        return cls(weight_row(m))
    if cls._slots:  # one row per item over 1..m slots
        slots = rng.randint(1, m)
        return cls(tuple(weight_row(slots) for _ in range(m)))
    clauses = rng.randint(1, 3)
    return cls(tuple(weight_row(m) for _ in range(clauses)))


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
