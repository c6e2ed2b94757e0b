"""Exact money arithmetic.

Every value, price, payment and utility in this package is a
``fractions.Fraction``.  Floats are rejected at the parsing boundary: the
lattice orderings and welfare inequalities checked downstream are exact
comparisons, and a single binary-rounded input would produce spurious
violations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import lcm
from numbers import Rational

ZERO = Fraction(0)


@total_ordering
class Infinity:
    """The exact unbounded value ``INFINITY`` (a ratio over zero welfare, the
    exposure of a positive bid on a worthless bundle): above every rational,
    equal only to itself, printed ``inf``, unpickled to the one instance."""

    def __lt__(self, other):
        return False if isinstance(other, (Rational, Infinity)) else NotImplemented

    __str__ = __repr__ = lambda self: "inf"
    __reduce__ = lambda self: "INFINITY"


INFINITY = Infinity()


def parse_money(value) -> Fraction:
    """Parse an int, a decimal string, or a ``"p/q"`` string exactly.

    >>> parse_money("0.125")
    Fraction(1, 8)
    >>> parse_money("-2/3")
    Fraction(-2, 3)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a money amount")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass a decimal string instead")
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise TypeError(f"cannot parse money from {type(value).__name__}")


def _parse_non_negative(value, what: str) -> Fraction:
    """:func:`parse_money`, refusing a negative ``value`` with ``what`` named."""
    amount = parse_money(value)
    if amount < 0:
        raise ValueError(f"{what} must be non-negative, got {format_money(amount)}")
    return amount


def scale_rows(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, every row times D), with D the lcm of all entries' denominators.

    Exact: entry k of row i is ``Fraction(out[i][k], D)``, so arithmetic on
    the rows can run over Python ints and convert back once at the end.
    """
    rows = [tuple(row) for row in rows]
    denom = lcm(*{q.denominator for row in rows for q in row})
    return denom, tuple(tuple(q.numerator * (denom // q.denominator) for q in row)
                        for row in rows)


def on_one_denominator(scaled) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, rows) from ``(D_i, row_i)`` pairs, row i over D_i: D is the lcm of
    the D_i, and row i is multiplied by D / D_i where that is not 1."""
    scaled = list(scaled)
    denom = lcm(*(d for d, _ in scaled))
    return denom, tuple(row if d == denom else tuple(map((denom // d).__mul__, row))
                        for d, row in scaled)


def format_money(q: Fraction) -> str:
    """Render exactly: a decimal string when the expansion terminates
    (denominator of the form 2^a 5^b), otherwise ``"p/q"``.
    """
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    k = max(twos, fives)
    scaled = abs(num) * 10**k // den
    digits = str(scaled).rjust(k + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}"
