from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from walras.money import format_money, granularity, parse_money, rational_gcd


def test_parse_int_and_strings():
    assert parse_money(3) == Fraction(3)
    assert parse_money("0.125") == Fraction(1, 8)
    assert parse_money("-2/3") == Fraction(-2, 3)
    assert parse_money(" 7/2 ") == Fraction(7, 2)


def test_parse_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        parse_money(0.1)
    with pytest.raises(ValueError):
        parse_money("abc")
    with pytest.raises(ValueError):
        parse_money("1/0")


@pytest.mark.parametrize("value,text", [
    (Fraction(8), "8"),
    (Fraction(25, 8), "3.125"),
    (Fraction(1, 2), "0.5"),
    (Fraction(3, 10), "0.3"),
    (Fraction(-1, 4), "-0.25"),
    (Fraction(1, 3), "1/3"),
    (Fraction(-7, 12), "-7/12"),
])
def test_format(value, text):
    assert format_money(value) == text


def test_format_parse_round_trip():
    for num in range(-12, 13):
        for den in range(1, 9):
            q = Fraction(num, den)
            assert parse_money(format_money(q)) == q


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.one_of(
    st.fractions(),
    st.builds(lambda n, a, b: Fraction(n, 2**a * 5**b),
              st.integers(), st.integers(0, 12), st.integers(0, 12))))
def test_format_parse_round_trip_on_any_fraction(q):
    assert parse_money(format_money(q)) == q


def test_rational_gcd():
    assert rational_gcd(Fraction(9, 8), Fraction(2)) == Fraction(1, 8)
    assert rational_gcd(Fraction(0), Fraction(5)) == 5
    assert rational_gcd(Fraction(3, 4), Fraction(1, 2)) == Fraction(1, 4)


def test_granularity_floor():
    assert granularity([Fraction(1, 64), Fraction(1, 2)]) == Fraction(1, 8)
    assert granularity([Fraction(2), Fraction(4)]) == Fraction(2)
    assert granularity([]) == Fraction(1, 8)
