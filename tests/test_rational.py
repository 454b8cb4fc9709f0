import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest

from mgt.errors import InputError
from mgt.rational import INF, format_float, format_scalar, parse_scalar


def test_parse_scalar_forms():
    assert parse_scalar("3") == 3
    assert parse_scalar("7/4") == F(7, 4)
    assert parse_scalar("0.25") == F(1, 4)
    assert parse_scalar(" 2/6 ") == F(1, 3)
    with pytest.raises(InputError):
        parse_scalar("1/0")
    with pytest.raises(InputError):
        parse_scalar("abc")


def test_format_scalar_canonical():
    assert format_scalar(F(10, 4)) == "5/2"
    assert format_scalar(F(6, 2)) == "3"
    assert format_scalar(INF) == "inf"
    assert format_float(F(1, 3)) == format(1 / 3, ".15g")


def test_format_scalar_at_the_int_text_limit():
    # str(int) writes at most this many digits (0: no limit); past it, Decimal writes them
    limit = sys.get_int_max_str_digits() or 4300
    for digits in (limit, limit + 1):
        num, den = 10 ** (digits - 1) + 1, 10 ** (digits - 1)  # coprime, both of ``digits`` digits
        for sign in (1, -1):
            assert format_scalar(F(sign * num, den)) == f"{Decimal(sign * num)}/{Decimal(den)}"
            assert format_scalar(F(sign * num)) == str(Decimal(sign * num))
    if sys.get_int_max_str_digits():
        with pytest.raises(ValueError):
            str(10 ** limit)


def test_format_float_past_the_double_range():
    # in range: exactly the text float formatting gives
    for x in (F(0), F(1, 12), F(-7, 3), F(10**300, 12), F(15 * 10**299), F(1, 10**300)):
        assert format_float(x) == format(float(x), ".15g")
    # past it: 15 significant digits through Decimal instead of OverflowError or 0
    assert format_float(F(10**400, 12)) == "8.33333333333333e+398"
    assert format_float(F(-10**400, 7)) == "-1.42857142857143e+399"
    assert format_float(F(15 * 10**399)) == "1.5e+400"
    assert format_float(F(2**1024)) == "1.79769313486232e+308"
    assert format_float(F(-1, 10**400)) == "-1e-400"
    assert format_float(F(1, 3 * 10**320)) == "3.33333333333333e-321"


def test_inf_is_a_marker_with_no_arithmetic():
    # formulas take a bridge's limit in closed form; arithmetic or ordering on INF is a bug
    assert repr(INF) == "INF" and INF != F(10**9)
    for op in (lambda: INF + F(1), lambda: F(1) + INF, lambda: F(1) / INF, lambda: INF / INF,
               lambda: INF * F(2), lambda: F(1) - INF, lambda: INF < F(1), lambda: F(1) <= INF):
        with pytest.raises(TypeError):
            op()
