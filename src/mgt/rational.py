"""Exact scalars: arbitrary-precision rationals plus a distinguished infinity.

Finite values are plain ``fractions.Fraction`` (always lowest terms, positive
denominator). ``INF`` marks the resistance across a deleted bridge. It is a
bare marker with no arithmetic: a formula that meets a bridge takes its limit
in closed form, and readers test ``x is INF``. Any arithmetic or ordering on
it raises ``TypeError``, so broken algebra cannot slip through as a number.
"""

from __future__ import annotations

import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from math import lcm
from typing import Union

from .errors import InputError

Scalar = Fraction


class _Infinity:
    """The singleton marker for an infinite resistance; it has no arithmetic."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()

ExtScalar = Union[Fraction, _Infinity]


MAX_SCALAR_DIGITS = 1000  # per parsed scalar: digits written plus the decimal exponent


def parse_scalar(text: str) -> Fraction:
    """Parse ``3``, ``a/b`` or an exact finite decimal such as ``0.25``.

    The size is checked before the Fraction is built, so ``1e999999999``
    never computes a power of ten.
    """
    body, _, exponent = text.strip().lower().partition("e")
    try:
        digits = sum(c.isdigit() for c in body) + (abs(int(exponent)) if exponent else 0)
        if digits > MAX_SCALAR_DIGITS:
            raise InputError(f"a scalar of {digits} digits exceeds the limit of {MAX_SCALAR_DIGITS}")
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not an exact rational: {text!r}") from exc
    return value


def format_scalar(x: ExtScalar) -> str:
    """Canonical text form: lowest-terms ``a/b`` (bare integer if b=1), ``inf``.

    ``str(int)`` writes the digits; past the interpreter's int-to-text limit
    (``sys.get_int_max_str_digits``) it raises ``ValueError``, and ``Decimal``,
    which has no such cap, writes them instead.
    """
    if x is INF:
        return "inf"
    n, d = x.as_integer_ratio()
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        return str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


def sum_over(pairs: list[tuple[int, int]], common: int) -> Fraction:
    """(sum of n/m over the integer (n, m) pairs) / common, reduced once.

    The m are small (built from length numerators and denominators); the
    large shared factor, a power of the Green denominator, is ``common``.
    """
    m = lcm(*(q for _, q in pairs))
    return Fraction(sum(n * (m // q) for n, q in pairs), common * m)


_FLOAT_TEXT = Context(prec=15, Emax=MAX_EMAX, Emin=MIN_EMIN)


def format_float(x: ExtScalar) -> str:
    """``x`` to 15 significant digits.

    Values past the double range, which ``float`` overflows on or flushes
    toward zero, go through ``Decimal`` instead.
    """
    if x is INF:
        return "inf"
    try:
        value = float(x)
        if not x or abs(value) >= sys.float_info.min:
            return format(value, ".15g")
    except OverflowError:
        pass
    quotient = _FLOAT_TEXT.divide(Decimal(x.numerator), Decimal(x.denominator))
    return format(_FLOAT_TEXT.normalize(quotient), ".15g")
