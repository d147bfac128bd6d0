"""Exact rational scalars.

Every quantity in this package is a `fractions.Fraction`: arbitrary-precision
numerator, positive denominator, always reduced to lowest terms. That makes
every comparison and every certificate in the package an exact decision, never
a floating-point approximation. This module adds the small amount of surface
the rest of the package needs on top of the stdlib type: the one exactness
check of its inputs, the error raised when such a decision comes out against a
certificate, an exact order test against sqrt(2), the text literal format of
the CLI and of expression constants, display-only decimal rendering, and the
one wording of str()'s refusal of an integer over the digit limit.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

__all__ = ["CertificateError", "ParseError", "decimal_string", "is_below_sqrt2", "parse_rational"]

# Literal grammar, also of constants in expressions: optional sign and decimal
# integer (group 1), optional "/" and positive decimal integer denominator
# (group 2). ASCII digits only; no whitespace anywhere inside the literal.
_LITERAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# The exact kinds of number; int first, so an int skips Fraction's ABC instance hook.
_EXACT = (int, Fraction)


class ParseError(ValueError):
    """Malformed literal or expression text; carries the offset when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CertificateError(AssertionError):
    """An exactly decided claim of a certificate came out false.

    That is an implementation bug, never bad input. The checks that raise it
    are plain `if` tests, so unlike `assert` they also run under python -O.
    """


def _exact(value, name: str, *args):
    """value, if it is an int or a Fraction (subclasses too) but not a bool; else
    TypeError naming the argument name.format(*args), formatted only then."""
    if isinstance(value, _EXACT) and value.__class__ is not bool:
        return value
    raise TypeError(f"{name.format(*args)} must be an int or a Fraction, not {value!r}")


def _count(value, name: str) -> int:
    """value, if it is an int and not a bool; else TypeError naming it."""
    if type(value) is int:
        return value
    raise TypeError(f"{name} must be an int, not {value!r}")


def is_below_sqrt2(x: Fraction) -> bool:
    """True iff x < sqrt(2), decided exactly by squaring.

    Requires an exact x > 0. The case x*x == 2 cannot occur for rational x
    (2 is not a rational square); reaching it raises CertificateError.
    """
    if _exact(x, "x") <= 0:
        raise ValueError("is_below_sqrt2 requires a positive argument")
    sq = x * x
    if sq == 2:
        raise CertificateError(f"{x} squares to 2, but no rational does")
    return sq < 2


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as ``-3/7`` or ``2``.

    Stricter than Fraction's constructor: no whitespace, no decimal point,
    no exponent. Raises ParseError on malformed text, a zero denominator or
    too many digits for int(). `str()` of a Fraction inverts this exactly.
    """
    match = _LITERAL_RE.fullmatch(text)
    if not match:
        raise ParseError(f"invalid rational literal {text!r}")
    return _literal_value(match)


def _literal_value(match: re.Match, position: int | None = None) -> Fraction:
    """The value of a _LITERAL_RE match; a ParseError gives `position`, else the literal."""
    where = "" if position is not None else f" {match[0]!r}"
    try:
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError:  # the digit limit is all that refuses digits the pattern matched
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"more than {limit} digits in rational literal{where}", position) from None
    if den == 0:
        raise ParseError(f"zero denominator in rational literal{where}", position)
    return Fraction(num, den)


def decimal_string(q: Fraction) -> str:
    """Render q with 12 fractional digits, truncated toward zero.

    Display only; the result never feeds back into computation. Raises
    ValueError when the whole part has more digits than str() of an int takes.
    """
    sign = "-" if _exact(q, "q") < 0 else ""
    whole, rem = divmod(abs(q.numerator), q.denominator)
    digits = _text(whole, "too long to render in decimal")
    return f"{sign}{digits}.{rem * 10**12 // q.denominator:012d}"


def _text(q: Fraction | int, refusal: str = "the result is too long to print") -> str:
    """str(q); the interpreter's refusal of an integer over its int-to-string
    digit limit becomes a ValueError that starts with `refusal`."""
    try:
        return str(q)
    except ValueError:  # for an int or a Fraction, only the digit limit raises
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{refusal}: integers over {limit} digits") from None
