"""Exact rational scalars.

Every quantity in this package is a `fractions.Fraction`: arbitrary-precision
numerator, positive denominator, always reduced to lowest terms. That makes
every comparison and every certificate in the package an exact decision, never
a floating-point approximation. This module adds the small amount of surface
the rest of the package needs on top of the stdlib type: the error raised when
such a decision comes out against a certificate, an exact order test against
sqrt(2), the text literal format of the CLI and of expression constants, and
display-only decimal rendering.
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


def is_below_sqrt2(x: Fraction) -> bool:
    """True iff x < sqrt(2), decided exactly by squaring.

    Requires x > 0. The case x*x == 2 cannot occur for rational x (2 is not
    a rational square); reaching it raises CertificateError.
    """
    if x <= 0:
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

    Display only; the result never feeds back into computation.
    """
    sign = "-" if q < 0 else ""
    whole, rem = divmod(abs(q.numerator), q.denominator)
    return f"{sign}{whole}.{rem * 10**12 // q.denominator:012d}"
