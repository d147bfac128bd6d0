import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spernerfix.rationals import ParseError, decimal_string, is_below_sqrt2, parse_rational

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=100)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def assert_canonical(q: Fraction) -> None:
    assert q.denominator > 0
    assert math.gcd(abs(q.numerator), q.denominator) == 1
    assert Fraction(q.numerator, q.denominator) == q


class TestNormalize:
    """Literals come out in canonical form: lowest terms, positive denominator."""

    def test_gcd_reduction(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    def test_sign_normalization(self):
        q = parse_rational("-3/6")
        assert q == Fraction(-1, 2)
        assert q.denominator == 2 and q.numerator == -1

    def test_zero_canonical_form(self):
        q = parse_rational("0/7")
        assert q.numerator == 0 and q.denominator == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")


class TestArith:
    """The exact field arithmetic every certificate rests on."""

    def test_exact_addition(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)

    def test_squaring_for_sqrt2_oracle(self):
        assert Fraction(7, 5) * Fraction(7, 5) == Fraction(49, 25)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    @given(rationals, rationals)
    def test_sub_inverts_add(self, a, b):
        assert (a + b) - b == a

    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0

    @given(nonzero_rationals)
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == 1

    @given(rationals, rationals)
    def test_results_canonical(self, a, b):
        for q in (a + b, a - b, a * b):
            assert_canonical(q)
        if b != 0:
            assert_canonical(a / b)


class TestCmp:
    """The exact order every sign decision rests on."""

    def test_examples(self):
        assert Fraction(1, 2) < Fraction(2, 3)
        assert Fraction(3, 6) == Fraction(1, 2)
        assert Fraction(-1, 2) > Fraction(-2, 3)

    @given(rationals, rationals)
    def test_antisymmetric(self, a, b):
        assert (a < b) == (b > a)
        assert not (a < b and b < a)

    @given(rationals, rationals, rationals)
    def test_transitive(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(rationals, rationals)
    def test_consistent_with_real_embedding(self, a, b):
        # cross-multiplication order agrees with Fraction's native order
        assert (a < b) == (a.numerator * b.denominator < b.numerator * a.denominator)


class TestIsBelowSqrt2:
    def test_examples(self):
        assert is_below_sqrt2(Fraction(7, 5)) is True  # 49/25 < 2
        assert is_below_sqrt2(Fraction(3, 2)) is False  # 9/4 > 2
        assert is_below_sqrt2(Fraction(1)) is True

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_below_sqrt2(Fraction(0))
        with pytest.raises(ValueError):
            is_below_sqrt2(Fraction(-3, 2))

    @given(rationals.filter(lambda q: q > 0))
    def test_agrees_with_squaring(self, x):
        assert is_below_sqrt2(x) == (x * x < 2)


class TestLiteralFormat:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("-3/7", Fraction(-3, 7)),
            ("2", Fraction(2)),
            ("+5", Fraction(5)),
            ("0", Fraction(0)),
            ("10/4", Fraction(5, 2)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "1.5", "3 /7", "3/ 7", " 2", "2 ", "1/0", "abc", "1/-2", "--3", "1/2/3", "1e3"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_over_long_literal_rejected(self, digit_limit):
        digit_limit(640)
        assert parse_rational("7" * 640 + "/3") == Fraction(int("7" * 640), 3)
        for text in ("7" * 641, "1/" + "7" * 641):
            with pytest.raises(ParseError) as info:
                parse_rational(text)
            assert str(info.value) == f"more than 640 digits in rational literal {text!r}"

    @given(rationals)
    def test_str_round_trips(self, q):
        assert parse_rational(str(q)) == q


class TestDecimalString:
    def test_truncates(self):
        assert decimal_string(Fraction(2, 3)) == "0.666666666666"

    def test_truncates_toward_zero(self):
        assert decimal_string(Fraction(-2, 3)) == "-0.666666666666"

    def test_exact_value(self):
        assert decimal_string(Fraction(1, 2)) == "0.500000000000"

    def test_integer(self):
        assert decimal_string(Fraction(2)) == "2.000000000000"

    def test_whole_part_over_the_digit_limit_is_refused_in_the_package_wording(self, digit_limit):
        digit_limit(640)
        # 640 digits in the whole part render, and a numerator of more digits is no obstacle
        assert decimal_string(Fraction(-(10**640 - 1) * 7, 7)) == "-" + "9" * 640 + ".000000000000"
        assert decimal_string(Fraction(10**700 + 1, 10**699)) == "10.000000000000"
        for q in (Fraction(10**640), Fraction(-(10**700), 3)):
            with pytest.raises(ValueError) as info:
                decimal_string(q)
            assert str(info.value) == "too long to render in decimal: integers over 640 digits"
