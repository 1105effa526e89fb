import copy
import dataclasses
import pickle
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from he3cap.errors import UnsupportedRadicandError
from he3cap.exactnum import (
    QuadRational,
    SqrtRational,
    exact_sqrt,
    render_decimal,
    sqrt_product,
)

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)

small_fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
quads = st.builds(QuadRational, small_fractions, small_fractions)


def _reference_decimal(p: int, q: int, n: int, digits: int = 15, precision: int = 60) -> str:
    """(p + q*sqrt(2))/n through Decimal at the given precision, then rounded half-even."""
    with localcontext() as ctx:
        ctx.prec = precision
        value = (Decimal(p) + Decimal(q) * Decimal(2).sqrt()) / Decimal(n)
        if not value:
            return "0"  # not '-0'
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        # normalize() rounds to the context precision and drops trailing zeros.
        return format(value.normalize(), "f")


def _parts(value: QuadRational) -> tuple[int, int, int]:
    n = value.a.denominator * value.b.denominator
    return value.a.numerator * value.b.denominator, value.b.numerator * value.a.denominator, n


class TestSqrtRational:
    def test_canonical_zero(self):
        assert SqrtRational.zero() == SqrtRational(0, Fraction(0))
        assert SqrtRational.zero().is_zero

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SqrtRational(2, Fraction(1))
        with pytest.raises(ValueError):
            SqrtRational(1, Fraction(-1))
        with pytest.raises(ValueError):
            SqrtRational(0, Fraction(1))
        with pytest.raises(ValueError):
            SqrtRational(1, Fraction(0))

    def test_from_rational(self):
        assert SqrtRational.from_rational(Fraction(-2, 3)) == SqrtRational(-1, Fraction(4, 9))
        assert SqrtRational.from_rational(0).is_zero

    def test_square_of_either_sign(self):
        assert SqrtRational.sqrt(THIRD).square() == THIRD
        assert SqrtRational(-1, THIRD).square() == THIRD

    def test_str_forms(self):
        assert str(SqrtRational.sqrt(THIRD)) == "+sqrt(1/3)"
        assert str(SqrtRational(-1, TWO_THIRDS)) == "-sqrt(2/3)"
        assert str(SqrtRational.from_rational(1)) == "+1"
        assert str(SqrtRational.zero()) == "0"

    def test_decimal_str_matches_15_digits(self):
        assert SqrtRational.sqrt(THIRD).decimal_str() == "0.577350269189626"
        assert SqrtRational(-1, TWO_THIRDS).decimal_str() == "-0.816496580927726"


class TestSqrtProduct:
    def test_same_radicand_is_rational(self):
        root = SqrtRational.sqrt(THIRD)
        assert sqrt_product(root, root) == QuadRational(THIRD, Fraction(0))

    def test_cross_term_lands_on_sqrt2(self):
        product = sqrt_product(SqrtRational.sqrt(THIRD), SqrtRational.sqrt(TWO_THIRDS))
        assert product == QuadRational(Fraction(0), THIRD)

    def test_signed_product(self):
        root = SqrtRational.sqrt(TWO_THIRDS)
        assert sqrt_product(SqrtRational(-1, TWO_THIRDS), root) == QuadRational(Fraction(-2, 3), Fraction(0))

    def test_unsupported_radicand_raises(self):
        with pytest.raises(UnsupportedRadicandError):
            sqrt_product(SqrtRational.sqrt(THIRD), SqrtRational.sqrt(Fraction(1, 5)))

    def test_zero_factor(self):
        assert sqrt_product(SqrtRational.zero(), SqrtRational.sqrt(THIRD)).is_zero


class TestExactSqrt:
    @given(st.fractions(min_value=Fraction(0), max_value=Fraction(100), max_denominator=30))
    def test_roundtrip_on_squares(self, q):
        root = exact_sqrt(q * q)
        assert root == abs(q)

    def test_irrational_returns_none(self):
        assert exact_sqrt(Fraction(2)) is None
        assert exact_sqrt(Fraction(1, 3)) is None


class TestQuadRational:
    def test_construction_converts_parts_and_stays_a_frozen_dataclass(self):
        x = QuadRational(1, "-1/2")
        assert (x.a, x.b) == (Fraction(1), Fraction(-1, 2))
        assert type(x.a) is Fraction and type(x.b) is Fraction
        assert QuadRational(b=Fraction(-1, 2), a=Fraction(1)) == x
        assert repr(x) == "QuadRational(a=Fraction(1, 1), b=Fraction(-1, 2))"
        part = Fraction(2, 3)
        assert QuadRational(part, part).a is part
        assert dataclasses.replace(x, b=3) == QuadRational(1, 3)
        assert [field.name for field in dataclasses.fields(QuadRational)] == ["a", "b"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.a = Fraction(0)
        assert pickle.loads(pickle.dumps(x)) == x and hash(copy.copy(x)) == hash(x)

    def test_structural_equality_is_field_equality(self):
        assert QuadRational(THIRD, Fraction(0)) == Fraction(1, 3)
        assert QuadRational(Fraction(1), Fraction(1)) != QuadRational(Fraction(1), Fraction(0))

    @given(quads, quads, quads)
    def test_ring_axioms(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z

    @given(quads)
    def test_additive_inverse(self, x):
        assert (x + (-x)).is_zero

    @given(quads)
    def test_multiplicative_inverse(self, x):
        if x.is_zero:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == QuadRational.one()
            assert (QuadRational.one() / x) * x == 1

    @given(quads)
    def test_sign_agrees_with_float(self, x):
        approx = float(x.a) + float(x.b) * 2 ** 0.5
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1)

    @given(quads, quads)
    def test_total_order_consistent_with_subtraction(self, x, y):
        assert (x < y) == ((x - y).sign() < 0)
        assert (x <= y) == ((x - y).sign() <= 0)
        assert (x == y) == (x - y).is_zero

    def test_sign_near_sqrt2_boundary(self):
        # 1.4142135 < sqrt(2) < 1.41421357
        assert QuadRational(Fraction(-14142135, 10**7), Fraction(1)).sign() == 1
        assert QuadRational(Fraction(-141421357, 10**8), Fraction(1)).sign() == -1
        assert QuadRational.zero().sign() == 0

    def test_scalar_arithmetic(self):
        x = QuadRational(Fraction(1, 2), Fraction(1, 3))
        assert 2 * x == QuadRational(Fraction(1), TWO_THIRDS)
        assert x - Fraction(1, 2) == QuadRational(Fraction(0), THIRD)
        assert x / Fraction(1, 3) == QuadRational(Fraction(3, 2), Fraction(1))

    def test_str_forms(self):
        assert str(QuadRational(Fraction(6), Fraction(-4))) == "6 - 4*sqrt(2)"
        assert str(QuadRational(Fraction(3), Fraction(4))) == "3 + 4*sqrt(2)"
        assert str(QuadRational(Fraction(0), THIRD)) == "1/3*sqrt(2)"
        assert str(QuadRational(Fraction(5, 12), Fraction(0))) == "5/12"
        assert str(QuadRational.zero()) == "0"

    def test_decimal_str(self):
        assert QuadRational(Fraction(3, 4), Fraction(0)).decimal_str() == "0.75"
        assert QuadRational(Fraction(1, 3), Fraction(0)).decimal_str() == "0.333333333333333"
        assert QuadRational(Fraction(0), Fraction(1)).decimal_str() == "1.4142135623731"
        assert QuadRational(Fraction(9), Fraction(-4)).decimal_str() == "3.34314575050762"

    @pytest.mark.parametrize("digits", [5, 15, 30])
    def test_decimal_str_at_each_precision_matches_a_reference(self, digits):
        values = [
            QuadRational(Fraction(9), Fraction(-4)),
            QuadRational(Fraction(1, 3), Fraction(5, 7)),
            QuadRational(Fraction(0), Fraction(-1, 12)),
            # a + b*sqrt(2) cancels to about 1e-60, so only a rendering that
            # keeps every digit of the sum gets its leading digits right.
            QuadRational(
                -Fraction(1010152544552210749144063374435498627549765625269248623697628, 10**60),
                Fraction(5, 7),
            ),
        ]
        for value in values:
            assert value.decimal_str(digits) == _reference_decimal(
                *_parts(value), digits, precision=150
            )

    def test_float_is_close(self):
        value = QuadRational(Fraction(6), Fraction(-4))
        assert float(value) == pytest.approx(6 - 4 * 2 ** 0.5, abs=1e-15)


# Integers small enough that p + q*sqrt(2) cancels by at most about 24
# digits, so 60 reference digits leave more than 30 beyond the 15 shown; the
# shift moves the value across magnitudes from below 1e-30 to above 1e30.
_parts_strategy = st.integers(min_value=-(10**12), max_value=10**12)


class TestRenderDecimal:
    @given(
        _parts_strategy,
        _parts_strategy,
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=-30, max_value=30),
        st.booleans(),
    )
    @example(0, 0, 7, 0, False)  # zero
    @example(5, 0, 2, 0, False)  # 2.5 needs no rounding
    @example(12345, 0, 1, -20, False)  # below 1e-5
    @example(-1414213562373, 1000000000000, 1, 0, False)  # deep cancellation
    def test_matches_a_60_digit_reference(self, p, q, n, shift, negative_n):
        if shift >= 0:
            p, q = p * 10**shift, q * 10**shift
        else:
            n *= 10**-shift
        if negative_n:
            p, q, n = -p, -q, -n
        assert render_decimal(p, q, n) == _reference_decimal(p, q, n)

    @given(
        st.integers(min_value=10**14, max_value=10**15 - 1),
        st.integers(min_value=-20, max_value=20),
        st.sampled_from([1, -1]),
    )
    @example(123456789012344, 0, 1)  # ...44.5 stays at the even 4
    @example(123456789012345, 0, -1)  # -...45.5 goes to the even -...46
    @example(999999999999999, 0, 1)  # 999999999999999.5 carries into a new digit
    def test_exact_ties_round_half_even(self, digits, shift, sign):
        # Sixteen significant digits ending in 5 are an exact tie at fifteen.
        scale_up, scale_down = (10**shift, 1) if shift >= 0 else (1, 10**-shift)
        tie, above = (sign * (10 * digits + last) * scale_up for last in (5, 6))
        n = 10 * scale_down
        assert render_decimal(tie, 0, n) == _reference_decimal(tie, 0, n)
        # Any sqrt(2) part, however small, breaks the tie away from zero.
        assert render_decimal(tie * 10**40, sign, n * 10**40) == _reference_decimal(above, 0, n)

    def test_positional_form(self):
        assert render_decimal(3, 0, 4) == "0.75"
        assert render_decimal(24, 0, 1) == "24"
        assert render_decimal(15 * 10**20, 0, 1) == "1500000000000000000000"
        assert render_decimal(1, 0, 10**20) == "0.00000000000000000001"
        assert render_decimal(-1, 0, 3) == "-0.333333333333333"
        assert render_decimal(0, 0, -5) == "0"

    @given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6), st.booleans())
    @example(Fraction(1, 4), False)
    @example(Fraction(2), True)
    def test_signed_root_matches_a_reference(self, radicand, negative):
        root = SqrtRational.from_rational(-1 if negative else 1) * SqrtRational.sqrt(radicand)
        with localcontext() as ctx:
            ctx.prec = 60
            value = Decimal(radicand.numerator).sqrt() / Decimal(radicand.denominator).sqrt()
            ctx.prec = 15
            expected = format((-value if negative else value).normalize(), "f")
        assert root.decimal_str() == expected
