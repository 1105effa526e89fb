from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from he3cap import exactnum
from he3cap.errors import UnsupportedRadicandError
from he3cap.exactnum import QuadRational, SqrtRational, exact_sqrt, sqrt_product

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)

small_fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
quads = st.builds(QuadRational, small_fractions, small_fractions)


def _fresh_decimal_str(value: QuadRational, digits: int) -> str:
    """decimal_str recomputed independently: sqrt(2) at 25 guard digits, then rounded."""
    with localcontext() as ctx:
        ctx.prec = digits + 25
        a = Decimal(value.a.numerator) / Decimal(value.a.denominator)
        b = Decimal(value.b.numerator) / Decimal(value.b.denominator)
        exact = a + b * Decimal(2).sqrt()
    with localcontext() as ctx:
        ctx.prec = digits
        return format((+exact).normalize(), "f")


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

    def test_square_and_negate(self):
        value = SqrtRational.sqrt(THIRD)
        assert value.square() == THIRD
        assert (-value).sign == -1
        assert (-value).square() == THIRD

    def test_str_forms(self):
        assert str(SqrtRational.sqrt(THIRD)) == "+sqrt(1/3)"
        assert str(-SqrtRational.sqrt(TWO_THIRDS)) == "-sqrt(2/3)"
        assert str(SqrtRational.from_rational(1)) == "+1"
        assert str(SqrtRational.zero()) == "0"

    def test_decimal_str_matches_15_digits(self):
        assert SqrtRational.sqrt(THIRD).decimal_str() == "0.577350269189626"
        assert (-SqrtRational.sqrt(TWO_THIRDS)).decimal_str() == "-0.816496580927726"


class TestSqrtProduct:
    def test_same_radicand_is_rational(self):
        root = SqrtRational.sqrt(THIRD)
        assert sqrt_product(root, root) == QuadRational(THIRD, Fraction(0))

    def test_cross_term_lands_on_sqrt2(self):
        product = sqrt_product(SqrtRational.sqrt(THIRD), SqrtRational.sqrt(TWO_THIRDS))
        assert product == QuadRational(Fraction(0), THIRD)

    def test_signed_product(self):
        root = SqrtRational.sqrt(TWO_THIRDS)
        assert sqrt_product(-root, root) == QuadRational(Fraction(-2, 3), Fraction(0))

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

    @pytest.mark.parametrize("order", [(5, 15, 30), (30, 15, 5)])
    def test_decimal_str_at_each_precision_matches_a_fresh_computation(self, order):
        values = [
            QuadRational(Fraction(9), Fraction(-4)),
            QuadRational(Fraction(1, 3), Fraction(5, 7)),
            QuadRational(Fraction(0), Fraction(-1, 12)),
            # a + b*sqrt(2) cancels to about 1e-60, so the digits shown depend
            # on every digit of the sqrt(2) the rendering used.
            QuadRational(
                -Fraction(1010152544552210749144063374435498627549765625269248623697628, 10**60),
                Fraction(5, 7),
            ),
        ]
        exactnum._sqrt2.cache_clear()
        try:
            for digits in order:
                for value in values:
                    assert value.decimal_str(digits) == _fresh_decimal_str(value, digits)
        finally:
            exactnum._sqrt2.cache_clear()

    def test_float_is_close(self):
        value = QuadRational(Fraction(6), Fraction(-4))
        assert float(value) == pytest.approx(6 - 4 * 2 ** 0.5, abs=1e-15)
