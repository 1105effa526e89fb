"""Exact arithmetic for signed square roots of rationals and the field Q(sqrt(2)).

Coupling coefficients are signed square roots of rationals.  Squared
amplitudes, once interference cross-terms appear, live in the quadratic
extension a + b*sqrt(2).  Keeping both representations exact lets every
cross-section identity downstream be checked as a field equality instead of
a float comparison; floats only appear at the display boundary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import UnsupportedRadicandError

RationalLike = Union[int, Fraction, str]

# Fraction expands a decimal exponent into an exact power of ten, so a text
# such as '1e-999999999' would take hours to parse.  No polarization or
# strength needs an exponent anywhere near this bound.
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse '3', '-1/2', '0.25' or '2.5e-3' exactly.

    Raises ValueError for a malformed text or an exponent beyond
    MAX_EXPONENT in magnitude, and ZeroDivisionError for a zero denominator.
    """
    match = _EXPONENT.search(text)
    if match and abs(int(match.group(1))) > MAX_EXPONENT:
        raise ValueError(f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude")
    return Fraction(text)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction; floats are rejected to keep paths exact."""
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, Fraction, or a string like '1/3' or '0.25'")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def exact_sqrt(q: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational if it is rational, else None."""
    if q < 0:
        raise ValueError(f"negative radicand {q}")
    root_num = math.isqrt(q.numerator)
    root_den = math.isqrt(q.denominator)
    if root_num * root_num == q.numerator and root_den * root_den == q.denominator:
        return Fraction(root_num, root_den)
    return None


def _fraction_to_decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


# Rendering uses two precisions (decimal_str's default and float()), so a
# few entries cover every caller.
@lru_cache(maxsize=8)
def _sqrt2(precision: int) -> Decimal:
    """sqrt(2) correctly rounded to the given number of digits."""
    with localcontext() as ctx:
        ctx.prec = precision
        return Decimal(2).sqrt()


def _round_to_significant(value: Decimal, significant_digits: int) -> str:
    """Round to the given number of significant digits; plain positional form.

    Trailing zeros that carry no information are dropped, so exact values
    render as '0.75' or '24' while irrational ones keep all digits.
    """
    with localcontext() as ctx:
        ctx.prec = significant_digits
        # normalize() rounds to the context precision, so it must run inside.
        return format(value.normalize(), "f")


@dataclass(frozen=True)
class SqrtRational:
    """The number sign * sqrt(radicand), with radicand a nonnegative rational.

    Canonical form: radicand in lowest terms (Fraction guarantees this) and
    sign == 0 exactly when radicand == 0, so structural equality is value
    equality.  Closed under multiplication; addition generally leaves the
    representation and is intentionally not provided.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or +1, got {self.sign!r}")
        object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.radicand < 0:
            raise ValueError(f"radicand must be nonnegative, got {self.radicand}")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign must be 0 exactly when the radicand is 0")

    @classmethod
    def zero(cls) -> SqrtRational:
        return cls(0, Fraction(0))

    @classmethod
    def sqrt(cls, radicand: RationalLike) -> SqrtRational:
        """Principal square root of a nonnegative rational."""
        q = as_fraction(radicand)
        if q < 0:
            raise ValueError(f"cannot take a real square root of {q}")
        return cls(0 if q == 0 else 1, q)

    @classmethod
    def from_rational(cls, value: RationalLike) -> SqrtRational:
        q = as_fraction(value)
        sign = (q > 0) - (q < 0)
        return cls(sign, q * q)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def square(self) -> Fraction:
        return self.radicand

    def __neg__(self) -> SqrtRational:
        return SqrtRational(-self.sign, self.radicand)

    def __mul__(self, other: SqrtRational) -> SqrtRational:
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return SqrtRational(self.sign * other.sign, self.radicand * other.radicand)

    def to_quad(self) -> QuadRational:
        """Express this value in Q + Q*sqrt(2).

        Raises UnsupportedRadicandError if the value is neither rational nor a
        rational multiple of sqrt(2).
        """
        if self.sign == 0:
            return QuadRational.zero()
        root = exact_sqrt(self.radicand)
        if root is not None:
            return QuadRational(self.sign * root, Fraction(0))
        root = exact_sqrt(self.radicand / 2)
        if root is not None:
            return QuadRational(Fraction(0), self.sign * root)
        raise UnsupportedRadicandError(
            f"sqrt({self.radicand}) is not in Q + Q*sqrt(2); "
            "a coupling product left the supported field"
        )

    def __float__(self) -> float:
        return self.sign * math.sqrt(self.radicand)

    def decimal_str(self, significant_digits: int = 15) -> str:
        """Correctly rounded decimal rendering at the given precision."""
        if self.sign == 0:
            return "0"
        with localcontext() as ctx:
            ctx.prec = significant_digits + 25
            value = self.sign * _fraction_to_decimal(self.radicand).sqrt()
        return _round_to_significant(value, significant_digits)

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "+" if self.sign > 0 else "-"
        rational = exact_sqrt(self.radicand)
        if rational is not None:
            return f"{prefix}{rational}"
        return f"{prefix}sqrt({self.radicand})"


def sqrt_product(x: SqrtRational, y: SqrtRational) -> QuadRational:
    """Exact product x*y as an element of Q + Q*sqrt(2).

    Fails with UnsupportedRadicandError when sqrt(x.radicand * y.radicand) is
    neither rational nor a rational multiple of sqrt(2).
    """
    return (x * y).to_quad()


@dataclass(frozen=True)
class QuadRational:
    """An element a + b*sqrt(2) of the real quadratic field Q(sqrt(2)).

    Since sqrt(2) is irrational, the (a, b) pair is unique, so structural
    equality is exact field equality.  Totally ordered by real value.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        # Parts that already are Fractions, as every arithmetic result is,
        # are kept rather than copied.
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))

    @classmethod
    def zero(cls) -> QuadRational:
        return cls(Fraction(0), Fraction(0))

    @classmethod
    def one(cls) -> QuadRational:
        return cls(Fraction(1), Fraction(0))

    @classmethod
    def from_rational(cls, value: RationalLike) -> QuadRational:
        return cls(as_fraction(value), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- ring / field operations --------------------------------------------

    @staticmethod
    def _coerce(value: QuadRational | RationalLike) -> QuadRational | None:
        if isinstance(value, QuadRational):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadRational(Fraction(value), Fraction(0))
        return None

    def __add__(self, other: QuadRational | RationalLike) -> QuadRational:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRational(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> QuadRational:
        return QuadRational(-self.a, -self.b)

    def __sub__(self, other: QuadRational | RationalLike) -> QuadRational:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: QuadRational | RationalLike) -> QuadRational:
        return (-self) + other

    def __mul__(self, other: QuadRational | RationalLike) -> QuadRational:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRational(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> QuadRational:
        # 1/(a + b*sqrt(2)) = (a - b*sqrt(2)) / (a^2 - 2 b^2); the norm is zero
        # only for the zero element because sqrt(2) is irrational.
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return QuadRational(self.a / norm, -self.b / norm)

    def __truediv__(self, other: QuadRational | RationalLike) -> QuadRational:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: QuadRational | RationalLike) -> QuadRational:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- order ----------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(2)."""
        sign_a = (self.a > 0) - (self.a < 0)
        sign_b = (self.b > 0) - (self.b < 0)
        if sign_b == 0:
            return sign_a
        if sign_a == 0 or sign_a == sign_b:
            return sign_b
        # Opposite-sign parts: compare a^2 against 2 b^2.  Equality would mean
        # sqrt(2) is rational, so it cannot occur here.
        return sign_a if self.a * self.a > 2 * self.b * self.b else sign_b

    def __lt__(self, other: QuadRational | RationalLike) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other: QuadRational | RationalLike) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other: QuadRational | RationalLike) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other: QuadRational | RationalLike) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other) if isinstance(other, (QuadRational, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    # -- rendering -------------------------------------------------------------

    def _decimal(self, precision: int) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = precision
            return _fraction_to_decimal(self.a) + _fraction_to_decimal(self.b) * _sqrt2(precision)

    def decimal_str(self, significant_digits: int = 15) -> str:
        """Correctly rounded decimal rendering at the given precision."""
        if self.is_zero:
            return "0"
        return _round_to_significant(self._decimal(significant_digits + 25), significant_digits)

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        return float(self._decimal(30))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root_part = "sqrt(2)" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt(2)"
        if self.a == 0:
            return root_part if self.b > 0 else f"-{root_part}"
        joiner = "+" if self.b > 0 else "-"
        return f"{self.a} {joiner} {root_part}"
