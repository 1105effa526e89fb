"""Exact arithmetic for signed square roots of rationals and the field Q(sqrt(2)).

Coupling coefficients are signed square roots of rationals.  Squared
amplitudes, once interference cross-terms appear, live in the quadratic
extension a + b*sqrt(2).  Keeping both representations exact lets every
cross-section identity downstream be checked as a field equality instead of
a float comparison; floats only appear at the display boundary.  Decimals
are rendered by one integer routine, render_decimal, which takes the value
as integers (P + Q*sqrt(R)) / N and never builds a Fraction or a Decimal.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
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


def _sign(p: int, q: int, radicand: int) -> int:
    """Exact sign of p + q*sqrt(radicand); radicand is not a perfect square when q != 0."""
    sign_p, sign_q = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sign_q == 0 or sign_p == sign_q:
        return sign_p
    if sign_p == 0:
        return sign_q
    # Opposite signs: the larger of p^2 and radicand*q^2 wins; they cannot be equal.
    return sign_p if p * p > radicand * q * q else sign_q


def _decimal_exponent(p: int, q: int, n: int, radicand: int) -> int:
    """floor(log10((p + q*sqrt(radicand)) / n)) of a positive value, give or take one.

    With parts of one sign the sum is within a factor of 2 of the larger
    part.  With opposite signs it is (p^2 - radicand*q^2) / (p - q*sqrt(radicand)),
    whose denominator is within a factor of 2 of its larger part, so a sum
    that cancels deeply is still placed to within one digit.
    """
    parts = [math.log10(abs(p))] if p else []
    if q:
        parts.append(math.log10(abs(q)) + math.log10(radicand) / 2)
    if q and p and (p > 0) != (q > 0):
        top = math.log10(abs(p * p - radicand * q * q)) - max(parts)
    else:
        top = max(parts)
    return math.floor(top - math.log10(n))


def render_decimal(
    p: int, q: int, n: int, significant_digits: int = 15, radicand: int = 2
) -> str:
    """(p + q*sqrt(radicand)) / n, correctly rounded, in plain positional form.

    All arguments are integers; n is nonzero, and radicand is not a perfect
    square unless q == 0.  The value is scaled by a power of ten so that its
    integer part carries one to three digits beyond the ones kept, and that
    integer part is exact: floor(q * 10^k * sqrt(radicand)) is math.isqrt of
    radicand * (q * 10^k)^2.  Rounding is half-even.  A tie can only be exact
    when q == 0; otherwise the value is irrational and the remainder beyond
    the integer part decides.  Trailing zeros that carry no information are
    dropped, so exact values render as '0.75' or '24' while irrational ones
    keep all their digits.
    """
    if n < 0:
        p, q, n = -p, -q, -n
    sign = _sign(p, q, radicand)
    if sign == 0:
        return "0"
    if sign < 0:
        p, q = -p, -q
    # Two guard digits cover the estimate's error of one in either direction.
    k = significant_digits + 1 - _decimal_exponent(p, q, n, radicand)
    up, down = (10**k, n) if k >= 0 else (1, n * 10**-k)
    root = math.isqrt(radicand * (q * up) ** 2)
    if q < 0:
        root = -root - 1  # isqrt rounds the magnitude down; floor needs one less
    scaled, remainder = divmod(p * up + root, down)
    exact = q == 0 and remainder == 0

    guard = len(str(scaled)) - significant_digits
    digits, dropped = divmod(scaled, 10**guard)
    half = 10**guard // 2
    if dropped > half or (dropped == half and (not exact or digits % 2)):
        digits += 1
    k -= guard

    kept = str(digits)
    text = kept.rstrip("0")
    k -= len(kept) - len(text)
    if k <= 0:
        body = text + "0" * -k
    elif len(text) > k:
        body = f"{text[:-k]}.{text[-k:]}"
    else:
        body = "0." + "0" * (k - len(text)) + text
    return "-" + body if sign < 0 else body


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

    def decimal_str(self, significant_digits: int = 15) -> str:
        """Correctly rounded decimal rendering at the given precision."""
        root = exact_sqrt(self.radicand)
        if root is not None:
            p, n = self.sign * root.numerator, root.denominator
            return render_decimal(p, 0, n, significant_digits)
        # sqrt(a/b) = sqrt(a*b)/b, and a*b is not a square when a/b is not.
        a, b = self.radicand.numerator, self.radicand.denominator
        return render_decimal(0, self.sign, b, significant_digits, radicand=a * b)

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


@total_ordering
@dataclass(frozen=True)
class QuadRational:
    """An element a + b*sqrt(2) of the real quadratic field Q(sqrt(2)).

    Since sqrt(2) is irrational, the (a, b) pair is unique, so structural
    equality is exact field equality.  Totally ordered by real value.
    """

    a: Fraction
    b: Fraction

    def __init__(self, a: Fraction, b: Fraction) -> None:
        # The dataclass keeps this __init__.  Parts that already are
        # Fractions, as every arithmetic result is, are kept rather than
        # copied, and both are stored as the frozen dataclass's own __init__
        # would store them, without its two object.__setattr__ calls.
        fields = self.__dict__
        fields["a"] = a if type(a) is Fraction else Fraction(a)
        fields["b"] = b if type(b) is Fraction else Fraction(b)

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

    # -- order ----------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(2)."""
        a, b = self.a, self.b
        return _sign(a.numerator * b.denominator, b.numerator * a.denominator, 2)

    def __lt__(self, other: QuadRational | RationalLike) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other) if isinstance(other, (QuadRational, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    # -- rendering -------------------------------------------------------------

    def decimal_str(self, significant_digits: int = 15) -> str:
        """Correctly rounded decimal rendering at the given precision (render_decimal)."""
        n = math.lcm(self.a.denominator, self.b.denominator)
        return render_decimal(
            self.a.numerator * (n // self.a.denominator),
            self.b.numerator * (n // self.b.denominator),
            n,
            significant_digits,
        )

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        # 30 correctly rounded digits pin the nearest double unless the value
        # lies within about 1e-29 of the midpoint between two doubles.
        return float(self.decimal_str(30))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root_part = "sqrt(2)" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt(2)"
        if self.a == 0:
            return root_part if self.b > 0 else f"-{root_part}"
        joiner = "+" if self.b > 0 else "-"
        return f"{self.a} {joiner} {root_part}"
