"""Half-integer quantum numbers and exact Clebsch-Gordan coefficients.

Quantum numbers are stored as twice-values (2j, 2m), so validity is an
integer parity check and no rational arithmetic is needed to iterate states.
Coefficients come from the Racah closed formula evaluated over big integers
in the Condon-Shortley phase convention; the result is a signed square root
of a rational, never a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import InvalidQuantumNumberError
from .exactnum import SqrtRational


@dataclass(frozen=True, order=True)
class HalfInt:
    """An angular-momentum quantum number j or projection m, stored as 2*value."""

    twice: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice, int):
            raise TypeError(f"twice-value must be an int, got {type(self.twice).__name__}")

    @classmethod
    def of(cls, value: "HalfInt | int | str | Fraction") -> HalfInt:
        """Coerce 2, '3/2', Fraction(-1, 2), or a HalfInt to a HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        as_fraction = Fraction(value)
        if as_fraction.denominator not in (1, 2):
            raise InvalidQuantumNumberError(
                f"{as_fraction} is not an integer or half-integer quantum number"
            )
        return cls(int(as_fraction * 2))

    def __add__(self, other: HalfInt) -> HalfInt:
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: HalfInt) -> HalfInt:
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> HalfInt:
        return HalfInt(-self.twice)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def validate_jm(j: HalfInt, m: HalfInt) -> None:
    """Reject (j, m) pairs violating j >= 0, |m| <= j, or twice-value parity."""
    if j.twice < 0:
        raise InvalidQuantumNumberError(f"j must be nonnegative, got {j}")
    if (j.twice - m.twice) % 2 != 0:
        raise InvalidQuantumNumberError(
            f"(j={j}, m={m}) mix integer and half-integer quantum numbers"
        )
    if abs(m.twice) > j.twice:
        raise InvalidQuantumNumberError(f"|m| exceeds j for (j={j}, m={m})")


def projections(j: HalfInt) -> tuple[HalfInt, ...]:
    """All projections m = -j, -j+1, ..., +j."""
    if j.twice < 0:
        raise InvalidQuantumNumberError(f"j must be nonnegative, got {j}")
    return tuple(HalfInt(t) for t in range(-j.twice, j.twice + 1, 2))


def coupling_range(j1: HalfInt, j2: HalfInt) -> tuple[HalfInt, ...]:
    """Total momenta J allowed by the triangle rule, |j1-j2| .. j1+j2."""
    return tuple(
        HalfInt(t) for t in range(abs(j1.twice - j2.twice), j1.twice + j2.twice + 1, 2)
    )


JM = "HalfInt | int | str | Fraction"


def cg(j1: JM, m1: JM, j2: JM, m2: JM, j_total: JM, m_total: JM) -> SqrtRational:
    """Exact Clebsch-Gordan coefficient <j1 m1 j2 m2 | j_total m_total>.

    Invalid (j, m) pairs raise InvalidQuantumNumberError; selection-rule
    violations (m_total != m1 + m2, triangle rule) return the exact zero.
    """
    j1, m1 = HalfInt.of(j1), HalfInt.of(m1)
    j2, m2 = HalfInt.of(j2), HalfInt.of(m2)
    j_total, m_total = HalfInt.of(j_total), HalfInt.of(m_total)
    for j, m in ((j1, m1), (j2, m2), (j_total, m_total)):
        validate_jm(j, m)
    return _cg_twice(j1.twice, m1.twice, j2.twice, m2.twice, j_total.twice, m_total.twice)


# lru_cache is safe under the pure-function contract: results are immutable
# and CPython's cache is thread-safe.
@lru_cache(maxsize=None)
def _cg_twice(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> SqrtRational:
    if tm != tm1 + tm2:
        return SqrtRational.zero()
    if (tj1 + tj2 + tj) % 2 != 0:
        return SqrtRational.zero()
    if tj < abs(tj1 - tj2) or tj > tj1 + tj2:
        return SqrtRational.zero()

    k_min = max(0, (tj2 - tj - tm1) // 2, (tj1 - tj + tm2) // 2)
    k_max = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    if k_max < k_min:
        return SqrtRational.zero()

    alternating_sum = Fraction(0)
    for k in range(k_min, k_max + 1):
        denominator = (
            factorial(k)
            * factorial((tj1 + tj2 - tj) // 2 - k)
            * factorial((tj1 - tm1) // 2 - k)
            * factorial((tj2 + tm2) // 2 - k)
            * factorial((tj - tj2 + tm1) // 2 + k)
            * factorial((tj - tj1 - tm2) // 2 + k)
        )
        alternating_sum += Fraction((-1) ** k, denominator)
    if alternating_sum == 0:
        return SqrtRational.zero()

    norm = Fraction(
        (tj + 1)
        * factorial((tj1 + tj2 - tj) // 2)
        * factorial((tj1 - tj2 + tj) // 2)
        * factorial((-tj1 + tj2 + tj) // 2),
        factorial((tj1 + tj2 + tj) // 2 + 1),
    )
    norm *= (
        factorial((tj + tm) // 2)
        * factorial((tj - tm) // 2)
        * factorial((tj1 - tm1) // 2)
        * factorial((tj1 + tm1) // 2)
        * factorial((tj2 - tm2) // 2)
        * factorial((tj2 + tm2) // 2)
    )
    sign = 1 if alternating_sum > 0 else -1
    return SqrtRational(sign, alternating_sum * alternating_sum * norm)
