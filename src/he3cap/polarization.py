"""Maps polarization knobs to exact substate occupation probabilities.

All three experimental polarizations are helicities along the neutron
wavevector: p for the neutron spin, P_L for its orbital angular momentum,
and P_N for the helium-3 nuclear spin.  Populations are diagonal occupation
probabilities; coherences between substates are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .angular import HalfInt
from .errors import DomainError
from .exactnum import RationalLike, as_fraction


def _checked_polarization(value: RationalLike, name: str) -> Fraction:
    fraction = as_fraction(value)
    if abs(fraction) > 1:
        raise DomainError(f"{name} must lie in [-1, 1], got {fraction}")
    return fraction


@dataclass(frozen=True)
class PolarizationTriple:
    """The experiment's three control knobs (p, P_L, P_N), each in [-1, 1]."""

    p: Fraction
    pl: Fraction
    pn: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _checked_polarization(self.p, "p"))
        object.__setattr__(self, "pl", _checked_polarization(self.pl, "P_L"))
        object.__setattr__(self, "pn", _checked_polarization(self.pn, "P_N"))

    @classmethod
    def of(cls, p: RationalLike, pl: RationalLike = 0, pn: RationalLike = 0) -> PolarizationTriple:
        return cls(as_fraction(p), as_fraction(pl), as_fraction(pn))

    def flipped(self) -> PolarizationTriple:
        """All three helicities reversed."""
        return PolarizationTriple(-self.p, -self.pl, -self.pn)

    def __str__(self) -> str:
        return f"(p={self.p}, P_L={self.pl}, P_N={self.pn})"


@dataclass(frozen=True)
class SubstateDistribution:
    """Occupation probabilities over the projections of one angular momentum."""

    entries: tuple[tuple[HalfInt, Fraction], ...]

    def __post_init__(self) -> None:
        total = Fraction(0)
        for m, probability in self.entries:
            if not 0 <= probability <= 1:
                raise DomainError(f"probability for m={m} is {probability}, outside [0, 1]")
            total += probability
        if total != 1:
            raise DomainError(f"probabilities sum to {total}, not 1")

    def __iter__(self):
        return iter(self.entries)

    def probability(self, m: HalfInt) -> Fraction:
        for candidate, probability in self.entries:
            if candidate == m:
                return probability
        return Fraction(0)

    def polarization(self, j: HalfInt) -> Fraction:
        """Recover the polarization as (1/j) * sum_m m * p(m)."""
        weighted = sum((m.as_fraction * probability for m, probability in self.entries), Fraction(0))
        return weighted / j.as_fraction


# The oracle asks for the same few distributions thousands of times per grid.
# Both functions are pure and return frozen objects; typed=True keeps a float
# argument from hitting an entry cached under an equal Fraction, so floats
# are still rejected.
@lru_cache(maxsize=256, typed=True)
def spin_half_distribution(polarization: RationalLike) -> SubstateDistribution:
    """Spin-1/2 populations {+1/2: (1+P)/2, -1/2: (1-P)/2}."""
    value = _checked_polarization(polarization, "polarization")
    return SubstateDistribution(
        (
            (HalfInt(1), (1 + value) / 2),
            (HalfInt(-1), (1 - value) / 2),
        )
    )


@lru_cache(maxsize=256, typed=True)
def oam_distribution(polarization: RationalLike) -> SubstateDistribution:
    """L=1 populations over m = +1, -1; the m = 0 substate is never occupied.

    The preparation device puts every neutron into m = +1 or m = -1 along its
    wavevector, so the polarization fully determines the occupation.
    """
    value = _checked_polarization(polarization, "P_L")
    return SubstateDistribution(
        (
            (HalfInt(2), (1 + value) / 2),
            (HalfInt(-2), (1 - value) / 2),
            (HalfInt(0), Fraction(0)),
        )
    )
