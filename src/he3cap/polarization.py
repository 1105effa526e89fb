"""The experiment's three polarization knobs, exact and range-checked.

All three experimental polarizations are helicities along the neutron
wavevector: p for the neutron spin, P_L for its orbital angular momentum,
and P_N for the helium-3 nuclear spin.  The oracle in cross_sections turns
them into diagonal substate occupations; coherences between substates are
out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exactnum import RationalLike, as_fraction


def _checked_polarization(value: RationalLike, name: str) -> Fraction:
    # A Fraction, as every parsed value and grid point is, is kept as it is
    # and checked on its numerator and denominator.
    fraction = value if type(value) is Fraction else as_fraction(value)
    if abs(fraction.numerator) > fraction.denominator:
        raise DomainError(f"{name} must lie in [-1, 1], got {fraction}")
    return fraction


@dataclass(frozen=True)
class PolarizationTriple:
    """The experiment's three control knobs (p, P_L, P_N), each in [-1, 1]."""

    p: Fraction
    pl: Fraction
    pn: Fraction

    def __post_init__(self) -> None:
        # A field is written back only when its check converted it.
        p = _checked_polarization(self.p, "p")
        if p is not self.p:
            object.__setattr__(self, "p", p)
        pl = _checked_polarization(self.pl, "P_L")
        if pl is not self.pl:
            object.__setattr__(self, "pl", pl)
        pn = _checked_polarization(self.pn, "P_N")
        if pn is not self.pn:
            object.__setattr__(self, "pn", pn)

    @classmethod
    def of(cls, p: RationalLike, pl: RationalLike = 0, pn: RationalLike = 0) -> PolarizationTriple:
        return cls(as_fraction(p), as_fraction(pl), as_fraction(pn))

    def flipped(self) -> PolarizationTriple:
        """All three helicities reversed."""
        return PolarizationTriple(-self.p, -self.pl, -self.pn)

    def __str__(self) -> str:
        return f"(p={self.p}, P_L={self.pl}, P_N={self.pn})"
