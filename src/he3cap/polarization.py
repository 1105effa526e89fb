"""The experiment's three polarization knobs, exact and range-checked.

All three experimental polarizations are helicities along the neutron
wavevector: p for the neutron spin, P_L for its orbital angular momentum,
and P_N for the helium-3 nuclear spin.  The oracle in cross_sections turns
them into diagonal substate occupations; coherences between substates are
out of scope.
"""

from __future__ import annotations

import math
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


class _kept:
    """A read-only attribute computed on its first read and kept in the instance's __dict__.

    The stored value shadows this descriptor, so a later read is a plain
    attribute lookup.  functools.cached_property does the same, but before
    Python 3.12 it takes a lock on every first read, which costs more than
    computing the integer form.
    """

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True)
class PolarizationTriple:
    """The experiment's three control knobs (p, P_L, P_N), each in [-1, 1].

    The point's integer form, integer_form, is computed on its first read
    and kept with the triple, so every closed form and oracle evaluated at
    one triple shares it.  It is not a field: equality, hash, repr and the
    pickled state see only p, P_L and P_N.
    """

    p: Fraction
    pl: Fraction
    pn: Fraction

    def __post_init__(self) -> None:
        p, pl, pn = self.p, self.pl, self.pn
        # Three Fractions in range, as every parsed value and grid point is,
        # are kept as they are.
        if (
            type(p) is Fraction
            and type(pl) is Fraction
            and type(pn) is Fraction
            and abs(p.numerator) <= p.denominator
            and abs(pl.numerator) <= pl.denominator
            and abs(pn.numerator) <= pn.denominator
        ):
            return
        # Otherwise a field is written back only when its check converted it.
        p = _checked_polarization(p, "p")
        if p is not self.p:
            object.__setattr__(self, "p", p)
        pl = _checked_polarization(pl, "P_L")
        if pl is not self.pl:
            object.__setattr__(self, "pl", pl)
        pn = _checked_polarization(pn, "P_N")
        if pn is not self.pn:
            object.__setattr__(self, "pn", pn)

    @_kept
    def integer_form(self) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
        """((d, x, y, z), (d^2, d^2 - xy, d^2 - xz, d^2 - yz)) in integers.

        d is the lcm of the three denominators and p = x/d, P_L = y/d,
        P_N = z/d, so the second tuple is d^2 * (1, u1, u2, u3) for the
        pairwise differences u = (1 - p*P_L, 1 - p*P_N, 1 - P_L*P_N).
        """
        p, pl, pn = self.p, self.pl, self.pn
        dp, dl, dn = p.denominator, pl.denominator, pn.denominator
        d = math.lcm(dp, dl, dn)
        x, y, z = p.numerator * (d // dp), pl.numerator * (d // dl), pn.numerator * (d // dn)
        dd = d * d
        return (d, x, y, z), (dd, dd - x * y, dd - x * z, dd - y * z)

    def __getstate__(self) -> dict:
        # The pickled state is the three fields alone, whether or not the
        # integer form has been read.
        return {"p": self.p, "pl": self.pl, "pn": self.pn}

    @classmethod
    def of(cls, p: RationalLike, pl: RationalLike = 0, pn: RationalLike = 0) -> PolarizationTriple:
        return cls(as_fraction(p), as_fraction(pl), as_fraction(pn))

    def flipped(self) -> PolarizationTriple:
        """All three helicities reversed."""
        return PolarizationTriple(-self.p, -self.pl, -self.pn)

    def __str__(self) -> str:
        return f"(p={self.p}, P_L={self.pl}, P_N={self.pn})"
