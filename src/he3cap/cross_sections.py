"""Capture cross-sections on polarized helium-3, closed forms and oracle.

Two independent evaluation routes are kept side by side on purpose:

* closed forms: one exact coefficient table per capture mode.  Every channel
  is an affine function of the pairwise differences
  u = (1 - p*P_L, 1 - p*P_N, 1 - P_L*P_N) with Q(sqrt(2)) coefficients,
  written term by term (including the interference coefficients
  6 - 4*sqrt(2) and 3 + 4*sqrt(2) of the j''=1 channel).  The table uses no
  coupling coefficient, so it stays independent of the oracle;
* an oracle that performs the full substate sum over occupation
  probabilities and Clebsch-Gordan amplitudes.  The neutron's orbital
  momentum L and spin couple to j', which couples with the helium-3 spin to
  j''; the intermediate j' paths add coherently.  Ordinary capture is the
  L = 0 case of that coupling (one path, j' = 1/2), OAM capture the L = 1
  case (j' = 1/2 and 3/2).  The oracle comes in two parts.  A substate
  table per channel, from one builder for both modes, holds the exact |A|^2
  of every substate tuple as integer numerators over one denominator, built
  from the coupling coefficients alone; it does not depend on the
  polarizations, so it is built once per channel.  Each oracle call
  contracts that table with the point's occupations (1 +- P)/2, written as
  integer numerators over a common denominator.  Neither part reads the
  closed-form table, and every point asked for is summed afresh.

Everything is exact rational / Q(sqrt(2)) arithmetic, so agreement between
the two routes is decided by field equality, never by tolerance.  The
reconciliation report produced here is a first-class output: it is how the
package adjudicates what the coupling algebra actually supports.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul
from typing import Sequence

from .angular import HalfInt, cg, coupling_range, projections
from .errors import DomainError, ModeMismatchError
from .exactnum import QuadRational, RationalLike, as_fraction, sqrt_product
from .polarization import PolarizationTriple


class Parity(enum.Enum):
    EVEN = "+"
    ODD = "-"


class CaptureMode(str, enum.Enum):
    ORDINARY = "ordinary"
    OAM = "oam"


@dataclass(frozen=True)
class Channel:
    """A compound-nucleus channel labeled by total angular momentum and parity."""

    j_final: HalfInt
    parity: Parity

    @property
    def label(self) -> str:
        return f"{self.j_final}{self.parity.value}"

    def __str__(self) -> str:
        return self.label


SINGLET = Channel(HalfInt(0), Parity.EVEN)
TRIPLET = Channel(HalfInt(2), Parity.EVEN)
ORDINARY_CHANNELS: tuple[Channel, ...] = (SINGLET, TRIPLET)

OAM_CHANNELS: tuple[Channel, ...] = (
    Channel(HalfInt(0), Parity.ODD),
    Channel(HalfInt(2), Parity.ODD),
    Channel(HalfInt(4), Parity.ODD),
)


def channels_for(mode: CaptureMode) -> tuple[Channel, ...]:
    """Channels of a capture mode, ordered by ascending j."""
    return ORDINARY_CHANNELS if mode is CaptureMode.ORDINARY else OAM_CHANNELS


@dataclass(frozen=True)
class CaptureModel:
    """Per-channel strength constants (squared nuclear matrix elements).

    The strengths are arbitrary-unit nonnegative rationals; everything this
    package computes is relative to them.  Ordering follows channels_for().
    """

    mode: CaptureMode
    strengths: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        strengths = tuple(as_fraction(value) for value in self.strengths)
        object.__setattr__(self, "strengths", strengths)
        expected = len(channels_for(self.mode))
        if len(strengths) != expected:
            raise DomainError(
                f"{self.mode.value} mode needs {expected} strengths, got {len(strengths)}"
            )
        for value in strengths:
            if value < 0:
                raise DomainError(f"strength constants must be nonnegative, got {value}")

    @classmethod
    def uniform(cls, mode: CaptureMode, strength: RationalLike = 1) -> CaptureModel:
        count = len(channels_for(mode))
        return cls(mode, (as_fraction(strength),) * count)

    @classmethod
    def ordinary(cls, singlet: RationalLike = 1, triplet: RationalLike = 1) -> CaptureModel:
        return cls(CaptureMode.ORDINARY, (as_fraction(singlet), as_fraction(triplet)))

    @classmethod
    def oam(
        cls, k0: RationalLike = 1, k1: RationalLike = 1, k2: RationalLike = 1
    ) -> CaptureModel:
        return cls(CaptureMode.OAM, (as_fraction(k0), as_fraction(k1), as_fraction(k2)))

    @property
    def channels(self) -> tuple[Channel, ...]:
        return channels_for(self.mode)

    def strength(self, channel: Channel) -> Fraction:
        try:
            index = self.channels.index(channel)
        except ValueError:
            raise ModeMismatchError(
                f"channel {channel.label} does not belong to {self.mode.value} mode"
            ) from None
        return self.strengths[index]


@dataclass(frozen=True)
class ChannelCrossSection:
    channel: Channel
    value: QuadRational


# Spins involved in the capture, as twice-values.
_NEUTRON_SPIN = HalfInt(1)
_HE3_SPIN = HalfInt(1)

_Terms = tuple[tuple[int, Fraction], ...]


def _bracket(denominator: int, *coefficients: int | tuple[int, int]) -> tuple[_Terms, _Terms]:
    """Table row for (c0 + c1*u1 + c2*u2 + c3*u3) / denominator.

    A coefficient is an int, or a pair (a, b) meaning a + b*sqrt(2).  The row
    keeps the rational and the sqrt(2) parts apart, each as (k, c) pairs for
    the nonzero coefficients only; k = 0 is the constant term.
    """
    rational, root = [], []
    for k, coefficient in enumerate(coefficients):
        a, b = coefficient if isinstance(coefficient, tuple) else (coefficient, 0)
        if a:
            rational.append((k, Fraction(a, denominator)))
        if b:
            root.append((k, Fraction(b, denominator)))
    return tuple(rational), tuple(root)


# Brackets in the u-basis u = (1 - p*P_L, 1 - p*P_N, 1 - P_L*P_N), so each
# u_k vanishes when its pair of polarizations is aligned.  The sqrt(2) parts
# of the j''=1 channel come from interference between the two coupled
# neutron states.
_ORDINARY_BRACKETS = {
    SINGLET: _bracket(4, 0, 0, 1, 0),  # u2 / 4
    TRIPLET: _bracket(4, 4, 0, -1, 0),  # (4 - u2) / 4
}
_OAM_BRACKETS = {
    OAM_CHANNELS[0]: _bracket(12, 0, 1, -1, 1),  # (u1 - u2 + u3) / 12
    # (3u1 + (6 - 4*sqrt(2))u2 + (3 + 4*sqrt(2))u3) / 24
    OAM_CHANNELS[1]: _bracket(24, 0, 3, (6, -4), (3, 4)),
    OAM_CHANNELS[2]: _bracket(24, 24, -5, -4, -5),  # (24 - 5u1 - 4u2 - 5u3) / 24
}


def _require_mode(model: CaptureModel, mode: CaptureMode, operation: str) -> None:
    if model.mode is not mode:
        raise ModeMismatchError(f"{operation} requires a {mode.value}-mode model")


def _tabulated(
    table: dict[Channel, tuple[_Terms, _Terms]],
    channel: Channel,
    pol: PolarizationTriple,
    model: CaptureModel,
) -> ChannelCrossSection:
    strength = model.strength(channel)  # rejects channels of the other mode
    rational_terms, root_terms = table[channel]
    u = (1, 1 - pol.p * pol.pl, 1 - pol.p * pol.pn, 1 - pol.pl * pol.pn)
    rational = sum(c * u[k] for k, c in rational_terms)
    root = sum(c * u[k] for k, c in root_terms)
    if strength != 1:  # unit models, the common case, skip two products
        rational, root = strength * rational, strength * root
    return ChannelCrossSection(channel, QuadRational(rational, root))


def ordinary_closed_form(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """Closed-form cross-section for an ordinary (s-wave, no OAM) neutron.

    Triplet: K/4 * (3 + p*P_N); singlet: K/4 * (1 - p*P_N).  P_L is ignored.
    """
    _require_mode(model, CaptureMode.ORDINARY, "ordinary_closed_form")
    return _tabulated(_ORDINARY_BRACKETS, channel, pol, model)


def oam_closed_form(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """Closed-form cross-section for an L=1 OAM neutron channel.

    The brackets depend on the polarizations only through their pairwise
    products p*P_L, p*P_N, and P_L*P_N.
    """
    _require_mode(model, CaptureMode.OAM, "oam_closed_form")
    return _tabulated(_OAM_BRACKETS, channel, pol, model)


def _integer_point(pol: PolarizationTriple) -> tuple[int, int, int, int]:
    """(d, x, y, z) with d the lcm of the three denominators, p = x/d, P_L = y/d, P_N = z/d."""
    d = math.lcm(pol.p.denominator, pol.pl.denominator, pol.pn.denominator)
    return (d, *(v.numerator * (d // v.denominator) for v in (pol.p, pol.pl, pol.pn)))


def _orbital_momentum(channel: Channel) -> HalfInt:
    """The neutron's orbital momentum L: 0 feeds an even-parity channel, 1 an odd one."""
    return HalfInt(2) if channel.parity is Parity.ODD else HalfInt(0)


# A substate table: one denominator D, then one entry per substate tuple,
# ((2*m_N, 2*m_L, 2*mu), a, b) with |A|^2 = (a + b*sqrt(2)) / D in integers.
_Substates = tuple[int, tuple[tuple[tuple[int, int, int], int, int], ...]]


@lru_cache(maxsize=None)  # one table per channel, five channels in all
def _substates(channel: Channel) -> _Substates:
    """|A|^2 of the coherent j' paths for every (m_N, m_L, mu) where it is nonzero.

    The neutron's orbital momentum L and its spin couple to j', which couples
    with the helium-3 spin to j'':

        A = sum over j' of <j'' m''|j' m'; 1/2 m_N> <j' m'|L m_L; 1/2 mu>

    For L = 0 the only j' is 1/2 and <1/2 mu|0 0; 1/2 mu> = 1, so A is the
    single coefficient <j'' m''|1/2 m_N; 1/2 mu>.  |A|^2 expands through
    sqrt_product, so it stays in Q + Q*sqrt(2) exactly; the table keeps it
    as integer numerators over the lcm of the entries' denominators.
    """
    j_final = channel.j_final
    orbital = _orbital_momentum(channel)
    coupled_momenta = coupling_range(orbital, _NEUTRON_SPIN)
    entries = []
    for m_nuclear, m_orbital, m_spin in product(
        projections(_HE3_SPIN), projections(orbital), projections(_NEUTRON_SPIN)
    ):
        m_coupled = m_orbital + m_spin
        m_final = m_coupled + m_nuclear
        if abs(m_final.twice) > j_final.twice:
            continue
        amplitudes = []
        for j_coupled in coupled_momenta:
            if abs(m_coupled.twice) > j_coupled.twice:
                continue
            term = cg(j_coupled, m_coupled, _HE3_SPIN, m_nuclear, j_final, m_final) * cg(
                orbital, m_orbital, _NEUTRON_SPIN, m_spin, j_coupled, m_coupled
            )
            if not term.is_zero:
                amplitudes.append(term)
        squared = QuadRational.zero()
        for left in amplitudes:
            for right in amplitudes:
                squared += sqrt_product(left, right)
        if not squared.is_zero:
            key = (m_nuclear.twice, m_orbital.twice, m_spin.twice)
            entries.append((key, squared.a, squared.b))
    lcm = math.lcm(*(part.denominator for _, a, b in entries for part in (a, b)))
    return lcm, tuple((key, int(a * lcm), int(b * lcm)) for key, a, b in entries)


def _contract(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """K * sum over the channel's substate table of p(m_N) p(m_L) p(mu) |A|^2.

    A spin-1/2 with polarization P occupies m = +-1/2 with probability
    (1 +- P)/2.  With d the lcm of the point's three denominators, p = x/d,
    P_L = y/d and P_N = z/d, so the spin and nuclear occupations are
    (d +- x)/2d and (d +- z)/2d.  The preparation device puts every L = 1
    neutron into m_L = +1 or -1 along its wavevector, never 0, so its
    orbital occupations are (d +- y)/2d and m_L = 0 gets 0; an L = 0
    neutron has m_L = 0, that is 2d/2d.  The sum runs over the integer
    numerators, rational and sqrt(2) parts apart, and one Fraction per part
    divides out K, the table's denominator and (2d)^3.
    """
    strength = model.strength(channel)  # rejects channels of the other mode
    d, x, y, z = _integer_point(pol)
    nuclear, spin = {1: d + z, -1: d - z}, {1: d + x, -1: d - x}
    orbital = {2: d + y, 0: 0, -2: d - y} if _orbital_momentum(channel).twice else {0: 2 * d}
    denominator, entries = _substates(channel)
    rational = root = 0
    for (m_nuclear, m_orbital, m_spin), a, b in entries:
        weight = nuclear[m_nuclear] * orbital[m_orbital] * spin[m_spin]
        rational += weight * a
        root += weight * b
    k, scale = strength.numerator, strength.denominator * denominator * 8 * d**3
    value = QuadRational(Fraction(k * rational, scale), Fraction(k * root, scale))
    return ChannelCrossSection(channel, value)


def ordinary_oracle(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """Brute-force substate sum for ordinary capture, the L = 0 case of the coupling.

    The neutron carries no orbital momentum, so m_L = 0 with probability 1
    and the only coupled state is j' = 1/2, which makes
    sigma = K * sum over (m_N, mu) of p(m_N) p(mu) |<j'' m''|1/2 m_N; 1/2 mu>|^2.
    The substate table comes from the builder the OAM oracle uses.
    """
    _require_mode(model, CaptureMode.ORDINARY, "ordinary_oracle")
    return _contract(channel, pol, model)


def oam_oracle(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """Brute-force substate sum for OAM capture, with path interference.

    For each occupied (m_N, m_L, mu) the amplitude into the compound state
    (j'', m'') adds the j' = 1/2 and j' = 3/2 routes coherently:

        A = sum over j' of <j'' m''|j' m'; 1/2 m_N> <j' m'|1 m_L; 1/2 mu>

    and sigma = K * sum of p(m_N) p(m_L) p(mu) |A|^2, the table's contraction
    with the occupations.  The table never reads the closed forms.
    """
    _require_mode(model, CaptureMode.OAM, "oam_oracle")
    return _contract(channel, pol, model)


def closed_form(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    if model.mode is CaptureMode.ORDINARY:
        return ordinary_closed_form(channel, pol, model)
    return oam_closed_form(channel, pol, model)


def oracle(channel: Channel, pol: PolarizationTriple, model: CaptureModel) -> ChannelCrossSection:
    if model.mode is CaptureMode.ORDINARY:
        return ordinary_oracle(channel, pol, model)
    return oam_oracle(channel, pol, model)


def channel_cross_sections(
    pol: PolarizationTriple, model: CaptureModel
) -> tuple[ChannelCrossSection, ...]:
    return tuple(closed_form(channel, pol, model) for channel in model.channels)


def sections_total(sections: tuple[ChannelCrossSection, ...]) -> QuadRational:
    """Exact sum of already evaluated channel cross-sections."""
    return sum((section.value for section in sections), QuadRational.zero())


# Anchors at which u_coefficients reads the closed forms.  Their u-vectors
# are 0, (1, 1, 1), and (1, 1, 1) with u1, u2 or u3 knocked back to 0, so a
# channel's value at the first is its constant term and the differences from
# the second give the slopes.
_ANCHORS = (
    PolarizationTriple.of(1, 1, 1),
    PolarizationTriple.of(0, 0, 0),
    PolarizationTriple.of(1, 1, 0),
    PolarizationTriple.of(1, 0, 1),
    PolarizationTriple.of(0, 1, 1),
)


def u_coefficients(
    mode: CaptureMode,
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Each channel's (c0, c1, c2, c3) at K = 1: sigma = c0 + c1*u1 + c2*u2 + c3*u3.

    Returned as integer numerators of the rational and the sqrt(2) parts,
    one row of four per channel, and one common denominator per channel.
    The coefficients are read off closed_form at call time, so callers
    evaluate whatever closed form is in force rather than a copy of it.
    """
    unit = CaptureModel.uniform(mode)
    rational, root, denominators = [], [], []
    for channel in channels_for(mode):
        origin, ones, *knocked = (closed_form(channel, pol, unit).value for pol in _ANCHORS)
        row = [origin] + [ones - value for value in knocked]
        denominator = math.lcm(*(part.denominator for c in row for part in (c.a, c.b)))
        rational.append([c.a.numerator * (denominator // c.a.denominator) for c in row])
        root.append([c.b.numerator * (denominator // c.b.denominator) for c in row])
        denominators.append(denominator)
    return rational, root, denominators


def channel_fraction_rows(
    pols: Sequence[PolarizationTriple], model: CaptureModel
) -> list[tuple[QuadRational, ...]]:
    """Exact share of each channel in the total cross-section, one row per point.

    Channel c is (n_c/m_c) * (R_c + S_c*sqrt(2)) . U / (D_c * d^2), with
    R_c, S_c and D_c from u_coefficients, K_c = n_c/m_c, d the lcm of the
    point's three denominators and U = (d^2, d^2*u1, d^2*u2, d^2*u3) in
    integers.  One integer weight per channel brings every channel to a
    common scale, which cancels in the shares, so sigma_c is proportional to
    a_c + b_c*sqrt(2) with integers a_c, b_c.  With A and B their sums, each
    share is ((a_c*A - 2*b_c*B) + (b_c*A - a_c*B)*sqrt(2)) / (A^2 - 2*B^2),
    and only those final Fractions are built.  A^2 - 2*B^2 vanishes exactly
    when the total does, since sqrt(2) is irrational; that raises
    DomainError naming the first such point.
    """
    rational, root, denominators = u_coefficients(model.mode)
    scale = math.lcm(
        *(k.denominator * denominator for k, denominator in zip(model.strengths, denominators))
    )
    weights = [
        k.numerator * (scale // (k.denominator * denominator))
        for k, denominator in zip(model.strengths, denominators)
    ]
    scaled_r = [[w * c for c in row] for w, row in zip(weights, rational)]
    scaled_s = [[w * c for c in row] for w, row in zip(weights, root)]
    total_r = [sum(column) for column in zip(*scaled_r)]
    total_s = [sum(column) for column in zip(*scaled_s)]

    shares = []
    for pol in pols:
        d, x, y, z = _integer_point(pol)
        dd = d * d
        u = (dd, dd - x * y, dd - x * z, dd - y * z)
        big_a = sum(map(mul, total_r, u))
        big_b = sum(map(mul, total_s, u))
        norm = big_a * big_a - 2 * big_b * big_b
        if norm == 0:
            raise DomainError(
                f"total cross-section is zero at {pol}; channel fractions are undefined"
            )
        row = []
        for r, s in zip(scaled_r, scaled_s):
            a, b = sum(map(mul, r, u)), sum(map(mul, s, u))
            row.append(
                QuadRational(
                    Fraction(a * big_a - 2 * b * big_b, norm), Fraction(b * big_a - a * big_b, norm)
                )
            )
        shares.append(tuple(row))
    return shares


def channel_fractions(
    pol: PolarizationTriple, model: CaptureModel
) -> tuple[tuple[Channel, QuadRational], ...]:
    """Exact share of each channel in the total cross-section."""
    return tuple(zip(model.channels, channel_fraction_rows([pol], model)[0]))


# -- reconciliation of closed forms against the oracle -------------------------


def grid_values(resolution: int) -> tuple[Fraction, ...]:
    """Uniform exact-rational grid of the given resolution over [-1, 1]."""
    if resolution < 2:
        raise DomainError(f"grid resolution must be at least 2, got {resolution}")
    step = Fraction(2, resolution - 1)
    return tuple(-1 + k * step for k in range(resolution))


@dataclass(frozen=True)
class Discrepancy:
    channel: Channel
    pol: PolarizationTriple
    closed_value: QuadRational
    oracle_value: QuadRational


@dataclass(frozen=True)
class CornerExtremum:
    value: QuadRational
    points: tuple[PolarizationTriple, ...]


@dataclass(frozen=True)
class CornerExtrema:
    """Extrema of the j''=2 channel over fully polarized corners, at K=1.

    The channel is multilinear in (p, P_L, P_N), so its extrema over the full
    polarization box are attained at corners; scanning the eight corners is
    therefore an exact global statement.
    """

    maximum: CornerExtremum
    minimum: CornerExtremum
    aligned_corner_value: QuadRational
    note: str


def j2_corner_extrema() -> CornerExtrema:
    channel = OAM_CHANNELS[2]
    model = CaptureModel.uniform(CaptureMode.OAM)
    by_value: dict[QuadRational, list[PolarizationTriple]] = {}
    for signs in product((-1, 1), repeat=3):
        pol = PolarizationTriple.of(*signs)
        value = oam_closed_form(channel, pol, model).value
        by_value.setdefault(value, []).append(pol)
    ordered = sorted(by_value)
    minimum = CornerExtremum(ordered[0], tuple(by_value[ordered[0]]))
    maximum = CornerExtremum(ordered[-1], tuple(by_value[ordered[-1]]))
    aligned = oam_closed_form(channel, PolarizationTriple.of(1, 1, 1), model).value
    note = (
        f"the j=2 channel attains its maximum K*{maximum.value} at the fully aligned "
        f"corners and its minimum K*{minimum.value} where p*P_L = P_L*P_N = -1; "
        "it never vanishes"
    )
    return CornerExtrema(maximum, minimum, aligned, note)


@dataclass(frozen=True)
class ReconciliationReport:
    mode: CaptureMode
    resolution: int
    points_checked: int
    discrepancies: tuple[Discrepancy, ...]
    j2_extrema: CornerExtrema | None

    @property
    def agreement(self) -> bool:
        return not self.discrepancies

    def to_json_dict(self) -> dict:
        def pol_dict(pol: PolarizationTriple) -> dict:
            return {"p": str(pol.p), "P_L": str(pol.pl), "P_N": str(pol.pn)}

        def extremum_dict(extremum: CornerExtremum) -> dict:
            return {
                "value_exact": str(extremum.value),
                "value_decimal": extremum.value.decimal_str(),
                "points": [pol_dict(p) for p in extremum.points],
            }

        payload = {
            "mode": self.mode.value,
            "resolution": self.resolution,
            "points_checked": self.points_checked,
            "agreement": self.agreement,
            "discrepancies": [
                {
                    "channel": d.channel.label,
                    "pol": pol_dict(d.pol),
                    "closed_form": str(d.closed_value),
                    "oracle": str(d.oracle_value),
                }
                for d in self.discrepancies
            ],
        }
        if self.j2_extrema is not None:
            payload["j2_extrema"] = {
                "maximum": extremum_dict(self.j2_extrema.maximum),
                "minimum": extremum_dict(self.j2_extrema.minimum),
                "aligned_corner_value": str(self.j2_extrema.aligned_corner_value),
                "note": self.j2_extrema.note,
            }
        return payload


def compare_with_oracle(mode: CaptureMode, resolution: int = 5) -> ReconciliationReport:
    """Check closed forms against the substate-sum oracle on an exact grid.

    Ordinary mode scans (p, P_N) with P_L = 0; OAM mode scans the full cube.
    Any disagreement is reported point by point, never absorbed.
    """
    values = grid_values(resolution)
    model = CaptureModel.uniform(mode)
    if mode is CaptureMode.ORDINARY:
        points = [PolarizationTriple(p, Fraction(0), pn) for p in values for pn in values]
    else:
        points = [
            PolarizationTriple(p, pl, pn) for p in values for pl in values for pn in values
        ]

    discrepancies = []
    for pol in points:
        for channel in channels_for(mode):
            closed_value = closed_form(channel, pol, model).value
            oracle_value = oracle(channel, pol, model).value
            if closed_value != oracle_value:
                discrepancies.append(Discrepancy(channel, pol, closed_value, oracle_value))
    extrema = j2_corner_extrema() if mode is CaptureMode.OAM else None
    return ReconciliationReport(mode, resolution, len(points), tuple(discrepancies), extrema)
