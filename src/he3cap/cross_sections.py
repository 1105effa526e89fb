"""Capture cross-sections on polarized helium-3, closed forms and oracle.

Two independent evaluation routes are kept side by side on purpose:

* closed forms: one exact table, a row per channel of either mode.  Every
  channel is an affine function of the pairwise differences
  u = (1 - p*P_L, 1 - p*P_N, 1 - P_L*P_N) with Q(sqrt(2)) coefficients,
  kept as integer numerators over one denominator and evaluated as one
  integer dot product per part (including the interference coefficients
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

compare_with_oracle, which oracle-check runs, streams its grid in integers:
every coordinate is i/d with d = resolution - 1, the occupations are formed
once per point and each channel's table is summed against them.  A
closed-form part n/m equals the oracle's part r/s exactly when n*s == r*m,
so equality is decided by cross-multiplication, and the oracle's exact
value is built only where a closed form and the oracle disagree.

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
from typing import Iterable, Sequence

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

    def __post_init__(self) -> None:
        # Channels key the closed-form rows, the substate tables and the
        # strengths, so the hash is computed once, here.  It is built from
        # ints alone, so that it does not depend on the process's string
        # hash seed and a copied or unpickled channel keeps a valid one.
        object.__setattr__(self, "_hash", hash((self.j_final.twice, self.parity is Parity.ODD)))

    def __hash__(self) -> int:
        return self._hash

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
        # strength() looks a channel up here instead of scanning channels_for.
        object.__setattr__(self, "_by_channel", dict(zip(channels_for(self.mode), strengths)))

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
            return self._by_channel[channel]
        except KeyError:
            raise ModeMismatchError(
                f"channel {channel.label} does not belong to {self.mode.value} mode"
            ) from None


@dataclass(frozen=True)
class ChannelCrossSection:
    channel: Channel
    value: QuadRational


# Spins involved in the capture, as twice-values.
_NEUTRON_SPIN = HalfInt(1)
_HE3_SPIN = HalfInt(1)

# A closed-form row: one denominator D and the integer numerators of the
# rational and the sqrt(2) parts of (c0, c1, c2, c3), so that at K = 1
# sigma = (rational + root*sqrt(2)) . (1, u1, u2, u3) / D.
_Row = tuple[int, tuple[int, int, int, int], tuple[int, int, int, int]]

# Brackets in the u-basis u = (1 - p*P_L, 1 - p*P_N, 1 - P_L*P_N), so each
# u_k vanishes when its pair of polarizations is aligned.  The sqrt(2) parts
# of the j''=1 channel come from interference between the two coupled
# neutron states.
_BRACKETS: dict[Channel, _Row] = {
    SINGLET: (4, (0, 0, 1, 0), (0, 0, 0, 0)),  # u2 / 4
    TRIPLET: (4, (4, 0, -1, 0), (0, 0, 0, 0)),  # (4 - u2) / 4
    OAM_CHANNELS[0]: (12, (0, 1, -1, 1), (0, 0, 0, 0)),  # (u1 - u2 + u3) / 12
    # (3u1 + (6 - 4*sqrt(2))u2 + (3 + 4*sqrt(2))u3) / 24
    OAM_CHANNELS[1]: (24, (0, 3, 6, 3), (0, 0, -4, 4)),
    OAM_CHANNELS[2]: (24, (24, -5, -4, -5), (0, 0, 0, 0)),  # (24 - 5u1 - 4u2 - 5u3) / 24
}


def _require_mode(model: CaptureModel, mode: CaptureMode, operation: str) -> None:
    if model.mode is not mode:
        raise ModeMismatchError(f"{operation} requires a {mode.value}-mode model")


def _integer_point(pol: PolarizationTriple) -> tuple[int, int, int, int]:
    """(d, x, y, z) with d the lcm of the three denominators, p = x/d, P_L = y/d, P_N = z/d."""
    p, pl, pn = pol.p, pol.pl, pol.pn
    dp, dl, dn = p.denominator, pl.denominator, pn.denominator
    d = math.lcm(dp, dl, dn)
    return d, p.numerator * (d // dp), pl.numerator * (d // dl), pn.numerator * (d // dn)


def _u_numerators(pol: PolarizationTriple) -> tuple[int, int, int, int]:
    """(d^2, d^2 - xy, d^2 - xz, d^2 - yz), which is d^2 * (1, u1, u2, u3) in integers."""
    d, x, y, z = _integer_point(pol)
    dd = d * d
    return dd, dd - x * y, dd - x * z, dd - y * z


_ZERO = Fraction(0)


def _tabulated(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """K * (R + S*sqrt(2)) . U / (D * d^2): the channel's row (D, R, S), U from _u_numerators."""
    strength = model.strength(channel)  # rejects channels of the other mode
    denominator, rational, root = _BRACKETS[channel]
    u = _u_numerators(pol)
    k, scale = strength.numerator, strength.denominator * denominator * u[0]
    a, b = k * sum(map(mul, rational, u)), k * sum(map(mul, root, u))
    # A zero part, such as the sqrt(2) part of every channel but 1-, needs no gcd.
    value = QuadRational(Fraction(a, scale) if a else _ZERO, Fraction(b, scale) if b else _ZERO)
    return ChannelCrossSection(channel, value)


def ordinary_closed_form(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """Closed-form cross-section for an ordinary (s-wave, no OAM) neutron.

    Triplet: K/4 * (3 + p*P_N); singlet: K/4 * (1 - p*P_N).  P_L is ignored.
    """
    _require_mode(model, CaptureMode.ORDINARY, "ordinary_closed_form")
    return _tabulated(channel, pol, model)


def oam_closed_form(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """Closed-form cross-section for an L=1 OAM neutron channel.

    The brackets depend on the polarizations only through their pairwise
    products p*P_L, p*P_N, and P_L*P_N.
    """
    _require_mode(model, CaptureMode.OAM, "oam_closed_form")
    return _tabulated(channel, pol, model)


# The neutron's orbital momentum L for each parity of compound state.
_S_WAVE = HalfInt(0)
_P_WAVE = HalfInt(2)


def _orbital_momentum(channel: Channel) -> HalfInt:
    """The neutron's orbital momentum L: 0 feeds an even-parity channel, 1 an odd one."""
    return _P_WAVE if channel.parity is Parity.ODD else _S_WAVE


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


def _substate_sums(
    channels: Sequence[Channel], d: int, x: int, y: int, z: int
) -> list[tuple[int, int, int]]:
    """One (rational, root, scale) per channel: its substate sum at K = 1, in integers.

    The point is p = x/d, P_L = y/d, P_N = z/d for any common denominator
    d > 0, and the channel's sum over its substate table of
    p(m_N) p(m_L) p(mu) |A|^2 is (rational + root*sqrt(2)) / scale.  A
    spin-1/2 with polarization P occupies m = +-1/2 with probability
    (1 +- P)/2, so the spin and nuclear occupations are (d +- x)/2d and
    (d +- z)/2d.  The preparation device puts every L = 1 neutron into
    m_L = +1 or -1 along its wavevector, never 0, so its orbital occupations
    are (d +- y)/2d and m_L = 0 gets 0; an L = 0 neutron has m_L = 0, that
    is 2d/2d.  The occupation numerators are formed once for all the
    channels, and each table is summed over them afresh, rational and
    sqrt(2) parts apart; scale is the table's denominator times (2d)^3.
    """
    nuclear, spin = {1: d + z, -1: d - z}, {1: d + x, -1: d - x}
    s_wave, p_wave = {0: 2 * d}, {2: d + y, 0: 0, -2: d - y}
    cube = 8 * d**3
    sums = []
    for channel in channels:
        orbital = p_wave if _orbital_momentum(channel).twice else s_wave
        denominator, entries = _substates(channel)
        rational = root = 0
        for (m_nuclear, m_orbital, m_spin), a, b in entries:
            weight = nuclear[m_nuclear] * orbital[m_orbital] * spin[m_spin]
            rational += weight * a
            root += weight * b
        sums.append((rational, root, denominator * cube))
    return sums


def _contract(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """K * sum over the channel's substate table of p(m_N) p(m_L) p(mu) |A|^2.

    The sum comes from _substate_sums at the lcm d of the point's three
    denominators, and one Fraction per part divides out K and its scale.
    """
    strength = model.strength(channel)  # rejects channels of the other mode
    ((rational, root, scale),) = _substate_sums((channel,), *_integer_point(pol))
    k, scale = strength.numerator, strength.denominator * scale
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


def u_coefficients(mode: CaptureMode) -> list[_Row]:
    """Each channel's (c0, c1, c2, c3) at K = 1: sigma = c0 + c1*u1 + c2*u2 + c3*u3.

    Returned as one row (D, rational, root) per channel, the closed-form
    table's format, over the lowest common denominator D.  The coefficients
    are read off closed_form at call time, so callers evaluate whatever
    closed form is in force rather than a copy of it.
    """
    unit = CaptureModel.uniform(mode)
    rows = []
    for channel in channels_for(mode):
        origin, ones, *knocked = (closed_form(channel, pol, unit).value for pol in _ANCHORS)
        row = [origin] + [ones - value for value in knocked]
        denominator = math.lcm(*(part.denominator for c in row for part in (c.a, c.b)))
        rational = tuple(c.a.numerator * (denominator // c.a.denominator) for c in row)
        root = tuple(c.b.numerator * (denominator // c.b.denominator) for c in row)
        rows.append((denominator, rational, root))
    return rows


# A channel's share (P + Q*sqrt(2)) / N of the total, as integers with N > 0.
Share = tuple[int, int, int]


def share_value(share: Share) -> QuadRational:
    """The QuadRational (P + Q*sqrt(2)) / N of a (P, Q, N) share."""
    p, q, n = share
    return QuadRational(Fraction(p, n), Fraction(q, n))


def channel_share_numerators(
    points: Iterable[tuple[tuple[int, int, int, int], PolarizationTriple]],
    model: CaptureModel,
    coefficients: Sequence[_Row],
) -> list[tuple[Share, ...]]:
    """Exact share of each channel in the total cross-section, as integers.

    points pairs each point's u-numerators U with the point, which only
    names a point where the total vanishes; coefficients are the rows of
    u_coefficients(model.mode).  U is d^2 * (1, u1, u2, u3) for any common
    denominator d of the point's coordinates, such as _u_numerators(pol)
    gives; the shares do not depend on which.  Channel c is
    (n_c/m_c) * (R_c + S_c*sqrt(2)) . U / (D_c * d^2), with (D_c, R_c, S_c)
    its row and K_c = n_c/m_c.  One integer weight per channel brings every
    channel to a common scale, which cancels in the shares, so sigma_c is
    proportional to a_c + b_c*sqrt(2) with integers a_c, b_c.  With A and B
    their sums, each share is
    ((a_c*A - 2*b_c*B) + (b_c*A - a_c*B)*sqrt(2)) / (A^2 - 2*B^2), returned
    as that (P, Q, N) with the signs turned so that N > 0, and not reduced.
    A^2 - 2*B^2 vanishes exactly when the total does, since sqrt(2) is
    irrational; that raises DomainError naming the first such point.
    """
    denominators, rational, root = zip(*coefficients)
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
    for u, pol in points:
        big_a = sum(map(mul, total_r, u))
        big_b = sum(map(mul, total_s, u))
        norm = big_a * big_a - 2 * big_b * big_b
        if norm == 0:
            raise DomainError(
                f"total cross-section is zero at {pol}; channel fractions are undefined"
            )
        if norm < 0:
            # Turning A and B turns P and Q, so N = -norm keeps each share.
            big_a, big_b, norm = -big_a, -big_b, -norm
        row = []
        for r, s in zip(scaled_r, scaled_s):
            a, b = sum(map(mul, r, u)), sum(map(mul, s, u))
            row.append((a * big_a - 2 * b * big_b, b * big_a - a * big_b, norm))
        shares.append(tuple(row))
    return shares


def channel_fraction_rows(
    pols: Sequence[PolarizationTriple], model: CaptureModel
) -> list[tuple[QuadRational, ...]]:
    """Exact share of each channel in the total, as QuadRationals, one row per point.

    The integers come from channel_share_numerators, with the closed forms
    in force read once through u_coefficients.
    """
    points = [(_u_numerators(pol), pol) for pol in pols]
    rows = channel_share_numerators(points, model, u_coefficients(model.mode))
    return [tuple(share_value(share) for share in row) for row in rows]


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
    The grid is walked in integers over d = resolution - 1, each coordinate
    i/d beside its Fraction, one point at a time.  At every point the closed
    form of each channel is evaluated at K = 1 and the oracle's substate sums
    are formed afresh in integers; a closed-form part n/m equals the oracle's
    part r/s exactly when n*s == r*m.  Only a mismatch builds the oracle's
    QuadRational, and any disagreement is reported point by point, never
    absorbed.
    """
    values = grid_values(resolution)  # rejects a resolution below 2
    d = resolution - 1
    axis = tuple(zip(values, range(-d, d + 1, 2)))
    if mode is CaptureMode.ORDINARY:
        unpolarized = (Fraction(0), 0)
        points = ((p, unpolarized, pn) for p in axis for pn in axis)
    else:
        points = product(axis, repeat=3)
    model = CaptureModel.uniform(mode)
    channels = channels_for(mode)
    discrepancies = []
    points_checked = 0
    for (p, x), (pl, y), (pn, z) in points:
        pol = PolarizationTriple(p, pl, pn)
        points_checked += 1
        sums = _substate_sums(channels, d, x, y, z)
        for channel, (rational, root, scale) in zip(channels, sums):
            closed_value = closed_form(channel, pol, model).value
            a, b = closed_value.a, closed_value.b
            if a.numerator * scale != rational * a.denominator or (
                b.numerator * scale != root * b.denominator
            ):
                oracle_value = QuadRational(Fraction(rational, scale), Fraction(root, scale))
                discrepancies.append(Discrepancy(channel, pol, closed_value, oracle_value))
    extrema = j2_corner_extrema() if mode is CaptureMode.OAM else None
    return ReconciliationReport(mode, resolution, points_checked, tuple(discrepancies), extrema)
