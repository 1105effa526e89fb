"""Capture cross-sections on polarized helium-3, closed forms and oracle.

Two independent evaluation routes are kept side by side on purpose:

* closed forms: one exact table, a row per channel of either mode.  Every
  channel is an affine function of the pairwise differences
  u = (1 - p*P_L, 1 - p*P_N, 1 - P_L*P_N) with Q(sqrt(2)) coefficients,
  kept as integer numerators over one denominator and evaluated as one
  integer dot product per part (including the interference coefficients
  6 - 4*sqrt(2) and 3 + 4*sqrt(2) of the j''=1 channel); a row whose
  sqrt(2) part is zero, every row but 1-, takes only the rational one.  The
  u-vector comes from the point's integer form, which a PolarizationTriple
  computes on its first read and keeps, so the channels evaluated at one
  triple share it.  The table uses no coupling coefficient, so it stays
  independent of the oracle;
* an oracle that performs the full substate sum over occupation
  probabilities and Clebsch-Gordan amplitudes.  The neutron's orbital
  momentum L and spin couple to j', which couples with the helium-3 spin to
  j''; the intermediate j' paths add coherently.  Ordinary capture is the
  L = 0 case of that coupling (one path, j' = 1/2), OAM capture the L = 1
  case (j' = 1/2 and 3/2).  The oracle comes in two parts.  A substate
  table per channel, from one builder for both modes, holds the exact |A|^2
  of every substate tuple as integer numerators over one denominator, built
  from the coupling coefficients alone; it does not depend on the
  polarizations, so it is built once per channel.  Each oracle call lays
  that table out as dense numerator vectors over (m_N, m_L, mu) and
  contracts them with the point's occupation vector: the products
  p(m_N) p(m_L) p(mu) of the occupations (1 +- P)/2, written as integer
  numerators over a common denominator.  Neither part reads the
  closed-form table, and every point asked for is summed afresh.

compare_with_oracle, which oracle-check runs, streams its grid in integers:
every coordinate is i/d with d = resolution - 1.  The dense tables are laid
out once per call, the occupation vector is formed once per point and
shared by every channel, and each channel's vectors are contracted with it
by the helper oracle() uses.  A closed-form part n/m equals the oracle's
part r/s exactly when n*s == r*m, so equality is decided by
cross-multiplication, and the oracle's exact value is built only where a
closed form and the oracle disagree.

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
from operator import is_, mul
from typing import Callable, Iterable, Iterator, Sequence

from .angular import HalfInt, cg, coupling_range, projections
from .errors import DomainError, ModeMismatchError
from .exactnum import QuadRational, as_fraction, sqrt_product
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
    def uniform(cls, mode: CaptureMode) -> CaptureModel:
        """The model with every strength 1."""
        return cls(mode, (1,) * len(channels_for(mode)))

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

    def __init__(self, channel: Channel, value: QuadRational) -> None:
        # The dataclass keeps this __init__, which stores the fields as its
        # own would, without the two object.__setattr__ calls.
        fields = self.__dict__
        fields["channel"] = channel
        fields["value"] = value


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


_ZERO = Fraction(0)


# The closed-form rows with an all-zero sqrt(2) part replaced by None, so
# that only the 1- channel pays for a second dot product.
_ROWS = {
    channel: (denominator, rational, root if any(root) else None)
    for channel, (denominator, rational, root) in _BRACKETS.items()
}


def _tabulated(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """K * (R + S*sqrt(2)) . U / (D * d^2): the channel's row (D, R, S), U = pol.integer_form[1]."""
    strength = model.strength(channel)  # rejects channels of the other mode
    denominator, rational, root = _ROWS[channel]
    u0, u1, u2, u3 = pol.integer_form[1]
    k, scale = strength.numerator, strength.denominator * denominator * u0
    r0, r1, r2, r3 = rational
    a = k * (r0 * u0 + r1 * u1 + r2 * u2 + r3 * u3)
    b = 0
    if root:
        s0, s1, s2, s3 = root
        b = k * (s0 * u0 + s1 * u1 + s2 * u2 + s3 * u3)
    # A zero part needs no gcd.
    value = QuadRational(Fraction(a, scale) if a else _ZERO, Fraction(b, scale) if b else _ZERO)
    return ChannelCrossSection(channel, value)


def ordinary_closed_form(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """Closed-form cross-section for an ordinary (s-wave, no OAM) neutron.

    Triplet: K/4 * (3 + p*P_N); singlet: K/4 * (1 - p*P_N).  P_L is ignored.
    """
    if model.mode is not CaptureMode.ORDINARY:
        _require_mode(model, CaptureMode.ORDINARY, "ordinary_closed_form")
    return _tabulated(channel, pol, model)


def oam_closed_form(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    """Closed-form cross-section for an L=1 OAM neutron channel.

    The brackets depend on the polarizations only through their pairwise
    products p*P_L, p*P_N, and P_L*P_N.
    """
    if model.mode is not CaptureMode.OAM:
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


# The m_L an L = 0 or an L = 1 neutron can occupy, keyed by 2L, as twice-values.
# The preparation device puts every L = 1 neutron into m_L = +1 or -1 along
# its wavevector, never 0.
_OCCUPIED_M_L = {0: (0,), 2: (-2, 2)}

# A dense substate table: 2L, the table's denominator D, then the numerators
# of the rational and sqrt(2) parts of |A|^2 at each substate the neutron can
# occupy, in _occupations' order; the sqrt(2) part is None where it is all zero.
_Dense = tuple[int, int, tuple[int, ...], tuple[int, ...] | None]


def _dense_tables(channels: Sequence[Channel]) -> list[_Dense]:
    """Each channel's _substates table as dense numerator vectors over (m_N, m_L, mu).

    The order is that of _occupations: m_N outermost and mu innermost, each
    ascending, with m_L over _OCCUPIED_M_L.  An entry at m_L = 0 of an L = 1
    neutron has weight zero at every point and is left out.
    """
    tables = []
    for channel in channels:
        orbital = _orbital_momentum(channel).twice
        denominator, entries = _substates(channel)
        layout = {key: i for i, key in enumerate(product((-1, 1), _OCCUPIED_M_L[orbital], (-1, 1)))}
        rational, root = [0] * len(layout), [0] * len(layout)
        for key, a, b in entries:
            index = layout.get(key)
            if index is not None:
                rational[index], root[index] = a, b
        tables.append((orbital, denominator, tuple(rational), tuple(root) if any(root) else None))
    return tables


def _occupations(orbital: int, d: int, x: int, y: int, z: int) -> tuple[int, ...]:
    """Numerators over (2d)^3 of p(m_N) p(m_L) p(mu) at p = x/d, P_L = y/d, P_N = z/d.

    A spin-1/2 with polarization P occupies m = -+1/2 with probability
    (1 -+ P)/2, so the nuclear and spin occupations are (d -+ z)/2d and
    (d -+ x)/2d.  An L = 1 neutron (orbital = 2) occupies m_L = -+1 with
    (d -+ y)/2d, an L = 0 neutron m_L = 0 with 2d/2d.  The order is that of
    _dense_tables.
    """
    s_down, s_up = d - x, d + x
    if orbital:
        o_down, o_up = d - y, d + y
        a, b, c, e = (d - z) * o_down, (d - z) * o_up, (d + z) * o_down, (d + z) * o_up
        return (
            a * s_down, a * s_up, b * s_down, b * s_up,
            c * s_down, c * s_up, e * s_down, e * s_up,
        )  # fmt: skip
    a, b = 2 * d * (d - z), 2 * d * (d + z)
    return a * s_down, a * s_up, b * s_down, b * s_up


def _substate_sums(
    tables: Sequence[_Dense], d: int, x: int, y: int, z: int
) -> list[tuple[int, int, int]]:
    """One (rational, root, scale) per dense table: its substate sum at K = 1, in integers.

    The point is p = x/d, P_L = y/d, P_N = z/d for any common denominator
    d > 0, and the channel's sum over its substate table of
    p(m_N) p(m_L) p(mu) |A|^2 is (rational + root*sqrt(2)) / scale, with
    scale the table's denominator times (2d)^3.  The occupation vector is
    formed once for every run of tables with one orbital momentum, which is
    every table of a mode, and each table is contracted with it afresh,
    rational and sqrt(2) parts apart.
    """
    cube = 8 * d**3
    sums = []
    last = weights = None
    for orbital, denominator, rational, root in tables:
        if orbital != last:
            weights, last = _occupations(orbital, d, x, y, z), orbital
        contracted = sum(map(mul, root, weights)) if root else 0
        sums.append((sum(map(mul, rational, weights)), contracted, denominator * cube))
    return sums


def closed_form(
    channel: Channel, pol: PolarizationTriple, model: CaptureModel
) -> ChannelCrossSection:
    if model.mode is CaptureMode.ORDINARY:
        return ordinary_closed_form(channel, pol, model)
    return oam_closed_form(channel, pol, model)


def oracle(channel: Channel, pol: PolarizationTriple, model: CaptureModel) -> ChannelCrossSection:
    """Brute-force substate sum for either mode; the closed forms are never read.

    Ordinary capture is the L = 0 case of the coupling.  The neutron carries
    no orbital momentum, so m_L = 0 with probability 1 and the only coupled
    state is j' = 1/2, which makes
    sigma = K * sum over (m_N, mu) of p(m_N) p(mu) |<j'' m''|1/2 m_N; 1/2 mu>|^2.

    OAM capture is the L = 1 case, with path interference.  For each
    occupied (m_N, m_L, mu) the amplitude into the compound state (j'', m'')
    adds the j' = 1/2 and j' = 3/2 routes coherently:

        A = sum over j' of <j'' m''|j' m'; 1/2 m_N> <j' m'|1 m_L; 1/2 mu>

    and sigma = K * sum of p(m_N) p(m_L) p(mu) |A|^2.

    One builder makes the substate table of either mode.  The sum is the
    table's contraction with the occupations at the point's integer form
    (_substate_sums), and one Fraction per part divides out K and its scale.
    A channel of the other mode raises ModeMismatchError.
    """
    strength = model.strength(channel)  # rejects channels of the other mode
    ((rational, root, scale),) = _substate_sums(_dense_tables((channel,)), *pol.integer_form[0])
    k, scale = strength.numerator, strength.denominator * scale
    value = QuadRational(Fraction(k * rational, scale), Fraction(k * root, scale))
    return ChannelCrossSection(channel, value)


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


# Per mode, the closed-form bindings in force when u_coefficients last read
# the anchors (closed_form, ordinary_closed_form, oam_closed_form) and the
# rows it read.
_kept_rows: dict[CaptureMode, tuple[tuple[object, object, object], tuple[_Row, ...]]] = {}


def u_coefficients(mode: CaptureMode) -> list[_Row]:
    """Each channel's (c0, c1, c2, c3) at K = 1: sigma = c0 + c1*u1 + c2*u2 + c3*u3.

    Returned as one row (D, rational, root) per channel, the closed-form
    table's format, over the lowest common denominator D.  The coefficients
    are read off closed_form, so callers evaluate whatever closed form is in
    force rather than a copy of it.  The rows read are kept, one entry per
    mode, keyed on the identities of the module's closed_form,
    ordinary_closed_form and oam_closed_form: a call finds them again while
    those bindings are the ones they were read through, and a closed form
    patched in at any of the three is read afresh on the next call.
    """
    bindings = (closed_form, ordinary_closed_form, oam_closed_form)
    kept = _kept_rows.get(mode)
    if kept is not None and all(map(is_, kept[0], bindings)):
        return list(kept[1])
    unit = CaptureModel.uniform(mode)
    rows = []
    for channel in channels_for(mode):
        origin, ones, *knocked = (closed_form(channel, pol, unit).value for pol in _ANCHORS)
        row = [origin] + [ones - value for value in knocked]
        denominator = math.lcm(*(part.denominator for c in row for part in (c.a, c.b)))
        rational = tuple(c.a.numerator * (denominator // c.a.denominator) for c in row)
        root = tuple(c.b.numerator * (denominator // c.b.denominator) for c in row)
        rows.append((denominator, rational, root))
    _kept_rows[mode] = (bindings, tuple(rows))
    return rows


# A channel's share (P + Q*sqrt(2)) / N of the total, as integers with N > 0.
Share = tuple[int, int, int]


def channel_share_numerators(
    us: Iterable[tuple[int, int, int, int]],
    model: CaptureModel,
    coefficients: Sequence[_Row],
    point: Callable[[int], PolarizationTriple],
) -> Iterator[tuple[Share, ...]]:
    """Exact share of each channel in the total cross-section, as integers.

    Yields one row of shares per u-numerators U in us; coefficients are the
    rows of u_coefficients(model.mode), and point(i) gives the i-th point,
    called only to name a point where the total vanishes.  U is
    d^2 * (1, u1, u2, u3) for any common denominator d of the point's
    coordinates, such as pol.integer_form[1]; the shares do not depend
    on which.  Channel c is
    (n_c/m_c) * (R_c + S_c*sqrt(2)) . U / (D_c * d^2), with (D_c, R_c, S_c)
    its row and K_c = n_c/m_c.  One integer weight per channel brings every
    channel to a common scale, which cancels in the shares, so sigma_c is
    proportional to a_c + b_c*sqrt(2) with integers a_c, b_c.  With A and B
    their sums, each share is
    ((a_c*A - 2*b_c*B) + (b_c*A - a_c*B)*sqrt(2)) / (A^2 - 2*B^2), yielded
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

    for index, u in enumerate(us):
        big_a = sum(map(mul, total_r, u))
        big_b = sum(map(mul, total_s, u))
        norm = big_a * big_a - 2 * big_b * big_b
        if norm == 0:
            raise DomainError(
                f"total cross-section is zero at {point(index)}; channel fractions are undefined"
            )
        if norm < 0:
            # Turning A and B turns P and Q, so N = -norm keeps each share.
            big_a, big_b, norm = -big_a, -big_b, -norm
        row = []
        for r, s in zip(scaled_r, scaled_s):
            a, b = sum(map(mul, r, u)), sum(map(mul, s, u))
            row.append((a * big_a - 2 * b * big_b, b * big_a - a * big_b, norm))
        yield tuple(row)


def channel_fractions(
    pol: PolarizationTriple, model: CaptureModel
) -> tuple[tuple[Channel, QuadRational], ...]:
    """Exact share of each channel in the total cross-section: each closed form over their sum."""
    sections = channel_cross_sections(pol, model)
    total = sections_total(sections)
    if total.is_zero:
        raise DomainError(f"total cross-section is zero at {pol}; channel fractions are undefined")
    return tuple((section.channel, section.value / total) for section in sections)


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
    i/d beside its Fraction, one point at a time.  Each channel's substate
    table is laid out as dense vectors once per call, from _substates as it
    stands at the call.  At every point the closed form of each channel is
    evaluated at K = 1, with the u-vector of the point's one integer form,
    and the oracle's substate sums are formed afresh in integers from one
    occupation vector that every channel shares; a closed-form part n/m
    equals the oracle's part r/s exactly when n*s == r*m.  Only a mismatch
    builds the oracle's QuadRational, and any disagreement is reported point
    by point, never absorbed.
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
    tables = _dense_tables(channels)
    discrepancies = []
    points_checked = 0
    for (p, x), (pl, y), (pn, z) in points:
        pol = PolarizationTriple(p, pl, pn)
        points_checked += 1
        sums = _substate_sums(tables, d, x, y, z)
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
