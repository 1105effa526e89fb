"""Experiment-design tooling built on the cross-section model.

Cross-sections are linear in the per-channel strength constants, so a
counting experiment over several polarization settings is a weighted
nonnegative least-squares problem.  This module provides the design matrix,
the fit (channel-summed or channel-resolved), a Poisson transmission
simulator for synthetic data, and a sweep that ranks candidate polarization
settings by how well they complete a design.

Nothing here evaluates exact closed forms point by point.  Each channel is
affine in u = (1 - p*P_L, 1 - p*P_N, 1 - P_L*P_N), so its four u-basis
coefficients, integer numerators over one denominator per channel, are read
off closed_form at five anchor points (cross_sections.u_coefficients, which
keeps them per mode until a closed form is patched in).  Float consumers
(the design matrix, the simulator's cross-sections, the sweep's bracket
rows) turn them into one matrix product; entries within roundoff of zero are
re-decided exactly, so a closed channel stays exactly closed and no
cross-section comes out negative.
The sweep reads the coefficients once, and its exact channel fractions come
from the same integers, as integer shares (P + Q*sqrt(2)) / N computed and
rendered once per distinct u-vector (cross_sections.channel_share_numerators,
exactnum.render_decimal).  It holds the grid as columns: integer arrays over
the grid's denominator, grouped in numpy by u-vector, with each group's
shares streamed into per-channel columns of decimal strings.  It keeps no
object per point.

Counting model: a cell of optical-depth coefficient d (per unit strength)
transmits a fraction T = exp(-d * sigma_total); captures are Poisson with
mean exposure * (1 - T), split across channels in proportion to their
cross-sections, and the fit uses the thin-target linearization
rate = exposure * d * sum_c D[i, c] * K_c.  A fit factors its weighted
design once, by QR, and reads the rank test, the combination a degenerate
design leaves unidentified, the solution and the free channels' covariance
off the k x k factor R.  Setting i of a simulation draws
from the PCG64 stream that numpy seeds from SeedSequence(entropy=seed,
spawn_key=(i,)); the streams of all settings are derived in one pass
(seeding.pcg64_states, which restates numpy's derivation) and drawn through
one Generator, whose state is set from one reused dict.  The simulator's
draws need no check, so it builds its CountRecords without one.

Three things are kept between calls of a process.  u_coefficients keeps the
rows it read, one entry per mode, keyed on the identities of the bindings
cross_sections.closed_form, ordinary_closed_form and oam_closed_form, so a
closed form patched in at any of them is read on the next call and the
original is read again once the patch is undone.  design_matrix keeps the
last matrix it built, one entry per process, and returns it read-only; its
key is the mode, the rows u_coefficients(mode) returns at the call (on a hit,
the kept rows themselves, so the comparison is one identity check per row),
and the identity of every setting in order.  The CLI keeps the last settings
file it parsed, keyed on the file's bytes, and hands the same setting
objects to simulate and fit.  A process that calls cli.main repeatedly on
one file parses it, reads the coefficients and builds its design matrix
once.  The sweep builds its own rows and does not use the kept matrix.

The settings and counts readers take csv.reader rows of the file's data
lines: the header is checked once, columns are found by position once, and
a row of the wrong length is located by its line.  The settings reader
parses each distinct polarization text once per file.  The counts reader
converts a row's integers in one step and checks them together; a row with
any fault is read again cell by cell, which names the first fault as the
CountRecord checks would.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .cross_sections import (
    CaptureMode,
    CaptureModel,
    Channel,
    channel_share_numerators,
    channels_for,
    closed_form,
    grid_values,
    u_coefficients,
)
from .errors import DegenerateDesignError, DomainError
from .exactnum import parse_rational, render_decimal
from .polarization import PolarizationTriple
from .seeding import pcg64_states

SETTINGS_HEADER = ("p", "P_L", "P_N", "exposure", "depth")
COUNTS_HEADER = ("setting_id", "capture", "transmitted")


@dataclass(frozen=True)
class MeasurementSetting:
    """One exposure: a polarization triple, a duration, and a cell depth.

    depth is the dimensionless optical-depth coefficient per unit strength
    (areal density times the cross-section scale).
    """

    pol: PolarizationTriple
    exposure: float
    depth: float

    def __post_init__(self) -> None:
        if not (self.exposure > 0 and math.isfinite(self.exposure)):
            raise DomainError(f"exposure must be positive and finite, got {self.exposure}")
        if not (self.depth > 0 and math.isfinite(self.depth)):
            raise DomainError(f"depth must be positive and finite, got {self.depth}")
        # The fit scales each setting's design row by this product.
        if not math.isfinite(self.exposure * self.depth):
            raise DomainError(
                f"exposure * depth must be finite, got {self.exposure:g} * {self.depth:g}"
            )


@dataclass(frozen=True)
class CountRecord:
    """Observed (or simulated) counts for one measurement setting.

    channel_counts, when present, resolves the captures by channel in
    channels_for(mode) order and must sum to capture_counts.
    """

    setting: MeasurementSetting
    capture_counts: int
    transmitted_counts: int
    channel_counts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.capture_counts < 0 or self.transmitted_counts < 0:
            raise DomainError("counts must be nonnegative")
        if self.channel_counts is not None:
            if any(count < 0 for count in self.channel_counts):
                raise DomainError("channel counts must be nonnegative")
            if sum(self.channel_counts) != self.capture_counts:
                raise DomainError("channel counts must sum to the total captures")


def _unchecked_record(
    setting: MeasurementSetting,
    capture_counts: int,
    transmitted_counts: int,
    channel_counts: tuple[int, ...] | None,
) -> CountRecord:
    """A CountRecord of counts its caller has already checked, built without __post_init__."""
    record = object.__new__(CountRecord)
    fields = record.__dict__
    fields["setting"] = setting
    fields["capture_counts"] = capture_counts
    fields["transmitted_counts"] = transmitted_counts
    fields["channel_counts"] = channel_counts
    return record


@dataclass(frozen=True, eq=False)
class FitResult:
    """Recovered strength constants with covariance over the free components."""

    channels: tuple[Channel, ...]
    strengths: tuple[float, ...]
    covariance: np.ndarray
    residual_norm: float

    def standard_errors(self) -> tuple[float, ...]:
        return tuple(math.sqrt(max(v, 0.0)) for v in np.diag(self.covariance))

    def to_json_dict(self) -> dict:
        return {
            "K_hat": {
                channel.label: value for channel, value in zip(self.channels, self.strengths)
            },
            "covariance": [[float(v) for v in row] for row in self.covariance],
            "residual_norm": float(self.residual_norm),
            "channels": [channel.label for channel in self.channels],
        }


# Float entries closer to zero than this are re-decided by the exact closed
# form, which costs one exact evaluation each; roundoff near a zero could
# otherwise leave a tiny or negative cross-section.
_ZERO_TOLERANCE = 1e-12


def _coordinates(pols: Sequence[PolarizationTriple]) -> np.ndarray:
    """The points as an (N, 3) float array of (p, P_L, P_N), as float() gives each."""
    values = [x.numerator / x.denominator for pol in pols for x in (pol.p, pol.pl, pol.pn)]
    return np.array(values, dtype=float).reshape(-1, 3)


def _unit_brackets(
    coordinates: np.ndarray,
    pols: Sequence[PolarizationTriple],
    mode: CaptureMode,
    coefficients: Sequence[tuple],
) -> np.ndarray:
    """Float cross-sections at K = 1, one row per point, one column per channel.

    coordinates holds the points as floats, one (p, P_L, P_N) row each, and
    pols the same points exactly, for the re-decide near zero; coefficients
    are the rows of u_coefficients(mode).
    """
    p, pl, pn = coordinates.T
    basis = np.column_stack([np.ones_like(p), 1 - p * pl, 1 - p * pn, 1 - pl * pn])
    # Integer numerators, with the two parts summed apart as in the exact
    # table: on a dyadic grid both sums are exact, and a rational entry is
    # correctly rounded by the one division.
    denominators, rational, root = (
        np.array(part, dtype=float) for part in zip(*coefficients)
    )
    values = (basis @ rational.T + math.sqrt(2) * (basis @ root.T)) / denominators
    channels = channels_for(mode)
    unit = CaptureModel.uniform(mode)
    for row, column in zip(*np.nonzero(np.abs(values) < _ZERO_TOLERANCE)):
        values[row, column] = float(closed_form(channels[column], pols[row], unit).value)
    return values


# The last design matrix built in this process and its key: the mode, the
# u-coefficient rows it was built from, and the settings themselves, held so
# that no other setting can take one of their identities.
_kept_design: tuple[CaptureMode, list, tuple[MeasurementSetting, ...], np.ndarray] | None = None


def design_matrix(settings: Sequence[MeasurementSetting], mode: CaptureMode) -> np.ndarray:
    """Per-setting, per-channel cross-section brackets at unit strength.

    Entry (i, c) is the channel-c cross-section at setting i with K = 1, as
    a float; exact zeros are exact.  The result is read-only.

    The last matrix built is kept, and returned again when the mode, the rows
    u_coefficients(mode) returns at this call, and every setting (by
    identity, in order) are those it was built for.  A closed form patched in
    since then changes the rows, so it is seen on the next call.  While no
    closed form is patched, u_coefficients returns its kept rows, and the
    key's check costs one identity comparison per row and per setting.
    """
    global _kept_design
    if not settings:
        raise DomainError("at least one measurement setting is required")
    coefficients = u_coefficients(mode)
    kept = _kept_design
    if (
        kept is not None
        and kept[0] is mode
        and kept[1] == coefficients
        and len(kept[2]) == len(settings)
        and all(map(operator.is_, kept[2], settings))
    ):
        return kept[3]
    settings = tuple(settings)
    pols = [setting.pol for setting in settings]
    matrix = _unit_brackets(_coordinates(pols), pols, mode, coefficients)
    matrix.flags.writeable = False
    _kept_design = (mode, coefficients, settings, matrix)
    return matrix


def _nnls(r: np.ndarray, projected: np.ndarray, roundoff: float) -> np.ndarray:
    """The x >= 0 that minimizes ||r @ x - projected||, on a design's QR factors.

    r and projected = Q.T @ response come from one QR factorization
    design = Q @ r of a design of full column rank.  ||design @ x - response||
    differs from ||r @ x - projected|| by a term free of x, so the two have
    one minimizer.  It is the least-squares solution on its own support
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23), and with
    full column rank it is the only point that meets the optimality
    conditions: x > 0 on the support and a gradient
    r.T @ (projected - r @ x) <= 0 off it.  With two or three columns there
    are at most eight supports, so they are walked from largest to smallest
    and the first that meets the conditions is returned.  roundoff is the
    size of the rounding error in projected.
    """
    columns = range(r.shape[1])
    # A channel without data, or one the other channels explain, has zero
    # strength and zero gradient at the optimum, and roundoff gives each
    # either sign.  A gradient below gradient_tolerance counts as zero.  So
    # does a strength below strength_tolerance: dropping it from the support
    # leaves a gradient of at most strength * norm(r)**2 < gradient_tolerance.
    r_norm = np.linalg.norm(r)
    gradient_tolerance = roundoff * r_norm
    strength_tolerance = roundoff / r_norm
    sizes = range(len(columns), 0, -1)
    for support in map(list, chain.from_iterable(combinations(columns, k) for k in sizes)):
        strengths = np.zeros(len(columns))
        strengths[support] = np.linalg.lstsq(r[:, support], projected)[0]
        gradient = r.T @ (projected - r @ strengths)
        off = [column for column in columns if column not in support]
        if (strengths[support] > strength_tolerance).all() and (
            gradient[off] <= gradient_tolerance
        ).all():
            return strengths
    # The walk ruled out every nonempty support, so the optimum is x = 0.
    return np.zeros(len(columns))


def _weighted_nnls(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    channels: tuple[Channel, ...],
) -> FitResult:
    """Weighted nonnegative least squares, and the covariance of the free channels.

    The weighted design A is factored once, A = Q @ R, and everything is read
    off the k x k factor R (Lawson & Hanson, ch. 12): the rank test from R's
    singular values, which are A's; on a degenerate design, the combination
    it cannot identify, R's last right singular vector, signed so that its
    first coefficient of largest magnitude is +1; the support walk of _nnls
    on (R, Q.T @ response); and the free channels' covariance
    inv(A_f.T @ A_f) = inv(R_f) @ inv(R_f).T, with R_f = R when no channel is
    pinned at 0, else the R of a QR of R's free columns.  That never forms
    A.T @ A, which would square A's condition number.  A pinned channel gets
    a zero row and column.
    """
    # Checked before LAPACK sees them: on a NaN it prints to stderr and fails.
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise DomainError("weights must be finite and nonnegative")
    sqrt_weights = np.sqrt(weights)
    weighted_design = design * sqrt_weights[:, None]
    weighted_response = response * sqrt_weights
    # Both sides are scaled by powers of two, exactly, to a largest entry
    # near 1, so that no norm below underflows or overflows.
    design_exponent = math.frexp(np.abs(weighted_design).max())[1]
    scaled_design = np.ldexp(weighted_design, -design_exponent)
    q, r = np.linalg.qr(scaled_design)

    _, singular_values, right_vectors = np.linalg.svd(r)
    if len(singular_values) < len(channels) or singular_values[-1] <= 1e-12 * singular_values[0]:
        null_vector = right_vectors[-1]
        magnitudes = np.abs(null_vector)
        # Roundoff can split coefficients of equal magnitude, so the first
        # within 1e-9 of the largest leads.
        leading = null_vector[np.argmax(magnitudes >= (1 - 1e-9) * magnitudes.max())]
        combination = {
            channel.label: round(float(coefficient / leading), 6)
            for channel, coefficient in zip(channels, null_vector)
            if abs(coefficient) > 1e-9 * abs(leading)
        }
        names = " , ".join(f"{coeff:+g}*K[{label}]" for label, coeff in combination.items())
        raise DegenerateDesignError(
            f"design cannot identify the channel combination {names}; "
            "add settings that separate these channels",
            combination,
        )

    if not np.isfinite(weighted_response).all():
        raise DomainError("rates and weights must be finite")
    response_exponent = math.frexp(np.abs(weighted_response).max())[1]
    scaled_response = np.ldexp(weighted_response, -response_exponent)
    roundoff = (
        10 * max(scaled_design.shape) * np.finfo(float).eps * np.linalg.norm(scaled_response)
    )
    strengths = _nnls(r, q.T @ scaled_response, roundoff)
    residual = np.linalg.norm(scaled_design @ strengths - scaled_response)
    strengths = np.ldexp(strengths, response_exponent - design_exponent)

    covariance = np.zeros((len(channels), len(channels)))
    free = strengths > 0
    if free.any():
        free_r = r if free.all() else np.linalg.qr(r[:, free])[1]
        inverse = np.linalg.inv(free_r)
        # The scaled design's covariance, scaled back; one beyond the float
        # range is refused before ldexp would overflow.
        free_covariance = inverse @ inverse.T
        exponent = -2 * design_exponent
        if math.frexp(np.abs(free_covariance).max())[1] + exponent > sys.float_info.max_exp:
            raise DomainError(
                "the fit's covariance is beyond the float range; "
                "exposure * depth is too small to fit these counts"
            )
        covariance[np.ix_(free, free)] = np.ldexp(free_covariance, exponent)
    return FitResult(
        channels,
        tuple(float(v) for v in strengths),
        covariance,
        math.ldexp(residual, response_exponent),
    )


def fit_rates(
    settings: Sequence[MeasurementSetting],
    rates: Sequence[float],
    mode: CaptureMode,
    weights: Sequence[float] | None = None,
) -> FitResult:
    """Weighted nonnegative least squares on capture rates.

    The model is rate_i = exposure_i * depth_i * sum_c D[i, c] * K_c.  With
    unit weights and noiseless rates the recovery is exact up to solver
    precision; this is the entry point for continuous (non-count) data.
    """
    if len(rates) != len(settings):
        raise DomainError("one rate per setting is required")
    channels = channels_for(mode)
    if len(settings) < len(channels):
        raise DegenerateDesignError(
            f"need at least {len(channels)} settings to identify {len(channels)} channels"
        )
    scale = np.array([s.exposure * s.depth for s in settings])
    design = design_matrix(settings, mode) * scale[:, None]
    weight_array = (
        np.ones(len(settings)) if weights is None else np.asarray(weights, dtype=float)
    )
    return _weighted_nnls(design, np.asarray(rates, dtype=float), weight_array, channels)


def fit_strengths(
    records: Sequence[CountRecord],
    mode: CaptureMode,
    channel_resolved: bool = False,
) -> FitResult:
    """Recover strength constants from counting records.

    Channel-summed (default): fit_rates on the total captures per setting
    with Poisson weights 1/max(count, 1).  Channel-resolved: each record
    must carry one channel count per channel of the mode; every (setting,
    channel) pair becomes its own weighted observation.
    """
    if not records:
        raise DomainError("at least one count record is required")
    settings = [record.setting for record in records]
    if not channel_resolved:
        counts = np.array([record.capture_counts for record in records], dtype=float)
        return fit_rates(settings, counts, mode, weights=1.0 / np.maximum(counts, 1.0))

    channels = channels_for(mode)
    for index, record in enumerate(records):
        if record.channel_counts is None:
            raise DomainError("channel-resolved fitting needs channel_counts on every record")
        if len(record.channel_counts) != len(channels):
            raise DomainError(
                f"record {index} has {len(record.channel_counts)} channel counts, "
                f"but {mode.value} mode has {len(channels)} channels"
            )
    scale = np.array([s.exposure * s.depth for s in settings])
    design = design_matrix(settings, mode) * scale[:, None]
    # Row (i, c) of the stacked design keeps only channel c of setting i.
    stacked = (design[:, :, None] * np.eye(len(channels))).reshape(-1, len(channels))
    counts = np.array([float(count) for record in records for count in record.channel_counts])
    weights = 1.0 / np.maximum(counts, 1.0)
    return _weighted_nnls(stacked, counts, weights, channels)


# numpy draws Poisson counts only for means up to about 9.2e18.
MAX_SIMULATED_EXPOSURE = 1e18


def _float_strength(strength: Fraction, channel: Channel) -> float:
    """A strength as a float; one beyond the float range raises DomainError naming its channel."""
    try:
        return float(strength)
    except OverflowError:
        raise DomainError(
            f"strength K[{channel.label}] is above {sys.float_info.max:g}, the largest float"
        ) from None


def simulate_counts(
    settings: Sequence[MeasurementSetting], model: CaptureModel, seed: int
) -> list[CountRecord]:
    """Simulate a transmission/counting run; bit-reproducible for a seed.

    Setting i draws from its own PCG64 stream, the one numpy seeds from
    SeedSequence(entropy=seed, spawn_key=(i,)), so results do not depend on
    evaluation order and the first k settings of a longer list simulate as
    those k settings alone.  The streams of all settings are derived at once
    (seeding.pcg64_states) and drawn through one reused Generator.  The seed
    is a nonnegative integer; an empty settings list raises DomainError, as
    design_matrix does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    for index, setting in enumerate(settings):
        # Both Poisson means are at most the exposure.
        if setting.exposure > MAX_SIMULATED_EXPOSURE:
            raise DomainError(
                f"setting {index}: exposure {setting.exposure:g} is above "
                f"{MAX_SIMULATED_EXPOSURE:g}, the largest that can be simulated"
            )
    channels = channels_for(model.mode)
    strengths = np.array(
        [_float_strength(strength, channel) for strength, channel in zip(model.strengths, channels)]
    )
    sigma_rows = design_matrix(settings, model.mode) * strengths
    sigma_totals = [sum(sigmas) for sigmas in sigma_rows.tolist()]
    if math.inf in sigma_totals:
        index = sigma_totals.index(math.inf)
        raise DomainError(f"setting {index}: the total cross-section is too large for a float")
    # Each row's channel shares, or zeros where no channel is open.
    totals_column = np.array(sigma_totals)[:, None]
    share_rows = np.divide(
        sigma_rows, totals_column, out=np.zeros_like(sigma_rows), where=totals_column > 0
    )
    states = pcg64_states(seed, np.arange(len(settings), dtype=np.uint64))
    # Seeded so that it draws no OS entropy; each setting sets its state
    # through one dict, which the setter reads and does not keep.
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    stream = {"state": 0, "inc": 0}
    generator_state = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
    records = []
    for setting, sigma_total, shares, (state, inc) in zip(
        settings, sigma_totals, share_rows, states
    ):
        stream["state"], stream["inc"] = state, inc
        bit_generator.state = generator_state
        transmission = math.exp(-setting.depth * sigma_total)
        captures = int(rng.poisson(setting.exposure * (1.0 - transmission)))
        if captures > 0 and sigma_total > 0:
            split = tuple(rng.multinomial(captures, shares).tolist())
        else:
            split = (0,) * len(channels)
        transmitted = int(rng.poisson(setting.exposure * transmission))
        # Poisson draws are nonnegative and the split sums to the captures.
        records.append(_unchecked_record(setting, captures, transmitted, split))
    return records


# -- discriminability sweep ----------------------------------------------------


def _reference_settings(mode: CaptureMode) -> list[PolarizationTriple]:
    # One fewer reference than channels, so one candidate completes a square
    # design: the unpolarized point, plus the fully aligned corner for OAM.
    if mode is CaptureMode.OAM:
        return [PolarizationTriple.of(0, 0, 0), PolarizationTriple.of(1, 1, 1)]
    return [PolarizationTriple.of(0, 0, 0)]


class _GridPoints(Sequence[PolarizationTriple]):
    """The points head, then the grid's points in lexicographic (p, P_L, P_N) order.

    values are the grid's coordinates, as grid_values gives them.  Grid
    point i * n^2 + j * n + k, with n = len(values), is
    (values[i], values[j], values[k]); it is built only when indexed.
    """

    def __init__(
        self, values: tuple[Fraction, ...], head: Sequence[PolarizationTriple] = ()
    ) -> None:
        self._values = values
        self._head = head

    def __len__(self) -> int:
        return len(self._head) + len(self._values) ** 3

    def __getitem__(self, index: int) -> PolarizationTriple:
        if not 0 <= index < len(self):
            raise IndexError(index)
        if index < len(self._head):
            return self._head[index]
        n = len(self._values)
        i, rest = divmod(index - len(self._head), n * n)
        j, k = divmod(rest, n)
        return PolarizationTriple(self._values[i], self._values[j], self._values[k])


def _grid(grid_resolution: int) -> tuple[tuple[Fraction, ...], np.ndarray, np.ndarray]:
    """The uniform grid over [-1, 1]^3 in lexicographic (p, P_L, P_N) order, as columns.

    With d = grid_resolution - 1, every coordinate is i/d for one of the
    integers i = -d, -d + 2, ..., d, so the grid is walked in integers.
    Returns the grid's values, as grid_values gives them; the points' (N, 3)
    float coordinates, each the correctly rounded i/d, as float() of the
    Fraction gives; and their (N, 3) integer pair products (xy, xz, yz) for
    p = x/d, P_L = y/d, P_N = z/d, so that a point's u-numerators over the
    common denominator d are (d^2, d^2 - xy, d^2 - xz, d^2 - yz).
    """
    values = grid_values(grid_resolution)  # rejects a resolution below 2
    d = grid_resolution - 1
    numerators = np.arange(-d, d + 1, 2, dtype=np.int64)
    indices = np.indices((grid_resolution,) * 3).reshape(3, -1)
    coordinates = (numerators / d)[indices.T]
    x, y, z = numerators[indices]
    return values, coordinates, np.column_stack([x * y, x * z, y * z])


def _share_groups(products: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the points by their pair products, groups in order of first occurrence.

    Returns the index of each group's first point, ascending, and each
    point's group.  Each product lies in [-d^2, d^2], so one int64 key in
    base 2*d^2 + 1 tells the triples apart.
    """
    base = 2 * d * d + 1
    digits = products + d * d
    keys = (digits[:, 0] * base + digits[:, 1]) * base + digits[:, 2]
    _, first, groups = np.unique(keys, return_index=True, return_inverse=True)
    by_occurrence = np.argsort(first)
    rank = np.empty_like(by_occurrence)
    rank[by_occurrence] = np.arange(len(by_occurrence))
    return first[by_occurrence], rank[groups.ravel()]


def _u_key(xy: int, xz: int, yz: int, d: int) -> tuple[int, int, int, int]:
    """The u-numerators (d^2, d^2 - xy, d^2 - xz, d^2 - yz) of a point's pair products over d."""
    dd = d * d
    return dd, dd - xy, dd - xz, dd - yz


class Sweep:
    """A discriminability sweep: the grid's points sorted by condition number, as columns.

    Row r is the grid point of lexicographic index order[r].  rows() yields
    each row's three coordinate texts, its share group and its condition
    number, and decimals holds, per channel, the rendered share of each
    group; the writers read these.
    """

    def __init__(
        self,
        values: tuple[Fraction, ...],
        order: np.ndarray,
        groups: np.ndarray,
        conditions: np.ndarray,
        decimals: tuple[list[str], ...],
    ) -> None:
        self._texts = [str(value) for value in values]
        self._order = order
        self._groups = groups
        self._conditions = conditions
        self.decimals = decimals

    def rows(self) -> Iterator[tuple[str, str, str, int, float]]:
        """Each row in order as (p, P_L, P_N) texts, share group, condition number."""
        n = len(self._texts)
        i, rest = np.divmod(self._order, n * n)
        j, k = np.divmod(rest, n)
        text = self._texts.__getitem__
        return zip(
            map(text, i.tolist()),
            map(text, j.tolist()),
            map(text, k.tolist()),
            self._groups.tolist(),
            self._conditions.tolist(),
        )


def discriminability_sweep(grid_resolution: int, model: CaptureModel) -> Sweep:
    """Rank grid points by how well they complete a strength-fitting design.

    For every point of the uniform grid over [-1, 1]^3 this reports each
    channel's exact share of the total cross-section, rendered to 15
    significant digits, and the condition number of the design matrix formed
    by the point together with the fixed reference settings (unpolarized,
    plus the aligned corner in OAM mode).  Output is sorted stably by
    condition number; the points are generated in lexicographic
    (p, P_L, P_N) order, so ties keep that order.  The Sweep returned gives
    them through rows() and decimals.

    The grid is held as columns, not as a point object per grid point: float
    coordinates and integer pair products over d = grid_resolution - 1
    (_grid), and each coordinate's text looked up by index.  An exact point
    is built only where _unit_brackets re-decides an entry near zero, or to
    name a point where the total vanishes.  The u-coefficients of the closed
    form in force are read once.  The condition numbers come from the float
    path and one batched SVD over the first half of the grid, since a
    point's flip (-p, -P_L, -P_N) has the same float row; the other half
    mirrors them.  The fractions depend on a point only through its
    u-numerators, so numpy groups the points by their pair products, groups
    in order of first occurrence.  channel_share_numerators streams each
    group's shares as integers, and each is rendered to 15 significant
    digits at once; each share is still decided by field arithmetic.  A
    point where the total vanishes raises DomainError naming the first such
    point in grid order.
    """
    values, coordinates, products = _grid(grid_resolution)
    d = grid_resolution - 1
    references = _reference_settings(model.mode)
    coefficients = u_coefficients(model.mode)
    rows = _unit_brackets(
        np.concatenate([_coordinates(references), coordinates]),
        _GridPoints(values, references),
        model.mode,
        coefficients,
    )
    # One square design per point: the reference rows, then the point's row.
    # In lexicographic order the flip of point i is point N - 1 - i, and
    # (-x)*(-y) == x*y in floats, so the second half mirrors the first.
    size = len(coordinates)
    half = (size + 1) // 2
    designs = np.empty((half, len(references) + 1, rows.shape[1]))
    designs[:, :-1] = rows[: len(references)]
    designs[:, -1] = rows[len(references) : len(references) + half]
    singular_values = np.linalg.svd(designs, compute_uv=False)
    largest, smallest = singular_values[:, 0], singular_values[:, -1]
    conditions = np.full(half, math.inf)
    np.divide(largest, smallest, out=conditions, where=smallest > 0)
    conditions = np.concatenate([conditions, conditions[: size - half][::-1]])

    first, groups = _share_groups(products, d)
    points = _GridPoints(values)
    us = map(_u_key, *products[first].T.tolist(), repeat(d))
    decimals = tuple([] for _ in coefficients)
    for row in channel_share_numerators(
        us, model, coefficients, lambda group: points[int(first[group])]
    ):
        for column, share in zip(decimals, row):
            column.append(render_decimal(*share))
    # No condition number is NaN, so this is the stable sort by value.
    order = np.argsort(conditions, kind="stable")
    return Sweep(values, order, groups[order], conditions[order], decimals)


# -- file formats ----------------------------------------------------------------


class _DataLines:
    """The CSV rows of a source's data lines: no blanks, no '#' comments.

    A blank or '#' line is skipped only where it would start a record;
    inside a quoted cell that spans lines it is part of the cell.  ``line``
    is the file line number of the last line handed out, so a parse error
    can say where it happened.
    """

    def __init__(self, source: TextIO, kind: str) -> None:
        self._source = source
        self._name = getattr(source, "name", f"{kind} file")
        self._rows = csv.reader(self._lines())
        self.line = 0
        # True until the reader takes a line of a record it has not returned.
        self._record_done = True

    def _lines(self) -> Iterator[str]:
        try:
            for number, text in enumerate(self._source, start=1):
                self.line = number
                if not self._record_done or (text.strip() and not text.lstrip().startswith("#")):
                    self._record_done = False
                    yield text
        except UnicodeDecodeError as exc:
            # A text file decodes a block at a time, and reads the next block
            # only once every complete line before it has been handed out.
            # The bad byte's line is the next one plus the newlines ahead of
            # it in the block.
            self.line += 1 + exc.object.count(b"\n", 0, exc.start)
            raise DomainError(f"not UTF-8 text ({exc.reason})") from None

    def header(self) -> list[str] | None:
        """The first row, or None without one; an unreadable line raises DomainError naming it."""

        def read() -> list[str] | None:
            row = next(self._rows, None)
            self._record_done = True
            return row

        return self.located(read)

    def rows(self, width: int, parse: Callable[[list[str]], object]) -> list:
        """Parse the rows after the header; a malformed one raises DomainError naming its line."""

        def parse_all() -> list:
            parsed = []
            for row in self._rows:
                self._record_done = True
                if len(row) != width:
                    raise DomainError(f"expected {width} cells")
                parsed.append(parse(row))
            return parsed

        return self.located(parse_all)

    def located(self, read: Callable[[], object]):
        """read(); a DomainError or csv.Error it raises is reraised naming the current line."""
        try:
            return read()
        except (DomainError, csv.Error) as exc:
            raise self.error(exc) from None

    def error(self, problem: object) -> DomainError:
        """A DomainError that names the file and the current line, if one has been read."""
        where = f"{self._name}, line {self.line}" if self.line else self._name
        return DomainError(f"{where}: {problem}")


def _cell(text: str, column: str, parse: Callable[[str], object]):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"column {column}: malformed value {text!r}") from None
    except OverflowError as exc:
        raise DomainError(f"column {column}: {exc}") from None


def _count(text: str) -> int:
    """An integer count; the fit works in floats, so it must convert to one."""
    count = int(text)
    if abs(count) > sys.float_info.max:
        raise OverflowError("count is too large for a float")
    return count


def read_settings_csv(source: TextIO) -> list[MeasurementSetting]:
    """Read a settings table with header p,P_L,P_N,exposure,depth.

    Polarizations are parsed as exact rationals ('-1/2' and '0.25' both
    work), each distinct text once per file; comment lines starting with '#'
    are ignored.
    """
    lines = _DataLines(source, "settings")
    fields = lines.header()
    if fields is None or tuple(fields) != SETTINGS_HEADER:
        raise lines.error(
            f"settings file must have header {','.join(SETTINGS_HEADER)}, got {fields}"
        )
    # A parsed Fraction is immutable, so the settings share one per text.
    fractions: dict[str, Fraction] = {}

    def polarization(text: str, column: str) -> Fraction:
        if text not in fractions:
            fractions[text] = _cell(text, column, parse_rational)
        return fractions[text]

    def parse(row: list[str]) -> MeasurementSetting:
        p, pl, pn, exposure, depth = row
        pol = PolarizationTriple(
            polarization(p, "p"), polarization(pl, "P_L"), polarization(pn, "P_N")
        )
        return MeasurementSetting(
            pol, _cell(exposure, "exposure", float), _cell(depth, "depth", float)
        )

    settings = lines.rows(len(SETTINGS_HEADER), parse)
    if not settings:
        raise lines.error("at least one measurement setting is required")
    return settings


def _channel_count_columns(mode: CaptureMode) -> list[str]:
    return [f"capture_j{channel.j_final}" for channel in channels_for(mode)]


def _channel_columns(fields: Sequence[str]) -> list[str]:
    """The capture_j* column names in channels_for order, checked by name.

    The channels of each mode have j = 0, 1, ... in channels_for order, so m
    channel columns must be capture_j0 to capture_j<m-1>, in any order; the
    fit then checks m against the mode.
    """
    columns = [name for name in fields if name.startswith("capture_j")]
    expected = [f"capture_j{j}" for j in range(len(columns))]
    for name in columns:
        if columns.count(name) > 1:
            raise DomainError(f"channel column {name} appears more than once")
        if name not in expected:
            raise DomainError(
                f"unknown channel column {name}; expected {', '.join(expected)} in any order"
            )
    return expected


def write_counts_csv(
    records: Sequence[CountRecord],
    sink: TextIO,
    channel_mode: CaptureMode | None = None,
) -> None:
    """Write counts with header setting_id,capture,transmitted.

    With channel_mode, that mode's per-channel capture columns are appended
    after the standard three, as read_counts_csv with channel_mode reads them.
    """
    header = list(COUNTS_HEADER)
    if channel_mode is not None:
        header += _channel_count_columns(channel_mode)
    writer = csv.writer(sink)
    writer.writerow(header)
    for index, record in enumerate(records):
        row = [index, record.capture_counts, record.transmitted_counts]
        if channel_mode is not None:
            if record.channel_counts is None:
                raise DomainError("records lack channel counts")
            row += list(record.channel_counts)
        writer.writerow(row)


def read_counts_csv(
    source: TextIO,
    settings: Sequence[MeasurementSetting],
    channel_mode: CaptureMode | None = None,
) -> list[CountRecord]:
    """Read a counts table; setting_id indexes into the settings list.

    Channel columns capture_j<j> are matched to channels by name, so their
    order in the file does not matter.  A standard or channel column that
    repeats, and a table without rows, raise DomainError naming the file, as
    read_settings_csv does.  With channel_mode, the header must hold exactly
    that mode's channel columns, as a channel-resolved fit needs.
    """
    lines = _DataLines(source, "counts")
    fields = tuple(lines.header() or ())
    if fields[: len(COUNTS_HEADER)] != COUNTS_HEADER:
        raise lines.error(
            f"counts file must start with header {','.join(COUNTS_HEADER)}, got {fields}"
        )
    for name in COUNTS_HEADER:
        if fields.count(name) > 1:
            raise lines.error(f"column {name} appears more than once")
    channel_columns = lines.located(lambda: _channel_columns(fields))
    if channel_mode is not None:
        needed = _channel_count_columns(channel_mode)
        if channel_columns != needed:
            raise lines.error(
                f"a channel-resolved {channel_mode.value} fit needs columns "
                f"{', '.join(needed)}; the header has {', '.join(channel_columns) or 'none'}"
            )
    position = {name: index for index, name in enumerate(fields)}
    setting_at, capture_at, transmitted_at = (position[name] for name in COUNTS_HEADER)
    channels_at = [(position[name], name) for name in channel_columns]
    cells = operator.itemgetter(
        setting_at, capture_at, transmitted_at, *(index for index, _ in channels_at)
    )
    setting_count = len(settings)
    largest_count = sys.float_info.max

    def parse(row: list[str]) -> CountRecord:
        # A good row is read in one step; a row with any fault is read again
        # by checked, which finds the first fault and names it.
        try:
            setting_id, capture, transmitted, *channel = map(int, cells(row))
        except ValueError:
            return checked(row)
        # Channel counts that are nonnegative and sum to the captures are at
        # most the captures, so they are within the float range too.
        if (
            0 <= setting_id < setting_count
            and 0 <= capture <= largest_count
            and 0 <= transmitted <= largest_count
            and (not channel or (min(channel) >= 0 and sum(channel) == capture))
        ):
            return _unchecked_record(
                settings[setting_id], capture, transmitted, tuple(channel) if channels_at else None
            )
        return checked(row)

    def checked(row: list[str]) -> CountRecord:
        setting_id = _cell(row[setting_at], "setting_id", int)
        if not 0 <= setting_id < len(settings):
            raise DomainError(f"setting_id {setting_id} has no matching setting")
        channel_counts = (
            tuple(_cell(row[index], name, _count) for index, name in channels_at)
            if channels_at
            else None
        )
        return CountRecord(
            settings[setting_id],
            _cell(row[capture_at], "capture", _count),
            _cell(row[transmitted_at], "transmitted", _count),
            channel_counts,
        )

    records = lines.rows(len(fields), parse)
    if not records:
        raise lines.error("at least one count record is required")
    return records
