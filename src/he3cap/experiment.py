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
off closed_form at five anchor points when a batch is evaluated
(cross_sections.u_coefficients).  Float consumers (the design matrix, the
simulator's cross-sections, the sweep's bracket rows) turn them into one
matrix product; entries within roundoff of zero are re-decided exactly, so a
closed channel stays exactly closed and no cross-section comes out negative.
The sweep's exact channel fractions come from the same integers, as one
integer batch over the points (cross_sections.channel_fraction_rows).

Counting model: a cell of optical-depth coefficient d (per unit strength)
transmits a fraction T = exp(-d * sigma_total); captures are Poisson with
mean exposure * (1 - T), split across channels in proportion to their
cross-sections, and the fit uses the thin-target linearization
rate = exposure * d * sum_c D[i, c] * K_c.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .cross_sections import (
    CaptureMode,
    CaptureModel,
    Channel,
    channel_fraction_rows,
    channels_for,
    closed_form,
    grid_values,
    u_coefficients,
)
from .errors import DegenerateDesignError, DomainError
from .exactnum import QuadRational, parse_rational
from .polarization import PolarizationTriple

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


@dataclass(frozen=True, eq=False)
class FitResult:
    """Recovered strength constants with covariance over the free components."""

    channels: tuple[Channel, ...]
    strengths: tuple[float, ...]
    covariance: np.ndarray
    residual_norm: float

    def strength(self, channel: Channel) -> float:
        return self.strengths[self.channels.index(channel)]

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


def _unit_brackets(pols: Sequence[PolarizationTriple], mode: CaptureMode) -> np.ndarray:
    """Float cross-sections at K = 1, one row per point, one column per channel."""
    p, pl, pn = np.array(
        [(float(pol.p), float(pol.pl), float(pol.pn)) for pol in pols], dtype=float
    ).reshape(-1, 3).T
    basis = np.column_stack([np.ones_like(p), 1 - p * pl, 1 - p * pn, 1 - pl * pn])
    # Integer numerators, with the two parts summed apart as in the exact
    # table: on a dyadic grid both sums are exact, and a rational entry is
    # correctly rounded by the one division.
    rational, root, denominators = (
        np.array(part, dtype=float) for part in u_coefficients(mode)
    )
    values = (basis @ rational.T + math.sqrt(2) * (basis @ root.T)) / denominators
    channels = channels_for(mode)
    unit = CaptureModel.uniform(mode)
    for row, column in zip(*np.nonzero(np.abs(values) < _ZERO_TOLERANCE)):
        values[row, column] = float(closed_form(channels[column], pols[row], unit).value)
    return values


def design_matrix(settings: Sequence[MeasurementSetting], mode: CaptureMode) -> np.ndarray:
    """Per-setting, per-channel cross-section brackets at unit strength.

    Entry (i, c) is the channel-c cross-section at setting i with K = 1, as
    a float; exact zeros are exact.
    """
    if not settings:
        raise DomainError("at least one measurement setting is required")
    return _unit_brackets([setting.pol for setting in settings], mode)


def _describe_null_combination(
    scaled_design: np.ndarray, channels: tuple[Channel, ...]
) -> dict[str, float]:
    _, _, vt = np.linalg.svd(scaled_design, full_matrices=True)
    null_vector = vt[-1]
    leading = np.max(np.abs(null_vector))
    return {
        channel.label: round(float(coefficient / leading), 6)
        for channel, coefficient in zip(channels, null_vector)
        if abs(coefficient) > 1e-9 * leading
    }


def _weighted_nnls(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    channels: tuple[Channel, ...],
) -> FitResult:
    # scipy is imported here, in the one place it runs, so that commands
    # which never fit do not pay for importing it.
    from scipy.optimize import nnls

    sqrt_weights = np.sqrt(weights)
    scaled_design = design * sqrt_weights[:, None]
    scaled_response = response * sqrt_weights

    singular_values = np.linalg.svd(scaled_design, compute_uv=False)
    if len(singular_values) < len(channels) or singular_values[-1] <= 1e-12 * singular_values[0]:
        combination = _describe_null_combination(scaled_design, channels)
        names = " , ".join(f"{coeff:+g}*K[{label}]" for label, coeff in combination.items())
        raise DegenerateDesignError(
            f"design cannot identify the channel combination {names}; "
            "add settings that separate these channels",
            combination,
        )

    strengths, residual = nnls(scaled_design, scaled_response)

    covariance = np.zeros((len(channels), len(channels)))
    free = strengths > 0
    if free.any():
        free_design = scaled_design[:, free]
        covariance[np.ix_(free, free)] = np.linalg.inv(free_design.T @ free_design)
    return FitResult(channels, tuple(float(v) for v in strengths), covariance, float(residual))


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
    must carry channel_counts; every (setting, channel) pair becomes its own
    weighted observation.
    """
    if not records:
        raise DomainError("at least one count record is required")
    settings = [record.setting for record in records]
    if not channel_resolved:
        counts = np.array([record.capture_counts for record in records], dtype=float)
        return fit_rates(settings, counts, mode, weights=1.0 / np.maximum(counts, 1.0))

    if any(record.channel_counts is None for record in records):
        raise DomainError("channel-resolved fitting needs channel_counts on every record")
    channels = channels_for(mode)
    scale = np.array([s.exposure * s.depth for s in settings])
    design = design_matrix(settings, mode) * scale[:, None]
    rows = []
    counts_list = []
    for record, design_row in zip(records, design):
        for channel_index, count in enumerate(record.channel_counts):
            row = np.zeros(len(channels))
            row[channel_index] = design_row[channel_index]
            rows.append(row)
            counts_list.append(float(count))
    stacked = np.array(rows)
    counts = np.array(counts_list)
    weights = 1.0 / np.maximum(counts, 1.0)
    return _weighted_nnls(stacked, counts, weights, channels)


# numpy draws Poisson counts only for means up to about 9.2e18.
MAX_SIMULATED_EXPOSURE = 1e18


def simulate_counts(
    settings: Sequence[MeasurementSetting], model: CaptureModel, seed: int
) -> list[CountRecord]:
    """Simulate a transmission/counting run; bit-reproducible for a seed.

    Each setting draws from an independent generator derived from
    (seed, setting index), so results do not depend on evaluation order.
    """
    for index, setting in enumerate(settings):
        # Both Poisson means are at most the exposure.
        if setting.exposure > MAX_SIMULATED_EXPOSURE:
            raise DomainError(
                f"setting {index}: exposure {setting.exposure:g} is above "
                f"{MAX_SIMULATED_EXPOSURE:g}, the largest that can be simulated"
            )
    channels = channels_for(model.mode)
    strengths = np.array([float(strength) for strength in model.strengths])
    sigma_rows = _unit_brackets([setting.pol for setting in settings], model.mode) * strengths
    records = []
    for index, (setting, sigma_row) in enumerate(zip(settings, sigma_rows)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        sigmas = sigma_row.tolist()
        sigma_total = sum(sigmas)
        transmission = math.exp(-setting.depth * sigma_total)
        captures = int(rng.poisson(setting.exposure * (1.0 - transmission)))
        if captures > 0 and sigma_total > 0:
            split = tuple(int(n) for n in rng.multinomial(captures, [s / sigma_total for s in sigmas]))
        else:
            split = (0,) * len(channels)
        transmitted = int(rng.poisson(setting.exposure * transmission))
        records.append(CountRecord(setting, captures, transmitted, split))
    return records


# -- discriminability sweep ----------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    pol: PolarizationTriple
    fractions: tuple[QuadRational, ...]
    condition_number: float


def _reference_settings(mode: CaptureMode) -> list[PolarizationTriple]:
    # One fewer reference than channels, so one candidate completes a square
    # design: the unpolarized point, plus the fully aligned corner for OAM.
    if mode is CaptureMode.OAM:
        return [PolarizationTriple.of(0, 0, 0), PolarizationTriple.of(1, 1, 1)]
    return [PolarizationTriple.of(0, 0, 0)]


def discriminability_sweep(
    grid_resolution: int, mode: CaptureMode, model: CaptureModel | None = None
) -> list[SweepPoint]:
    """Rank grid points by how well they complete a strength-fitting design.

    For every point of the uniform grid over [-1, 1]^3 this reports the exact
    channel fractions of the total cross-section and the condition number of
    the design matrix formed by the point together with the fixed reference
    settings (unpolarized, plus the aligned corner in OAM mode).  Output is
    sorted by condition number, then lexicographically by (p, P_L, P_N).

    The condition numbers come from the float path and one batched SVD.  The
    fractions come from channel_fraction_rows: per point, integer sums over
    the u-coefficients and one exact Q(sqrt(2)) division, so each share is
    still decided by field arithmetic.  A point where the total vanishes
    raises DomainError naming it.
    """
    values = grid_values(grid_resolution)
    if model is None:
        model = CaptureModel.uniform(mode)
    if model.mode is not mode:
        raise DomainError(f"model mode {model.mode.value} does not match sweep mode {mode.value}")
    references = _reference_settings(mode)
    points = [
        PolarizationTriple(p, pl, pn) for p in values for pl in values for pn in values
    ]
    rows = _unit_brackets(references + points, mode)
    # One square design per point: the reference rows, then the point's row.
    designs = np.empty((len(points), len(references) + 1, rows.shape[1]))
    designs[:, :-1] = rows[: len(references)]
    designs[:, -1] = rows[len(references) :]
    singular_values = np.linalg.svd(designs, compute_uv=False)
    largest, smallest = singular_values[:, 0], singular_values[:, -1]
    conditions = np.full(len(points), math.inf)
    np.divide(largest, smallest, out=conditions, where=smallest > 0)

    sweep = [
        SweepPoint(pol, shares, condition)
        for pol, shares, condition in zip(
            points, channel_fraction_rows(points, model), conditions.tolist()
        )
    ]
    sweep.sort(key=lambda point: (point.condition_number, point.pol.p, point.pol.pl, point.pol.pn))
    return sweep


# -- file formats ----------------------------------------------------------------


class _DataLines:
    """The lines of a CSV source that hold data: no blanks, no '#' comments.

    ``line`` is the file line number of the last line handed out, so a
    parse error can say where it happened.
    """

    def __init__(self, source: TextIO, kind: str) -> None:
        self._source = source
        self._name = getattr(source, "name", f"{kind} file")
        self.line = 0

    def __iter__(self) -> Iterator[str]:
        try:
            for number, text in enumerate(self._source, start=1):
                self.line = number
                if text.strip() and not text.lstrip().startswith("#"):
                    yield text
        except UnicodeDecodeError as exc:
            # A text file decodes a block at a time, and reads the next block
            # only once every complete line before it has been handed out.
            # The bad byte's line is the next one plus the newlines ahead of
            # it in the block.
            self.line += 1 + exc.object.count(b"\n", 0, exc.start)
            raise DomainError(f"not UTF-8 text ({exc.reason})") from None

    def fieldnames(self, reader: csv.DictReader) -> list[str] | None:
        """The header row; a line that cannot be read raises DomainError naming it."""
        return self._located(lambda: reader.fieldnames)

    def rows(self, reader: csv.DictReader, parse: Callable[[dict], object]) -> list:
        """Parse every row; any malformed one raises DomainError naming its line."""

        def parse_all() -> list:
            parsed = []
            for row in reader:
                if None in row or None in row.values():
                    raise DomainError(f"expected {len(reader.fieldnames)} cells")
                parsed.append(parse(row))
            return parsed

        return self._located(parse_all)

    def _located(self, read: Callable[[], object]):
        try:
            return read()
        except (DomainError, csv.Error) as exc:
            raise DomainError(f"{self._name}, line {self.line}: {exc}") from None


def _cell(row: dict, column: str, parse: Callable[[str], object]):
    try:
        return parse(row[column])
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"column {column}: malformed value {row[column]!r}") from None
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
    work); comment lines starting with '#' are ignored.
    """
    lines = _DataLines(source, "settings")
    reader = csv.DictReader(lines)
    fields = lines.fieldnames(reader)
    if fields is None or tuple(fields) != SETTINGS_HEADER:
        raise DomainError(
            f"settings file must have header {','.join(SETTINGS_HEADER)}, got {fields}"
        )

    def parse(row: dict) -> MeasurementSetting:
        pol = PolarizationTriple.of(*(_cell(row, name, parse_rational) for name in ("p", "P_L", "P_N")))
        return MeasurementSetting(pol, _cell(row, "exposure", float), _cell(row, "depth", float))

    return lines.rows(reader, parse)


def write_settings_csv(settings: Sequence[MeasurementSetting], sink: TextIO) -> None:
    writer = csv.writer(sink)
    writer.writerow(SETTINGS_HEADER)
    for setting in settings:
        writer.writerow(
            [setting.pol.p, setting.pol.pl, setting.pol.pn, setting.exposure, setting.depth]
        )


def _channel_count_columns(mode: CaptureMode) -> list[str]:
    return [f"capture_j{channel.j_final}" for channel in channels_for(mode)]


def write_counts_csv(
    records: Sequence[CountRecord],
    sink: TextIO,
    mode: CaptureMode | None = None,
    channel_resolved: bool = False,
) -> None:
    """Write counts with header setting_id,capture,transmitted.

    With channel_resolved=True (requires mode), per-channel capture columns
    are appended after the standard three.
    """
    header = list(COUNTS_HEADER)
    if channel_resolved:
        if mode is None:
            raise DomainError("channel-resolved output needs the capture mode")
        header += _channel_count_columns(mode)
    writer = csv.writer(sink)
    writer.writerow(header)
    for index, record in enumerate(records):
        row = [index, record.capture_counts, record.transmitted_counts]
        if channel_resolved:
            if record.channel_counts is None:
                raise DomainError("records lack channel counts")
            row += list(record.channel_counts)
        writer.writerow(row)


def read_counts_csv(
    source: TextIO, settings: Sequence[MeasurementSetting]
) -> list[CountRecord]:
    """Read a counts table; setting_id indexes into the settings list."""
    lines = _DataLines(source, "counts")
    reader = csv.DictReader(lines)
    fields = tuple(lines.fieldnames(reader) or ())
    if fields[: len(COUNTS_HEADER)] != COUNTS_HEADER:
        raise DomainError(
            f"counts file must start with header {','.join(COUNTS_HEADER)}, got {fields}"
        )
    channel_columns = [name for name in fields if name.startswith("capture_j")]

    def parse(row: dict) -> CountRecord:
        setting_id = _cell(row, "setting_id", int)
        if not 0 <= setting_id < len(settings):
            raise DomainError(f"setting_id {setting_id} has no matching setting")
        channel_counts = (
            tuple(_cell(row, name, _count) for name in channel_columns)
            if channel_columns
            else None
        )
        return CountRecord(
            settings[setting_id],
            _cell(row, "capture", _count),
            _cell(row, "transmitted", _count),
            channel_counts,
        )

    return lines.rows(reader, parse)
