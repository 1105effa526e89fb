"""The three benchmark workloads, each driven through he3cap.cli.main.

A workload builds its inputs from the benchmark seed when it is created
(untimed), runs one op per call of ``op`` (timed by the caller), and checks
an op's output in ``check`` (untimed).  Reference values come from the
substate-sum oracle and are computed when the workload is created, so the
checks never reuse the closed forms they are checking.

* oracle-adjudicate: ``oracle-check --grid 9 --json`` checks both modes on
  729 + 81 points; exact oracle, Clebsch-Gordan and Q(sqrt 2) arithmetic,
  no numpy or scipy.  The op has no random inputs, so the seed changes
  nothing in it.
* calibration-study: ``simulate`` then ``fit`` on the 5^3 calibration grid
  (exposure 6.5e7, depth 1e-4, truth K = 1, 2, 1/2), a fresh simulation
  seed per op.  The same 125 points and two models recur on every op: a
  small working set that a point cache or a vectorized float path serves.
* design-sweep: ``sweep --grid 13 --mode oam --json`` visits 2197 distinct
  points once each per op, with exact channel fractions, one SVD per point
  and 15-digit rendering.  No point repeats within an op.
"""

from __future__ import annotations

import csv
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from he3cap import cli
from he3cap.cross_sections import OAM_CHANNELS, CaptureModel, CaptureMode, oracle
from he3cap.polarization import PolarizationTriple

# Upper one-sided normal quantile for a tail probability of 1e-6; a correct
# program fails a per-op count check with about this probability.
_Z_1E6 = 4.753
# A correct program fails the run-level coverage check with probability
# below this.
_COVERAGE_FALSE_ALARM = 1e-3


def _grid(resolution: int) -> list[Fraction]:
    step = Fraction(2, resolution - 1)
    return [-1 + k * step for k in range(resolution)]


def _cube(resolution: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    values = _grid(resolution)
    return [(p, pl, pn) for p in values for pl in values for pn in values]


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    finally:
        path.unlink(missing_ok=True)


def _chi2_upper(dof: int, z: float) -> float:
    """Wilson-Hilferty approximation to the chi-square quantile at normal score z."""
    scale = 2.0 / (9.0 * dof)
    return dof * (1.0 - scale + z * math.sqrt(scale)) ** 3


def binomial_limit(trials: int, probability: float, alarm: float) -> int:
    """Smallest m with P(Binomial(trials, probability) > m) below alarm."""
    if trials == 0:
        return 0
    tail = 1.0
    for m in range(trials + 1):
        log_pmf = (
            math.lgamma(trials + 1)
            - math.lgamma(m + 1)
            - math.lgamma(trials - m + 1)
            + m * math.log(probability)
            + (trials - m) * math.log1p(-probability)
        )
        tail -= math.exp(log_pmf)
        if tail < alarm:
            return m
    return trials


def _exact_decimal(value) -> Decimal:
    """a + b*sqrt(2) of a QuadRational, to 50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(value.a.numerator) / Decimal(value.a.denominator)
        b = Decimal(value.b.numerator) / Decimal(value.b.denominator)
        return a + b * Decimal(2).sqrt()


def _is_rounding_of(text: str, exact: Decimal, digits: int = 15) -> bool:
    """True when text is exact correctly rounded to the given significant digits."""
    shown = Decimal(text)
    if exact == 0:
        return shown == 0
    half_unit = Decimal(10) ** (exact.adjusted() - digits + 1) / 2
    return abs(shown - exact) <= half_unit * (1 + Decimal(10) ** -20)


class OracleAdjudicate:
    name = "oracle-adjudicate"
    tail_percentile = 100.0

    def __init__(self, seed: int, workdir: Path, size: str) -> None:
        self.grid = 9 if size == "full" else 3
        self.expected_points = self.grid**3 + self.grid**2
        self.out = workdir / "oracle.json"
        self.argv = ["oracle-check", "--grid", str(self.grid), "--json", "--out", str(self.out)]

    def op(self, index: int) -> int:
        return cli.main(self.argv)

    def check(self, index: int, exit_code: int) -> list[str]:
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        report = _read_json(self.out)
        if report["agreement"] is not True:
            problems.append("closed forms disagree with the oracle")
        if sorted(r["mode"] for r in report["reports"]) != ["oam", "ordinary"]:
            problems.append("both modes must be checked")
        points = sum(r["points_checked"] for r in report["reports"])
        if points != self.expected_points:
            problems.append(f"{points} points checked, expected {self.expected_points}")
        return problems

    def finish(self) -> tuple[list[str], dict]:
        return [], {}


class CalibrationStudy:
    name = "calibration-study"
    tail_percentile = 90.0
    exposure = 6.5e7
    depth = 1e-4
    truth = (Fraction(1), Fraction(2), Fraction(1, 2))
    # Per-seed probability, assumed for a correct program, that some K-hat
    # falls outside 3 sigma-hat.  Three independent normal estimates would
    # miss with 0.0081; the library's simulate-then-fit missed on 19 of 1500
    # seeds (0.013), and the margin above that covers sampling error.
    miss_probability = 0.03

    def __init__(self, seed: int, workdir: Path, size: str) -> None:
        # Op i simulates with seed_base + i, so every op draws fresh counts.
        self.seed_base = random.Random(f"{self.name}:{seed}").getrandbits(30)
        points = _cube(5 if size == "full" else 3)
        self.settings = workdir / "settings.csv"
        self.counts = workdir / "counts.csv"
        self.fit = workdir / "fit.json"
        with self.settings.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["p", "P_L", "P_N", "exposure", "depth"])
            for p, pl, pn in points:
                writer.writerow([p, pl, pn, repr(self.exposure), repr(self.depth)])

        model = CaptureModel(CaptureMode.OAM, self.truth)
        self.expected_capture = []
        expected_transmitted = 0.0
        for p, pl, pn in points:
            pol = PolarizationTriple(p, pl, pn)
            sigma = sum(float(oracle(ch, pol, model).value) for ch in OAM_CHANNELS)
            transmission = math.exp(-self.depth * sigma)
            self.expected_capture.append(self.exposure * (1.0 - transmission))
            expected_transmitted += self.exposure * transmission
        self.expected_transmitted = expected_transmitted
        self.chi2_limit = _chi2_upper(len(points), _Z_1E6)
        k_arg = ",".join(str(k) for k in self.truth)
        self.simulate_argv = [
            "simulate", "--settings", str(self.settings), "--mode", "oam", "--k", k_arg,
            "--out", str(self.counts), "--seed",
        ]  # fmt: skip
        self.fit_argv = [
            "fit", "--settings", str(self.settings), "--counts", str(self.counts),
            "--mode", "oam", "--out", str(self.fit),
        ]  # fmt: skip
        self.fits = 0
        self.covered = 0

    def op(self, index: int) -> tuple[int, int]:
        simulate = cli.main(self.simulate_argv + [str(self.seed_base + index)])
        return simulate, cli.main(self.fit_argv)

    def check(self, index: int, exit_codes: tuple[int, int]) -> list[str]:
        problems = [f"exit code {code}" for code in exit_codes if code != 0]
        problems += self._check_counts()
        problems += self._check_fit()
        return problems

    def _check_counts(self) -> list[str]:
        try:
            with self.counts.open(encoding="utf-8") as handle:
                rows = list(csv.reader(line for line in handle if not line.startswith("#")))
        finally:
            self.counts.unlink(missing_ok=True)
        if rows[0][:3] != ["setting_id", "capture", "transmitted"]:
            return [f"counts header {rows[0]}"]
        rows = rows[1:]
        if [int(row[0]) for row in rows] != list(range(len(self.expected_capture))):
            return ["counts rows do not cover every setting once, in order"]
        problems = []
        chi2 = sum(
            (int(row[1]) - mean) ** 2 / mean for row, mean in zip(rows, self.expected_capture)
        )
        if chi2 > self.chi2_limit:
            problems.append(f"captures off the oracle model: chi2 {chi2:.1f} > {self.chi2_limit:.1f}")
        transmitted = sum(int(row[2]) for row in rows)
        pull = (transmitted - self.expected_transmitted) / math.sqrt(self.expected_transmitted)
        if abs(pull) > _Z_1E6:
            problems.append(f"transmitted counts off the oracle model by {pull:.1f} sigma")
        return problems

    def _check_fit(self) -> list[str]:
        result = _read_json(self.fit)
        labels = [ch.label for ch in OAM_CHANNELS]
        if result["channels"] != labels:
            return [f"fit channels {result['channels']}"]
        estimates = [float(result["K_hat"][label]) for label in labels]
        covariance = [[float(v) for v in row] for row in result["covariance"]]
        if not all(math.isfinite(k) and k >= 0 for k in estimates):
            return [f"K_hat not finite and nonnegative: {estimates}"]
        if len(covariance) != 3 or not all(
            len(row) == 3 and all(math.isfinite(v) for v in row) for row in covariance
        ):
            return ["covariance is not a finite 3x3 matrix"]
        self.fits += 1
        if all(
            abs(k - float(truth)) < 3 * math.sqrt(max(covariance[c][c], 0.0))
            for c, (k, truth) in enumerate(zip(estimates, self.truth))
        ):
            self.covered += 1
        return []

    def finish(self) -> tuple[list[str], dict]:
        misses = self.fits - self.covered
        allowed = binomial_limit(self.fits, self.miss_probability, _COVERAGE_FALSE_ALARM)
        problems = []
        if misses > allowed:
            problems.append(
                f"{misses} of {self.fits} seeds miss the truth by 3 sigma; at most {allowed} allowed"
            )
        coverage = self.covered / self.fits if self.fits else 0.0
        return problems, {
            "recovery_coverage": coverage,
            "coverage_seeds": self.fits,
            "coverage_misses_allowed": allowed,
        }


class DesignSweep:
    name = "design-sweep"
    tail_percentile = 100.0
    sample_size = 24

    def __init__(self, seed: int, workdir: Path, size: str) -> None:
        self.grid = 13 if size == "full" else 3
        self.out = workdir / "sweep.json"
        self.argv = ["sweep", "--grid", str(self.grid), "--mode", "oam", "--json", "--out", str(self.out)]
        points = _cube(self.grid)
        self.expected_points = len(points)
        sample = random.Random(f"{self.name}:{seed}").sample(points, min(self.sample_size, len(points)))
        unit = CaptureModel.uniform(CaptureMode.OAM)
        self.expected = {}
        for p, pl, pn in sample:
            pol = PolarizationTriple(p, pl, pn)
            values = [oracle(ch, pol, unit).value for ch in OAM_CHANNELS]
            total = values[0] + values[1] + values[2]
            self.expected[(str(p), str(pl), str(pn))] = {
                ch.label: _exact_decimal(value / total) for ch, value in zip(OAM_CHANNELS, values)
            }

    def op(self, index: int) -> int:
        return cli.main(self.argv)

    def check(self, index: int, exit_code: int) -> list[str]:
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        report = _read_json(self.out)
        if report["mode"] != "oam" or report["grid"] != self.grid:
            problems.append(f"sweep of {report['mode']} grid {report['grid']}")
        points = report["points"]
        by_key = {(pt["p"], pt["P_L"], pt["P_N"]): pt for pt in points}
        if len(points) != self.expected_points or len(by_key) != self.expected_points:
            problems.append(f"{len(points)} points ({len(by_key)} distinct), expected {self.expected_points}")
        conditions = [float(pt["condition_number"]) for pt in points]
        if any(a > b for a, b in zip(conditions, conditions[1:])):
            problems.append("points are not sorted by condition number")
        for pt in points:
            shares = [float(v) for v in pt["fractions"].values()]
            if abs(sum(shares) - 1.0) > 1e-12 or not all(0.0 <= s <= 1.0 for s in shares):
                problems.append(f"fractions at {pt['p']},{pt['P_L']},{pt['P_N']} sum to {sum(shares)!r}")
                break
        for key, exact in self.expected.items():
            shown = by_key.get(key, {}).get("fractions", {})
            for label, value in exact.items():
                if label not in shown or not _is_rounding_of(shown[label], value):
                    problems.append(f"fraction {label} at {key} is {shown.get(label)}, oracle {value:.16}")
        return problems

    def finish(self) -> tuple[list[str], dict]:
        return [], {}


WORKLOADS = {cls.name: cls for cls in (OracleAdjudicate, CalibrationStudy, DesignSweep)}
