import argparse
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import he3cap
import he3cap.cli as cli
import he3cap.cross_sections as cross_sections
import he3cap.experiment as experiment
from he3cap.cross_sections import (
    OAM_CHANNELS,
    CaptureMode,
    CaptureModel,
    ReconciliationReport,
    Discrepancy,
    channel_cross_sections,
    channel_fractions,
    channels_for,
    grid_values,
    sections_total,
)
from he3cap.exactnum import QuadRational
from he3cap.experiment import MeasurementSetting, design_matrix
from he3cap.polarization import PolarizationTriple

SETTINGS_CSV = """p,P_L,P_N,exposure,depth
0,0,0,100000,0.01
1,1,1,100000,0.01
-1/2,1/2,-1/2,100000,0.01
1,-1,1,100000,0.01
"""

# The settings example of the README.
README_SETTINGS_CSV = """p,P_L,P_N,exposure,depth
0,0,0,1000000,0.001
1,1,1,1000000,0.001
1,-1,1,1000000,0.001
-1/2,1/2,-1/2,1000000,0.001
"""


# The bytes `oracle-check --grid 9 --json` writes.  How the adjudication
# streams its grid may change; what it reports may not.
ORACLE_CHECK_GRID9_JSON = """\
{
  "metadata": {
    "command": "he3cap oracle-check --grid 9 --json",
    "version": "0.1.0"
  },
  "agreement": true,
  "reports": [
    {
      "mode": "ordinary",
      "resolution": 9,
      "points_checked": 81,
      "agreement": true,
      "discrepancies": []
    },
    {
      "mode": "oam",
      "resolution": 9,
      "points_checked": 729,
      "agreement": true,
      "discrepancies": [],
      "j2_extrema": {
        "maximum": {
          "value_exact": "1",
          "value_decimal": "1",
          "points": [
            {
              "p": "-1",
              "P_L": "-1",
              "P_N": "-1"
            },
            {
              "p": "1",
              "P_L": "1",
              "P_N": "1"
            }
          ]
        },
        "minimum": {
          "value_exact": "1/6",
          "value_decimal": "0.166666666666667",
          "points": [
            {
              "p": "-1",
              "P_L": "1",
              "P_N": "-1"
            },
            {
              "p": "1",
              "P_L": "-1",
              "P_N": "1"
            }
          ]
        },
        "aligned_corner_value": "1",
        "note": "the j=2 channel attains its maximum K*1 at the fully aligned corners and its minimum K*1/6 where p*P_L = P_L*P_N = -1; it never vanishes"
      }
    }
  ]
}
"""

# The bytes `oracle-check --grid 3 --mode oam` writes with the 1- closed form
# times 11/10: every point but the two where 1- vanishes is a mismatch, and
# each oracle value is the true one.
WRONG_J1_GRID3_LISTING = (
    "mode  points  channels  mismatches  verdict\n"
    "----  ------  --------  ----------  --------\n"
    "oam   27      3         25          DISAGREE\n"
    "note: the j=2 channel attains its maximum K*1 at the fully aligned corners "
    "and its minimum K*1/6 where p*P_L = P_L*P_N = -1; it never vanishes\n"
    "mismatch: 1- at (p=-1, P_L=-1, P_N=0): closed=33/80 oracle=3/8\n"
    "mismatch: 1- at (p=-1, P_L=-1, P_N=1): closed=33/40 oracle=3/4\n"
    "mismatch: 1- at (p=-1, P_L=0, P_N=-1): closed=11/40 + 11/60*sqrt(2) oracle=1/4 + 1/6*sqrt(2)\n"
    "mismatch: 1- at (p=-1, P_L=0, P_N=0): closed=11/20 oracle=1/2\n"
    "mismatch: 1- at (p=-1, P_L=0, P_N=1): closed=33/40 - 11/60*sqrt(2) oracle=3/4 - 1/6*sqrt(2)\n"
    "mismatch: 1- at (p=-1, P_L=1, P_N=-1): closed=11/20 + 11/30*sqrt(2) oracle=1/2 + 1/3*sqrt(2)\n"
    "mismatch: 1- at (p=-1, P_L=1, P_N=0): closed=11/16 oracle=5/8\n"
    "mismatch: 1- at (p=-1, P_L=1, P_N=1): closed=33/40 - 11/30*sqrt(2) oracle=3/4 - 1/3*sqrt(2)\n"
    "mismatch: 1- at (p=0, P_L=-1, P_N=-1): closed=33/80 - 11/60*sqrt(2) oracle=3/8 - 1/6*sqrt(2)\n"
    "mismatch: 1- at (p=0, P_L=-1, P_N=0): closed=11/20 oracle=1/2\n"
    "mismatch: 1- at (p=0, P_L=-1, P_N=1): closed=11/16 + 11/60*sqrt(2) oracle=5/8 + 1/6*sqrt(2)\n"
    "mismatch: 1- at (p=0, P_L=0, P_N=-1): closed=11/20 oracle=1/2\n"
    "mismatch: 1- at (p=0, P_L=0, P_N=0): closed=11/20 oracle=1/2\n"
    "mismatch: 1- at (p=0, P_L=0, P_N=1): closed=11/20 oracle=1/2\n"
    "mismatch: 1- at (p=0, P_L=1, P_N=-1): closed=11/16 + 11/60*sqrt(2) oracle=5/8 + 1/6*sqrt(2)\n"
    "mismatch: 1- at (p=0, P_L=1, P_N=0): closed=11/20 oracle=1/2\n"
    "mismatch: 1- at (p=0, P_L=1, P_N=1): closed=33/80 - 11/60*sqrt(2) oracle=3/8 - 1/6*sqrt(2)\n"
    "mismatch: 1- at (p=1, P_L=-1, P_N=-1): closed=33/40 - 11/30*sqrt(2) oracle=3/4 - 1/3*sqrt(2)\n"
    "mismatch: 1- at (p=1, P_L=-1, P_N=0): closed=11/16 oracle=5/8\n"
    "mismatch: 1- at (p=1, P_L=-1, P_N=1): closed=11/20 + 11/30*sqrt(2) oracle=1/2 + 1/3*sqrt(2)\n"
    "mismatch: 1- at (p=1, P_L=0, P_N=-1): closed=33/40 - 11/60*sqrt(2) oracle=3/4 - 1/6*sqrt(2)\n"
    "mismatch: 1- at (p=1, P_L=0, P_N=0): closed=11/20 oracle=1/2\n"
    "mismatch: 1- at (p=1, P_L=0, P_N=1): closed=11/40 + 11/60*sqrt(2) oracle=1/4 + 1/6*sqrt(2)\n"
    "mismatch: 1- at (p=1, P_L=1, P_N=-1): closed=33/40 oracle=3/4\n"
    "mismatch: 1- at (p=1, P_L=1, P_N=0): closed=33/80 oracle=3/8\n"
)

# What `fit --settings settings.csv --counts c.csv --mode oam` writes for
# counts with no captures at any setting.
ZERO_CAPTURES_FIT_JSON = """\
{
  "metadata": {
    "command": "he3cap fit --settings settings.csv --counts c.csv --mode oam",
    "version": "0.1.0"
  },
  "K_hat": {
    "0-": 0.0,
    "1-": 0.0,
    "2-": 0.0
  },
  "covariance": [
    [
      0.0,
      0.0,
      0.0
    ],
    [
      0.0,
      0.0,
      0.0
    ],
    [
      0.0,
      0.0,
      0.0
    ]
  ],
  "residual_norm": 0.0,
  "channels": [
    "0-",
    "1-",
    "2-"
  ]
}
"""


def _as_bytes(data: str | bytes) -> bytes:
    return data if isinstance(data, bytes) else data.encode()


def _reference_decimal(value: QuadRational) -> str:
    """a + b*sqrt(2) through Decimal at 60 digits, rounded half-even to 15."""
    with localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(value.a.numerator) / value.a.denominator
        b = Decimal(value.b.numerator) / value.b.denominator
        exact = a + b * Decimal(2).sqrt()
        if not exact:
            return "0"
        ctx.prec = 15
        return format(exact.normalize(), "f")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCg:
    def test_table_one_amplitude(self, capsys):
        code, out, err = run(capsys, "cg", "1", "+1", "1/2", "-1/2", "3/2", "+1/2")
        assert code == 0
        assert out == "+sqrt(1/3) 0.577350269189626\n"

    def test_negative_amplitude(self, capsys):
        code, out, _ = run(capsys, "cg", "1", "-1", "1/2", "+1/2", "1/2", "-1/2")
        assert code == 0
        assert out.startswith("-sqrt(2/3) -0.816496580927726")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "cg", "1", "+1", "1/2", "+1/2", "3/2", "+3/2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "+1"
        assert payload["decimal"] == "1"
        assert payload["metadata"]["version"]

    def test_invalid_quantum_number_is_domain_error(self, capsys):
        code, _, err = run(capsys, "cg", "1", "+1", "1/2", "-1/4", "3/2", "+1/2")
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_malformed_rational_is_usage_error(self, capsys):
        code, _, err = run(capsys, "cg", "1", "+1", "1/2", "abc", "3/2", "+1/2")
        assert code == 2
        assert "malformed rational" in err
        assert len(err.strip().splitlines()) == 1

    def test_huge_momentum_is_usage_error(self, capsys):
        # Refused before any coefficient is computed, so this returns at once.
        code, out, err = run(capsys, "cg", "10000000", "0", "10000000", "0", "0", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert f"at most {cli.MAX_MOMENTUM}" in err
        assert len(err.strip().splitlines()) == 1


class TestXsec:
    def test_zero_loci_at_aligned_corner(self, capsys):
        code, out, _ = run(
            capsys, "xsec", "--mode", "oam", "--p", "1", "--pl", "1", "--pn", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        values = {entry["channel"]: entry["exact"] for entry in payload["results"]}
        assert values == {"0-": "0", "1-": "0", "2-": "1"}
        assert payload["total"]["exact"] == "1"

    def test_interference_exact_rendering(self, capsys):
        code, out, _ = run(
            capsys, "xsec", "--mode", "oam", "--p", "1", "--pl", "0", "--pn", "1", "--json"
        )
        payload = json.loads(out)
        values = {entry["channel"]: entry["exact"] for entry in payload["results"]}
        assert values["1-"] == "1/4 + 1/6*sqrt(2)"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "xsec", "--mode", "ordinary", "--p", "1", "--pn", "1", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "channel,exact,decimal"
        assert "0+,0,0" in lines
        assert "1+,1,1" in lines

    def test_out_of_range_polarization(self, capsys):
        code, _, err = run(capsys, "xsec", "--mode", "oam", "--p", "3/2")
        assert code == 1
        assert "p must lie in [-1, 1]" in err

    def test_huge_exponent_is_usage_error(self, capsys):
        code, _, err = run(capsys, "xsec", "--mode", "oam", "--p", "1e-99999999")
        assert code == 2
        assert "malformed rational" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "xsec", "--mode", "oam", "--bogus", "1")
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    def test_wrong_strength_count(self, capsys):
        code, _, err = run(capsys, "xsec", "--mode", "oam", "--k", "1,2")
        assert code == 1
        assert "3 strengths" in err

    def test_negative_rational_option_values(self, capsys):
        code, out, _ = run(
            capsys, "xsec", "--mode", "oam", "--p", "-1/2", "--pl", "-0.5", "--pn", "1"
        )
        assert code == 0
        assert "total" in out


class TestOracleCheck:
    def test_agreement_exit_code(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--grid", "3")
        assert code == 0
        assert "agree" in out

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--grid", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agreement"] is True
        modes = {report["mode"] for report in payload["reports"]}
        assert modes == {"ordinary", "oam"}
        oam_report = next(r for r in payload["reports"] if r["mode"] == "oam")
        assert oam_report["j2_extrema"]["minimum"]["value_exact"] == "1/6"

    def test_verdict_stable_across_runs(self, capsys):
        _, first, _ = run(capsys, "oracle-check", "--grid", "3", "--json")
        _, second, _ = run(capsys, "oracle-check", "--grid", "3", "--json")
        assert first == second

    def test_disagreement_exits_3(self, capsys, monkeypatch):
        pol = PolarizationTriple.of(1, 1, 1)
        fake = ReconciliationReport(
            mode=CaptureMode.OAM,
            resolution=2,
            points_checked=8,
            discrepancies=(
                Discrepancy(OAM_CHANNELS[2], pol, QuadRational.one(), QuadRational.zero()),
            ),
            j2_extrema=None,
        )
        monkeypatch.setattr(cli, "compare_with_oracle", lambda mode, grid: fake)
        code, out, _ = run(capsys, "oracle-check", "--grid", "2", "--mode", "oam")
        assert code == 3
        assert "mismatch: 2-" in out

    def test_grid9_json_is_pinned(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--grid", "9", "--json")
        assert (code, err) == (0, "")
        assert out == ORACLE_CHECK_GRID9_JSON

    def test_mismatch_listing_of_a_wrong_closed_form_is_pinned(self, capsys, monkeypatch):
        original = cross_sections.oam_closed_form

        def wrong(channel, pol, model):
            section = original(channel, pol, model)
            if channel != OAM_CHANNELS[1]:
                return section
            return cross_sections.ChannelCrossSection(channel, section.value * Fraction(11, 10))

        monkeypatch.setattr(cross_sections, "oam_closed_form", wrong)
        code, out, err = run(capsys, "oracle-check", "--grid", "3", "--mode", "oam")
        assert (code, err) == (3, "")
        assert out == WRONG_J1_GRID3_LISTING

    def test_grid_too_small_is_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--grid", "1")
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("command", ["sweep", "oracle-check"])
    def test_grid_too_large_is_usage_error(self, capsys, command):
        # Refused before any point is built, so this returns at once.
        for grid in (cli.MAX_GRID + 1, 1000000000):
            code, _, err = run(capsys, command, "--grid", str(grid), "--mode", "oam")
            assert code == 2
            assert f"at most {cli.MAX_GRID} ({cli.MAX_GRID**3} points)" in err
            assert len(err.strip().splitlines()) == 1


class TestSweep:
    def test_csv_sorted_by_condition(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "2", "--mode", "oam", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "p,P_L,P_N,frac_j0,frac_j1,frac_j2,condition"
        conditions = [float(line.split(",")[-1]) for line in lines[2:]]
        assert conditions == sorted(conditions)

    def test_json_contains_fractions(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "2", "--mode", "ordinary", "--json")
        payload = json.loads(out)
        assert len(payload["points"]) == 8
        assert set(payload["points"][0]["fractions"]) == {"0+", "1+"}

    def test_zero_total_names_the_point(self, capsys):
        code, out, err = run(capsys, "sweep", "--grid", "3", "--mode", "oam", "--k", "1,0,0")
        assert code == 1
        assert out == ""
        assert err == (
            "error: total cross-section is zero at (p=-1, P_L=-1, P_N=-1); "
            "channel fractions are undefined\n"
        )

    @pytest.mark.parametrize("mode", list(CaptureMode), ids=lambda mode: mode.value)
    def test_every_share_is_the_exact_share_correctly_rounded(self, capsys, mode):
        code, out, _ = run(capsys, "sweep", "--grid", "9", "--mode", mode.value, "--json")
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) == 9**3
        model = CaptureModel.uniform(mode)
        for point in points:
            pol = PolarizationTriple.of(point["p"], point["P_L"], point["P_N"])
            sections = channel_cross_sections(pol, model)
            total = sections_total(sections)
            assert point["fractions"] == {
                section.channel.label: _reference_decimal(section.value / total)
                for section in sections
            }

    def test_all_strengths_zero_names_the_first_point(self, capsys):
        # Every total vanishes, so the first point in grid order is named.
        code, out, err = run(capsys, "sweep", "--grid", "3", "--mode", "oam", "--k", "0")
        assert (code, out) == (1, "")
        assert err == (
            "error: total cross-section is zero at (p=-1, P_L=-1, P_N=-1); "
            "channel fractions are undefined\n"
        )

    def test_json_builds_no_object_per_point(self, monkeypatch, tmp_path):
        # Only the references and the points whose entries are re-decided
        # exactly near zero become PolarizationTriples.
        references = len(experiment._reference_settings(CaptureMode.OAM))
        counts = {"triples": 0, "redecides": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for owner, name, counter in [
            (PolarizationTriple, "__post_init__", "triples"),
            (experiment, "closed_form", "redecides"),
        ]:
            monkeypatch.setattr(owner, name, counted(counter, getattr(owner, name)))
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--grid", "13", "--mode", "oam", "--json", "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(json.loads(out.read_text())["points"]) == 13**3
        assert counts["redecides"] > 0
        assert counts["triples"] <= references + counts["redecides"]


def _sweep_reference(
    grid: int, model: CaptureModel
) -> list[tuple[PolarizationTriple, tuple[str, ...], float]]:
    """The sweep computed point by point: (point, share decimals, condition number), sorted.

    The design rows come from design_matrix, with one SVD per point on the
    reference rows (unpolarized, plus the aligned corner in OAM mode) and
    the point's row; the shares from channel_fractions and decimal_str.
    """
    mode = model.mode
    references = [PolarizationTriple.of(0, 0, 0)]
    if mode is CaptureMode.OAM:
        references.append(PolarizationTriple.of(1, 1, 1))
    pols = [PolarizationTriple(*point) for point in product(grid_values(grid), repeat=3)]

    def rows_of(points):
        return design_matrix([MeasurementSetting(pol, 1.0, 1.0) for pol in points], mode)

    reference_rows = rows_of(references)
    conditions = []
    for row in rows_of(pols):
        singular_values = np.linalg.svd(np.vstack([reference_rows, row]), compute_uv=False)
        largest, smallest = singular_values[0], singular_values[-1]
        conditions.append(float(largest / smallest) if smallest > 0 else math.inf)
    decimals = [
        tuple(share.decimal_str() for _, share in channel_fractions(pol, model)) for pol in pols
    ]
    order = sorted(range(len(pols)), key=conditions.__getitem__)
    return [(pols[i], decimals[i], conditions[i]) for i in order]


def _sweep_json_dump(argv: list[str], grid: int, model: CaptureModel) -> str:
    """What json.dump(..., indent=2) writes for the sweep payload, and its newline."""
    labels = [channel.label for channel in channels_for(model.mode)]
    payload = {
        "metadata": {"command": "he3cap " + shlex.join(argv), "version": he3cap.__version__},
        "mode": model.mode.value,
        "grid": grid,
        "points": [
            {
                "p": str(pol.p),
                "P_L": str(pol.pl),
                "P_N": str(pol.pn),
                "fractions": dict(zip(labels, decimals)),
                "condition_number": condition,
            }
            for pol, decimals, condition in _sweep_reference(grid, model)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _sweep_emit(argv: list[str], grid: int, model: CaptureModel, csv: bool) -> str:
    """What _emit writes for the sweep's rows as a table, or as CSV."""
    headers = ["p", "P_L", "P_N"] + [f"frac_j{ch.j_final}" for ch in channels_for(model.mode)]
    rows = [
        [str(pol.p), str(pol.pl), str(pol.pn), *decimals, f"{condition:.6g}"]
        for pol, decimals, condition in _sweep_reference(grid, model)
    ]
    sink = io.StringIO()
    args = argparse.Namespace(command_line=argv, json=False, csv=csv)
    cli._emit(args, sink, headers + ["condition"], rows, {})
    return sink.getvalue()


_SWEEP_GRIDS = pytest.mark.parametrize("grid", [2, 3, 9, 13])
_SWEEP_MODELS = pytest.mark.parametrize(
    ("mode", "k"),
    [("oam", None), ("oam", "7/3,2,1/2"), ("ordinary", None), ("ordinary", "1,3")],
    ids=["oam", "oam-k", "ordinary", "ordinary-k"],
)


def _sweep_argv(grid: int, mode: str, k: str | None) -> tuple[list[str], CaptureModel]:
    argv = ["sweep", "--grid", str(grid), "--mode", mode]
    model = CaptureModel.uniform(CaptureMode(mode))
    if k is not None:
        argv += ["--k", k]
        model = CaptureModel(CaptureMode(mode), tuple(Fraction(v) for v in k.split(",")))
    return argv, model


class TestSweepJson:
    """sweep output matches a reference computed point by point, byte for byte."""

    @_SWEEP_GRIDS
    @_SWEEP_MODELS
    def test_bytes_are_those_of_json_dump(self, capsys, grid, mode, k):
        argv, model = _sweep_argv(grid, mode, k)
        argv.append("--json")
        assert run(capsys, *argv) == (0, _sweep_json_dump(argv, grid, model), "")

    @_SWEEP_GRIDS
    @_SWEEP_MODELS
    def test_csv_and_table_bytes_are_those_of_emit(self, capsys, grid, mode, k):
        argv, model = _sweep_argv(grid, mode, k)
        assert run(capsys, *argv) == (0, _sweep_emit(argv, grid, model, csv=False), "")
        argv.append("--csv")
        assert run(capsys, *argv) == (0, _sweep_emit(argv, grid, model, csv=True), "")

    @pytest.mark.parametrize(
        "value",
        [
            math.inf,
            -math.inf,
            math.nan,
            0.0,
            -0.0,
            5e-324,
            2.5233953323427453e17,
            17.823243500383466,
        ],
    )
    def test_floats_are_written_as_json_dumps_writes_them(self, value):
        assert cli._json_float(value) == json.dumps(value)


class TestSimulateAndFit:
    @pytest.fixture
    def settings_file(self, tmp_path):
        path = tmp_path / "settings.csv"
        path.write_text(SETTINGS_CSV)
        return path

    def test_simulate_writes_counts_csv(self, capsys, settings_file, tmp_path):
        out_path = tmp_path / "counts.csv"
        code, _, _ = run(
            capsys,
            "simulate",
            "--settings", str(settings_file),
            "--mode", "oam",
            "--seed", "11",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "seed=11" in lines[0]
        assert lines[1] == "setting_id,capture,transmitted"
        assert len(lines) == 6

    def test_simulate_deterministic_output(self, capsys, settings_file):
        _, first, _ = run(
            capsys, "simulate", "--settings", str(settings_file), "--mode", "oam", "--seed", "7"
        )
        _, second, _ = run(
            capsys, "simulate", "--settings", str(settings_file), "--mode", "oam", "--seed", "7"
        )
        assert first == second

    # The counts of the README's example, `--mode oam --k 1,2,1/2 --seed 7`,
    # as they were first written: any change to a setting's random stream,
    # or to the order of its draws, changes them.
    @pytest.mark.parametrize(
        ("flags", "counts"),
        [
            (
                [],
                "setting_id,capture,transmitted\r\n"
                "0,1325,996690\r\n1,499,998642\r\n2,2375,997734\r\n3,1524,997172\r\n",
            ),
            (
                ["--channel-resolved"],
                "setting_id,capture,transmitted,capture_j0,capture_j1,capture_j2\r\n"
                "0,1325,996690,87,1040,198\r\n1,499,998642,0,0,499\r\n"
                "2,2375,997734,314,1982,79\r\n3,1524,997172,140,1222,162\r\n",
            ),
        ],
        ids=["summed", "channel-resolved"],
    )
    def test_simulated_counts_are_pinned(self, capsys, tmp_path, flags, counts):
        assert README_SETTINGS_CSV in README.read_text(encoding="utf-8")
        settings_path = tmp_path / "settings.csv"
        settings_path.write_text(README_SETTINGS_CSV)
        code, out, err = run(
            capsys,
            "simulate",
            "--settings", str(settings_path),
            "--mode", "oam",
            "--k", "1,2,1/2",
            "--seed", "7",
            *flags,
        )
        assert (code, err) == (0, "")
        comment, table = out.split("\n", 1)
        assert comment.startswith("# he3cap simulate") and comment.endswith("| seed=7")
        assert table == counts

    # Spreadsheet programs start a CSV file with a UTF-8 byte-order mark.
    def test_settings_file_with_a_byte_order_mark(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        Path("s.csv").write_text(README_SETTINGS_CSV, encoding="utf-8-sig")
        assert Path("s.csv").read_bytes().startswith(b"\xef\xbb\xbfp,P_L")
        code, out, err = run(
            capsys, "simulate", "--settings", "s.csv", "--mode", "oam", "--k", "1,2,1/2", "--seed", "7"
        )
        assert (code, out, err) == (
            0,
            "# he3cap simulate --settings s.csv --mode oam --k 1,2,1/2 --seed 7 "
            "| he3cap 0.1.0 | seed=7\n"
            "setting_id,capture,transmitted\r\n"
            "0,1325,996690\r\n1,499,998642\r\n2,2375,997734\r\n3,1524,997172\r\n",
            "",
        )

    def test_counts_file_with_a_byte_order_mark(self, capsys, monkeypatch, settings_file, tmp_path):
        monkeypatch.chdir(tmp_path)
        Path("c.csv").write_text(
            "setting_id,capture,transmitted\n" + "".join(f"{i},0,100000\n" for i in range(4)),
            encoding="utf-8-sig",
        )
        code, out, err = run(
            capsys, "fit", "--settings", "settings.csv", "--counts", "c.csv", "--mode", "oam"
        )
        assert (code, out, err) == (0, ZERO_CAPTURES_FIT_JSON, "")

    def test_a_setting_draws_from_its_own_stream(self, capsys, tmp_path):
        records = []
        for changed in ("1,-1,1", "1/2,0,-1"):
            settings_path = tmp_path / "settings.csv"
            settings_path.write_text(README_SETTINGS_CSV.replace("1,-1,1,", f"{changed},"))
            code, out, _ = run(
                capsys,
                "simulate",
                "--settings", str(settings_path),
                "--mode", "oam",
                "--k", "1,2,1/2",
                "--seed", "7",
                "--channel-resolved",
            )
            assert code == 0
            records.append(out.splitlines()[2:])
        before, after = records
        assert before[2] != after[2]
        assert before[:2] + before[3:] == after[:2] + after[3:]

    def test_settings_file_without_rows_is_domain_error(self, capsys, tmp_path):
        settings_path = tmp_path / "settings.csv"
        settings_path.write_text("# no settings yet\np,P_L,P_N,exposure,depth\n")
        counts_path = tmp_path / "counts.csv"
        counts_path.write_text("setting_id,capture,transmitted\n0,1,1\n")
        # fit refuses the settings file too, before it reads the counts.
        for argv in (
            ["simulate", "--settings", str(settings_path), "--mode", "oam", "--seed", "1"],
            ["fit", "--settings", str(settings_path), "--counts", str(counts_path),
             "--mode", "oam"],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == (
                f"error: {settings_path}, line 2: at least one measurement setting is required\n"
            )

    def test_counts_file_without_rows_is_domain_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.csv").write_text(README_SETTINGS_CSV)
        (tmp_path / "c.csv").write_text("setting_id,capture,transmitted\n")
        code, out, err = run(
            capsys, "fit", "--settings", "s.csv", "--counts", "c.csv", "--mode", "oam"
        )
        assert (code, out) == (1, "")
        assert err == "error: c.csv, line 1: at least one count record is required\n"

    @pytest.mark.parametrize(
        ("settings_text", "counts_text", "message"),
        [
            (
                "a,b\n0,0\n",
                None,
                "settings.csv, line 1: settings file must have header "
                "p,P_L,P_N,exposure,depth, got ['a', 'b']",
            ),
            (
                "# settings\n\np,P_L,P_N,exposure\n0,0,0,1\n",
                "setting_id,capture,transmitted\n0,1,1\n",
                "settings.csv, line 3: settings file must have header "
                "p,P_L,P_N,exposure,depth, got ['p', 'P_L', 'P_N', 'exposure']",
            ),
            (
                SETTINGS_CSV,
                "# counts\nx,y\n0,1\n",
                "counts.csv, line 2: counts file must start with header "
                "setting_id,capture,transmitted, got ('x', 'y')",
            ),
            (
                "",
                None,
                "settings.csv: settings file must have header "
                "p,P_L,P_N,exposure,depth, got None",
            ),
            (
                SETTINGS_CSV,
                "# only a comment\n",
                "counts.csv, line 1: counts file must start with header "
                "setting_id,capture,transmitted, got ()",
            ),
        ],
        ids=["settings-simulate", "settings-fit", "counts", "empty-settings", "no-counts-header"],
    )
    def test_header_errors_name_the_file_and_line(
        self, capsys, tmp_path, settings_text, counts_text, message
    ):
        settings_path = tmp_path / "settings.csv"
        settings_path.write_text(settings_text)
        if counts_text is None:
            argv = ["simulate", "--settings", str(settings_path), "--mode", "oam", "--seed", "1"]
        else:
            counts_path = tmp_path / "counts.csv"
            counts_path.write_text(counts_text)
            argv = ["fit", "--settings", str(settings_path), "--counts", str(counts_path),
                    "--mode", "oam"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {tmp_path}/{message}\n"

    def test_a_comment_inside_a_quoted_cell_belongs_to_the_cell(self, capsys, tmp_path):
        # The comment line is the second line of the p cell, so the cell
        # is not a rational, and the error names the line the record ends on.
        settings_path = tmp_path / "settings.csv"
        settings_path.write_text('p,P_L,P_N,exposure,depth\n"1/2\n# x\n",0,0,1000,0.001\n')
        code, out, err = run(
            capsys, "simulate", "--settings", str(settings_path), "--mode", "oam", "--seed", "1"
        )
        assert (code, out) == (1, "")
        assert err == f"error: {settings_path}, line 4: column p: malformed value '1/2\\n# x\\n'\n"

    def test_fit_roundtrip(self, capsys, settings_file, tmp_path):
        counts_path = tmp_path / "counts.csv"
        run(
            capsys,
            "simulate",
            "--settings", str(settings_file),
            "--mode", "oam",
            "--k", "1,1,1",
            "--seed", "5",
            "--out", str(counts_path),
        )
        code, out, _ = run(
            capsys,
            "fit",
            "--settings", str(settings_file),
            "--counts", str(counts_path),
            "--mode", "oam",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["K_hat"]) == {"0-", "1-", "2-"}
        assert payload["residual_norm"] >= 0
        assert len(payload["covariance"]) == 3

    def test_fit_channel_resolved(self, capsys, settings_file, tmp_path):
        counts_path = tmp_path / "counts.csv"
        run(
            capsys,
            "simulate",
            "--settings", str(settings_file),
            "--mode", "oam",
            "--seed", "5",
            "--channel-resolved",
            "--out", str(counts_path),
        )
        assert "capture_j0" in counts_path.read_text().splitlines()[1]
        code, out, _ = run(
            capsys,
            "fit",
            "--settings", str(settings_file),
            "--counts", str(counts_path),
            "--mode", "oam",
            "--channel-resolved",
        )
        assert code == 0
        assert set(json.loads(out)["K_hat"]) == {"0-", "1-", "2-"}

    @pytest.mark.parametrize(
        "settings_text, counts_text, where",
        [
            (SETTINGS_CSV + "abc,0,0,100000,0.01\n", None, "settings.csv, line 6"),
            (SETTINGS_CSV + "# short row\n0,0,0,100000\n", None, "settings.csv, line 7"),
            (SETTINGS_CSV.replace("0,0,0,100000", "0,0,0,inf"), None, "settings.csv, line 2"),
            (SETTINGS_CSV, "setting_id,capture,transmitted\n0,1,1\n1,x,1\n", "counts.csv, line 3"),
            (SETTINGS_CSV.encode() + b"\xff,0,0,1,1\n", None, "settings.csv, line 6"),
            (SETTINGS_CSV + "1e-9999999,0,0,1,1\n", None, "settings.csv, line 6"),
            (SETTINGS_CSV, b"setting_id,capture,transmitted\n0,1,\xfe\n", "counts.csv, line 2"),
            (
                SETTINGS_CSV,
                "setting_id,capture,transmitted\n0,1,1\n1," + "9" * 400 + ",1\n",
                "counts.csv, line 3: column capture: count is too large for a float",
            ),
        ],
        ids=[
            "bad-rational",
            "short-row",
            "infinite-exposure",
            "bad-count",
            "not-utf8",
            "huge-exponent",
            "not-utf8-counts",
            "count-beyond-float",
        ],
    )
    def test_malformed_input_is_one_line_domain_error(
        self, capsys, tmp_path, settings_text, counts_text, where
    ):
        settings_path = tmp_path / "settings.csv"
        settings_path.write_bytes(_as_bytes(settings_text))
        if counts_text is None:
            argv = ["simulate", "--settings", str(settings_path), "--mode", "oam", "--seed", "1"]
        else:
            counts_path = tmp_path / "counts.csv"
            counts_path.write_bytes(_as_bytes(counts_text))
            argv = ["fit", "--settings", str(settings_path), "--counts", str(counts_path),
                    "--mode", "oam"]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert where in err

    @pytest.mark.parametrize("mode", ["oam", "ordinary"])
    def test_channel_columns_are_matched_by_name(self, capsys, settings_file, tmp_path, mode):
        counts_path = tmp_path / "counts.csv"
        run(
            capsys,
            "simulate",
            "--settings", str(settings_file),
            "--mode", mode,
            "--k", "1,2,1/2" if mode == "oam" else "1,3",
            "--seed", "7",
            "--channel-resolved",
            "--out", str(counts_path),
        )
        # The same file with the capture_j* columns in reversed order.
        comment, *table = counts_path.read_text().splitlines()
        rows = [line.split(",") for line in table]
        reversed_path = tmp_path / "reversed.csv"
        reversed_path.write_text(
            "\n".join([comment] + [",".join(row[:3] + row[:2:-1]) for row in rows]) + "\n"
        )
        assert reversed_path.read_text().splitlines()[1].endswith("capture_j0")

        fits = []
        for path in (counts_path, reversed_path):
            code, out, err = run(
                capsys,
                "fit",
                "--settings", str(settings_file),
                "--counts", str(path),
                "--mode", mode,
                "--channel-resolved",
            )
            assert (code, err) == (0, "")
            payload = json.loads(out)
            del payload["metadata"]
            fits.append(payload)
        assert fits[0] == fits[1]

    @pytest.mark.parametrize(
        ("names", "message"),
        [
            (
                "capture_j0,capture_j1,capture_j1",
                "channel column capture_j1 appears more than once",
            ),
            (
                "capture_j0,capture_jx,capture_j2",
                "unknown channel column capture_jx; "
                "expected capture_j0, capture_j1, capture_j2 in any order",
            ),
            (
                "capture_j0,capture_j2,capture_j3",
                "unknown channel column capture_j3; "
                "expected capture_j0, capture_j1, capture_j2 in any order",
            ),
        ],
        ids=["duplicated", "unknown", "gap"],
    )
    def test_bad_channel_column_name_is_located(
        self, capsys, settings_file, tmp_path, names, message
    ):
        counts_path = tmp_path / "counts.csv"
        rows = "".join(f"{i},3,100,1,1,1\n" for i in range(4))
        counts_path.write_text(f"# comment\nsetting_id,capture,transmitted,{names}\n{rows}")
        code, out, err = run(
            capsys,
            "fit",
            "--settings", str(settings_file),
            "--counts", str(counts_path),
            "--mode", "oam",
            "--channel-resolved",
        )
        assert (code, out) == (1, "")
        assert err == f"error: {counts_path}, line 2: {message}\n"

    @pytest.mark.parametrize(
        ("name", "message"),
        [
            ("setting_id", "error: c.csv, line 1: column setting_id appears more than once\n"),
            ("capture", "error: c.csv, line 1: column capture appears more than once\n"),
            ("transmitted", "error: c.csv, line 1: column transmitted appears more than once\n"),
        ],
    )
    def test_repeated_standard_column_is_refused(
        self, capsys, monkeypatch, settings_file, tmp_path, name, message
    ):
        # The repeated column is all zero; read from it, the captures would fit K = 0.
        monkeypatch.chdir(tmp_path)
        rows = "".join(f"{i},300,100,0\n" for i in range(4))
        Path("c.csv").write_text(f"setting_id,capture,transmitted,{name}\n{rows}")
        code, out, err = run(
            capsys, "fit", "--settings", str(settings_file), "--counts", "c.csv", "--mode", "oam"
        )
        assert (code, out, err) == (1, "", message)

    def test_infinite_exposure_times_depth_is_domain_error(self, capsys, tmp_path):
        settings_path = tmp_path / "settings.csv"
        settings_path.write_text(
            "p,P_L,P_N,exposure,depth\n"
            + "".join(f"{p},1,1,1e300,1e300\n" for p in ("0", "1", "-1", "1/2"))
        )
        counts_path = tmp_path / "counts.csv"
        counts_path.write_text(
            "setting_id,capture,transmitted\n" + "".join(f"{i},10,10\n" for i in range(4))
        )
        code, out, err = run(
            capsys,
            "fit",
            "--settings", str(settings_path),
            "--counts", str(counts_path),
            "--mode", "oam",
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {settings_path}, line 2: "
            "exposure * depth must be finite, got 1e+300 * 1e+300\n"
        )

    @pytest.mark.parametrize(
        ("flags", "counts"),
        [
            ([], "0,1325,996690\n1,499,998642\n2,2375,997734\n3,1524,997172\n"),
            (
                ["--channel-resolved"],
                "0,1325,996690,87,1040,198\n1,499,998642,0,0,499\n"
                "2,2375,997734,314,1982,79\n3,1524,997172,140,1222,162\n",
            ),
        ],
        ids=["summed", "channel-resolved"],
    )
    def test_covariance_beyond_the_float_range_is_domain_error(
        self, capsys, tmp_path, flags, counts
    ):
        # The README's settings and counts, at exposure * depth = 1e-200: K_hat
        # is near 1e203, and the normal matrix of the scaled design underflows.
        settings_path = tmp_path / "settings.csv"
        settings_path.write_text(README_SETTINGS_CSV.replace("1000000,0.001", "1e-100,1e-100"))
        header = "setting_id,capture,transmitted"
        if flags:
            header += ",capture_j0,capture_j1,capture_j2"
        counts_path = tmp_path / "counts.csv"
        counts_path.write_text(f"{header}\n{counts}")
        code, out, err = run(
            capsys,
            "fit",
            "--settings", str(settings_path),
            "--counts", str(counts_path),
            "--mode", "oam",
            *flags,
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: the fit's covariance is beyond the float range; "
            "exposure * depth is too small to fit these counts\n"
        )

    @pytest.mark.parametrize(
        "points",
        [["1,1,1", "1,1,1", "0,0,0", "1/2,1/2,1/2"], ["0,0,0", "1,1,1", "-1,-1,-1", "1,1,1"]],
        ids=["aligned-first", "unpolarized-first"],
    )
    def test_degenerate_combination_is_signed_the_same_in_any_order(
        self, capsys, tmp_path, points
    ):
        settings_path = tmp_path / "settings.csv"
        settings_path.write_text(
            "p,P_L,P_N,exposure,depth\n" + "".join(f"{point},1000000,0.001\n" for point in points)
        )
        counts_path = tmp_path / "counts.csv"
        counts_path.write_text(
            "setting_id,capture,transmitted\n0,1325,996690\n1,499,998642\n"
            "2,2375,997734\n3,1524,997172\n"
        )
        code, out, err = run(
            capsys,
            "fit",
            "--settings", str(settings_path),
            "--counts", str(counts_path),
            "--mode", "oam",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: design cannot identify the channel combination "
            "+1*K[0-] , -0.166667*K[1-]; add settings that separate these channels\n"
        )

    @pytest.mark.parametrize(
        ("point", "k", "message"),
        [
            ("0,0,0", "1,1e400,1", "strength K[1-] is above 1.79769e+308, the largest float"),
            # The total bracket at this point is 1 + sqrt(2)/3, so K * total overflows.
            ("1,-1,1", "1.5e308", "setting 0: the total cross-section is too large for a float"),
            # Unpolarized, the total bracket is 1, so only the second setting overflows.
            (
                "0,0,0,100,0.01\n1,-1,1",
                "1.5e308",
                "setting 1: the total cross-section is too large for a float",
            ),
        ],
        ids=["strength", "total", "second-total"],
    )
    def test_strength_too_large_for_a_float_is_domain_error(
        self, capsys, tmp_path, point, k, message
    ):
        settings_path = tmp_path / "settings.csv"
        settings_path.write_text(f"p,P_L,P_N,exposure,depth\n{point},100,0.01\n")
        code, out, err = run(
            capsys,
            "simulate",
            "--settings", str(settings_path),
            "--mode", "oam",
            "--k", k,
            "--seed", "1",
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    # fit_strengths checks the channel counts too, for library callers; the
    # CLI refuses the header first, naming the file and the line.
    @pytest.mark.parametrize(
        ("columns", "mode", "message"),
        [
            (
                0,
                "oam",
                "error: c.csv, line 1: a channel-resolved oam fit needs columns "
                "capture_j0, capture_j1, capture_j2; the header has none\n",
            ),
            (
                2,
                "oam",
                "error: c.csv, line 1: a channel-resolved oam fit needs columns "
                "capture_j0, capture_j1, capture_j2; the header has capture_j0, capture_j1\n",
            ),
            (
                4,
                "oam",
                "error: c.csv, line 1: a channel-resolved oam fit needs columns "
                "capture_j0, capture_j1, capture_j2; "
                "the header has capture_j0, capture_j1, capture_j2, capture_j3\n",
            ),
            (
                3,
                "ordinary",
                "error: c.csv, line 1: a channel-resolved ordinary fit needs columns "
                "capture_j0, capture_j1; the header has capture_j0, capture_j1, capture_j2\n",
            ),
        ],
        ids=["no-columns-oam", "two-columns-oam", "four-columns-oam", "three-columns-ordinary"],
    )
    def test_channel_columns_must_match_the_mode(
        self, capsys, monkeypatch, settings_file, tmp_path, columns, mode, message
    ):
        monkeypatch.chdir(tmp_path)
        names = "".join(f",capture_j{j}" for j in range(columns))
        rows = "".join(f"{i},{columns},100{',1' * columns}\n" for i in range(4))
        Path("c.csv").write_text(f"setting_id,capture,transmitted{names}\n{rows}")
        code, out, err = run(
            capsys,
            "fit",
            "--settings", str(settings_file),
            "--counts", "c.csv",
            "--mode", mode,
            "--channel-resolved",
        )
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("seed", ["-1", "-12345678901234567890"])
    def test_negative_seed_is_usage_error(self, capsys, settings_file, seed):
        code, out, err = run(
            capsys, "simulate", "--settings", str(settings_file), "--mode", "oam", "--seed", seed
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "seed must be nonnegative" in err
        assert len(err.strip().splitlines()) == 1

    def test_fit_with_fewer_settings_than_channels(self, capsys, settings_file, tmp_path):
        counts_path = tmp_path / "counts.csv"
        counts_path.write_text("setting_id,capture,transmitted\n0,100,900\n1,50,950\n")
        code, out, err = run(
            capsys,
            "fit",
            "--settings", str(settings_file),
            "--counts", str(counts_path),
            "--mode", "oam",
        )
        assert code == 1
        assert out == ""
        assert err == "error: need at least 3 settings to identify 3 channels\n"

    def test_fit_missing_file(self, capsys, settings_file, tmp_path):
        code, _, err = run(
            capsys,
            "fit",
            "--settings", str(settings_file),
            "--counts", str(tmp_path / "nope.csv"),
            "--mode", "oam",
        )
        assert code == 1
        assert err.startswith("error:")


GRID5_SETTINGS_CSV = "p,P_L,P_N,exposure,depth\n" + "".join(
    f"{p},{pl},{pn},65000000.0,0.0001\n"
    for p, pl, pn in product(("-1", "-1/2", "0", "1/2", "1"), repeat=3)
)


class TestInputsKeptAcrossCalls:
    """A process that calls cli.main again sees each input file as it is at that call.

    cli keeps the last settings file it parsed, by its bytes, experiment
    the last design matrix it built, and cross_sections the u-coefficients
    it read per mode.
    """

    @pytest.fixture(autouse=True)
    def _in_tmp_path(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)

    SIMULATE = ["simulate", "--settings", "s.csv", "--mode", "oam", "--k", "1,2,1/2", "--seed", "7"]
    FIT = ["fit", "--settings", "s.csv", "--counts", "c.csv", "--mode", "oam"]

    def _with_nothing_kept(self, capsys, monkeypatch, *argv):
        monkeypatch.setattr(cli, "_kept_settings", None)
        monkeypatch.setattr(experiment, "_kept_design", None)
        monkeypatch.setattr(cross_sections, "_kept_rows", {})
        return run(capsys, *argv)

    def test_a_rewritten_settings_file_is_read_anew(self, capsys, monkeypatch):
        simulate = [*self.SIMULATE, "--channel-resolved", "--out", "c.csv"]
        fit = [*self.FIT, "--channel-resolved"]
        Path("s.csv").write_text(README_SETTINGS_CSV)
        assert run(capsys, *simulate) == (0, "", "")
        before = Path("c.csv").read_text()
        # The same size, so only the bytes tell the files apart.
        Path("s.csv").write_text(README_SETTINGS_CSV.replace("1,-1,1,", "1,-1,0,"))
        assert run(capsys, *simulate) == (0, "", "")
        after = Path("c.csv").read_text()
        fitted = run(capsys, *fit)
        assert after != before
        assert self._with_nothing_kept(capsys, monkeypatch, *simulate) == (0, "", "")
        assert Path("c.csv").read_text() == after
        assert self._with_nothing_kept(capsys, monkeypatch, *fit) == fitted

    def test_a_malformed_file_is_refused_at_every_call(self, capsys):
        Path("s.csv").write_text(README_SETTINGS_CSV)
        Path("c.csv").write_text("setting_id,capture,transmitted\n0,1,1\n")
        good = run(capsys, *self.SIMULATE)
        assert good[0] == 0
        Path("s.csv").write_text(README_SETTINGS_CSV + "x,0,0,1,1\n")
        refused = (1, "", "error: s.csv, line 6: column p: malformed value 'x'\n")
        for _ in range(3):
            assert run(capsys, *self.SIMULATE) == refused
            assert run(capsys, *self.FIT) == refused
        Path("s.csv").write_text(README_SETTINGS_CSV)
        assert run(capsys, *self.SIMULATE) == good

    def test_alternating_calls_match_fresh_processes(self):
        Path("s.csv").write_text(GRID5_SETTINGS_CSV)
        runs = []
        for seed, flags in (("7", []), ("8", ["--channel-resolved"])):
            simulate = [*self.SIMULATE[:-1], seed, *flags, "--out", "c.csv"]
            fit = [*self.FIT, *flags, "--out", "f.json"]
            runs.append((simulate, fit))
        env = dict(os.environ, PYTHONPATH=str(Path(he3cap.__file__).parents[1]))
        fresh = []
        for simulate, fit in runs:
            for argv in (simulate, fit):
                subprocess.run([sys.executable, "-m", "he3cap", *argv], env=env, check=True)
            fresh.append((Path("c.csv").read_bytes(), Path("f.json").read_bytes()))
        # 20 calls in this process: simulate then fit, the two runs in turn.
        for index in range(10):
            (simulate, fit), (counts, result) = runs[index % 2], fresh[index % 2]
            assert cli.main(simulate) == 0
            assert Path("c.csv").read_bytes() == counts
            assert cli.main(fit) == 0
            assert Path("f.json").read_bytes() == result


def _input_files(header: bytes):
    """Arbitrary bytes, and CSV-like text behind a valid header so rows get parsed."""
    csv_like = st.text(alphabet="0123456789-+./eE_,#x \t\r\n\x00", max_size=200)
    return st.binary(max_size=200) | csv_like.map(lambda text: header + text.encode())


def _main_on_files(files: dict[str, bytes], argv: list[str]) -> int:
    """Run cli.main with each file written to a fresh directory; '{name}' in argv is its path."""
    with tempfile.TemporaryDirectory() as directory:
        for name, data in files.items():
            (Path(directory) / name).write_bytes(data)
        argv = [arg.format(**{name: str(Path(directory) / name) for name in files}) for arg in argv]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().strip().splitlines()) == 1
    return code


class TestArbitraryInputFiles:
    """No input file makes an exception escape cli.main or hang it."""

    @given(_input_files(b"p,P_L,P_N,exposure,depth\n"))
    @example(b"p,P_L,P_N,exposure,depth\n\xff,0,0,1,1\n")
    @example(b"p,P_L,P_N,exposure,depth\n1e-9999999,0,0,1,1\n")
    @settings(max_examples=150, deadline=2000)
    def test_settings_file(self, data):
        _main_on_files(
            {"settings": data},
            ["simulate", "--settings", "{settings}", "--mode", "oam", "--seed", "1"],
        )

    @given(_input_files(b"setting_id,capture,transmitted\n"))
    @example(b"setting_id,capture,transmitted\n0,\xff,1\n")
    @example(b"setting_id,capture,transmitted\n0,1e-9999999,1\n")
    @example(b"setting_id,capture,transmitted\n0," + b"9" * 400 + b",1\n")
    @example(
        b"setting_id,capture,transmitted,capture_j0,capture_j1,capture_j2,capture_j3\n"
        b"0,4,1,1,1,1,1\n1,4,1,1,1,1,1\n2,4,1,1,1,1,1\n3,4,1,1,1,1,1\n"
    )
    @settings(max_examples=150, deadline=2000)
    def test_counts_file(self, data):
        argv = ["fit", "--settings", "{settings}", "--counts", "{counts}", "--mode", "oam"]
        for flags in ([], ["--channel-resolved"]):
            _main_on_files({"settings": SETTINGS_CSV.encode(), "counts": data}, argv + flags)


class TestLevelsAndKinematics:
    def test_levels_table(self, capsys):
        code, out, _ = run(capsys, "levels")
        assert code == 0
        assert "20.578" in out
        assert "21.840" in out

    def test_levels_csv(self, capsys):
        code, out, _ = run(capsys, "levels", "--csv")
        lines = out.strip().splitlines()
        assert lines[1] == "energy_MeV,J,parity,T,note"
        assert len(lines) == 8  # metadata comment + header + six records

    def test_levels_json(self, capsys):
        code, out, _ = run(capsys, "levels", "--json")
        payload = json.loads(out)
        assert len(payload["levels"]) == 6
        entry = [lv for lv in payload["levels"] if lv["J"] is None]
        assert len(entry) == 1 and entry[0]["energy_MeV"] == 20.578

    def test_detunings(self, capsys):
        code, out, _ = run(capsys, "levels", "--detunings", "--json")
        payload = json.loads(out)
        assert payload["detunings_MeV"]["0+"] == 0.368
        assert payload["detunings_MeV"]["1-"] == -3.672

    def test_kinematics_pass(self, capsys):
        code, out, _ = run(capsys, "kinematics")
        assert code == 0
        assert "pass" in out

    def test_kinematics_fail_exit_code(self, capsys):
        code, out, _ = run(capsys, "kinematics", "--q", "800")
        assert code == 1
        assert "FAIL" in out


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)


class TestReadmeExamples:
    """The README's examples run as written and show what the package does."""

    def test_commands_print_the_output_shown(self, capsys):
        shown = []
        for block in _readme_blocks("sh"):
            # A command followed by '# ' lines shows its output.
            for command, output in re.findall(r"^he3cap (.*)\n((?:# .*\n)+)", block, re.MULTILINE):
                argv = shlex.split(command)
                assert run(capsys, *argv) == (0, re.sub(r"(?m)^# ", "", output), "")
                shown.append(argv[0])
        assert shown == ["cg", "xsec"]

    def test_library_block_runs(self):
        (block,) = _readme_blocks("python")
        exec(compile(block, str(README), "exec"), {})


class TestEntryPoints:
    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "cg.txt"
        code, out, _ = run(
            capsys, "cg", "1", "+1", "1/2", "-1/2", "3/2", "+1/2", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text() == "+sqrt(1/3) 0.577350269189626\n"

    def test_one_parser_serves_every_call_of_a_process(self, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        for argv in (
            ["sweep", "--grid", "1", "--mode", "oam"],
            ["sweep", "--grid", "3", "--mode", "oam", "--json"],
            ["sweep", "--grid", "3", "--mode", "oam", "--csv"],
            ["cg", "1", "+1", "1/2", "-1/2", "3/2", "+1/2"],
        ):
            # Bytes, undecoded as text, so that the CSV's \r\n line ends stay.
            fresh = subprocess.run([sys.executable, "-m", "he3cap", *argv], capture_output=True)
            expected = (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode())
            assert run(capsys, *argv) == expected
        assert len(built) == 1

    def test_package_root_exports_the_library_example_names(self):
        import he3cap

        assert sorted(he3cap.__all__) == [
            "CaptureMode",
            "CaptureModel",
            "PolarizationTriple",
            "cg",
            "channel_cross_sections",
            "compare_with_oracle",
        ]
        assert all(hasattr(he3cap, name) for name in he3cap.__all__)

    @pytest.mark.parametrize(
        ("module", "heavy"), [("he3cap", ("numpy", "scipy")), ("he3cap.cli", ("numpy", "scipy"))]
    )
    def test_import_does_not_load(self, module, heavy):
        # A fresh interpreter, so nothing imported by the test session counts.
        probe = f"import sys, {module}; print([name for name in {heavy!r} if name in sys.modules])"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout == "[]\n"

    def test_fit_runs_without_scipy(self, tmp_path):
        settings_path, counts_path = tmp_path / "settings.csv", tmp_path / "counts.csv"
        settings_path.write_text(README_SETTINGS_CSV)
        counts_path.write_text(
            "setting_id,capture,transmitted\n0,1325,996690\n1,499,998642\n2,2375,997734\n"
            "3,1524,997172\n"
        )
        argv = ["fit", "--settings", str(settings_path), "--counts", str(counts_path)]
        argv += ["--mode", "oam"]
        outputs = []
        for block in ("", 'sys.modules["scipy"] = None; '):
            # A fresh interpreter, so nothing imported by the test session
            # counts; the fit's JSON is followed by its exit code and the
            # scipy modules it loaded.
            probe = (
                f"import sys; {block}from he3cap import cli; code = cli.main({argv!r}); "
                "print(code, [name for name, module in sys.modules.items() "
                "if name.partition('.')[0] == 'scipy' and module is not None])"
            )
            result = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True, check=True
            )
            outputs.append(result.stdout)
        fit_json, status, _ = outputs[0].rsplit("\n", 2)
        assert status == "0 []"
        assert json.loads(fit_json)["channels"] == ["0-", "1-", "2-"]
        # With scipy's import blocked, the same fit succeeds byte for byte.
        assert outputs[1] == outputs[0]

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "he3cap", "cg", "1", "+1", "1/2", "-1/2", "3/2", "+1/2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "+sqrt(1/3) 0.577350269189626\n"
