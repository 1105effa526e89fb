import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import he3cap.cli as cli
from he3cap.cross_sections import (
    OAM_CHANNELS,
    CaptureMode,
    ReconciliationReport,
    Discrepancy,
)
from he3cap.exactnum import QuadRational
from he3cap.polarization import PolarizationTriple

SETTINGS_CSV = """p,P_L,P_N,exposure,depth
0,0,0,100000,0.01
1,1,1,100000,0.01
-1/2,1/2,-1/2,100000,0.01
1,-1,1,100000,0.01
"""


def _as_bytes(data: str | bytes) -> bytes:
    return data if isinstance(data, bytes) else data.encode()


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

    def test_grid_too_small_is_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--grid", "1")
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("command", ["sweep", "oracle-check"])
    def test_grid_too_large_is_usage_error(self, capsys, command):
        # Refused before any point is built, so this returns at once.
        code, _, err = run(capsys, command, "--grid", "1000000000", "--mode", "oam")
        assert code == 2
        assert f"at most {cli.MAX_GRID}" in err
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
    @settings(max_examples=150, deadline=2000)
    def test_counts_file(self, data):
        _main_on_files(
            {"settings": SETTINGS_CSV.encode(), "counts": data},
            ["fit", "--settings", "{settings}", "--counts", "{counts}", "--mode", "oam"],
        )


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

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "he3cap", "cg", "1", "+1", "1/2", "-1/2", "3/2", "+1/2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "+sqrt(1/3) 0.577350269189626\n"
