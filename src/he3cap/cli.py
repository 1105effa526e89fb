"""Command-line front end: every operation as a subcommand.

Results are printed as aligned tables by default, as CSV with --csv, or as
JSON with --json; numeric output always carries both the exact value and a
15-significant-digit decimal.  Exit codes: 0 success, 1 domain error,
2 usage error, 3 closed form vs oracle disagreement (oracle-check only).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import shlex
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Sequence, TextIO

from . import __version__
from .angular import cg
from .cross_sections import (
    CaptureMode,
    CaptureModel,
    channel_cross_sections,
    channels_for,
    compare_with_oracle,
    sections_total,
)
from .errors import (
    DegenerateDesignError,
    DomainError,
    InvalidQuantumNumberError,
    LevelNotFoundError,
    ModeMismatchError,
)
from .exactnum import parse_rational
from .levels import (
    PROTON_ENERGY_KEV,
    Q_VALUE_KEV,
    TRITON_ENERGY_KEV,
    ReactionKinematics,
    builtin_levels,
    channel_detuning,
    check_kinematics,
)
from .polarization import PolarizationTriple

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3

# Reported as one "error:" line with exit code 1; OSError covers input files
# that cannot be read and --out paths that cannot be written.
_DOMAIN_ERRORS = (
    DomainError,
    ModeMismatchError,
    InvalidQuantumNumberError,
    DegenerateDesignError,
    LevelNotFoundError,
    OSError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as single-line diagnostics.

    The negative-number matcher is widened so rational arguments like -1/2
    parse as values rather than being mistaken for option flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}") from None


def _rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(part) for part in text.split(","))


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


# A grid of N points per axis visits up to N^3 points; 100 caps that at 10^6.
MAX_GRID = 100


def _grid_size(text: str) -> int:
    value = _integer(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"grid resolution must be at least 2, got {value}")
    if value > MAX_GRID:
        raise argparse.ArgumentTypeError(
            f"grid resolution must be at most {MAX_GRID} (10^6 points), got {value}"
        )
    return value


# cg's cost grows faster than j: j = 10^5 takes seconds, j = 1000 milliseconds.
MAX_MOMENTUM = 1000


def _momentum(text: str) -> Fraction:
    value = _rational(text)
    if abs(value) > MAX_MOMENTUM:
        raise argparse.ArgumentTypeError(
            f"angular momenta must be at most {MAX_MOMENTUM} in magnitude, got {value}"
        )
    return value


def _seed(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


def _mode(text: str) -> CaptureMode:
    try:
        return CaptureMode(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mode must be 'ordinary' or 'oam', got {text!r}"
        ) from None


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--csv", action="store_true", help="emit CSV")
    group.add_argument("--json", action="store_true", help="emit JSON")


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _metadata(args: argparse.Namespace) -> dict:
    meta = {
        "command": "he3cap " + shlex.join(args.command_line),
        "version": __version__,
    }
    if hasattr(args, "seed"):
        meta["seed"] = args.seed
    return meta


def _sink(args: argparse.Namespace):
    out = getattr(args, "out", None)
    if out:
        return open(out, "w", encoding="utf-8", newline="")
    return nullcontext(sys.stdout)


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _emit(
    args: argparse.Namespace,
    sink: TextIO,
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    payload: dict,
) -> None:
    if getattr(args, "json", False):
        json.dump({"metadata": _metadata(args), **payload}, sink, indent=2)
        sink.write("\n")
    elif getattr(args, "csv", False):
        meta = _metadata(args)
        comment = f"# {meta['command']} | he3cap {meta['version']}"
        if meta.get("seed") is not None:
            comment += f" | seed={meta['seed']}"
        sink.write(comment + "\n")
        writer = csv.writer(sink)
        writer.writerow(headers)
        writer.writerows(rows)
    else:
        sink.write(_format_table(headers, rows) + "\n")


def _model_from_args(args: argparse.Namespace) -> CaptureModel:
    mode = args.mode
    if args.k is None:
        return CaptureModel.uniform(mode)
    strengths = args.k
    if len(strengths) == 1:
        strengths = strengths * len(channels_for(mode))
    return CaptureModel(mode, strengths)


# -- subcommands -----------------------------------------------------------------


def _cmd_cg(args: argparse.Namespace) -> int:
    coefficient = cg(args.j1, args.m1, args.j2, args.m2, args.j, args.m)
    exact = str(coefficient)
    decimal = coefficient.decimal_str()
    with _sink(args) as sink:
        if args.json or args.csv:
            _emit(
                args,
                sink,
                ("exact", "decimal"),
                [(exact, decimal)],
                {"exact": exact, "decimal": decimal},
            )
        else:
            sink.write(f"{exact} {decimal}\n")
    return EXIT_OK


def _cmd_xsec(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    pol = PolarizationTriple.of(args.p, args.pl, args.pn)
    sections = channel_cross_sections(pol, model)
    total = sections_total(sections)
    rows = [
        (section.channel.label, str(section.value), section.value.decimal_str())
        for section in sections
    ]
    rows.append(("total", str(total), total.decimal_str()))
    payload = {
        "inputs": {
            "mode": model.mode.value,
            "p": str(pol.p),
            "P_L": str(pol.pl),
            "P_N": str(pol.pn),
            "K": [str(k) for k in model.strengths],
        },
        "results": [
            {
                "channel": section.channel.label,
                "exact": str(section.value),
                "decimal": section.value.decimal_str(),
            }
            for section in sections
        ],
        "total": {"exact": str(total), "decimal": total.decimal_str()},
    }
    with _sink(args) as sink:
        _emit(args, sink, ("channel", "exact", "decimal"), rows, payload)
    return EXIT_OK


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    modes = [CaptureMode.ORDINARY, CaptureMode.OAM] if args.mode is None else [args.mode]
    reports = [compare_with_oracle(mode, args.grid) for mode in modes]
    agreement = all(report.agreement for report in reports)

    rows = []
    for report in reports:
        rows.append(
            (
                report.mode.value,
                str(report.points_checked),
                str(len(channels_for(report.mode))),
                str(len(report.discrepancies)),
                "agree" if report.agreement else "DISAGREE",
            )
        )
    payload = {
        "agreement": agreement,
        "reports": [report.to_json_dict() for report in reports],
    }
    with _sink(args) as sink:
        _emit(args, sink, ("mode", "points", "channels", "mismatches", "verdict"), rows, payload)
        if not (args.json or args.csv):
            for report in reports:
                if report.j2_extrema is not None:
                    sink.write(f"note: {report.j2_extrema.note}\n")
                for item in report.discrepancies:
                    sink.write(
                        f"mismatch: {item.channel.label} at {item.pol}: "
                        f"closed={item.closed_value} oracle={item.oracle_value}\n"
                    )
    return EXIT_OK if agreement else EXIT_DISAGREEMENT


def _cmd_sweep(args: argparse.Namespace) -> int:
    # experiment loads numpy, so only sweep, fit and simulate import it.
    from .experiment import discriminability_sweep

    model = _model_from_args(args)
    points = discriminability_sweep(args.grid, args.mode, model)
    channels = channels_for(args.mode)
    headers = ["p", "P_L", "P_N"] + [f"frac_j{ch.j_final}" for ch in channels] + ["condition"]
    # Rendering every fraction to decimal dominates a large sweep, so only
    # the form that _emit writes is built.
    rows, payload = [], {}
    if args.json:
        payload = {
            "mode": args.mode.value,
            "grid": args.grid,
            "points": [
                {
                    "p": str(point.pol.p),
                    "P_L": str(point.pol.pl),
                    "P_N": str(point.pol.pn),
                    "fractions": {
                        ch.label: fraction.decimal_str()
                        for ch, fraction in zip(channels, point.fractions)
                    },
                    "condition_number": point.condition_number,
                }
                for point in points
            ],
        }
    else:
        rows = [
            [str(point.pol.p), str(point.pol.pl), str(point.pol.pn)]
            + [fraction.decimal_str() for fraction in point.fractions]
            + [f"{point.condition_number:.6g}"]
            for point in points
        ]
    with _sink(args) as sink:
        _emit(args, sink, headers, rows, payload)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    from .experiment import fit_strengths, read_counts_csv, read_settings_csv

    with open(args.settings, encoding="utf-8") as handle:
        settings = read_settings_csv(handle)
    with open(args.counts, encoding="utf-8") as handle:
        records = read_counts_csv(handle, settings)
    result = fit_strengths(records, args.mode, channel_resolved=args.channel_resolved)
    payload = {"metadata": _metadata(args), **result.to_json_dict()}
    with _sink(args) as sink:
        json.dump(payload, sink, indent=2)
        sink.write("\n")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .experiment import read_settings_csv, simulate_counts, write_counts_csv

    with open(args.settings, encoding="utf-8") as handle:
        settings = read_settings_csv(handle)
    model = _model_from_args(args)
    records = simulate_counts(settings, model, args.seed)
    with _sink(args) as sink:
        if args.json:
            payload = {
                "metadata": _metadata(args),
                "records": [
                    {
                        "setting_id": index,
                        "capture": record.capture_counts,
                        "transmitted": record.transmitted_counts,
                        "channel_counts": list(record.channel_counts or ()),
                    }
                    for index, record in enumerate(records)
                ],
            }
            json.dump(payload, sink, indent=2)
            sink.write("\n")
        else:
            meta = _metadata(args)
            sink.write(f"# {meta['command']} | he3cap {meta['version']} | seed={args.seed}\n")
            write_counts_csv(records, sink, args.mode, channel_resolved=args.channel_resolved)
    return EXIT_OK


def _cmd_levels(args: argparse.Namespace) -> int:
    if args.detunings:
        channels = channels_for(CaptureMode.ORDINARY) + channels_for(CaptureMode.OAM)
        rows = [(ch.label, f"{channel_detuning(ch):+.3f}") for ch in channels]
        payload = {
            "detunings_MeV": {ch.label: channel_detuning(ch) for ch in channels}
        }
        headers = ("channel", "detuning_MeV")
    else:
        rows = []
        for record in builtin_levels():
            rows.append(
                (
                    f"{record.energy_mev:.3f}",
                    str(record.j) if record.j is not None else "",
                    record.parity.value if record.parity is not None else "",
                    str(record.isospin_t),
                    record.width_note,
                )
            )
        payload = {
            "levels": [
                {
                    "energy_MeV": record.energy_mev,
                    "J": str(record.j) if record.j is not None else None,
                    "parity": record.parity.value if record.parity is not None else None,
                    "isospin_T": record.isospin_t,
                    "width_note": record.width_note,
                }
                for record in builtin_levels()
            ]
        }
        headers = ("energy_MeV", "J", "parity", "T", "note")
    with _sink(args) as sink:
        _emit(args, sink, headers, rows, payload)
    return EXIT_OK


def _cmd_kinematics(args: argparse.Namespace) -> int:
    kinematics = ReactionKinematics(args.q, args.ep, args.et)
    report = check_kinematics(kinematics)
    rows = [
        (check.name, "pass" if check.passed else "FAIL", check.detail)
        for check in report.checks
    ]
    payload = report.to_json_dict()
    with _sink(args) as sink:
        _emit(args, sink, ("check", "status", "detail"), rows, payload)
    return EXIT_OK if report.passed else EXIT_DOMAIN_ERROR


# -- parser wiring -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="he3cap",
        description="Polarization-dependent neutron capture on polarized helium-3.",
    )
    parser.add_argument("--version", action="version", version=f"he3cap {__version__}")
    commands = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    sub = commands.add_parser("cg", help="exact Clebsch-Gordan coefficient <j1 m1 j2 m2|J M>")
    for name in ("j1", "m1", "j2", "m2", "j", "m"):
        sub.add_argument(name, type=_momentum, metavar=name.upper() if name in ("j", "m") else name)
    _add_format_flags(sub)
    _add_out_flag(sub)
    sub.set_defaults(func=_cmd_cg)

    sub = commands.add_parser("xsec", help="channel cross-sections at a polarization point")
    sub.add_argument("--mode", type=_mode, required=True)
    sub.add_argument("--p", type=_rational, default=Fraction(0), help="neutron spin polarization")
    sub.add_argument("--pl", type=_rational, default=Fraction(0), help="OAM polarization")
    sub.add_argument("--pn", type=_rational, default=Fraction(0), help="nuclear spin polarization")
    sub.add_argument(
        "--k",
        type=_rational_list,
        default=None,
        metavar="K0,K1,...",
        help="per-channel strength constants in ascending-j order (default all 1)",
    )
    _add_format_flags(sub)
    _add_out_flag(sub)
    sub.set_defaults(func=_cmd_xsec)

    sub = commands.add_parser(
        "oracle-check", help="compare closed forms against the substate-sum oracle"
    )
    sub.add_argument("--grid", type=_grid_size, default=5, help="points per polarization axis")
    sub.add_argument("--mode", type=_mode, default=None, help="default: both modes")
    _add_format_flags(sub)
    _add_out_flag(sub)
    sub.set_defaults(func=_cmd_oracle_check)

    sub = commands.add_parser("sweep", help="rank polarization settings for strength fitting")
    sub.add_argument("--grid", type=_grid_size, required=True)
    sub.add_argument("--mode", type=_mode, required=True)
    sub.add_argument("--k", type=_rational_list, default=None, metavar="K0,K1,...")
    _add_format_flags(sub)
    _add_out_flag(sub)
    sub.set_defaults(func=_cmd_sweep)

    sub = commands.add_parser("fit", help="recover strength constants from counts (JSON output)")
    sub.add_argument("--settings", required=True, metavar="CSV")
    sub.add_argument("--counts", required=True, metavar="CSV")
    sub.add_argument("--mode", type=_mode, required=True)
    sub.add_argument("--channel-resolved", action="store_true")
    _add_out_flag(sub)
    sub.set_defaults(func=_cmd_fit)

    sub = commands.add_parser("simulate", help="simulate a transmission/counting run")
    sub.add_argument("--settings", required=True, metavar="CSV")
    sub.add_argument("--mode", type=_mode, required=True)
    sub.add_argument("--k", type=_rational_list, default=None, metavar="K0,K1,...")
    sub.add_argument("--seed", type=_seed, required=True)
    sub.add_argument("--channel-resolved", action="store_true")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of counts CSV")
    _add_out_flag(sub)
    sub.set_defaults(func=_cmd_simulate)

    sub = commands.add_parser("levels", help="compound-nucleus reference levels")
    sub.add_argument(
        "--detunings", action="store_true", help="print capture-channel detunings instead"
    )
    _add_format_flags(sub)
    _add_out_flag(sub)
    sub.set_defaults(func=_cmd_levels)

    sub = commands.add_parser("kinematics", help="validate reaction kinematics")
    sub.add_argument("--q", type=float, default=Q_VALUE_KEV, help="Q-value in keV")
    sub.add_argument("--ep", type=float, default=PROTON_ENERGY_KEV, help="proton energy in keV")
    sub.add_argument("--et", type=float, default=TRITON_ENERGY_KEV, help="triton energy in keV")
    _add_format_flags(sub)
    _add_out_flag(sub)
    sub.set_defaults(func=_cmd_kinematics)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    command_line = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(command_line)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    args.command_line = command_line
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
