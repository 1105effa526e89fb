#!/usr/bin/env python3
"""Benchmark of the he3cap command-line program.

Run from the root of a source checkout:

    python3 bench/run.py --workload calibration-study --seed 1 --seconds 30 --trace 0

One run is one fresh interpreter.  It imports he3cap from ``src/`` of the
checkout, builds the workload's inputs from the seed, runs one untimed
warm-up op, and then issues ops through ``he3cap.cli.main`` in a closed loop
(one client, single-threaded) for the given number of seconds.  Every op's
output is checked.  Set-up is also timed in two extra fresh interpreters, and
set-up time is the median of the three.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced ops and reports per-layer
metrics (see spans.py) and the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Run files and spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import import_module
from pathlib import Path

_SCRIPT_START = time.perf_counter()

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("oracle-adjudicate", "calibration-study", "design-sweep")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
REF_LOOP_ITERATIONS = 2_000_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "recovery_coverage": "ratio",
}
# The end-to-end metrics in the result line, the ones BENCHMARK.json bounds.
# ops_per_s and latency_p50_ms are printed but not bounded: on a host whose
# speed swings between two levels for seconds at a time, their run-to-run
# spread exceeds the largest bound allowed (see README.md).
GATED_END_TO_END = ("setup_s", "latency_tail_ms", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot run here; reported as a single 'error:' line."""


def process_age_s() -> float:
    """Seconds since this interpreter started, or since this script started."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _SCRIPT_START


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: a record of this host's speed, never a divisor."""
    started = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i & 7
    return time.perf_counter() - started


def pin_single_thread() -> None:
    os.environ.pop("HE3CAP_THREADS", None)
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"


def load_program() -> dict[str, float]:
    """Import numpy, scipy.optimize and he3cap from this checkout; time each import."""
    if not (SRC / "he3cap" / "__init__.py").is_file():
        raise BenchError(f"no he3cap sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    times = {}
    for key, module in (
        ("numpy_import_s", "numpy"),
        ("scipy_import_s", "scipy.optimize"),
        ("he3cap_import_s", "he3cap.cli"),
    ):
        started = time.perf_counter()
        import_module(module)
        times[key] = time.perf_counter() - started
    loaded = Path(sys.modules["he3cap"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise BenchError(f"he3cap was imported from {loaded}, not from {SRC}")
    return times


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def host_record(ref_loop_s: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "he3cap").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "machine": platform.machine(),
        "host.ref_loop_s": ref_loop_s,
    }


def percentile(samples: list[float], percent: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def _run_probe(name: str, seed: int) -> dict:
    """Set up the workload in a fresh interpreter and return its set-up times."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe",
    ]  # fmt: skip
    try:
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from None
    if completed.returncode != 0:
        raise BenchError(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
    try:
        probe = json.loads(completed.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError("set-up probe printed no result") from None
    if not probe["ok"]:
        raise BenchError(f"set-up probe's warm-up op failed: {probe['problems']}")
    return probe


class _Outcomes:
    """Counts attempted and failed ops; keeps the first few problems."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, index: int, outcome, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            try:
                problems = self.workload.check(index, outcome)
            except Exception as exc:  # malformed output is a failed op, not a crash
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {index}: " + "; ".join(problems))


def _timed_op(workload, index: int):
    started = time.perf_counter()
    try:
        outcome, error = workload.op(index), None
    except Exception as exc:  # a traceback escaping the CLI is a failed op
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - started, outcome, error


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    size: str = "full",
    setup_probes: int = SETUP_PROBES,
    import_s: dict[str, float],
    ref_loop_s: float = 0.0,
) -> dict:
    """Run one workload and return its report (metrics, counts and details)."""
    from spans import Tracer
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[name](seed, workdir, size)
        outcomes = _Outcomes(workload)
        _, outcome, error = _timed_op(workload, 0)
        outcomes.record(0, outcome, error)
        setup_samples = [process_age_s() - ref_loop_s]
        import_samples = [import_s]
        probe_problems = []
        tracer = Tracer() if trace else None
        latencies: dict[bool, list[float]] = {False: [], True: []}
        # The probes split the timed loop into equal segments, so that the
        # set-up samples fall in different stretches of the host's load.
        segments = setup_probes + 1
        index = 1
        for segment in range(segments):
            if segment:
                try:
                    probe = _run_probe(name, seed)
                    setup_samples.append(probe["setup_s"])
                    import_samples.append(probe["import_s"])
                except BenchError as exc:
                    probe_problems.append(str(exc))
            deadline = time.perf_counter() + seconds / segments
            last_segment = segment == segments - 1
            while True:
                traced = tracer is not None and index % 2 == 0
                if traced:
                    tracer.begin_op(index)
                try:
                    elapsed, outcome, error = _timed_op(workload, index)
                finally:
                    if traced:
                        tracer.end_op()
                latencies[traced].append(elapsed)
                outcomes.record(index, outcome, error)
                index += 1
                both_kinds = tracer is None or (latencies[True] and latencies[False])
                if time.perf_counter() >= deadline and (both_kinds or not last_segment):
                    break
        run_problems, details = workload.finish()
        run_problems += probe_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = latencies[False]
    tail = percentile(plain, workload.tail_percentile)
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(plain) / sum(plain),
        "latency_p50_ms": statistics.median(plain) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": outcomes.failed / outcomes.attempted,
    }
    if "recovery_coverage" in details:
        end_to_end["recovery_coverage"] = details.pop("recovery_coverage")
    details.update(
        {
            "ops_timed": len(plain),
            "tail_percentile": workload.tail_percentile,
            "ops_beyond_tail": sum(1 for x in plain if x > tail),
            "setup_samples_s": setup_samples,
            "latencies_s": plain,
        }
    )
    if trace:
        metrics = tracer.metrics()
        for key in import_samples[0]:
            metrics[f"setup.{key}"] = statistics.median(s[key] for s in import_samples)
        traced_mean = sum(latencies[True]) / len(latencies[True])
        metrics["trace.overhead_frac"] = traced_mean / (sum(plain) / len(plain)) - 1.0
        metrics["host.ref_loop_s"] = ref_loop_s
        details["ops_traced"] = tracer.ops
        details["spans_file"] = str(OUT_DIR / f"{name}-seed{seed}-spans.npz")
        details["spans"] = tracer.write(details["spans_file"])
    else:
        metrics = {key: end_to_end[key] for key in GATED_END_TO_END}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": outcomes.failed == 0 and not run_problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
        "end_to_end": end_to_end,
        "details": details,
        "problems": outcomes.problems + run_problems,
    }


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".calls"):
        return "calls/op"
    if metric.endswith(".self_s"):
        return "s/op"
    if metric.endswith("_ratio") or metric.endswith("_frac"):
        return "ratio"
    return "s"


def _print_report(report: dict, host: dict) -> None:
    details = report["details"]
    print(
        f"workload {report['workload']} seed {report['seed']} seconds {report['seconds']} "
        f"trace {report['trace']}: {details['ops_timed']} untraced timed ops, one client, "
        f"closed loop; {report['failed']} of {report['attempted']} ops failed"
    )
    print("host " + json.dumps(host, sort_keys=True))
    if report["trace"]:
        for metric, value in report["metrics"].items():
            print(f"{metric} {value!r} {_unit(metric)}")
        print(f"spans {details['spans']} over {details['ops_traced']} traced ops in {details['spans_file']}")
    else:
        for metric, value in report["end_to_end"].items():
            note = "" if metric in GATED_END_TO_END else "  (printed, not bounded)"
            print(f"{metric} {value!r} {_unit(metric)}{note}")
        print(
            f"latency tail percentile p{details['tail_percentile']:g} "
            f"({details['ops_beyond_tail']} of {details['ops_timed']} ops beyond it)"
        )
        if "coverage_seeds" in details:
            print(
                f"recovery_coverage over {details['coverage_seeds']} seeds; "
                f"at most {details['coverage_misses_allowed']} misses allowed"
            )
    for problem in report["problems"]:
        print(f"problem: {problem}")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark of the he3cap CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int, choices=range(1, 61), metavar="1..60")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    pin_single_thread()
    try:
        if args.setup_probe:
            return _setup_probe(args.workload, args.seed)
        ref_loop_s = reference_loop_s()
        import_s = load_program()
        host = host_record(ref_loop_s)
        report = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            ref_loop_s=ref_loop_s,
            import_s=import_s,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["host"] = host
    result_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    _print_report(report, host)
    print(json.dumps(result_line(report)))
    return 0


def result_line(report: dict) -> dict:
    """The run's result in the form printed as the last line of output."""
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric: {"value": value, "unit": _unit(metric)}
            for metric, value in report["metrics"].items()
        },
    }


def _setup_probe(name: str, seed: int) -> int:
    """Import, build inputs and run one warm-up op; print the set-up time as JSON."""
    import_s = load_program()
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"probe-{name}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[name](seed, workdir, "full")
        _, outcome, error = _timed_op(workload, 0)
        problems = [error] if error else workload.check(0, outcome)
        setup_s = process_age_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "import_s": import_s, "ok": not problems, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
