#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a source checkout:

    python3 bench/selftest.py

1. A tiny-size run of every workload, untraced and traced, must pass its
   output checks and emit exactly the metrics BENCHMARK.json names, each
   with its declared unit.
2. With a deliberately wrong closed form patched in (the j''=1 OAM channel
   scaled by 11/10), every workload must count failed ops, so its error rate
   rises above 0.

Exits 0 when every check holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run

SEED = 7


def _tiny(workload: str, trace: bool, import_s: dict[str, float]) -> dict:
    return run.run_workload(
        workload, SEED, 1, trace, size="tiny", setup_probes=0, import_s=import_s
    )


def check_metrics(spec: dict, import_s: dict[str, float]) -> list[str]:
    failures = []
    for workload in run.WORKLOAD_NAMES:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            report = _tiny(workload, trace, import_s)
            label = f"{workload} trace={int(trace)}"
            if not report["correct"]:
                failures.append(f"{label}: outputs judged wrong: {report['problems']}")
            emitted = run.result_line(report)["metrics"]
            expected = {metric["name"]: metric["unit"] for metric in declared}
            if set(emitted) != set(expected):
                failures.append(
                    f"{label}: missing {sorted(set(expected) - set(emitted))}, "
                    f"undeclared {sorted(set(emitted) - set(expected))}"
                )
            for name, unit in expected.items():
                if name in emitted and emitted[name]["unit"] != unit:
                    failures.append(f"{label}: {name} in {emitted[name]['unit']}, declared {unit}")
    return failures


def check_fault_detected(import_s: dict[str, float]) -> list[str]:
    from he3cap import cross_sections

    original = cross_sections.oam_closed_form
    wrong_channel = cross_sections.OAM_CHANNELS[1]

    def wrong_closed_form(channel, pol, model):
        section = original(channel, pol, model)
        if channel != wrong_channel:
            return section
        return cross_sections.ChannelCrossSection(channel, section.value * Fraction(11, 10))

    failures = []
    cross_sections.oam_closed_form = wrong_closed_form
    try:
        for workload in run.WORKLOAD_NAMES:
            report = _tiny(workload, False, import_s)
            if not report["end_to_end"]["error_rate"] > 0 or report["correct"]:
                failures.append(f"{workload}: a wrong closed form went unnoticed")
    finally:
        cross_sections.oam_closed_form = original
    return failures


def main() -> int:
    run.pin_single_thread()
    import_s = run.load_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    gated = [metric["name"] for metric in spec["end_to_end"]]
    if sorted(gated) != sorted(run.GATED_END_TO_END):
        failures.append(f"BENCHMARK.json bounds {gated}, the run emits {run.GATED_END_TO_END}")
    failures += check_metrics(spec, import_s) + check_fault_detected(import_s)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
