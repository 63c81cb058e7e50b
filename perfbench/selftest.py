"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics BENCHMARK.json declares and a traced run exactly the
per-layer ones, with their units, and that the span accounting closes. It
then injects deliberately wrong results into the harness (the package is
left alone) and checks that each is counted as a failed call, so the
correctness gates bite. Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any, Callable

import run
from tracer import LAYERS

SECONDS = 0.5

# One wrong result per workload, each aimed at a different gate.
WRONG_RESULTS: dict[str, Callable[[Any], Any]] = {
    # every experiment claims the attacker always succeeded: the 1/2 band
    "inside-mc": lambda stats: [dataclasses.replace(s, attacker_successes=s.trials, success_rate=1.0) for s in stats],
    # one detection on the honest channel, where exactly 0 is expected
    "check-mc": lambda stats: [dataclasses.replace(s, detections=1, detection_rate=1 / s.trials) for s in stats],
    # a reconstruction below fidelity 1
    "share-sweep": lambda ts: [dataclasses.replace(t, fidelity_to_secret=0.5) for t in ts],
    # a JSON report that violates the schema
    "cli-short": lambda r: (r[0], r[1].replace('"schema_version": 1', '"schema_version": 2'), *r[2:]),
}


def _nondeterministic() -> Callable[[Any], Any]:
    """Stats that change from one call to the next but pass every rate gate."""
    calls = [0]

    def corrupt(stats: list) -> list:
        calls[0] += 1
        return [dataclasses.replace(s, seed=s.seed + calls[0]) for s in stats]

    return corrupt


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run.import_package()
    failures: list[str] = []

    def expect(condition: bool, message: str) -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {message}")
        if not condition:
            failures.append(message)

    for spec_workload in spec["workloads"]:
        name = spec_workload["name"]
        workload = run.WORKLOADS[name]

        metrics, gate, warm, _ = run.measure(workload, 1, SECONDS, setup_probes=1, setup_budget_s=0)
        line = run.result_line(metrics, gate, warm)
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        expect(emitted == end_to_end, f"{name}: untraced run emits every end-to-end metric with its unit")
        expect(line["correct"] and line["failed"] == 0, f"{name}: untraced run is correct ({gate.problems[:2]})")
        expect(all(v["value"] > 0 for v in line["metrics"].values()), f"{name}: no end-to-end metric reads 0")

        metrics, gate, warm, details = run.measure_traced(workload, 1, SECONDS, import_probes=1)
        line = run.result_line(metrics, gate, warm)
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        expect(emitted == per_layer, f"{name}: traced run emits every per-layer metric with its unit")
        expect(line["correct"], f"{name}: traced run is correct ({gate.problems[:2]})")
        covered = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        total = covered + metrics["trace.unattributed_s"][0] + metrics["trace.tracer_s"][0]
        expect(abs(total - metrics["trace.call_s"][0]) < 1e-6, f"{name}: layer self times add up to the traced call time")
        expect(0 < metrics["trace.overhead_ratio"][0] <= 1.5, f"{name}: tracing overhead is reported")
        expect((run.ROOT / details["spans_file"]).is_file(), f"{name}: spans written to {details['spans_file']}")

        metrics, gate, warm, _ = run.measure(workload, 2, SECONDS, setup_probes=1, setup_budget_s=0, corrupt=WRONG_RESULTS[name])
        line = run.result_line(metrics, gate, warm)
        error_rate = line["failed"] / line["attempted"]
        expect(error_rate > 0 and not line["correct"], f"{name}: an injected wrong result gives error_rate {error_rate:.2f} > 0")

    workload = run.WORKLOADS["inside-mc"]
    metrics, gate, warm, _ = run.measure(workload, 3, SECONDS, setup_probes=1, setup_budget_s=0, corrupt=_nondeterministic())
    expect(gate.failed > 0, "inside-mc: stats that differ on a same-seed rerun are counted as failed calls")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
