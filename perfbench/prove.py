"""Repeat the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/prove.py --seeds 1-10 [--workloads inside-mc,cli-short]
                               [--trace-seed 1] [--out perfbench/trajectory/BENCH_1.json]

For every workload and seed it runs ``perfbench/run.py`` once with the
``run_seconds`` of BENCHMARK.json, then reports for each end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the inter-quartile distance as a share of the median. A spread is
flagged when it exceeds a third of the metric's bound.
``--trace-seed`` adds one traced run per workload for the per-layer figures.
``--against`` compares every median with an earlier summary of the same
seeds (written by ``--out``) and flags a metric that got worse by more than
its bound; with ``--out`` both sets and their drift are written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the summary as JSON to this path")
    parser.add_argument("--against", default=None, help="an earlier --out summary to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    flagged = 0
    for name in names:
        runs = [run_once(spec["command"], name, seed, spec["run_seconds"], 0) for seed in seeds]
        entry: dict = {
            "correct": all(r["correct"] for r, _ in runs),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "machine": runs[-1][1]["machine"],
            "end_to_end": {},
        }
        print(f"== {name}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r, _ in runs])
            stats["unit"] = runs[0][0]["metrics"][metric]["unit"]
            stats["bound"] = bound
            steady = stats["spread"] < bound / 3
            flagged += not steady
            entry["end_to_end"][metric] = stats
            print(
                f"  {metric:14s} median {stats['median']:12.6g} {stats['unit']:6s} "
                f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} spread {stats['spread']:7.2%} "
                f"(bound {bound:.0%}){'' if steady else '  <-- above a third of the bound'}"
            )
        entry["call_tail"] = [d["call_tail"] for _, d in runs]
        if args.trace_seed is not None:
            traced, details = run_once(spec["command"], name, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer_correct"] = traced["correct"]
            print(f"  traced: overhead_ratio {entry['per_layer']['trace.overhead_ratio']:.3f}, spans {details.get('spans_file')}")
        summary["workloads"][name] = entry

    print(f"{flagged} metric(s) above a third of their bound")
    if args.against:
        earlier = json.loads(Path(args.against).read_text(encoding="utf-8"))
        drift, worse = compare(earlier, summary, bounds, better)
        summary = {"sets": [earlier, summary], "drift": drift}
        print(f"{worse} median(s) worse than the earlier set's by more than their bound")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


def compare(earlier: dict, later: dict, bounds: dict, better: dict) -> tuple[dict, int]:
    """Relative change of every median from ``earlier`` to ``later``, positive when worse."""
    drift: dict = {}
    worse = 0
    for name, entry in later["workloads"].items():
        drift[name] = {}
        for metric, stats in entry["end_to_end"].items():
            before = earlier["workloads"][name]["end_to_end"][metric]["median"]
            change = (stats["median"] - before) / before
            if better[metric] == "higher":
                change = -change
            drift[name][metric] = change
            flag = change > bounds[metric]
            worse += flag
            print(f"  {name:12s} {metric:14s} {change:+7.2%} (bound {bounds[metric]:.0%}){'  <-- worse' if flag else ''}")
    return drift, worse


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
