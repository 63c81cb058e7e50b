"""tritshare benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload inside-mc --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports the package from its ``src``.
One process, one client, a closed loop: each call starts only after the
previous one returned. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` replays a fixed number of calls, each untraced and then
traced, and reports per-layer metrics (see README.md). Times are scaled
to the machine's nominal speed by a reference kernel (reference.py). The
last line of stdout is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``; the line before it holds the run's details and the
machine facts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import SIGMAS, WORKLOADS, Workload, within_band  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``: at least SETUP_PROBES,
#: then more, up to SETUP_PROBES_MAX, until SETUP_BUDGET_S seconds have gone
#: by; the median is reported.
SETUP_PROBES = 5
SETUP_PROBES_MAX = 15
SETUP_BUDGET_S = 10.0
#: Fresh interpreters timed per traced run for ``cli.import_s`` and ``cli.interpreter_s``.
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
#: The tail percentile is the highest one with at least this many calls beyond it.
TAIL_BEYOND = 10
#: Problems quoted in the details line, at most.
MAX_PROBLEMS = 20

CORE_FUNCTIONS = (
    "tensor",
    "apply_single",
    "measure_subsystem",
    "project_subsystem",
    "born_distribution",
    "sample_index",
    "reduced_density",
    "fidelity",
    "haar_random_state",
)
PROTOCOL_FUNCTIONS = ("run_sharing_session", "channel_check_round", "reconstruct", "verify_correlations")
ATTACK_FUNCTIONS = (
    "run_inside_attack_experiment",
    "run_outside_attack_experiment",
    "run_check_rounds",
    "run_inside_trial",
    "outside_intercept_resend",
    "inside_capture_and_fake",
    "start_session",
)
SESSION_AGENTS = range(2, 11)

Metrics = dict[str, tuple[float, str]]


class Gate:
    """Counts calls attempted and failed, and pools the Bernoulli tallies."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed_calls: set[int] = set()
        self.problems: list[str] = []
        self.pooled: dict[str, list[float]] = {}

    def record(self, index: int, inputs: Any, result: Any, error: BaseException | None) -> bool:
        """Gate one call; a call fails if it raised or its result fails a check."""
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            problems, tallies = self.workload.check(inputs, result)
            for key, hits, trials, p in tallies:
                pool = self.pooled.setdefault(key, [0, 0, p])
                pool[0] += hits
                pool[1] += trials
                if not within_band(hits, trials, p):
                    problems.append(f"{key}: {hits}/{trials} is outside {SIGMAS:g} sigma of {p:.4f}")
        for problem in problems:
            self.fail(index, problem)
        return not problems

    def fail(self, index: int, problem: str) -> None:
        self.failed_calls.add(index)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"call {index}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failed_calls)

    def pooled_problems(self) -> list[str]:
        """Run-level check of every tally pooled over all calls of the run."""
        return [
            f"pooled {key}: {int(hits)}/{int(trials)} is outside {SIGMAS:g} sigma of {p:.4f}"
            for key, (hits, trials, p) in sorted(self.pooled.items())
            if not within_band(int(hits), int(trials), p)
        ]

    def pooled_rates(self) -> dict[str, dict[str, float]]:
        return {
            key: {"rate": hits / trials, "expected": p, "trials": int(trials)}
            for key, (hits, trials, p) in sorted(self.pooled.items())
        }


class SpeedScale:
    """Scales measured times to the machine's nominal speed (see reference.py).

    The reference kernel runs once at construction and once after every
    measurement; a measurement is scaled by the kernel times on both sides.
    A measurement that timed the kernel in its own process passes those two
    times instead; they are taken out of its duration.
    """

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.nominal_ns = reference.NOMINAL_NS[kernel]
        self.kernel_ns = [reference.time_kernel(kernel)]

    def scale(self, duration_ns: float) -> float:
        """Scale a duration measured just now by the kernel times on its two sides."""
        self.kernel_ns.append(reference.time_kernel(self.kernel))
        return duration_ns * 2 * self.nominal_ns / sum(self.kernel_ns[-2:])

    def scale_child(self, duration_ns: int, before_ns: int, after_ns: int) -> tuple[int, float]:
        """(raw ns, scaled ns) of a child process that timed the kernel itself."""
        self.kernel_ns += [before_ns, after_ns]
        raw = duration_ns - before_ns - after_ns
        return raw, raw * 2 * self.nominal_ns / (before_ns + after_ns)

    @property
    def speed(self) -> float:
        """Median machine speed over the run, as a share of the nominal speed."""
        return statistics.median(self.nominal_ns / ns for ns in self.kernel_ns)


def _attempt(call: Callable[[Any], Any], inputs: Any) -> tuple[Any, BaseException | None]:
    try:
        return call(inputs), None
    except Exception as exc:  # a raising call is a failed call, not a benchmark crash
        return None, exc


def _probe(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _interpreter_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, timeout=PROBE_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def _probe_median(key: str, count: int, *args: str, budget_s: float = 0.0) -> tuple[float, list[float]]:
    """Median of fresh-interpreter probes (scaled s), and the raw seconds.

    Runs ``count`` probes, then more, up to SETUP_PROBES_MAX, while less
    than ``budget_s`` seconds have gone by.
    """
    deadline = time.perf_counter() + budget_s
    probes = [_probe(*args) for _ in range(count)]
    while len(probes) < SETUP_PROBES_MAX and time.perf_counter() < deadline:
        probes.append(_probe(*args))
    return statistics.median(p[key] for p in probes), [p[f"raw_{key}"] for p in probes]


def _interpreter_median(count: int) -> tuple[float, list[float]]:
    """Median wall time of ``python -c pass`` (scaled s), and the raw seconds."""
    scale = SpeedScale("interpreter")
    raw, scaled = [], []
    for _ in range(count):
        raw.append(_interpreter_seconds())
        scaled.append(scale.scale(raw[-1] * 1e9) / 1e9)
    return statistics.median(scaled), raw


def tail(durations_ns: list[int]) -> tuple[float, float]:
    """(value in ms, percentile) of the highest percentile with TAIL_BEYOND calls beyond it.

    With too few calls for such a percentile at or above the median, the
    slowest call is the tail.
    """
    ordered = sorted(durations_ns)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 2:
        return ordered[-1] / 1e6, 100.0
    return ordered[n - TAIL_BEYOND - 1] / 1e6, 100.0 * (n - TAIL_BEYOND) / n


def _warm_up(workload: Workload, call: Callable[[Any], Any], seed: int) -> tuple[Gate, Any]:
    """The untimed first call (index 0): fills caches, and is gated like any call."""
    gate = Gate(workload)
    inputs = workload.make_inputs(seed, 0)
    result, error = _attempt(call, inputs)
    gate.record(0, inputs, result, error)
    return gate, None if error else workload.fingerprint(result)


def _timed_call(workload: Workload, inputs: Any, scale: SpeedScale) -> tuple[Any, BaseException | None, int, float]:
    """Run one call: (result, error, raw ns, scaled ns).

    A call with parts is timed part by part, each part scaled by the
    reference kernel run on its two sides.
    """
    if workload.part is None:
        pieces = [(workload.call, inputs)]
    else:
        pieces = [(lambda args: workload.part(*args), args) for args in inputs]
    results: list[Any] = []
    raw_ns, scaled_ns = 0, 0.0
    for run_piece, piece_inputs in pieces:
        start = time.perf_counter_ns()
        result, error = _attempt(run_piece, piece_inputs)
        duration = time.perf_counter_ns() - start
        child_kernel_ns = None if error else workload.child_kernel_ns(result)
        if child_kernel_ns is None:
            raw, scaled = duration, scale.scale(duration)
        else:
            raw, scaled = scale.scale_child(duration, *child_kernel_ns)
        raw_ns += raw
        scaled_ns += scaled
        if error is not None:
            return None, error, raw_ns, scaled_ns
        results.append(result)
    return (results if workload.part else results[0]), None, raw_ns, scaled_ns


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    setup_probes: int = SETUP_PROBES,
    setup_budget_s: float = SETUP_BUDGET_S,
    corrupt: Callable[[Any], Any] | None = None,
) -> tuple[Metrics, Gate, Gate, dict]:
    """Untraced run: the end-to-end metrics.

    Call times are scaled to the machine's nominal speed by the workload's
    reference kernel; the raw figures are kept in the details. ``corrupt``
    rewrites every result before it is gated; the self-test uses it to show
    that a wrong result is counted as a failed call.
    """
    scale = SpeedScale(workload.reference)

    def call(inputs: Any) -> Any:
        result = workload.call(inputs)
        return result if corrupt is None else corrupt(result)

    warm, warm_fingerprint = _warm_up(workload, call, seed)
    fingerprints = {0: warm_fingerprint}

    gate = Gate(workload)
    raw: list[int] = []
    scaled: list[float] = []
    items = 0
    index = 0
    deadline = time.perf_counter() + seconds
    while index == 0 or time.perf_counter() < deadline:
        index += 1
        inputs = workload.make_inputs(seed, index)
        result, error, raw_ns, scaled_ns = _timed_call(workload, inputs, scale)
        if error is None and corrupt is not None:
            result = corrupt(result)
        raw.append(raw_ns)
        scaled.append(scaled_ns)
        gate.record(index, inputs, result, error)
        if error is None:
            items += workload.items_per_call
            fingerprints[index] = workload.fingerprint(result)

    # Same inputs, same stats: rerun the warm-up and the first timed calls untimed and compare exactly.
    for rerun in range(min(workload.reruns, index + 1)):
        if fingerprints.get(rerun) is None:
            continue
        result, error = _attempt(call, workload.make_inputs(seed, rerun))
        if error is not None or workload.fingerprint(result) != fingerprints[rerun]:
            (warm if rerun == 0 else gate).fail(rerun, "rerun with the same inputs gave different stats")

    # A workload with a separate in-process call times subprocesses; its peak is the largest child's.
    who = resource.RUSAGE_CHILDREN if workload.inprocess_call is not None else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0

    setup_s, setup_raw = _probe_median(
        "setup_s", setup_probes, "setup", workload.name, str(seed), budget_s=setup_budget_s
    )
    tail_ms, tail_pct = tail(scaled)
    metrics: Metrics = {
        "items_per_s": (items / (sum(scaled) / 1e9), "1/s"),
        "call_p50_ms": (statistics.median(scaled) / 1e6, "ms"),
        "call_tail_ms": (tail_ms, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "ok_ratio": (1.0 - gate.failed / gate.attempted, "ratio"),
    }
    details = {
        "calls": index,
        "items": items,
        "item": workload.item,
        "call_tail": {
            "percentile": round(tail_pct, 2),
            "samples": len(scaled),
            "beyond": round(len(scaled) * (1 - tail_pct / 100)),
        },
        "error_rate": gate.failed / gate.attempted,
        "peak_rss_of": "largest child process" if who == resource.RUSAGE_CHILDREN else "this process",
        "reference_kernel": workload.reference,
        "speed": scale.speed,
        "raw": {
            "timed_s": sum(raw) / 1e9,
            "items_per_s": items / (sum(raw) / 1e9),
            "call_p50_ms": statistics.median(raw) / 1e6,
            "call_tail_ms": tail(raw)[0],
            "setup_s": setup_raw,
        },
    }
    return metrics, gate, warm, details


def measure_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    import_probes: int = IMPORT_PROBES,
) -> tuple[Metrics, Gate, Gate, dict]:
    """Traced run: each call untraced, then traced; the per-layer metrics.

    Times are scaled to nominal speed like the untraced run's; per-layer
    times share one factor, the traced calls', so they still add up.
    """
    from tracer import LAYERS, Tracer

    call = workload.run_inprocess
    warm, _ = _warm_up(workload, call, seed)
    count = max(2, round(workload.traced_calls_per_s * seconds))
    inputs = [workload.make_inputs(seed, i) for i in range(1, count + 1)]
    gate = Gate(workload)

    # Untraced and traced runs of each call alternate, so that a change in
    # the machine's speed falls on both alike.
    scale = SpeedScale(workload.reference)
    tracer = Tracer()
    untraced_raw = traced_raw = 0
    untraced_ns = traced_ns = 0.0
    for i, args in enumerate(inputs, 1):
        start = time.perf_counter_ns()
        result, error = _attempt(call, args)
        duration = time.perf_counter_ns() - start
        untraced_raw += duration
        untraced_ns += scale.scale(duration)
        gate.record(i, args, result, error)

        tracer.install()
        root_ns = tracer.root_ns
        try:
            with tracer.root(i):
                result, error = call(args), None
        except Exception as exc:  # counted as a failed call below
            result, error = None, exc
        finally:
            tracer.uninstall()
        traced_raw += tracer.root_ns - root_ns
        traced_ns += scale.scale(tracer.root_ns - root_ns)
        gate.record(count + i, args, result, error)
    tracer.check_accounting()
    spans_path = OUT / f"spans-{workload.name}.npz"
    tracer.write(spans_path)

    factor = traced_ns / tracer.root_ns  # raw traced ns -> nominal-speed ns

    def seconds_of(ns: int) -> float:
        return ns * factor / 1e9

    items = count * workload.items_per_call
    metrics: Metrics = {}
    for name in CORE_FUNCTIONS:
        calls, self_ns, _ = tracer.by_name(f"core.{name}")
        metrics[f"core.{name}.calls"] = (calls, "count")
        metrics[f"core.{name}.self_s"] = (seconds_of(self_ns), "s")
    metrics["core.PureState.constructions"] = (tracer.by_name("core.PureState")[0], "count")
    metrics["core.bytes_computed"] = (tracer.core_bytes, "B")
    for name in PROTOCOL_FUNCTIONS:
        calls, self_ns, _ = tracer.by_name(f"protocol.{name}")
        metrics[f"protocol.{name}.calls"] = (calls, "count")
        metrics[f"protocol.{name}.self_s"] = (seconds_of(self_ns), "s")
    sessions = tracer.durations_by_tag("protocol.run_sharing_session")
    for n in SESSION_AGENTS:
        durations = sessions.get(n)
        metrics[f"protocol.session_ms.N{n}"] = (seconds_of(statistics.median(durations)) * 1e3 if durations else 0.0, "ms")
    for name in ATTACK_FUNCTIONS:
        calls, self_ns, _ = tracer.by_name(f"attacks.{name}")
        metrics[f"attacks.{name}.calls"] = (calls, "count")
        metrics[f"attacks.{name}.self_s"] = (seconds_of(self_ns), "s")
    layer_self_ns = 0
    for layer in LAYERS:
        calls, self_ns, errors = tracer.by_layer(layer)
        layer_self_ns += self_ns
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (seconds_of(self_ns), "s")
        metrics[f"{layer}.errors"] = (errors, "count")
    metrics["reporting.validate_report.self_s"] = (seconds_of(tracer.by_name("reporting.validate_report")[1]), "s")
    metrics["cli.run_command.self_s"] = (seconds_of(tracer.by_name("cli.run_command")[1]), "s")
    import_s, import_raw = _probe_median("import_s", import_probes, "import")
    interpreter_s, interpreter_raw = _interpreter_median(import_probes)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.interpreter_s"] = (interpreter_s, "s")
    metrics["trace.untraced_items_per_s"] = (items / (untraced_ns / 1e9), "1/s")
    metrics["trace.items_per_s"] = (items / (traced_ns / 1e9), "1/s")
    metrics["trace.overhead_ratio"] = (untraced_raw / traced_raw, "ratio")
    metrics["trace.call_s"] = (seconds_of(tracer.root_ns), "s")
    metrics["trace.layer_self_s"] = (seconds_of(layer_self_ns), "s")
    metrics["trace.unattributed_s"] = (seconds_of(tracer.by_layer("bench")[1]), "s")
    metrics["trace.tracer_s"] = (seconds_of(tracer.tracer_ns), "s")
    metrics["trace.spans"] = (tracer.span_count, "count")
    details = {
        "calls": count,
        "items": items,
        "item": workload.item,
        "error_rate": gate.failed / gate.attempted,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "reference_kernel": workload.reference,
        "speed": scale.speed,
        "raw": {"call_s": tracer.root_ns / 1e9, "import_s": import_raw, "interpreter_s": interpreter_raw},
        "note": "overhead_ratio is raw untraced over raw traced time of the same calls, run alternately in-process",
    }
    return metrics, gate, warm, details


def result_line(metrics: Metrics, gate: Gate, warm: Gate) -> dict:
    correct = gate.failed == 0 and warm.failed == 0 and not gate.pooled_problems()
    return {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package() -> None:
    """Import tritshare from this checkout's sources, never from elsewhere."""
    if not (SRC / "tritshare" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC / 'tritshare'}; run from a tritshare checkout")
    sys.path.insert(0, str(SRC))
    import tritshare

    if SRC not in Path(tritshare.__file__).resolve().parents:
        raise SystemExit(f"error: imported tritshare from {tritshare.__file__}, not from {SRC}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_package()
    from facts import machine_facts

    workload = WORKLOADS[args.workload]
    measure_run = measure_traced if args.trace else measure
    metrics, gate, warm, details = measure_run(workload, args.seed, args.seconds)
    line = result_line(metrics, gate, warm)
    details.update(
        {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "widest_register_bytes": workload.widest_register_bytes,
            "problems": warm.problems + gate.problems + gate.pooled_problems(),
            "pooled": gate.pooled_rates(),
            "machine": machine_facts(ROOT),
        }
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
