"""The four benchmark workloads: inputs made from the seed, one call, its gates.

Every workload is a closed loop with one client: the harness starts call
``i + 1`` only after call ``i`` has returned. The inputs of call ``i`` come
only from ``random.Random(f"{workload}/{seed}/{i}")`` and reach the program
as plain numbers and strings, through the package's public functions.

The gates check the paper's exact values (a 1/2 inside-attacker success
rate, 1/3 intercept detection, fidelity 1, Bell weight 1/9) with 5-sigma
Monte Carlo bands, never bytes tied to one random stream, so they keep
holding when a later change replaces the program's random streams.

Nothing here imports ``tritshare`` or ``numpy`` at module level: the set-up
probe times ``import tritshare`` in a fresh interpreter that has already
imported this module.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from cli_child import TIMING_PREFIX

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Width of every Monte Carlo band, in standard deviations of a Bernoulli mean.
SIGMAS = 5.0
#: Fidelity an honest sharing session must reach.
FIDELITY_FLOOR = 1.0 - 1e-9
#: Deviation allowed between a recorded Bell weight and its exact value 1/9.
BELL_WEIGHT_TOL = 1e-9
#: Bytes per complex128 amplitude.
AMPLITUDE_BYTES = 16

# A tally is one Bernoulli count checked against its exact expectation:
# (key, hits, trials, expected probability). Keys pool tallies across calls.
Tally = tuple[str, int, int, float]


def _ts():
    import tritshare

    return tritshare


def register_bytes(qutrits: int) -> int:
    """Bytes of one dense state vector on the given number of qutrits."""
    return AMPLITUDE_BYTES * 3**qutrits


def within_band(hits: int, trials: int, p: float) -> bool:
    """True when hits/trials lies within SIGMAS standard deviations of p.

    An exact expectation of 0 or 1 admits no deviation at all.
    """
    if p in (0.0, 1.0):
        return hits == p * trials
    return abs(hits / trials - p) <= SIGMAS * math.sqrt(p * (1.0 - p) / trials)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``call`` runs one unit of work, ``inprocess_call`` runs the same unit
    inside this interpreter (the two differ only for ``cli-short``, whose
    timed calls are subprocesses). ``check`` returns the problems found in
    a result plus its Bernoulli tallies; ``fingerprint`` reduces a result
    to what a rerun with the same inputs must reproduce exactly.
    """

    name: str
    item: str
    items_per_call: int
    widest_register_bytes: int
    #: Calls the traced run replays per second of ``--seconds``; sized so the
    #: untraced and traced passes together take about ``--seconds`` at the
    #: commit that defined the benchmark.
    traced_calls_per_s: float
    #: Name of the reference kernel (reference.py) whose speed scales this workload's times.
    reference: str
    #: (generator seeded for one call, call index) -> that call's inputs
    inputs: Callable[[random.Random, int], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[list[str], list[Tally]]]
    fingerprint: Callable[[Any], Any]
    inprocess_call: Callable[[Any], Any] | None = None
    #: Set for a call made of independent experiments: its inputs are a list
    #: of argument tuples and ``call`` returns ``[part(*args) for args in
    #: inputs]``. The timed loop runs the parts one by one and scales each
    #: by the reference kernel run on its two sides.
    part: Callable[..., Any] | None = None
    #: Calls 0 .. reruns - 1 (the warm-up first) are rerun untimed after the
    #: timed loop and must reproduce their fingerprints exactly.
    reruns: int = 2
    #: Reference-kernel times (before, after) that a call measured in its own
    #: process, or None when the harness must time the kernel itself.
    child_kernel_ns: Callable[[Any], tuple[int, int] | None] = lambda result: None

    def make_inputs(self, seed: int, index: int) -> Any:
        return self.inputs(random.Random(f"{self.name}/{seed}/{index}"), index)

    def run_inprocess(self, inputs: Any) -> Any:
        return (self.inprocess_call or self.call)(inputs)


# --- inside-mc --------------------------------------------------------------

#: Trials per experiment. The package's own callers run 400 to 10,000 (the
#: acceptance tests 2,000 and 10,000, the CLI default 10,000); 1,000 keeps a
#: call (four experiments) near one second, so a run still holds 10+ calls.
INSIDE_TRIALS = 1000
INSIDE_CONFIGS = (
    ("zero", "exact"),
    ("zero", "single_copy"),
    ("genuine", "exact"),
    ("genuine", "single_copy"),
)
# Exact detection rates under uniform designation. With the |0> fake the
# victim, designated half the time, rebuilds a computational basis ket k, so
# exact comparison always flags it (1/2) and a single-copy test flags it with
# probability 1 - |<secret|k>|^2, which is 2/3 on average over Haar secrets
# (1/2 * 2/3 = 1/3). Forwarding the genuine qutrit is never detected.
INSIDE_DETECTION = {
    ("zero", "exact"): 0.5,
    ("zero", "single_copy"): 1.0 / 3.0,
    ("genuine", "exact"): 0.0,
    ("genuine", "single_copy"): 0.0,
}


def _inside_inputs(rng: random.Random, index: int) -> list[tuple[str, str, int, int]]:
    return [(fake, mode, rng.randint(1, 2), rng.getrandbits(63)) for fake, mode in INSIDE_CONFIGS]


def _each(part: Callable[..., Any]) -> Callable[[list[tuple]], list[Any]]:
    return lambda inputs: [part(*args) for args in inputs]


def _inside_experiment(fake: str, mode: str, dishonest: int, seed: int) -> Any:
    ts = _ts()
    fake_state = ts.make_state([1.0, 0.0, 0.0], 1) if fake == "zero" else None
    attack = ts.InsideAttack(dishonest_agent=dishonest, fake_state=fake_state)
    return ts.run_inside_attack_experiment(INSIDE_TRIALS, attack, mode, seed)


def _inside_check(inputs: list[tuple[str, str, int, int]], result: list[Any]) -> tuple[list[str], list[Tally]]:
    problems: list[str] = []
    tallies: list[Tally] = []
    if len(result) != len(inputs):
        return [f"expected {len(inputs)} experiments, got {len(result)}"], []
    for (fake, mode, _, _), stats in zip(inputs, result):
        if stats.trials != INSIDE_TRIALS:
            problems.append(f"{fake}/{mode}: {stats.trials} trials, expected {INSIDE_TRIALS}")
            continue
        tallies.append((f"{fake}/{mode}/success", stats.attacker_successes, stats.trials, 0.5))
        tallies.append((f"{fake}/{mode}/detection", stats.detections, stats.trials, INSIDE_DETECTION[(fake, mode)]))
    return problems, tallies


# --- check-mc ---------------------------------------------------------------

#: Rounds per experiment: the CLI's ``check-channel --rounds`` default.
CHECK_ROUNDS = 1000
CHECK_PARTIES = 3
EVE_POLICIES = ("none", "always_computational", "always_fourier", "random_per_qutrit")
# Under a random check basis every intercept policy fails a round with
# probability 1/3: the wrong basis (chance 1/2) breaks the correlation 2/3 of
# the time. An honest channel never fails.
INTERCEPT_DETECTION = 1.0 / 3.0


def _check_inputs(rng: random.Random, index: int) -> list[tuple[str, int, int]]:
    return [(policy, rng.randint(2, CHECK_PARTIES), rng.getrandbits(63)) for policy in EVE_POLICIES]


def _check_experiment(policy: str, target: int, seed: int) -> Any:
    ts = _ts()
    attack = None if policy == "none" else ts.OutsideAttack(target_qutrits=(target,), measure_basis_policy=policy)
    return ts.run_outside_attack_experiment(CHECK_ROUNDS, attack, "random", seed, CHECK_PARTIES)


def _check_check(inputs: list[tuple[str, int, int]], result: list[Any]) -> tuple[list[str], list[Tally]]:
    problems: list[str] = []
    tallies: list[Tally] = []
    if len(result) != len(inputs):
        return [f"expected {len(inputs)} experiments, got {len(result)}"], []
    for (policy, _, _), stats in zip(inputs, result):
        if stats.trials != CHECK_ROUNDS:
            problems.append(f"{policy}: {stats.trials} rounds, expected {CHECK_ROUNDS}")
            continue
        expected = 0.0 if policy == "none" else INTERCEPT_DETECTION
        tallies.append((f"{policy}/detection", stats.detections, stats.trials, expected))
    return problems, tallies


def _stats_fingerprint(result: list[Any]) -> tuple:
    return tuple(result)


# --- share-sweep ------------------------------------------------------------

SHARE_AGENTS = tuple(range(2, 11))


def _haar_amplitudes(rng: random.Random) -> list[complex]:
    amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(3)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def _share_inputs(rng: random.Random, index: int) -> list[tuple[int, int, list[complex], int]]:
    return [(n, rng.randint(1, n), _haar_amplitudes(rng), rng.getrandbits(63)) for n in SHARE_AGENTS]


def _share_call(inputs: list[tuple[int, int, list[complex], int]]) -> list[Any]:
    ts = _ts()
    transcripts = []
    for n, designated, amps, seed in inputs:
        cfg = ts.SessionConfig(num_agents=n, designated=designated, secret=ts.make_state(amps, 1), seed=seed)
        transcripts.append(ts.run_sharing_session(cfg))
    return transcripts


def _share_check(inputs: list[tuple[int, int, list[complex], int]], result: list[Any]) -> tuple[list[str], list[Tally]]:
    problems: list[str] = []
    if len(result) != len(inputs):
        return [f"expected {len(inputs)} sessions, got {len(result)}"], []
    for (n, _, _, _), transcript in zip(inputs, result):
        if not transcript.fidelity_to_secret >= FIDELITY_FLOOR:
            problems.append(f"N={n}: fidelity {transcript.fidelity_to_secret!r} below {FIDELITY_FLOOR}")
        if not abs(transcript.bell_probability - 1.0 / 9.0) <= BELL_WEIGHT_TOL:
            problems.append(f"N={n}: Bell weight {transcript.bell_probability!r} is not 1/9")
        if len(transcript.announcements) != n + 1:
            problems.append(f"N={n}: {len(transcript.announcements)} announcements, expected {n + 1}")
    return problems, []


def _share_fingerprint(result: list[Any]) -> tuple:
    return tuple(
        (
            t.fidelity_to_secret,
            t.bell_probability,
            tuple((a.kind, a.sender, repr(a.payload)) for a in t.announcements),
            t.reconstructed.amplitudes.tobytes(),
        )
        for t in result
    )


# --- cli-short --------------------------------------------------------------

CLI_TRIALS = 200
# (argv without --seed, expected exit code). Calls cycle through them in order.
CLI_COMMANDS = (
    (("share", "--agents", "2"), 0),
    (("check-channel", "--rounds", str(CLI_TRIALS), "--eve", "intercept-random"), 4),
    (("attack", "--model", "inside", "--trials", str(CLI_TRIALS)), 0),
    (("attack", "--model", "outside", "--trials", str(CLI_TRIALS), "--format", "csv"), 0),
)
CLI_TIMEOUT_S = 120
_WALL_TIME = re.compile(r'"wall_time_ms": \d+')


def _cli_inputs(rng: random.Random, index: int) -> tuple[list[str], int]:
    argv, code = CLI_COMMANDS[index % len(CLI_COMMANDS)]
    return [*argv, "--seed", str(rng.getrandbits(32))], code


def cli_env() -> dict[str, str]:
    """Environment for a ``python -m tritshare`` child: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# (exit code, stdout, stderr, reference-kernel ns measured in the child or None)
CliResult = tuple[int, str, str, "tuple[int, int] | None"]


def _cli_call(inputs: tuple[list[str], int]) -> CliResult:
    """One command in a fresh ``python`` process, run as ``python -m tritshare`` runs it."""
    argv, _ = inputs
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), *argv],
        capture_output=True,
        text=True,
        env=cli_env(),
        cwd=ROOT,
        timeout=CLI_TIMEOUT_S,
        check=False,
    )
    err, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    if not last.startswith(TIMING_PREFIX):
        return proc.returncode, proc.stdout, proc.stderr, None
    before, after = (int(ns) for ns in last.split()[1:])
    return proc.returncode, proc.stdout, err + "\n" if err else "", (before, after)


def _cli_inprocess_call(inputs: tuple[list[str], int]) -> CliResult:
    argv, _ = inputs
    out, err = io.StringIO(), io.StringIO()
    code = _ts().run_command(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue(), None


def _cli_check(inputs: tuple[list[str], int], result: CliResult) -> tuple[list[str], list[Tally]]:
    argv, expected_code = inputs
    code, out, err, _ = result
    command = " ".join(argv[:3])
    if code != expected_code:
        return [f"{command}: exit {code}, expected {expected_code}: {err.strip()[-200:]}"], []
    if "Traceback" in err:
        return [f"{command}: traceback on stderr"], []
    if "--format" in argv:
        return _cli_check_csv(command, out)
    try:
        report = json.loads(out)
        _ts().reporting.validate_report(report)
    except Exception as exc:  # any decode or schema failure is a wrong result
        return [f"{command}: report rejected: {type(exc).__name__}: {str(exc)[:200]}"], []
    if report["command"] != argv[0]:
        return [f"{command}: report is for {report['command']!r}"], []
    results = report["results"]
    if argv[0] == "share":
        transcript = results["transcript"]
        problems = []
        if not transcript["fidelity_to_secret"] >= FIDELITY_FLOOR:
            problems.append(f"{command}: fidelity {transcript['fidelity_to_secret']!r}")
        if not abs(transcript["bell_probability"] - 1.0 / 9.0) <= BELL_WEIGHT_TOL:
            problems.append(f"{command}: Bell weight {transcript['bell_probability']!r} is not 1/9")
        return problems, []
    if argv[0] == "check-channel":
        verdict = results["verdict"]
        failures = verdict["failures_computational"] + verdict["failures_fourier"]
        problems = [] if verdict["disturbed"] else [f"{command}: intercepted channel judged undisturbed"]
        return problems, [("check-channel/detection", failures, verdict["total_rounds"], INTERCEPT_DETECTION)]
    stats = results["stats"]  # inside attack with the default |0> fake and exact comparison
    return [], [
        ("attack-inside/success", stats["attacker_successes"], stats["trials"], 0.5),
        ("attack-inside/detection", stats["detections"], stats["trials"], 0.5),
    ]


def _cli_check_csv(command: str, out: str) -> tuple[list[str], list[Tally]]:
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != 1:
        return [f"{command}: expected one CSV row, got {len(rows)}"], []
    row = rows[0]
    try:
        trials, detections = int(row["trials"]), int(row["detections"])
    except (KeyError, TypeError, ValueError):
        return [f"{command}: malformed CSV row {row!r}"], []
    if row.get("model") != "outside" or trials != CLI_TRIALS:
        return [f"{command}: CSV row {row!r} does not describe {CLI_TRIALS} outside trials"], []
    return [], [("attack-outside/detection", detections, trials, INTERCEPT_DETECTION)]


def _cli_fingerprint(result: CliResult) -> tuple[int, str, str]:
    code, out, err, _ = result
    return code, _WALL_TIME.sub('"wall_time_ms": 0', out), err


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="inside-mc",
            item="trial",
            items_per_call=INSIDE_TRIALS * len(INSIDE_CONFIGS),
            widest_register_bytes=register_bytes(5),  # secret + 3-qutrit GHZ + fake
            traced_calls_per_s=0.175,
            reference="small_registers",
            inputs=_inside_inputs,
            call=_each(_inside_experiment),
            part=_inside_experiment,
            check=_inside_check,
            fingerprint=_stats_fingerprint,
        ),
        Workload(
            name="check-mc",
            item="round",
            items_per_call=CHECK_ROUNDS * len(EVE_POLICIES),
            widest_register_bytes=register_bytes(CHECK_PARTIES),
            traced_calls_per_s=0.26,
            reference="small_registers",
            inputs=_check_inputs,
            call=_each(_check_experiment),
            part=_check_experiment,
            check=_check_check,
            fingerprint=_stats_fingerprint,
        ),
        Workload(
            name="share-sweep",
            item="session",
            items_per_call=len(SHARE_AGENTS),
            widest_register_bytes=register_bytes(max(SHARE_AGENTS) + 2),  # secret + GHZ on N+1
            traced_calls_per_s=10.0,
            reference="large_registers",
            inputs=_share_inputs,
            call=_share_call,
            check=_share_check,
            fingerprint=_share_fingerprint,
        ),
        Workload(
            name="cli-short",
            item="command",
            items_per_call=1,
            widest_register_bytes=register_bytes(5),  # the inside attack
            traced_calls_per_s=3.5,
            reference="interpreter",
            inputs=_cli_inputs,
            call=_cli_call,
            check=_cli_check,
            fingerprint=_cli_fingerprint,
            inprocess_call=_cli_inprocess_call,
            reruns=len(CLI_COMMANDS),  # each command once
            child_kernel_ns=lambda result: result[3],
        ),
    )
}
