"""Command-line front end.

Subcommands: ``share`` (one sharing session), ``check-channel``
(correlation rounds plus verdict) and ``attack`` (Monte Carlo
experiments). Reports go to stdout or ``--out`` as JSON (canonical) or
CSV; diagnostics go to stderr. Exit codes: 0 success, 2 argument error,
3 internal invariant violation, 4 disturbed channel verdict.
"""

from __future__ import annotations

import argparse
import cmath
import sys
import time
from pathlib import Path

import numpy as np

from . import reporting
from .attacks import (
    ALWAYS_COMPUTATIONAL,
    ALWAYS_FOURIER,
    EXACT,
    RANDOM_PER_QUTRIT,
    SINGLE_COPY,
    InsideAttack,
    OutsideAttack,
    _check_blocks,
    run_inside_attack_experiment,
    run_outside_attack_experiment,
)
from .core import INPUT_NORM_TOL, PureState, haar_random_state
from .errors import ConfigInvalid, NotNormalized, ParseError, TritshareError
from .protocol import MAX_AGENTS, SessionConfig, _validated_seed, _verdict, run_sharing_session

#: Secrets whose squared norm is off by more than this are rejected outright.
GROSS_NORM_TOL = 1e-3
#: Largest ``--rounds`` / ``--trials`` a command accepts. Every command keeps only its blocks'
#: tallies, so this bounds time alone: in-process, 10**6 three-party check rounds took 0.07 s
#: honest and 0.09 s under a random intercept, and 10**6 outside trials 0.08 s (2 cores, one
#: OpenBLAS thread, numpy 2.4).
MAX_TRIALS = 10**6

_EVE_POLICIES = {
    "intercept-computational": ALWAYS_COMPUTATIONAL,
    "intercept-fourier": ALWAYS_FOURIER,
    "intercept-random": RANDOM_PER_QUTRIT,
}
_EVE_CHOICES = ["none"] + sorted(_EVE_POLICIES)
_COMPARISON = {"exact": EXACT, "single-copy": SINGLE_COPY}


def _parse_secret_checked(
    text: str, rng: np.random.Generator | None, name: str = "secret"
) -> tuple[PureState, str | None]:
    """Parse a secret literal; returns the state and a renormalization warning, if any.

    ``name`` is what messages call the state, so a fake qutrit's errors say "fake state".
    """
    if text.strip().lower() == "random":
        if rng is None:
            raise ParseError(f"a 'random' {name} needs a seeded generator")
        return haar_random_state(rng), None
    parts = text.split(";")
    if len(parts) != 3:
        raise ParseError(f"{name}: expected three ';'-separated components, got {len(parts)}")
    values = []
    for part in parts:
        halves = part.split(",")
        if len(halves) != 2:
            raise ParseError(f"{name} component {part!r} is not 're,im'")
        try:
            value = complex(float(halves[0]), float(halves[1]))
        except ValueError:
            raise ParseError(f"{name} component {part!r} has a non-numeric entry") from None
        if not cmath.isfinite(value):
            raise ParseError(f"{name} component {part!r} is not finite")
        values.append(value)
    vec = np.array(values, dtype=np.complex128)
    norm_sq = float(np.vdot(vec, vec).real)
    if not abs(norm_sq - 1.0) <= GROSS_NORM_TOL:  # a NaN norm (finite components that overflow) fails too
        raise NotNormalized(f"{name} squared norm {norm_sq:.6g} is off by more than {GROSS_NORM_TOL}")
    warning = None
    if abs(norm_sq - 1.0) > INPUT_NORM_TOL:
        warning = f"{name} renormalized; squared norm deviated from 1 by {abs(norm_sq - 1.0):.3g}"
    return PureState(1, vec / np.sqrt(norm_sq)), warning


def parse_secret(text: str, rng: np.random.Generator | None = None) -> PureState:
    """Parse 're,im;re,im;re,im' into a single-qutrit state, or draw one
    Haar-uniformly for the literal 'random'."""
    state, _ = _parse_secret_checked(text, rng)
    return state


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: fresh entropy, echoed in the report)")
    parser.add_argument("--format", choices=["json", "csv"], default="json", help="report format")
    parser.add_argument("--out", default=None, help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritshare",
        description="Simulate GHZ-channel qutrit state sharing, channel checks, and attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    share = sub.add_parser("share", help="run one sharing session")
    share.add_argument("--agents", type=int, default=2, help="number of agents (default 2)")
    share.add_argument("--designate", default="random", help="reconstructing agent index, or 'random'")
    share.add_argument("--secret", default="random", help="'re,im;re,im;re,im' or 'random'")
    _add_common(share)

    check = sub.add_parser("check-channel", help="run channel-verification rounds")
    check.add_argument("--rounds", type=int, default=1000, help="number of check rounds (default 1000)")
    check.add_argument("--basis", choices=["computational", "fourier", "random"], default="random")
    check.add_argument("--eve", choices=_EVE_CHOICES, default="none", help="outside attack during distribution")
    _add_common(check)

    attack = sub.add_parser("attack", help="run an attack experiment")
    attack.add_argument("--model", choices=["inside", "outside"], required=True)
    attack.add_argument("--trials", type=int, default=10000)
    attack.add_argument("--comparison", choices=sorted(_COMPARISON), default="exact", help="inside model: how the dealer compares states")
    attack.add_argument("--fake", default="zero", help="inside model: fake qutrit ('zero', 'random', 'genuine', or 're,im;re,im;re,im')")
    attack.add_argument("--designate", default="random", help="inside model: force designation to this agent index")
    attack.add_argument("--eve", choices=sorted(_EVE_POLICIES), default="intercept-computational", help="outside model: interception policy")
    attack.add_argument("--basis", choices=["computational", "fourier", "random"], default="random", help="outside model: check-basis policy")
    _add_common(attack)

    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return _validated_seed(args.seed)
    return int(np.random.SeedSequence().entropy)


def _bounded(count: int, flag: str) -> None:
    """Refuse a ``--rounds`` / ``--trials`` value above ``MAX_TRIALS``; the library takes any positive integer count."""
    if count > MAX_TRIALS:
        raise ConfigInvalid(f"{flag} must be at most {MAX_TRIALS}, got {count}")


def _parse_designate(raw: str, num_agents: int, rng: np.random.Generator) -> int:
    if str(raw).strip().lower() == "random":
        return int(rng.integers(1, num_agents + 1))
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"--designate must be an agent index or 'random', got {raw!r}") from None
    return value


def _cmd_share(args: argparse.Namespace) -> tuple[dict, reporting.Result, list[str], int]:
    seed = _resolve_seed(args)
    if not 2 <= args.agents <= MAX_AGENTS:
        raise ConfigInvalid(f"--agents must be in 2..{MAX_AGENTS}, got {args.agents}")
    setup_rng = np.random.default_rng([seed, 1])
    secret, warning = _parse_secret_checked(args.secret, setup_rng)
    designated = _parse_designate(args.designate, args.agents, setup_rng)
    cfg = SessionConfig(num_agents=args.agents, designated=designated, secret=secret, seed=seed)
    transcript = run_sharing_session(cfg)
    config = {
        "agents": args.agents,
        "designated": designated,
        "secret": reporting.complex_vector(secret.amplitudes),
        "secret_spec": args.secret,
        "seed": seed,
    }
    return config, transcript, [warning] if warning else [], 0


def _cmd_check_channel(args: argparse.Namespace) -> tuple[dict, reporting.Result, list[str], int]:
    seed = _resolve_seed(args)
    _bounded(args.rounds, "--rounds")
    attack = None
    if args.eve != "none":
        attack = OutsideAttack(target_qutrits=(2,), measure_basis_policy=_EVE_POLICIES[args.eve])
    blocks = _check_blocks(args.rounds, "rounds", "check round", attack, args.basis, seed, 3)
    verdict = _verdict((~fourier, fourier, ~passed) for fourier, _, passed in blocks)
    config = {"rounds": args.rounds, "basis": args.basis, "eve": args.eve, "parties": 3, "seed": seed}
    return config, verdict, [], 4 if verdict.disturbed else 0


def _cmd_attack(args: argparse.Namespace) -> tuple[dict, reporting.Result, list[str], int]:
    seed = _resolve_seed(args)
    _bounded(args.trials, "--trials")
    warnings: list[str] = []
    if args.model == "inside":
        setup_rng = np.random.default_rng([seed, 1])
        fake_spec = args.fake.strip().lower()
        if fake_spec == "zero":
            fake = PureState(1, np.array([1.0, 0.0, 0.0]))
        elif fake_spec == "genuine":
            fake = None  # no-op control: forward the captured qutrit untouched
        else:
            fake, warning = _parse_secret_checked(args.fake, setup_rng, "fake state")
            if warning:
                warnings.append(warning)
        force = None
        if str(args.designate).strip().lower() != "random":
            force = _parse_designate(args.designate, 2, setup_rng)
        stats = run_inside_attack_experiment(
            args.trials, InsideAttack(dishonest_agent=1, fake_state=fake), _COMPARISON[args.comparison], seed, force
        )
        config = {
            "model": "inside",
            "trials": args.trials,
            "comparison": args.comparison,
            "fake": args.fake,
            "designate": args.designate,
            "dishonest_agent": 1,
            "seed": seed,
        }
    else:
        attack = OutsideAttack(target_qutrits=(2,), measure_basis_policy=_EVE_POLICIES[args.eve])
        stats = run_outside_attack_experiment(args.trials, attack, args.basis, seed)
        config = {
            "model": "outside",
            "trials": args.trials,
            "eve": args.eve,
            "check_basis": args.basis,
            "seed": seed,
        }
    return config, stats, warnings, 0


_HANDLERS = {
    "share": _cmd_share,
    "check-channel": _cmd_check_channel,
    "attack": _cmd_attack,
}


def run_command(argv: list[str], stdout=None, stderr=None) -> int:
    """Parse argv, run the subcommand, and emit its report. Returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return 0 if exc.code in (0, None) else int(exc.code)

    if args.format == "csv" and args.command != "attack":
        print("error: only attack reports have a CSV form; use --format json", file=stderr)
        return 2

    started = time.perf_counter()
    try:
        config, result, warnings, code = _HANDLERS[args.command](args)
        wall_time_ms = int(round((time.perf_counter() - started) * 1000.0))
        report = reporting.build_report(args.command, config, result, wall_time_ms, warnings)
        reporting.validate_report(report)
    except (ParseError, NotNormalized, ConfigInvalid) as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except TritshareError as exc:
        print(f"internal error: {exc}", file=stderr)
        return 3

    text = reporting.render_csv(report) if args.format == "csv" else reporting.render_json(report)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc.strerror or exc}", file=stderr)
            return 2
    else:
        stdout.write(text)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
