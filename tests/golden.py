"""The golden seeded-output corpus: what a fixed grid of seeded runs produces.

``test_golden.py`` recomputes every case and compares it with
``data/golden_v1.json``: integers and strings exactly, floats within
``FLOAT_TOL`` (share amplitudes have moved by ulps between versions, and the
tests run on more than one Python). Long integer arrays are stored as
digests. A change that alters the seeded streams on purpose regenerates the
file, names the change and bumps the version::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np

from tritshare import (
    BellOutcome,
    InsideAttack,
    OutsideAttack,
    SessionConfig,
    basis_state,
    haar_random_state,
    run_check_rounds,
    run_inside_attack_experiment,
    run_sharing_session,
)
from tritshare import attacks
from tritshare.attacks import BASIS_POLICIES, COMPARISON_MODES
from tritshare.cli import run_command

PATH = Path(__file__).parent / "data" / "golden_v1.json"
FLOAT_TOL = 1e-12
SEEDS = (1, 5)
FAKES = {"none": None, "zero": basis_state([0]), "haar": haar_random_state(np.random.default_rng(11))}
#: The commands of acceptance criterion 7.
CLI_COMMANDS = (
    ("share", "--agents", "3", "--secret", "random", "--seed", "77"),
    ("check-channel", "--rounds", "100", "--basis", "random", "--seed", "77"),
    ("attack", "--model", "inside", "--trials", "150", "--seed", "77"),
    ("attack", "--model", "outside", "--trials", "150", "--seed", "77"),
    ("attack", "--model", "inside", "--trials", "80", "--seed", "77", "--format", "csv"),
)


def digest(values) -> str:
    """Short digest of an integer array."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def inside_stats() -> dict:
    """Inside ``AttackStats`` over both dishonest agents, every fake, both comparison modes and
    each forced designation (or none), on 300 trials: two blocks."""
    cases = {}
    for agent, fake, mode, force, seed in itertools.product((1, 2), FAKES, COMPARISON_MODES, (None, 1, 2), SEEDS):
        stats = run_inside_attack_experiment(300, InsideAttack(agent, FAKES[fake]), mode, seed, force_designate=force)
        cases[f"agent{agent}/fake-{fake}/{mode}/designate-{force or 'drawn'}/seed{seed}"] = dataclasses.asdict(stats)
    return cases


def inside_blocks() -> dict:
    """``_inside_block``'s per-trial arrays on one 120-trial block of drawn designations."""
    cases = {}
    for agent, fake, seed in itertools.product((1, 2), FAKES, SEEDS):
        u = attacks._stream(seed).random((120, attacks._INSIDE_UNIFORMS))
        secrets, designated = attacks._inside_inputs(u, None)
        block = attacks._inside_block(secrets, designated, InsideAttack(agent, FAKES[fake]), u)
        cases[f"agent{agent}/fake-{fake}/seed{seed}"] = {
            "designated": digest(designated),
            "bell": digest(block.bell),
            "announced": digest(block.announced),
            "captured": digest(block.captured),
            "fidelity": block.fidelity.tolist(),
        }
    return cases


def _outside_attacks(parties: int):
    """No attack, then every intercept policy on each transit qutrit alone and on all of them."""
    yield "honest", None
    transit = tuple(range(2, parties + 1))
    targets = [(t,) for t in transit] + ([transit] if len(transit) > 1 else [])
    for policy, chosen in itertools.product(BASIS_POLICIES, targets):
        yield f"{policy}-{','.join(map(str, chosen))}", OutsideAttack(chosen, policy)


def check_rounds() -> dict:
    """``run_check_rounds`` records over 2-6 parties, each attack and each check policy, on 300 rounds."""
    cases = {}
    for parties in range(2, 7):
        for (name, attack), policy, seed in itertools.product(
            _outside_attacks(parties), ("computational", "fourier", "random"), SEEDS
        ):
            records = run_check_rounds(300, attack, policy, seed, num_parties=parties)
            cases[f"parties{parties}/{name}/{policy}/seed{seed}"] = {
                "rounds": len(records),
                "fourier": digest([r.basis == "fourier" for r in records]),
                "trits": digest([r.outcomes for r in records]),
                "passed": digest([r.passed for r in records]),
                "failures": sum(not r.passed for r in records),
            }
    return cases


def _payload(payload) -> object:
    return dataclasses.asdict(payload) if dataclasses.is_dataclass(payload) else payload


def sessions() -> dict:
    """Sampled sessions at N = 2..10 for the first and last designated agent, and one forced branch per N."""
    cases = {}
    for agents in range(2, 11):
        for designated, seed in itertools.product(sorted({1, agents}), SEEDS):
            secret = haar_random_state(np.random.default_rng(100 * agents + seed))
            runs = {"sampled": {}}
            if designated == agents and seed == SEEDS[0]:
                forced = [(k + 1) % 3 for k in range(agents - 1)]
                runs["forced"] = {"forced_bell": BellOutcome(2, 1), "forced_helpers": forced}
            for kind, forcing in runs.items():
                transcript = run_sharing_session(SessionConfig(agents, designated, secret, seed), **forcing)
                cases[f"agents{agents}/designated{designated}/seed{seed}/{kind}"] = {
                    "announcements": [[a.kind, a.sender, _payload(a.payload)] for a in transcript.announcements],
                    "bell_probability": transcript.bell_probability,
                    "reconstructed": [[z.real, z.imag] for z in transcript.reconstructed.amplitudes.tolist()],
                    "fidelity": transcript.fidelity_to_secret,
                }
    return cases


def _cell(text: str) -> object:
    """A CSV cell as the int or float it spells, else as text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def cli_reports() -> dict:
    """The criterion-7 reports with ``wall_time_ms`` masked: JSON parsed, CSV split into typed cells."""
    cases = {}
    for argv in CLI_COMMANDS:
        out = io.StringIO()
        code = run_command(list(argv), stdout=out, stderr=io.StringIO())
        text = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out.getvalue())
        report = json.loads(text) if "--format" not in argv else [
            [_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text))
        ]
        cases[" ".join(argv)] = {"exit_code": code, "report": report}
    return cases


SECTIONS = {
    "inside_stats": inside_stats,
    "inside_blocks": inside_blocks,
    "check_rounds": check_rounds,
    "sessions": sessions,
    "cli_reports": cli_reports,
}


def compute(section: str) -> dict:
    """One section's cases, as the plain JSON values the corpus file holds."""
    return json.loads(json.dumps(SECTIONS[section]()))


def first_difference(expected, actual, path: str = "", tol: float = FLOAT_TOL):
    """``(path, expected, actual)`` at the first place where ``actual`` departs from ``expected``, floats
    by more than ``tol``, else None."""
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        return None if abs(expected - actual) <= tol else (path, expected, actual)
    if type(expected) is not type(actual):
        return path, expected, actual
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            return path + "/<keys>", list(expected), list(actual)
        pairs = [(f"{path}/{key}", expected[key], actual[key]) for key in expected]
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            return path + "/<length>", len(expected), len(actual)
        pairs = [(f"{path}[{i}]", e, a) for i, (e, a) in enumerate(zip(expected, actual))]
    else:
        return None if expected == actual else (path, expected, actual)
    for where, e, a in pairs:
        found = first_difference(e, a, where, tol)
        if found is not None:
            return found
    return None


if __name__ == "__main__":
    corpus = {section: compute(section) for section in SECTIONS}
    PATH.write_text(json.dumps(corpus, indent=1, sort_keys=False) + "\n")
    print(f"wrote {PATH} ({sum(len(cases) for cases in corpus.values())} cases)")
