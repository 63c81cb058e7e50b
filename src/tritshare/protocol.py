"""Sharing-session choreography and GHZ channel verification.

A session tensors the dealer's secret with a fresh GHZ channel, performs
the dealer's two-qutrit measurement, records the public announcements,
runs the helpers' Fourier measurements, and applies the designated
agent's correction. Check rounds consume dedicated GHZ copies and feed a
compare-and-abort verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    PureState,
    apply_single,
    born_distribution,
    fidelity,
    measure_subsystem,
    project_subsystem,
    sample_index,
    tensor,
)
from .errors import ConfigInvalid, DimensionMismatch, EmptyInput
from .operators import (
    BellOutcome,
    HelperSum,
    XiOutcome,
    bell_family,
    computational_family,
    ghz_state,
    recovery_operator,
    xi_family,
)

COMPUTATIONAL = "computational"
FOURIER = "fourier"
CHECK_BASES = (COMPUTATIONAL, FOURIER)

BELL_RESULT = "bell_result"
DESIGNATION = "designation"
HELPER_RESULT = "helper_result"

#: Largest supported number of agents (secret + channel stays within 3^12 amplitudes).
MAX_AGENTS = 10


@dataclass(frozen=True)
class SessionConfig:
    """One sharing run: agent count, who reconstructs, the secret, and the seed."""

    num_agents: int
    designated: int
    secret: PureState
    seed: int


@dataclass(frozen=True)
class Announcement:
    """A single classical message on the public channel."""

    kind: str
    sender: str
    payload: BellOutcome | XiOutcome | int


@dataclass(frozen=True)
class Transcript:
    """Full record of one session, in causal announcement order."""

    config: SessionConfig
    announcements: tuple[Announcement, ...]
    bell_probability: float
    reconstructed: PureState
    fidelity_to_secret: float


@dataclass(frozen=True)
class CheckRecord:
    """Outcome trits of one verification round and whether the correlation held."""

    basis: str
    outcomes: tuple[int, ...]
    passed: bool


@dataclass(frozen=True)
class ChannelVerdict:
    """Aggregate of check rounds; disturbed iff any round failed."""

    disturbed: bool
    total_rounds: int
    rounds_computational: int
    failures_computational: int
    failure_rate_computational: float
    rounds_fourier: int
    failures_fourier: int
    failure_rate_fourier: float


def _validated_seed(seed: int) -> int:
    """Every command's seed rule: a key of the 128-bit ``Philox`` stream the experiments draw from."""
    if not 0 <= int(seed) < 2**128:
        raise ConfigInvalid("seed must be a non-negative integer below 2**128")
    return int(seed)


def _check_passes(fourier: np.ndarray, trits: np.ndarray) -> np.ndarray:
    """Per round, whether the parties' outcome trits ``(B, parties)`` kept the GHZ correlation:
    a Fourier round passes when they sum to 0 mod 3, a computational one when they all agree."""
    return np.where(fourier, trits.sum(axis=1) % 3 == 0, np.all(trits == trits[:, :1], axis=1))


def _validate_config(cfg: SessionConfig) -> None:
    if not 2 <= cfg.num_agents <= MAX_AGENTS:
        raise ConfigInvalid(f"num_agents must be in 2..{MAX_AGENTS}, got {cfg.num_agents}")
    if not 1 <= cfg.designated <= cfg.num_agents:
        raise ConfigInvalid(f"designated agent {cfg.designated} outside 1..{cfg.num_agents}")
    if cfg.secret.num_qutrits != 1:
        raise ConfigInvalid("the shared secret is a single-qutrit state")
    _validated_seed(cfg.seed)


def run_sharing_session(
    cfg: SessionConfig,
    *,
    forced_bell: BellOutcome | None = None,
    forced_helpers: Sequence[int] | None = None,
) -> Transcript:
    """Run one full sharing session and return its transcript.

    With an honest channel the reconstructed qutrit matches the secret
    with fidelity 1. ``forced_bell`` / ``forced_helpers`` replace the
    corresponding sampling steps with deterministic branch projection
    (the branch's Born weight is still recorded); exhaustive sweeps use
    this to enumerate every outcome combination.
    """
    _validate_config(cfg)
    rng = np.random.default_rng(cfg.seed)

    state = tensor(cfg.secret, ghz_state(cfg.num_agents + 1))
    if forced_bell is not None:
        bell_record = project_subsystem(state, (1, 2), bell_family(), forced_bell.index)
    else:
        bell_record = measure_subsystem(state, (1, 2), bell_family(), rng)
    bell = BellOutcome.from_index(bell_record.outcome_index)
    state = bell_record.collapsed

    announcements = [
        Announcement(BELL_RESULT, "alice", bell),
        Announcement(DESIGNATION, "alice", cfg.designated),
    ]

    helpers = [a for a in range(1, cfg.num_agents + 1) if a != cfg.designated]
    if forced_helpers is not None and len(forced_helpers) != len(helpers):
        raise ConfigInvalid(f"expected {len(helpers)} forced helper outcomes, got {len(forced_helpers)}")

    # Agent i starts on register label i once the dealer's pair is gone.
    # Helpers measure in ascending order, so when agent a measures only the
    # designated agent can still sit below it: a is at label 1 or 2.
    outcomes: list[XiOutcome] = []
    for position, agent in enumerate(helpers):
        label = 1 + (agent > cfg.designated)
        if forced_helpers is not None:
            record = project_subsystem(state, (label,), xi_family(), int(forced_helpers[position]) % 3)
        else:
            record = measure_subsystem(state, (label,), xi_family(), rng)
        outcome = XiOutcome(record.outcome_index)
        outcomes.append(outcome)
        announcements.append(Announcement(HELPER_RESULT, f"agent_{agent}", outcome))
        state = record.collapsed

    helper_sum = HelperSum.from_outcomes(outcomes)
    reconstructed = reconstruct(state, bell, helper_sum)
    return Transcript(
        config=cfg,
        announcements=tuple(announcements),
        bell_probability=bell_record.probability,
        reconstructed=reconstructed,
        fidelity_to_secret=fidelity(reconstructed, cfg.secret),
    )


def reconstruct(state: PureState, bell: BellOutcome, helper_sum: HelperSum | int) -> PureState:
    """Apply the announced correction to the reconstructing agent's qutrit."""
    if state.num_qutrits != 1:
        raise DimensionMismatch("reconstruction acts on exactly one qutrit")
    return apply_single(recovery_operator(bell, helper_sum), 1, state)


def channel_check_round(
    basis: str,
    rng: np.random.Generator,
    *,
    num_parties: int = 3,
) -> CheckRecord:
    """One honest verification round on a dedicated GHZ copy.

    Every party measures its own qutrit in the announced basis. A
    computational round passes when all outcomes agree; a Fourier round
    passes when the outcomes sum to 0 mod 3. Both rules extend the
    three-party check to any party count. This is the readable one-round
    reference; ``attacks.run_check_rounds`` plays rounds in blocks, with
    or without an outside attack.
    """
    if basis not in CHECK_BASES:
        raise ConfigInvalid(f"check basis must be one of {CHECK_BASES}, got {basis!r}")
    if num_parties < 2:
        raise ConfigInvalid("a check round needs at least two parties")

    state = ghz_state(num_parties)
    family = computational_family() if basis == COMPUTATIONAL else xi_family()
    outcomes: list[int] = []
    for _ in range(num_parties - 1):
        record = measure_subsystem(state, (1,), family, rng)
        outcomes.append(record.outcome_index)
        state = record.collapsed
    # Last party: the register may not end up empty, so sample directly.
    outcomes.append(sample_index(born_distribution(state, (1,), family), rng))

    passed = bool(_check_passes(np.array([basis == FOURIER]), np.array([outcomes]))[0])
    return CheckRecord(basis, tuple(outcomes), passed)


def verify_correlations(records: Iterable[CheckRecord]) -> ChannelVerdict:
    """Compare-and-abort verdict over recorded check rounds."""
    records = list(records)
    if not records:
        raise EmptyInput("no check rounds recorded")
    rounds_c = sum(1 for r in records if r.basis == COMPUTATIONAL)
    fails_c = sum(1 for r in records if r.basis == COMPUTATIONAL and not r.passed)
    rounds_f = sum(1 for r in records if r.basis == FOURIER)
    fails_f = sum(1 for r in records if r.basis == FOURIER and not r.passed)
    return ChannelVerdict(
        disturbed=any(not r.passed for r in records),
        total_rounds=len(records),
        rounds_computational=rounds_c,
        failures_computational=fails_c,
        failure_rate_computational=fails_c / rounds_c if rounds_c else 0.0,
        rounds_fourier=rounds_f,
        failures_fourier=fails_f,
        failure_rate_fourier=fails_f / rounds_f if rounds_f else 0.0,
    )
