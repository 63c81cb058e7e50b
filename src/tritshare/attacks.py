"""Eavesdropper models and the Monte Carlo experiments that measure them.

The outside attacker intercepts transit qutrits during distribution,
measures them, and forwards the collapsed basis state. The inside
attacker is a dishonest agent who captures another agent's channel
qutrit and substitutes a fake one; the dealer's random designation then
decides whether the theft pays off silently or shows up when the
reconstruction is compared against the secret.

The experiments run blocks of trials as one ``(B, 3, ..., 3)`` amplitude
array through ``core``'s batched engine, the one every ``PureState``
operation runs on, and draw from one ``Philox`` stream keyed by the seed.
Every trial consumes the same number K of uniform doubles, a multiple of
the four doubles Philox yields per counter step, so trial ``t`` reads the
K uniforms at counter ``t * K / 4``. Results are therefore identical for
any block size, and trial ``t`` alone can be replayed from a generator
advanced by ``t * K / 4``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .core import (
    PureState,
    _apply,
    _contract,
    _family_matrix,
    _measure,
    _weights,
    born_distribution,
    measure_subsystem,
    sample_index,
    sample_indices,
    tensor,
)
from .errors import ConfigInvalid, LabelOutOfRange, SelfCapture
from .operators import BellOutcome, bell_family, computational_family, ghz_state, recovery_operator, xi_family
from .protocol import CHECK_BASES, COMPUTATIONAL, FOURIER, CheckRecord, _check_passes, _validated_seed

ALWAYS_COMPUTATIONAL = "always_computational"
ALWAYS_FOURIER = "always_fourier"
RANDOM_PER_QUTRIT = "random_per_qutrit"
BASIS_POLICIES = (ALWAYS_COMPUTATIONAL, ALWAYS_FOURIER, RANDOM_PER_QUTRIT)

EXACT = "exact"
SINGLE_COPY = "single_copy"
COMPARISON_MODES = (EXACT, SINGLE_COPY)

#: Exact comparison flags any reconstruction whose fidelity falls below this.
EXACT_COMPARISON_THRESHOLD = 1.0 - 1e-9

RANDOM_CHECK_BASIS = "random"

#: Trials simulated together as one array. Larger blocks run a little faster
#: but raise an experiment's peak memory, by about 0.6 MiB per doubling.
_BLOCK = 64
#: Widest array of an inside trial: the secret and the three-qutrit GHZ channel.
_INSIDE_QUTRITS = 4

# Columns of an inside trial's uniforms: six for the Haar secret, then the
# designation, the Bell outcome, the two Fourier outcomes and the
# single-copy comparison. The twelfth only fills the last Philox step.
_INSIDE_UNIFORMS = 12
_U_DESIGNATE, _U_BELL, _U_FIRST, _U_SECOND, _U_COMPARE = 6, 7, 8, 9, 10


# The kernels' operator tables are built on first use, so that importing the
# package (every CLI command does) pays neither for them nor for the BLAS
# buffers that validating their operators allocates.
def _rows(family: list[PureState]) -> np.ndarray:
    """A family's conjugated member rows, validated and cached by ``core``."""
    return _family_matrix(tuple(family), family[0].num_qutrits)


@lru_cache(maxsize=None)
def _recovery_table() -> np.ndarray:
    """``[n, m, L]`` is the correction for Bell outcome (n, m) and helper sum L."""
    table = np.array(
        [[[recovery_operator(BellOutcome(n, m), L).entries for L in range(3)] for m in range(3)] for n in range(3)]
    )
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class OutsideAttack:
    """Intercept-resend on chosen transit qutrits with a per-qutrit basis policy."""

    target_qutrits: tuple[int, ...]
    measure_basis_policy: str = ALWAYS_COMPUTATIONAL

    def __post_init__(self) -> None:
        targets = tuple(sorted(int(t) for t in self.target_qutrits))
        if not targets:
            raise ConfigInvalid("an outside attack targets at least one transit qutrit")
        if len(set(targets)) != len(targets):
            raise ConfigInvalid(f"duplicate target qutrits in {targets}")
        if self.measure_basis_policy not in BASIS_POLICIES:
            raise ConfigInvalid(f"basis policy must be one of {BASIS_POLICIES}")
        object.__setattr__(self, "target_qutrits", targets)


@dataclass(frozen=True)
class InsideAttack:
    """A dishonest agent plus the substitute qutrit the victim receives.

    ``fake_state=None`` forwards the captured qutrit untouched (the no-op
    control case).
    """

    dishonest_agent: int
    fake_state: PureState | None

    def __post_init__(self) -> None:
        if self.fake_state is not None and self.fake_state.num_qutrits != 1:
            raise ConfigInvalid("the fake qutrit is a single-qutrit state")


@dataclass(frozen=True)
class AttackStats:
    """Aggregate Monte Carlo counters with their per-trial rates."""

    trials: int
    attacker_successes: int
    detections: int
    success_rate: float
    detection_rate: float
    seed: int


def _insert_qutrit(state: PureState, label: int, qutrit: PureState) -> PureState:
    """Re-tensor a single qutrit so that it takes the given register label."""
    joined = tensor(state, qutrit)
    n = joined.num_qutrits
    psi = joined.amplitudes.reshape((3,) * n)
    return PureState(n, np.moveaxis(psi, n - 1, label - 1).reshape(-1))


def outside_intercept_resend(
    state: PureState, label: int, basis: str, rng: np.random.Generator
) -> PureState:
    """Measure one transit qutrit in the given basis and forward the observed basis state."""
    if not 1 <= int(label) <= state.num_qutrits:
        raise LabelOutOfRange(f"label {label} outside register of {state.num_qutrits} qutrit(s)")
    if basis not in CHECK_BASES:
        raise ConfigInvalid(f"basis must be one of {CHECK_BASES}, got {basis!r}")
    family = computational_family() if basis == COMPUTATIONAL else xi_family()
    if state.num_qutrits == 1:
        return family[sample_index(born_distribution(state, (1,), family), rng)]
    record = measure_subsystem(state, (int(label),), family, rng)
    return _insert_qutrit(record.collapsed, int(label), family[record.outcome_index])


# ---------------------------------------------------------------------------
# block kernels


def _stream(seed: int) -> np.random.Generator:
    """The experiment's one counter-based stream, keyed by the seed."""
    return np.random.Generator(np.random.Philox(key=_validated_seed(seed)))


def _block_sizes(total: int, width: int) -> Iterator[int]:
    """Trial counts of the consecutive blocks covering ``total`` trials.

    Registers wider than an inside trial's get fewer trials per block, so
    that no block holds more amplitudes than ``_BLOCK`` inside trials.
    """
    step = max(1, min(_BLOCK, _BLOCK * 3**_INSIDE_QUTRITS // 3**width))
    for start in range(0, total, step):
        yield min(step, total - start)


def _fourier_flags(u: np.ndarray, random: bool, always: bool) -> np.ndarray:
    """Per-trial basis choice: Fourier on a 50/50 draw when ``random``, else everywhere or nowhere."""
    return u >= 0.5 if random else np.full(len(u), always)


def _basis_rows(fourier: np.ndarray) -> np.ndarray:
    """Per-trial measurement rows: the Fourier basis where flagged, else computational."""
    return np.where(fourier[:, None, None], _rows(xi_family()), _rows(computational_family()))


def _haar_secrets(u: np.ndarray) -> np.ndarray:
    """Haar-random qutrits from six uniforms per row: three Box-Muller complex Gaussians, normalized."""
    gaussians = np.sqrt(-2.0 * np.log1p(-u[:, 0:6:2])) * np.exp(2j * np.pi * u[:, 1:6:2])
    return gaussians / np.linalg.norm(gaussians, axis=1, keepdims=True)


class _InsideBlock(NamedTuple):
    """Per-trial arrays of a block of inside trials."""

    bell: np.ndarray  # Bell outcome index 3n + m
    announced: np.ndarray  # Fourier outcome the helper announces
    captured: np.ndarray  # the designated attacker's outcome on the captured qutrit, -1 if none
    fidelity: np.ndarray  # the designated agent's reconstruction against the secret


def _reconstruction_fidelity(
    state: np.ndarray, secrets: np.ndarray, bell: np.ndarray, helper_sum: np.ndarray
) -> np.ndarray:
    """Fidelity of each trial's corrected last qutrit to its secret.

    Any other qutrit (a captured one the attacker still holds) is traced
    out: the fidelity ``<secret|R rho R^dagger|secret>`` of the last qutrit
    under correction R is the Born weight of the row ``<secret|R`` there.
    """
    rows = secrets.conj()[:, None, :] @ _recovery_table()[bell // 3, bell % 3, helper_sum]
    return np.minimum(1.0, _weights(_contract(rows, state, (state.ndim - 2,)))[:, 0])


def _inside_block(secrets: np.ndarray, designated: np.ndarray, attack: InsideAttack, u: np.ndarray) -> _InsideBlock:
    """Play a block of tampered three-party sessions.

    ``secrets`` is ``(B, 3)``, ``designated`` holds agent 1 or 2 per
    trial and ``u`` the trials' ``(B, _INSIDE_UNIFORMS)`` uniforms. The
    register's qutrits are the secret, the dealer's GHZ qutrit, agent 1's
    and agent 2's channel qutrits. The fake, if any, is unentangled and
    untouched by the dealer's measurement, so it joins the register as its
    last qutrit right after that measurement: the outcomes and states are
    the same as when it joins at capture, on a third of the amplitudes.

    When the dishonest agent is designated, the victim's announcement
    comes off the fake qutrit and is ignored: the attacker privately
    Fourier-measures the captured qutrit instead and recovers the secret
    on their own. Otherwise the attacker plays helper on their genuine
    qutrit and the victim reconstructs on whatever they hold, which is
    what the dealer's comparison sees.
    """
    attacker = attack.dishonest_agent
    victim = 3 - attacker
    fake = attack.fake_state
    xi_rows = _rows(xi_family())
    state = secrets[:, :, None, None, None] * ghz_state(3).amplitudes.reshape(3, 3, 3)
    bell, state = _measure(state, (0, 1), _rows(bell_family()), u[:, _U_BELL])
    if fake is not None:
        state = state[..., None] * fake.amplitudes
    # qutrits left: agent 1, agent 2, then the fake

    announced = np.empty(len(u), dtype=np.intp)
    captured = np.full(len(u), -1, dtype=np.intp)
    fid = np.empty(len(u))
    wins = designated == attacker
    if wins.any():
        holding = 2 if fake is not None else victim - 1
        first, kept = _measure(state[wins], (holding,), xi_rows, u[wins, _U_FIRST])
        announced[wins] = helper_sum = first
        if fake is not None:
            helper_sum, kept = _measure(kept, (victim - 1,), xi_rows, u[wins, _U_SECOND])
            captured[wins] = helper_sum
        fid[wins] = _reconstruction_fidelity(kept, secrets[wins], bell[wins], helper_sum)
    loses = ~wins
    if loses.any():
        first, kept = _measure(state[loses], (attacker - 1,), xi_rows, u[loses, _U_FIRST])
        announced[loses] = first
        # the victim holds the last qutrit left: the fake, or its own channel qutrit
        fid[loses] = _reconstruction_fidelity(kept, secrets[loses], bell[loses], first)
    return _InsideBlock(bell, announced, captured, fid)


def _inside_inputs(u: np.ndarray, force_designate: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's Haar secret and designated agent, drawn from its uniforms."""
    if force_designate is not None:
        designated = np.full(len(u), int(force_designate))
    else:
        designated = np.where(u[:, _U_DESIGNATE] < 0.5, 1, 2)
    return _haar_secrets(u), designated


def _check_uniforms(attack: OutsideAttack | None) -> int:
    """Uniforms per check round, rounded up to whole Philox steps: the check
    basis, Eve's basis and outcome on each target, the joint outcome."""
    used = 2 + (2 * len(attack.target_qutrits) if attack is not None else 0)
    return -(-used // 4) * 4


def _check_block(
    u: np.ndarray, attack: OutsideAttack | None, check_basis_policy: str, num_parties: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play a block of check rounds; return per round the Fourier-basis
    flag, the parties' outcome trits ``(B, num_parties)`` and the verdict."""
    fourier = _fourier_flags(u[:, 0], check_basis_policy == RANDOM_CHECK_BASIS, check_basis_policy == FOURIER)
    ghz = ghz_state(num_parties).amplitudes.reshape((3,) * num_parties)
    state = np.broadcast_to(ghz, (len(u),) + ghz.shape)

    targets = attack.target_qutrits if attack is not None else ()
    for i, target in enumerate(targets):
        policy = attack.measure_basis_policy
        eve = _basis_rows(_fourier_flags(u[:, 1 + 2 * i], policy == RANDOM_PER_QUTRIT, policy == ALWAYS_FOURIER))
        outcome, kept = _measure(state, (target - 1,), eve, u[:, 2 + 2 * i])
        # Eve resends the basis state she observed in the target's place
        resent = np.einsum("b...,bj->b...j", kept, eve[np.arange(len(u)), outcome].conj())
        state = np.moveaxis(resent, -1, target)

    rows = _basis_rows(fourier)
    for axis in range(num_parties):
        state = _apply(rows, state, axis)
    joint = sample_indices(_weights(state.reshape(len(u), -1, 1)), u[:, 1 + 2 * len(targets)])
    trits = np.stack(np.unravel_index(joint, ghz.shape), axis=1)
    return fourier, trits, _check_passes(fourier, trits)


# ---------------------------------------------------------------------------
# experiments


def _check_blocks(
    rounds: int, attack: OutsideAttack | None, check_basis_policy: str, seed: int, num_parties: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Validate a run of check rounds and yield ``_check_block``'s arrays block by block."""
    if rounds < 1:
        raise ConfigInvalid("at least one check round is required")
    if check_basis_policy not in CHECK_BASES + (RANDOM_CHECK_BASIS,):
        raise ConfigInvalid(f"unknown check basis policy {check_basis_policy!r}")
    if num_parties < 2:
        raise ConfigInvalid("a check round needs at least two parties")
    if attack is not None:
        for target in attack.target_qutrits:
            if not 2 <= target <= num_parties:
                raise LabelOutOfRange(f"target {target} is not a transit qutrit (2..{num_parties})")

    rng = _stream(seed)
    uniforms = _check_uniforms(attack)
    for size in _block_sizes(int(rounds), num_parties):
        yield _check_block(rng.random((size, uniforms)), attack, check_basis_policy, num_parties)


def run_check_rounds(
    rounds: int,
    attack: OutsideAttack | None,
    check_basis_policy: str,
    seed: int,
    num_parties: int = 3,
) -> list[CheckRecord]:
    """Seeded stream of verification rounds, optionally under attack.

    ``check_basis_policy`` is ``computational``, ``fourier`` or
    ``random`` (a fresh 50/50 draw per round). Every party measures its
    qutrit in the round's basis; the parties' joint outcome is drawn at
    once from its Born distribution.
    """
    return [
        CheckRecord(FOURIER if f else COMPUTATIONAL, tuple(t), p)
        for fourier, trits, passed in _check_blocks(rounds, attack, check_basis_policy, seed, num_parties)
        for f, t, p in zip(fourier.tolist(), trits.tolist(), passed.tolist())
    ]


def run_outside_attack_experiment(
    trials: int,
    attack: OutsideAttack | None,
    check_basis_policy: str,
    seed: int,
    num_parties: int = 3,
) -> AttackStats:
    """Each trial distributes one check GHZ copy, lets the attacker act,
    and runs one check round; detections count failed rounds, the same
    rounds ``run_check_rounds`` records for these arguments.

    Interception yields the attacker no claimable reconstruction, so the
    success counters stay at zero; the figure of merit is the detection
    rate.
    """
    if trials < 1:
        raise ConfigInvalid("at least one trial is required")
    blocks = _check_blocks(trials, attack, check_basis_policy, seed, num_parties)
    detections = sum(int(np.count_nonzero(~passed)) for _, _, passed in blocks)
    return AttackStats(
        trials=int(trials),
        attacker_successes=0,
        detections=detections,
        success_rate=0.0,
        detection_rate=detections / int(trials),
        seed=int(seed),
    )


@dataclass
class LiveSession:
    """A session's joint state mid-distribution plus who holds which register label."""

    state: PureState
    dealer_labels: tuple[int, int]
    agent_label: dict[int, int]  # agent -> label of the qutrit that agent uses in the protocol
    captured_label: dict[int, int]  # agent -> label of a qutrit that agent secretly captured


def start_session(secret: PureState, num_agents: int = 2) -> LiveSession:
    """Distribute a fresh channel: the dealer keeps labels 1-2, agent i receives label i+2."""
    state = tensor(secret, ghz_state(num_agents + 1))
    return LiveSession(state, (1, 2), {a: a + 2 for a in range(1, num_agents + 1)}, {})


def inside_capture_and_fake(session: LiveSession, attack: InsideAttack, victim: int) -> LiveSession:
    """Reroute the victim's channel qutrit to the dishonest agent and hand the victim the fake.

    The fake is tensored on as a fresh register slot, so it stays
    unentangled from the genuine channel. A ``None`` fake leaves the
    session untouched.
    """
    if victim == attack.dishonest_agent:
        raise SelfCapture("the dishonest agent cannot capture its own qutrit")
    if victim not in session.agent_label or attack.dishonest_agent not in session.agent_label:
        raise ConfigInvalid("both the dishonest agent and the victim must hold a channel qutrit")
    if attack.fake_state is None:
        return session
    state = tensor(session.state, attack.fake_state)
    agent_label = dict(session.agent_label)
    captured = dict(session.captured_label)
    captured[attack.dishonest_agent] = agent_label[victim]
    agent_label[victim] = state.num_qutrits
    return LiveSession(state, session.dealer_labels, agent_label, captured)


@dataclass(frozen=True)
class InsideTrialOutcome:
    """What one tampered three-party run produced."""

    bell: BellOutcome
    designated: int
    attacker_designated: bool
    reconstruction_fidelity: float


def _validate_inside_attack(attack: InsideAttack) -> None:
    if attack.dishonest_agent not in (1, 2):
        raise ConfigInvalid("the three-party setting has agents 1 and 2")


def run_inside_trial(
    secret: PureState, attack: InsideAttack, designated: int, rng: np.random.Generator
) -> InsideTrialOutcome:
    """Play one tampered three-party session with the given designation.

    A designated attacker ignores the victim's announcement, which comes
    off the fake, and rebuilds the secret from their own Fourier outcome
    on the captured qutrit; otherwise the victim reconstructs on whatever
    they hold. This is a one-trial block of the experiment's kernel, fed
    with one trial's uniforms drawn from ``rng``.
    """
    _validate_inside_attack(attack)
    if designated not in (1, 2):
        raise ConfigInvalid("designated agent must be 1 or 2")
    if secret.num_qutrits != 1:
        raise ConfigInvalid("the shared secret is a single-qutrit state")
    u = rng.random((1, _INSIDE_UNIFORMS))
    block = _inside_block(secret.amplitudes[None, :], np.array([designated]), attack, u)
    return InsideTrialOutcome(
        BellOutcome.from_index(int(block.bell[0])),
        designated,
        designated == attack.dishonest_agent,
        float(block.fidelity[0]),
    )


def run_inside_attack_experiment(
    trials: int,
    attack: InsideAttack,
    comparison_mode: str,
    seed: int,
    force_designate: int | None = None,
) -> AttackStats:
    """Monte Carlo over tampered three-party runs.

    Each trial draws a fresh Haar-random secret; the dealer designates
    uniformly between the two agents unless ``force_designate`` pins it.
    A designated attacker counts as a success; otherwise the honest
    reconstruction is compared with the secret: ``exact`` flags any
    fidelity below 1 - 1e-9, ``single_copy`` flags with probability
    1 - fidelity.
    """
    if trials < 1:
        raise ConfigInvalid("at least one trial is required")
    if comparison_mode not in COMPARISON_MODES:
        raise ConfigInvalid(f"comparison mode must be one of {COMPARISON_MODES}")
    if force_designate is not None and force_designate not in (1, 2):
        raise ConfigInvalid("forced designation must be agent 1 or 2")
    _validate_inside_attack(attack)

    rng = _stream(seed)
    successes = 0
    detections = 0
    for size in _block_sizes(int(trials), _INSIDE_QUTRITS):
        u = rng.random((size, _INSIDE_UNIFORMS))
        secrets, designated = _inside_inputs(u, force_designate)
        fid = _inside_block(secrets, designated, attack, u).fidelity
        compared = designated != attack.dishonest_agent
        if comparison_mode == EXACT:
            flagged = fid[compared] < EXACT_COMPARISON_THRESHOLD
        else:
            flagged = u[compared, _U_COMPARE] < 1.0 - fid[compared]
        successes += size - int(np.count_nonzero(compared))
        detections += int(np.count_nonzero(flagged))

    return AttackStats(
        trials=int(trials),
        attacker_successes=successes,
        detections=detections,
        success_rate=successes / int(trials),
        detection_rate=detections / int(trials),
        seed=int(seed),
    )
