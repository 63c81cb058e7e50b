"""Sharing-session choreography and GHZ channel verification.

The choreography exists once, as two block steps: the dealer's Bell
measurement of the secret with its qutrit of a fresh GHZ channel
(``_deal``), then the helpers' Fourier measurements (``_help``). The
dealer's Bell rows absorb the secret first, so the dealer measures the
bare channel, one register that every trial shares, and no
secret-and-channel register is built. Its nine Born weights per trial
come from the 3 x 3 reduced density of the dealer's channel qutrit, and
only each trial's drawn row meets the channel. The dealt register is
symmetric under every permutation of the agents' qutrits, so the helpers
measure its qutrits in turn and nobody tracks who holds which. Sessions
run the steps on one register, the inside attack on blocks of trials.
Check rounds consume dedicated GHZ copies and feed a compare-and-abort
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ZERO_PROB_TOL,
    PureState,
    _block,
    _contract,
    _distinct,
    _freeze,
    _integer,
    _measure,
    _normalized,
    _sample,
    _trusted_state,
    _view,
    _weights,
    apply_single,
    fidelity,
)
from .errors import ConfigInvalid, DimensionMismatch, EmptyInput, ZeroProbabilityBranchSampled
from .operators import (
    _BELL_ROWS,
    _XI_ROWS,
    MAX_GHZ_QUTRITS,
    BellOutcome,
    HelperSum,
    XiOutcome,
    ghz_state,
    recovery_operator,
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
    total_rounds: int = field(metadata={"minimum": 1})
    rounds_computational: int
    failures_computational: int
    failure_rate_computational: float
    rounds_fourier: int
    failures_fourier: int
    failure_rate_fourier: float


def _validated_seed(seed: int) -> int:
    """Every command's seed rule: a key of the 128-bit ``Philox`` stream the experiments draw from."""
    seed = _integer(seed, ConfigInvalid, "seed")
    if not 0 <= seed < 2**128:
        raise ConfigInvalid("seed must be a non-negative integer below 2**128")
    return seed


def _validated_parties(num_parties: int) -> int:
    """A check round's party count: one GHZ register of 2..``MAX_GHZ_QUTRITS`` qutrits."""
    num_parties = _integer(num_parties, ConfigInvalid, "num_parties")
    if not 2 <= num_parties <= MAX_GHZ_QUTRITS:
        raise ConfigInvalid(f"a check round needs 2..{MAX_GHZ_QUTRITS} parties, got {num_parties}")
    return num_parties


def _pairs(registers: np.ndarray, index: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rounds of a block by (register ``index[r]``, basis flag ``flags[r]``). Returns each
    distinct pair's register and flag, and each round's pair."""
    pairs, pair = _distinct(index * 2 + flags, 2 * len(registers))
    return registers[pairs // 2], pairs % 2 == 1, pair


def _check_outcomes(
    registers: np.ndarray, index: np.ndarray, fourier: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The check step on a block: in round r every party measures register ``index[r]`` in the
    Fourier basis where ``fourier[r]``, else the computational one, and the joint outcome is drawn
    with ``u[r]``. Returns each round's joint outcome index, whose base-3 digits are the parties'
    trits (``_trits``), and whether the round kept the GHZ correlation (``_passed``).

    Born weights and their cumulative sums are computed once per distinct (register, basis) pair
    (``_joint_weights``), and each round draws against its pair's sums (``core._sample``) by a
    search that gathers no round's row. The step's widest arrays are the P pairs' ``3**n``
    weights, so 2,304 rounds of nine parties with no Eve take a few registers, not a
    ``(2304, 3**9)`` table."""
    flat, turn, pair = _pairs(registers.reshape(len(registers), -1), index, fourier)
    n = registers.ndim - 1
    probs, sums = _joint_weights(flat, turn, n)
    joint, _ = _sample(probs, u, pair, sums)
    return joint, _passed(joint, fourier, n)


def _joint_weights(flat: np.ndarray, turn: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The check step's per-pair part: the Born weights ``(P, 3**n)`` of every joint outcome of the
    flat n-qutrit registers, measured in the Fourier basis where ``turn``, else the computational
    one, and their cumulative sums.

    A computational pair's weights are those of its raw register. Only the Fourier pairs'
    registers are turned: one product per party turns the last qutrit,
    ``(P * 3**(n-1), 3) @ rows.T``, and rotates it to the front, so n turns leave the qutrits in
    order."""
    probs = flat.real**2 + flat.imag**2
    if turn.any():
        turned = flat[turn]
        for _ in range(n):
            turned = (turned.reshape(-1, 3) @ _XI_ROWS.T).reshape(len(turned), -1, 3).transpose(0, 2, 1)
            turned = turned.reshape(len(turned), -1)
        probs[turn] = turned.real**2 + turned.imag**2
    return probs, np.cumsum(probs, axis=1)


@lru_cache(maxsize=None)
def _passes(n: int) -> np.ndarray:
    """``(2, 3**n)``: whether each joint outcome index of n parties keeps the GHZ correlation, in the
    computational basis (row 0: the trits all agree, exactly at the multiples of
    ``(3**n - 1) // 2``, the index of |11...1>) and in the Fourier one (row 1: they sum to 0 mod
    3). Read-only; 1 MiB at twelve parties, 1.6 MiB for every party count."""
    residue = np.zeros(1, dtype=np.int8)  # digit sum mod 3 of each index, one digit more per pass
    for _ in range(n):
        residue = ((residue[:, None] + np.arange(3, dtype=np.int8)) % 3).reshape(-1)
    passes = np.zeros((2, 3**n), dtype=bool)
    passes[0, :: (3**n - 1) // 2] = True
    passes[1] = residue == 0
    return _freeze(passes)


def _passed(joint: np.ndarray, fourier: np.ndarray, n: int) -> np.ndarray:
    """Whether each round's joint outcome index kept the correlation of its basis (``_passes``)."""
    return _passes(n).reshape(-1)[fourier * 3**n + joint]


def _trits(joint: np.ndarray, n: int) -> np.ndarray:
    """Each round's trits ``(R, n)``, the base-3 digits of its joint outcome index; only the
    distinct indices drawn are decoded."""
    joint, kind = _distinct(joint, 3**n)
    return (joint[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3)[kind]


# The correction table is built on first use, so that importing the package
# (every CLI command does) pays neither for it nor for the BLAS buffers that
# validating its operators allocates.
@lru_cache(maxsize=None)
def _recovery_table() -> np.ndarray:
    """``[n, m, L]`` is the correction for Bell outcome (n, m) and helper sum L."""
    table = np.array(
        [[[recovery_operator(BellOutcome(n, m), L).entries for L in range(3)] for m in range(3)] for n in range(3)]
    )
    table.setflags(write=False)
    return table


#: ``(9, 3, 3)``: Bell member k's conjugated row as the block S_k whose row i holds its entries
#: at the secret's digit i, so that ``s @ S_k`` is secret s's row on the dealer's channel qutrit.
_BELL_BLOCKS = _freeze(_BELL_ROWS.reshape(9, 3, 3))
#: ``(18, 9, 9)``: the forms ``Q_k = S_k M S_k^dagger`` as a linear map of the density M. In
#: column k of ``(_BELL_FORMS @ M.reshape(9)).real``, rows 2p and 2p + 1 hold Re Q_k[p] and
#: -Im Q_k[p] (p = 3i + i'), so the ``float64`` view of a secret's outer product ``s_i conj(s_i')``
#: times it gives every Born weight ``Re sum_p outer[p] Q_k[p]`` in one real product.
_BELL_FORMS = _freeze(np.einsum("kij,kIJ,r->iIrkjJ", _BELL_BLOCKS, _BELL_BLOCKS.conj(), [1, 1j]).reshape(18, 9, 9))


def _deal(
    secrets: np.ndarray,
    num_agents: int,
    draw: np.ndarray,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dealer's step: the dealer Bell-measures register b's secret ``secrets[b]`` with its own
    qutrit of a fresh GHZ(N+1) channel, drawing with ``draw[b]`` as ``core._measure`` does.

    No secret ⊗ channel register is built: member k's row absorbs the secret as ``s @ S_k`` and
    meets the bare channel g, ``(3, 3**N)``. Its Born weight ``s Q_k s^dagger`` needs only the
    qutrit's density ``M = g g^dagger``, from pairwise ``np.vdot`` of g's rows (several times
    faster than ``g @ g.conj().T`` on wide channels), so a block's weights are one product of its
    secrets' outer products with the nine forms, and only each drawn row meets the channel. The
    nine rows form a Parseval frame, so the weights sum to 1. The recorded weight, the refusal of
    a branch at ``ZERO_PROB_TOL`` and the normalization come from the kept row's squared norm.
    Returns the outcomes 3n + m, their Born weights and the agents' block, agent a's qutrit on
    axis a - 1.

    ``work`` is three flat complex buffers of at least ``B * 3**N`` elements, into which the step
    then writes its wide per-trial arrays: the outer products and then the secrets' rows into the
    first, the gathered Bell blocks into the second, and the agents' block, which is returned as a
    view, into the third.
    """
    channel = ghz_state(num_agents + 1).amplitudes.reshape(3, -1)
    density = np.empty((3, 3), dtype=np.complex128)
    for i in range(3):
        for j in range(i, 3):
            density[i, j] = np.vdot(channel[j], channel[i])
            density[j, i] = np.conj(density[i, j])
    forms = (_BELL_FORMS @ density.reshape(9)).real
    size = len(secrets)
    first, second, third = work or (None, None, None)
    outer = np.matmul(secrets[:, :, None], secrets.conj()[:, None, :], out=_view(first, (size, 3, 3)))
    probs = outer.reshape(-1, 9).view(np.float64) @ forms
    outcome = draw if draw.dtype.kind in "iu" else _sample(probs, draw)[0]
    # The outcomes lie in 0..8; "clip" skips the temporary copy that "raise" makes with ``out``.
    blocks = _BELL_BLOCKS.take(outcome, axis=0, out=_view(second, (size, 3, 3)), mode="clip")
    rows = np.matmul(secrets[:, None, :], blocks, out=_view(first, (size, 1, 3)))
    kept = np.matmul(rows[:, 0], channel, out=_view(third, (size, channel.shape[1])))
    weight = _weights(kept)
    if weight.min() <= ZERO_PROB_TOL:
        raise ZeroProbabilityBranchSampled(f"dealt branch has probability {float(weight.min())!r}")
    return outcome, weight, _normalized(kept, weight).reshape((len(kept),) + (3,) * num_agents)


def _help(
    state: np.ndarray, draws: np.ndarray, work: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """The helpers' step: the i-th helper Fourier-measures qutrit 0 of register b with
    ``draws[b, i]``. Returns each helper's outcomes, the i-th helper's of every register in the
    i-th array, and the block of the qutrits left.

    Which agent holds which qutrit does not matter: the dealt register lies in the span of the
    |kk...k>, so it is symmetric, bit for bit, under every permutation of its qutrits, and each
    helper's measurement keeps it so. Every helper can therefore measure axis 0, whoever helps,
    in any order, and the reconstructing agent holds whatever qutrit is left. ``work`` is
    ``core._contract``'s pair of buffers for every measurement; the block left is a fresh array."""
    outcomes = []
    for draw in draws.T:
        outcome, _, state = _measure(state, (0,), _XI_ROWS, draw, work)
        outcomes.append(outcome)
    return outcomes, state


def _reconstruction_fidelity(
    qutrits: np.ndarray,
    secrets: np.ndarray,
    bell: np.ndarray,
    helper_sum: np.ndarray,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Fidelity ``|<secret|R|q>|^2`` of each register's reconstructing qutrit ``q`` (``(B, 3)``)
    to its secret under the correction R that the Bell outcome and the helper sum select.
    ``work`` is two flat complex buffers of at least 9 B elements, for the gathered corrections
    and the secrets' rows under them."""
    size = len(secrets)
    first, second = work or (None, None)
    corrections = _recovery_table().reshape(27, 3, 3)
    table = corrections.take(3 * bell + helper_sum, axis=0, out=_view(first, (size, 3, 3)), mode="clip")
    rows = np.matmul(secrets.conj()[:, None, :], table, out=_view(second, (size, 1, 3)))
    return np.minimum(1.0, _weights(_contract(rows, qutrits, (0,)))[:, 0])


def _validate_config(cfg: SessionConfig) -> None:
    num_agents = _integer(cfg.num_agents, ConfigInvalid, "num_agents")
    if not 2 <= num_agents <= MAX_AGENTS:
        raise ConfigInvalid(f"num_agents must be in 2..{MAX_AGENTS}, got {num_agents}")
    if not 1 <= _integer(cfg.designated, ConfigInvalid, "designated agent") <= num_agents:
        raise ConfigInvalid(f"designated agent {cfg.designated} outside 1..{num_agents}")
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
    this to enumerate every outcome combination. Each sampled measurement
    draws one uniform from ``default_rng(seed)``, the dealer's first and
    then the helpers' in ascending order; a forced step draws none. The
    reconstructing qutrit is corrected with the recovery table the inside
    kernel uses, the operator that ``reconstruct`` applies.
    """
    _validate_config(cfg)
    helpers = [a for a in range(1, cfg.num_agents + 1) if a != cfg.designated]
    if forced_helpers is not None and len(forced_helpers) != len(helpers):
        raise ConfigInvalid(f"expected {len(helpers)} forced helper outcomes, got {len(forced_helpers)}")
    rng = np.random.default_rng(cfg.seed)
    bell_draw = rng.random(1) if forced_bell is None else np.array([forced_bell.index])
    if forced_helpers is None:
        helper_draws = rng.random((1, len(helpers)))
    else:
        helper_draws = np.array([[_integer(h, ConfigInvalid, "forced helper outcome") % 3 for h in forced_helpers]])

    bell_index, bell_weight, state = _deal(cfg.secret.amplitudes[None, :], cfg.num_agents, bell_draw)
    outcomes, state = _help(state, helper_draws)
    bell = BellOutcome.from_index(int(bell_index[0]))
    helper_outcomes = [XiOutcome(int(outcome[0])) for outcome in outcomes]
    announcements = [Announcement(BELL_RESULT, "alice", bell), Announcement(DESIGNATION, "alice", cfg.designated)]
    announcements += [Announcement(HELPER_RESULT, f"agent_{a}", o) for a, o in zip(helpers, helper_outcomes)]

    correction = _recovery_table()[bell.n, bell.m, HelperSum.from_outcomes(helper_outcomes).L]
    reconstructed = _trusted_state(1, correction @ state[0])
    return Transcript(
        config=cfg,
        announcements=tuple(announcements),
        bell_probability=float(bell_weight[0]),
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
    three-party check to any party count. The round is a one-register call
    of the check step that ``attacks.run_check_rounds`` runs on its blocks;
    its joint outcome takes one uniform from ``rng``.
    """
    if basis not in CHECK_BASES:
        raise ConfigInvalid(f"check basis must be one of {CHECK_BASES}, got {basis!r}")
    channel = _block(ghz_state(_validated_parties(num_parties)))
    joint, passed = _check_outcomes(channel, np.zeros(1, dtype=np.intp), np.array([basis == FOURIER]), rng.random(1))
    return CheckRecord(basis, tuple(_trits(joint, channel.ndim - 1)[0].tolist()), bool(passed[0]))


def _verdict(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> ChannelVerdict:
    """The verdict over rounds given block by block as (computational, Fourier, failed) flags, one
    each per round. A round in neither basis counts in ``total_rounds`` and ``disturbed`` only."""
    rounds = failures = np.zeros(3, dtype=np.int64)
    for computational, fourier, failed in blocks:
        flags = np.stack([np.ones_like(failed), computational, fourier])
        rounds = rounds + np.count_nonzero(flags, axis=1)
        failures = failures + np.count_nonzero(flags & failed, axis=1)
    (total, rounds_c, rounds_f), (fails, fails_c, fails_f) = rounds.tolist(), failures.tolist()
    rate_c, rate_f = (f / r if r else 0.0 for f, r in ((fails_c, rounds_c), (fails_f, rounds_f)))
    return ChannelVerdict(fails > 0, total, rounds_c, fails_c, rate_c, rounds_f, fails_f, rate_f)


def verify_correlations(records: Iterable[CheckRecord]) -> ChannelVerdict:
    """Compare-and-abort verdict over recorded check rounds: their flags, tallied by ``_verdict``."""
    records = list(records)
    if not records:
        raise EmptyInput("no check rounds recorded")
    flags = np.array([(r.basis == COMPUTATIONAL, r.basis == FOURIER, not r.passed) for r in records], dtype=bool)
    return _verdict([flags.T])
