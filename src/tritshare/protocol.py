"""Sharing-session choreography and GHZ channel verification.

A session runs two steps on its one register: the dealer's Bell
measurement of the secret with its qutrit of a fresh GHZ channel
(``_deal``), then the helpers' Fourier measurements (``_help``). The
dealer's Bell rows absorb the secret first, so the dealer measures the
bare channel and no secret-and-channel register is built. Its nine Born
weights come from the 3 x 3 reduced density of the dealer's channel
qutrit, and only the drawn row meets the channel. The dealt register is
symmetric under every permutation of the agents' qutrits, so the helpers
measure its qutrits in turn and nobody tracks who holds which.
The inside attack's kernel (``attacks._inside_block``) plays the same
steps on the three coefficients the dealt register has on the GHZ span,
sum_k a_k |k...k>. It needs no density: its constants come from the
channel's span coefficients c_k, which ``_span_model`` reads the same way,
the Bell blocks and the correction table, and a helper's outcomes weigh
1/3 each on any span register. It draws what these steps draw except
where a uniform lies within the last bits of a boundary. Sessions keep
the dense steps until the session benchmark can judge a faster session
path (ROADMAP, item 1); the two paths then meet again on the span.
Check rounds consume dedicated GHZ copies and feed a compare-and-abort
verdict. A check register stays on the span as well: one of six span
states on the parties nobody intercepted, ``c_k w^{qk}`` or ``e_j``, times
the basis member Eve resent on each target (``_span_model``). The check
step walks the parties in order (``_walk``): each party's digit is
drawn from one of eight three-wide rows, chosen by the span state, the
members and the digits before it, so no register of 3^n amplitudes is
built. ``attacks._check_tables`` evaluates the same walk over every digit
string of a small configuration, once, and draws from the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    ZERO_PROB_TOL,
    PureState,
    _cumulative,
    _freeze,
    _Guide,
    _integer,
    _measure,
    _normalized,
    _sample,
    _trusted_state,
    _weights,
    apply_single,
    fidelity,
)
from .errors import ConfigInvalid, DimensionMismatch, EmptyInput, ZeroProbabilityBranchSampled
from .operators import (
    _BELL_ROWS,
    _COMPUTATIONAL_ROWS,
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


class _SpanModel(NamedTuple):
    """The check kernel's constants (``_span_model``). A check register is one of six span states
    on the parties nobody intercepted, ``c_k w^{qk}`` (state q = 0, 1, 2) or ``e_j`` (state 3 + j),
    times Eve's resent member on each target, coded ``3 * fourier + outcome``. Eve's step in basis
    b reads row ``6 b + state`` of ``eve``: the weights of her outcomes, their cumulative sums as a
    guide table (``core._cumulative``) and the state each outcome leaves. A party's digit is drawn
    from one of the eight rows of ``digits`` (``_walk``): their weights, cumulative sums and the sum
    before each digit; its uniforms are rescaled, so its sums are searched."""

    eve: tuple[np.ndarray, _Guide, np.ndarray]  # (12, 3) weights and next states
    digits: tuple[np.ndarray, np.ndarray, np.ndarray]  # (8, 3) each: e_0, e_1, e_2, uniform, |c|^2, last r


#: Rows of ``_SpanModel.digits`` after the three deltas: uniform, the channel's moduli |c_k|^2, and
#: the first of the last untargeted party's three Fourier rows, one per residue.
_UNIFORM, _MODULI, _LAST = 3, 4, 5


def _rows(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights, those at or below ``ZERO_PROB_TOL`` set to zero, and their cumulative sums."""
    weights = np.where(weights > ZERO_PROB_TOL, weights, 0.0)
    return _freeze(weights), _freeze(np.cumsum(weights, axis=1))


# Built on first use, from the channel's coefficients and the two bases' rows.
@lru_cache(maxsize=None)
def _span_model() -> _SpanModel:
    """Eve's table and the digit rows. Eve's weights on a state in basis b are ``|rows_b|^2``
    applied to the state's moduli, |c|^2 for the three phased states. A computational outcome j
    leaves e_j; a Fourier outcome l turns state q into q - l and leaves e_j as it was.

    A target's digit follows its member alone: a delta where the member's basis is the check
    basis, uniform elsewhere. The untargeted parties read e_j as all j, or all uniform in the
    Fourier basis. From ``c_k w^{qk}``, the first draws |c|^2 in the computational basis and the
    others repeat its digit; in the Fourier basis all but the last are uniform, and the last draws
    ``|<xi_l|c>|^2`` rotated by the residue r = q - (the others' digits) mod 3, at l - r."""
    c = ghz_state(1).amplitudes
    bases = np.stack([_COMPUTATIONAL_ROWS, _XI_ROWS])
    moduli = np.concatenate([np.tile(c.real**2 + c.imag**2, (3, 1)), np.eye(3)])
    eve = moduli @ (bases.real**2 + bases.imag**2).transpose(0, 2, 1)  # (2, 6, 3)
    state, outcome = np.arange(6)[:, None], np.arange(3)
    fourier = np.where(state < 3, (state - outcome) % 3, state)
    following = np.stack([np.broadcast_to(3 + outcome, (6, 3)), fourier])
    last = _weights((_XI_ROWS @ c)[:, None])
    rotated = np.stack([np.roll(last, r) for r in range(3)])
    digits = np.concatenate([np.eye(3), _weights(_XI_ROWS[:, :1])[None], moduli[:1], rotated])
    weights, sums = _rows(digits)
    before = _freeze(np.concatenate([np.zeros((8, 1)), sums[:, :2]], axis=1))
    eve_weights, _ = _rows(eve.reshape(12, 3))
    return _SpanModel(
        (eve_weights, _cumulative(eve_weights), _freeze(following.reshape(12, 3))), (weights, sums, before)
    )


def _walk(
    num_parties: int, axes: tuple[int, ...], state: np.ndarray, members: np.ndarray, fourier: np.ndarray, draw: Callable
) -> None:
    """The party walk of the check step: for each party in order, the row of ``_SpanModel.digits``
    that its digit is drawn from, given the span state, the member codes ``members[i]`` on target
    axis ``axes[i]``, the check basis (Fourier where ``fourier``) and the digits before it, which
    ``draw(axis, row)`` returns. A target's row follows its member alone. Party 1, whom no one
    targets, draws from e_j or |c|^2 in the computational basis, and the other untargeted parties
    repeat its digit; in the Fourier basis they are uniform, except that the last one draws from
    the row of the residue of the span state less their digits. The arguments broadcast."""
    span = [axis for axis in range(num_parties) if axis not in axes]
    collapsed, first, residue = state >= 3, None, 0
    for axis in range(num_parties):
        if axis in axes:
            member = members[axes.index(axis)]
            draw(axis, np.where(member // 3 == fourier, member % 3, _UNIFORM))
            continue
        computational = np.where(collapsed, state - 3, _MODULI) if first is None else first
        turned = np.where(collapsed, _UNIFORM, _LAST + (state - residue) % 3) if axis == span[-1] else _UNIFORM
        drawn = draw(axis, np.where(fourier, turned, computational))
        first = drawn if first is None else first
        residue = residue + drawn


def _passes(digits: np.ndarray, fourier: np.ndarray) -> np.ndarray:
    """Whether the parties' digits ``(n, ...)`` keep the GHZ correlation of their basis: all equal in
    the computational basis, summing to 0 mod 3 in the Fourier one."""
    return np.where(fourier, digits.sum(axis=0) % 3 == 0, (digits == digits[0]).all(axis=0))


def _check_step(
    num_parties: int, axes: tuple[int, ...], state: np.ndarray, members: np.ndarray, fourier: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The check step on R rounds, digit by digit: round r's register is span state ``state[r]`` (or
    ``state``, 0 for the channel, in every round) with member ``members[i, r]`` on target axis
    ``axes[i]``, and every party measures its qutrit in
    the Fourier basis where ``fourier[r]``, else the computational one. Party 1 draws first with
    ``u[r]``, which each digit then rescales into its own interval, so the parties' digits are the
    joint outcome that ``u[r]`` draws over the 3**n outcomes in index order, as a search over their
    cumulative sums finds it except where a uniform lies within the last bits of a boundary.
    Returns the digits ``(n, R)`` and whether each round kept the GHZ correlation."""
    weights, sums, before = _span_model().digits
    digits = np.empty((num_parties, len(u)), dtype=np.intp)

    def draw(axis: int, row: np.ndarray) -> np.ndarray:
        nonlocal u
        digits[axis], weight = _sample(weights, u, row, sums)
        u = (u - before[row, digits[axis]]) / weight
        return digits[axis]

    _walk(num_parties, axes, state, members, fourier, draw)
    return digits, _passes(digits, fourier)


def _trits(joint: np.ndarray, n: int) -> np.ndarray:
    """Each round's trits ``(R, n)``, the base-3 digits of its joint outcome index."""
    return joint[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3


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


def _dealer_forms(channel: np.ndarray) -> np.ndarray:
    """``(18, 9)``: the dealer's Born forms on the channel g, ``(3, 3**N)`` with the dealer's qutrit
    first. The qutrit's density ``M = g g^dagger`` comes from pairwise ``np.vdot`` of g's rows
    (several times faster than ``g @ g.conj().T`` on wide channels) and passes through
    ``_BELL_FORMS``, so the ``float64`` view of a secret's outer product times the forms gives its
    nine Bell weights."""
    density = np.empty((3, 3), dtype=np.complex128)
    for i in range(3):
        for j in range(i, 3):
            density[i, j] = np.vdot(channel[j], channel[i])
            density[j, i] = np.conj(density[i, j])
    return (_BELL_FORMS @ density.reshape(9)).real


def _deal(secrets: np.ndarray, num_agents: int, draw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dealer's step: the dealer Bell-measures register b's secret ``secrets[b]`` with its own
    qutrit of a fresh GHZ(N+1) channel, drawing with ``draw[b]`` as ``core._measure`` does.

    No secret ⊗ channel register is built: member k's row absorbs the secret as ``s @ S_k`` and
    meets the bare channel g, ``(3, 3**N)``. Its Born weight ``s Q_k s^dagger`` needs only the
    qutrit's density (``_dealer_forms``), so a block's weights are one product of its secrets'
    outer products with the nine forms, and only each drawn row meets the channel. The nine rows
    form a Parseval frame, so the weights sum to 1. The recorded weight, the refusal of a branch
    at ``ZERO_PROB_TOL`` and the normalization come from the kept row's squared norm. Returns the
    outcomes 3n + m, their Born weights and the agents' block, agent a's qutrit on axis a - 1.
    """
    channel = ghz_state(num_agents + 1).amplitudes.reshape(3, -1)
    outer = secrets[:, :, None] @ secrets.conj()[:, None, :]
    probs = outer.reshape(-1, 9).view(np.float64) @ _dealer_forms(channel)
    outcome = draw if draw.dtype.kind in "iu" else _sample(probs, draw)[0]
    rows = secrets[:, None, :] @ _BELL_BLOCKS[outcome]
    kept = rows[:, 0] @ channel
    weight = _weights(kept)
    if weight.min() <= ZERO_PROB_TOL:
        raise ZeroProbabilityBranchSampled(f"dealt branch has probability {float(weight.min())!r}")
    return outcome, weight, _normalized(kept, weight).reshape((len(kept),) + (3,) * num_agents)


def _help(state: np.ndarray, draws: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The helpers' step: the i-th helper Fourier-measures qutrit 0 of register b with
    ``draws[b, i]``. Returns each helper's outcomes, the i-th helper's of every register in the
    i-th array, and the block of the qutrits left.

    Which agent holds which qutrit does not matter: the dealt register lies in the span of the
    |kk...k>, so it is symmetric, bit for bit, under every permutation of its qutrits, and each
    helper's measurement keeps it so. Every helper can therefore measure axis 0, whoever helps,
    in any order, and the reconstructing agent holds whatever qutrit is left."""
    outcomes = []
    for draw in draws.T:
        outcome, _, state = _measure(state, (0,), _XI_ROWS, draw)
        outcomes.append(outcome)
    return outcomes, state


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
    three-party check to any party count. The round is a one-round call of
    the check step (``_check_step``) on the GHZ span state, which
    ``attacks.run_check_rounds`` runs where a configuration's tables do not
    fit; its joint outcome takes one uniform from ``rng``.
    """
    if basis not in CHECK_BASES:
        raise ConfigInvalid(f"check basis must be one of {CHECK_BASES}, got {basis!r}")
    num_parties = _validated_parties(num_parties)
    digits, passed = _check_step(num_parties, (), 0, np.empty((0, 1)), np.array([basis == FOURIER]), rng.random(1))
    return CheckRecord(basis, tuple(digits[:, 0].tolist()), bool(passed[0]))


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
