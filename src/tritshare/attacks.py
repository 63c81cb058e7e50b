"""Eavesdropper models and the Monte Carlo experiments that measure them.

The outside attacker intercepts transit qutrits during distribution,
measures them, and forwards the collapsed basis state. The inside
attacker is a dishonest agent who captures another agent's channel
qutrit and substitutes a fake one; the dealer's random designation then
decides whether the theft pays off silently or shows up when the
reconstruction is compared against the secret.

The experiments run blocks of trials and draw from one ``Philox`` stream
keyed by the seed. An inside block holds up to ``_BLOCK`` = 2,304
trials, so a 1,000-trial experiment is one block. The register the
dealer's step leaves, sum_k a_k |kk>, has three coefficients, so the
block holds each trial's as a column of a trial-last ``(3, B)`` array and
every step runs along rows of B trials. Its constants come from the
channel's three span coefficients c_k (``_span_tables``): the dealer's nine
Bell weights are one real form in the secret's three moduli,
``|S_k|^2 @ |c|^2``, and the drawn member's row and the correction are
gathers from monomial tables. A helper's three outcomes weigh 1/3 each on
any span register, so it draws its outcome straight from its uniform and
turns a by unit phases. Its widest arrays are the nine Bell weights per
trial; each step allocates its own and writes in place where it can.

A check round's register is on the GHZ span too: one of six span states,
``c_k w^{qk}`` or ``e_j``, on the parties nobody intercepted, times Eve's
resent member on each target (``protocol._span_model``). Its draws depend
only on its configuration: the party count, Eve's target axes, the bases
her policy draws from and the check bases, which ``_check_blocks``
resolves once per run, after validation. Every intercept is a three-way
draw from Eve's table, the same on both routes, and each check block
holds ``_BLOCK`` rounds. One rule picks a run's route: where its complete
tree, ``(3 * |Eve's bases|)**t`` leaves of ``3**n`` joint outcomes under t
targets, fits ``_TABLE_WEIGHTS`` joint weights per check basis, the party
walk (``protocol._walk``) is evaluated over every leaf's digit strings
once, into joint weights, their cumulative sums and pass flags kept
read-only in a small cache (``_check_tables``), and each round draws its
joint outcome from its leaf's row (``core._sample``). Elsewhere the check step draws each round's digits
one by one from its span state and members (``protocol._check_step``),
and no array of ``3**n`` amplitudes or weights is built. Both routes
draw the joint outcome that the round's uniform draws over the ``3**n``
outcomes in index order, except where it lies within the last bits of a
boundary. ``check-channel`` tallies each block's flags into its verdict
(``protocol._verdict``) and keeps no record per round; only
``run_check_rounds`` decodes its rounds' joint outcomes into trits.
Every trial consumes the same number K of uniform doubles, a multiple of
the four doubles Philox yields per counter step, so trial ``t`` reads the
K uniforms at counter ``t * K / 4``. Results are therefore identical for
any block size, and trial ``t`` alone can be replayed from a generator
advanced by ``t * K / 4``. One driver, ``_uniform_blocks``, validates a
run's length, opens its stream and cuts it into blocks for both
experiments. The inside kernel plays the sharing steps of ``protocol``
(the dealer's, then the helpers') on the dealt register's span
coefficients, and draws what the dense steps draw except where a uniform
lies within the last bits of a boundary. The
fake is an unentangled qutrit, so it never joins the register: the victim
measures it, or reconstructs on it, alone. ``protocol.channel_check_round``
is the check step on one honest round; ``outside_intercept_resend`` takes
any register, so it runs the dense engine's measurement and stays an
independent reference for the intercept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import ZERO_PROB_TOL, PureState, _axes, _block, _freeze, _integer, _measure, _sample, _trusted_state, tensor
from .errors import ConfigInvalid, LabelOutOfRange, SelfCapture, ZeroProbabilityBranchSampled
from .operators import _COMPUTATIONAL_ROWS, _XI_ROWS, BellOutcome, ghz_state
from .protocol import (
    _BELL_BLOCKS, CHECK_BASES, COMPUTATIONAL, FOURIER, CheckRecord, _check_step, _passes, _recovery_table,
    _span_model, _trits, _validated_parties, _validated_seed, _walk,
)

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

#: Inside trials and check rounds simulated together as one array. Smaller blocks are bound by
#: numpy's per-call overhead; larger ones raise an experiment's peak memory. A full inside block's
#: widest arrays are its nine Bell weights per trial (8 B each, 162 KiB), and a warm 1,000-trial
#: experiment's traced peak is 372 KiB. Traced peaks of a 2,304-round check block once its tables
#: are built: 225 KiB at three parties under two intercepts, 114 KiB at nine parties with no Eve;
#: at twelve, digit by digit, 414 KiB with no Eve and 669 KiB with every transit qutrit targeted
#: (2 cores, numpy 2.4).
_BLOCK = 2304
#: Joint weights per check basis that a configuration's tables may hold. A check run whose complete
#: tree fits, ``(3 * |Eve's bases|)**t * 3**n`` joint outcomes under t targets, draws from tables
#: built once (``_check_tables``); elsewhere its rounds are drawn digit by digit. That is its only
#: job: every check block holds ``_BLOCK`` rounds, and the draws are the same on either route.
_TABLE_WEIGHTS = 20_736

# Columns of an inside trial's uniforms: six for the Haar secret, then the
# designation, the Bell outcome, the two Fourier outcomes and the
# single-copy comparison. The twelfth only fills the last Philox step.
_INSIDE_UNIFORMS = 12
_U_DESIGNATE, _U_BELL, _U_FIRST, _U_SECOND, _U_COMPARE = 6, 7, 8, 9, 10


@dataclass(frozen=True)
class OutsideAttack:
    """Intercept-resend on chosen transit qutrits with a per-qutrit basis policy."""

    target_qutrits: tuple[int, ...]
    measure_basis_policy: str = ALWAYS_COMPUTATIONAL

    def __post_init__(self) -> None:
        targets = tuple(sorted(_integer(t, LabelOutOfRange, "target qutrit") for t in self.target_qutrits))
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
        if self.fake_state is not None and (
            not isinstance(self.fake_state, PureState) or self.fake_state.num_qutrits != 1
        ):
            raise ConfigInvalid("the fake qutrit is a single-qutrit PureState or None")


@dataclass(frozen=True)
class AttackStats:
    """Aggregate Monte Carlo counters with their per-trial rates."""

    trials: int = field(metadata={"minimum": 1})
    attacker_successes: int
    detections: int
    success_rate: float
    detection_rate: float
    seed: int


def outside_intercept_resend(state: PureState, label: int, basis: str, rng: np.random.Generator) -> PureState:
    """Measure one transit qutrit in the given basis and forward the observed basis state:
    the Lüders projection onto the member that fired, renormalized. It takes any register, so it
    runs the dense engine's measurement (``core._measure``) and puts the member back on the
    qutrit's axis, independently of the check kernel's span model; it draws one uniform from
    ``rng``."""
    (axis,) = _axes(state, (label,), outside=LabelOutOfRange)
    if basis not in CHECK_BASES:
        raise ConfigInvalid(f"basis must be one of {CHECK_BASES}, got {basis!r}")
    rows = _XI_ROWS if basis == FOURIER else _COMPUTATIONAL_ROWS
    outcome, _, kept = _measure(_block(state), (axis,), rows, rng.random(1))
    resent = kept.reshape(3**axis, 1, -1) * rows[outcome[0]].conj()[:, None]
    return _trusted_state(state.num_qutrits, resent)


# ---------------------------------------------------------------------------
# block kernels


def _stream(seed: int) -> np.random.Generator:
    """The experiment's one counter-based stream, keyed by the seed."""
    return np.random.Generator(np.random.Philox(key=_validated_seed(seed)))


def _haar_secrets(u: np.ndarray) -> np.ndarray:
    """Haar-random qutrits from six uniforms per row: three Box-Muller complex Gaussians, normalized.
    Each Gaussian's parts ``r cos(t)`` and ``r sin(t)`` are written into the ``float64`` view: the
    same values as ``r * np.exp(1j * t)``, without its complex exponential. The ``(B, 3)`` result
    is the transpose of a ``(3, B)`` array, the layout the inside kernel works in."""
    gaussians = np.empty((3, len(u)), dtype=np.complex128)
    parts = gaussians.view(np.float64).reshape(3, len(u), 2)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0:6:2].T))
    angle = 2 * np.pi * u[:, 1:6:2].T
    np.multiply(radius, np.cos(angle), out=parts[:, :, 0])
    np.multiply(radius, np.sin(angle), out=parts[:, :, 1])
    gaussians /= np.linalg.norm(gaussians, axis=0)
    return gaussians.T


class _InsideBlock(NamedTuple):
    """Per-trial arrays of a block of inside trials."""

    bell: np.ndarray  # Bell outcome index 3n + m
    announced: np.ndarray  # Fourier outcome the helper announces
    captured: np.ndarray  # the designated attacker's outcome on the captured qutrit, -1 if none
    fidelity: np.ndarray  # the designated agent's reconstruction against the secret


class _SpanTables(NamedTuple):
    """The inside kernel's constants, on the dealt register's three coefficients on the GHZ span
    (``_span_tables``). A monomial gather ``(column, entry)`` holds ``(3, K)`` tables: row i of
    matrix k times a column x is ``entry[i, k] * x[column[i, k]]``."""

    bell_forms: np.ndarray  # (9, 3): Bell outcome k's weight as a form in the secret's moduli |s_i|^2
    bell: tuple[np.ndarray, np.ndarray]  # member k's row on the dealer's qutrit, times the channel's coefficients
    phases: np.ndarray  # (3, 3): column l is sqrt(3) times the Fourier row l, the helper's unit factors on a_k
    correction: tuple[np.ndarray, np.ndarray]  # the correction for Bell outcome b and helper sum L, at 3b + L


def _monomial(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(K, 3, 3)`` monomial matrices, one nonzero entry in each row and each column, as the
    gather ``(column, entry)`` of ``_SpanTables``; any other matrix is refused."""
    nonzero = matrices != 0
    if not ((nonzero.sum(axis=1) == 1).all() and (nonzero.sum(axis=2) == 1).all()):
        raise ValueError("the inside kernel's span step needs monomial matrices")
    column = np.argmax(nonzero, axis=2)
    entry = np.take_along_axis(matrices, column[:, :, None], axis=2)[:, :, 0]
    return _freeze(np.ascontiguousarray(column.T)), _freeze(np.ascontiguousarray(entry.T))


# Built on first use, as the correction table it reads is.
@lru_cache(maxsize=None)
def _span_tables() -> _SpanTables:
    """The inside kernel's tables, from the channel's three span coefficients ``c_k`` (read as
    ``protocol._span_model`` reads them), the Bell blocks, the Fourier rows and the correction
    table. The channel holds the agents' qutrits at |kk> with coefficient ``c_k`` when the
    dealer's qutrit reads k, so Bell member b leaves ``(s @ S_b)_k c_k`` on each |kk>. Each block
    S_b is monomial, so that weight is ``sum_i |s_i|^2 sum_k |S_b[i, k]|^2 |c_k|^2``: the forms
    ``|S|^2 @ |c|^2`` in the secret's moduli, exact for every channel on the span."""
    c = ghz_state(1).amplitudes
    column, entry = _monomial(_BELL_BLOCKS.transpose(0, 2, 1))
    return _SpanTables(
        bell_forms=_freeze((_BELL_BLOCKS.real**2 + _BELL_BLOCKS.imag**2) @ (c.real**2 + c.imag**2)),
        bell=(column, _freeze(entry * c[:, None])),
        phases=_freeze(np.ascontiguousarray(np.sqrt(3) * _XI_ROWS.T)),
        correction=_monomial(_recovery_table().reshape(27, 3, 3)),
    )


def _gather(table: tuple[np.ndarray, np.ndarray], index: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix ``index[b]`` of a monomial gather (``_SpanTables``) times column b of ``x``, ``(3, B)``.
    The entries are taken through flat indices, about twice as fast as ``np.take_along_axis``."""
    column, entry = table
    flat = column.take(index, axis=1)
    flat *= x.shape[1]
    flat += np.arange(x.shape[1])
    product = x.reshape(-1).take(flat)
    product *= entry.take(index, axis=1)
    return product


def _span_deal(tables: _SpanTables, s: np.ndarray, draw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dealer's step (``protocol._deal``) on the span: draws each trial's Bell outcome from its
    nine weights, one real form in its secret's moduli, and returns the outcomes and the dealt
    coefficients a, normalized in place by one real multiply through their ``float64`` view."""
    bell, _ = _sample((tables.bell_forms @ (s.real**2 + s.imag**2)).T, draw)
    dealt = _gather(tables.bell, bell, s)
    weight = (dealt.real**2 + dealt.imag**2).sum(axis=0)
    if weight.min() <= ZERO_PROB_TOL:
        raise ZeroProbabilityBranchSampled(f"dealt branch has probability {float(weight.min())!r}")
    dealt.view(np.float64).reshape(3, -1, 2)[...] *= (1.0 / np.sqrt(weight))[:, None]
    return bell, dealt


def _span_help(tables: _SpanTables, dealt: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """One helper's step (``protocol._help``) on the span. On sum_k a_k |kk> outcome l has weight
    ``sum_k |a_k|^2 / 3 = 1/3`` whatever a is, so it is drawn as ``core._sample`` draws on exact
    thirds: ``int(3 u)`` steps at the doubles 1/3 and 2/3, where those sums do. The other qutrit
    is left in ``xi_l * a``, normalized: a times the unit phases ``sqrt(3) conj(xi_l)``, which
    overwrites ``dealt``. Returns the outcomes."""
    outcome = (3 * draw).astype(np.intp)
    dealt *= tables.phases.take(outcome, axis=1)
    return outcome


def _span_fidelity(tables: _SpanTables, s: np.ndarray, correction: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``|<s|R q>|^2`` of each trial's qutrit q under the correction R at index ``3 b + L``.
    It is taken as ``|sum_i s_i conj((R q)_i)|^2``, in place and summed over the three rows: a
    third of the time of ``np.vecdot(s, R q, axis=0)``, which runs its length-3 loop per trial."""
    overlap = _gather(tables.correction, correction, kept)
    np.conjugate(overlap, out=overlap)
    overlap *= s
    overlap = overlap.sum(axis=0)
    return np.minimum(1.0, overlap.real**2 + overlap.imag**2)


def _inside_block(secrets: np.ndarray, designated: np.ndarray, attack: InsideAttack, u: np.ndarray) -> _InsideBlock:
    """Play a block of tampered three-party sessions.

    ``secrets`` is ``(B, 3)``, ``designated`` holds agent 1 or 2 per
    trial and ``u`` the trials' ``(B, _INSIDE_UNIFORMS)`` uniforms. The
    dealer's step, the helpers' step and the fidelity step each run once
    per block, whatever the designations.

    The steps are the sharing steps of ``protocol`` (``_deal``, ``_help``)
    on the dealt register's three coefficients a_k on the span of |00>,
    |11> and |22>, each a trial-last ``(3, B)`` array, so that every
    operation runs along rows of B trials. The dealer's nine Bell weights
    are one real form in the secret's three moduli, and the drawn
    member's row is a gather from a monomial table; a helper's outcomes
    weigh 1/3 each, and it keeps ``xi_l * a``, normalized; the correction
    is a monomial gather too, and the fidelity one sum over three rows.

    After the capture the attacker holds both qutrits of the dealt
    register, and the victim holds the fake, an unentangled qutrit that
    never joins the register. The two dealt qutrits are alike (see
    ``protocol._help``), so one measurement serves both cases.
    Where the attacker is designated, it is their private Fourier
    measurement of the captured qutrit: they recover the secret on their
    own and ignore the victim's announcement, which comes off the fake.
    Elsewhere it is the attacker's helper measurement of their own qutrit,
    and the victim reconstructs on the fake, which is what the dealer's
    comparison sees.
    """
    tables = _span_tables()
    s = np.ascontiguousarray(secrets.T)
    bell, kept = _span_deal(tables, s, u[:, _U_BELL])
    if attack.fake_state is None:
        outcome = _span_help(tables, kept, u[:, _U_FIRST])
        captured, announced = np.full(len(u), -1, dtype=np.intp), outcome
    else:
        theft = designated == attack.dishonest_agent
        outcome = _span_help(tables, kept, np.where(theft, u[:, _U_SECOND], u[:, _U_FIRST]))
        fake = attack.fake_state.amplitudes
        fake_weights = np.broadcast_to(np.abs(_XI_ROWS @ fake) ** 2, (len(u), 3))
        announced = np.where(theft, _sample(fake_weights, u[:, _U_FIRST])[0], outcome)
        captured = np.where(theft, outcome, -1)
        np.copyto(kept, fake[:, None], where=~theft)
    fid = _span_fidelity(tables, s, 3 * bell + outcome, kept)
    return _InsideBlock(bell, announced, captured, fid)


def _inside_inputs(u: np.ndarray, force_designate: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's Haar secret and designated agent, drawn from its uniforms."""
    if force_designate is not None:
        designated = np.full(len(u), force_designate)
    else:
        designated = np.where(u[:, _U_DESIGNATE] < 0.5, 1, 2)
    return _haar_secrets(u), designated


def _flags(u: np.ndarray, bases: tuple[bool, ...]) -> np.ndarray:
    """Each round's position in ``bases``, the basis flags (True for Fourier) that a per-round policy
    draws from: a 50/50 draw between ``(False, True)``, else 0. Position p's flag ``bases[p]`` is
    ``p ^ bases[0]``, as the bases are ``(False,)``, ``(True,)`` or ``(False, True)``."""
    return u >= 0.5 if len(bases) == 2 else np.zeros(len(u), dtype=bool)


#: A check run's configuration, which alone decides its draws: the party count, Eve's target axes,
#: the bases her policy draws from (none without Eve) and the check bases (``_check_blocks``).
_Config = tuple[int, tuple[int, ...], tuple[bool, ...], tuple[bool, ...]]


#: Configurations whose tables stay cached. A configuration's tables hold at most ``_TABLE_WEIGHTS``
#: weights per check basis, so its joint weights and sums take at most 2 check bases
#: x 20,736 x 16 B = 648 KiB, and its pass flags 2 x 3**n B, 38 KiB at nine parties; the cache thus
#: holds at most 16 x 686 KiB, 10.7 MiB. At three parties a configuration's tables take 5.1 KiB
#: under one random intercept and 30 KiB under two.
_TABLES = 16


@lru_cache(maxsize=_TABLES)
def _check_tables(
    num_parties: int, axes: tuple[int, ...], eve: tuple[bool, ...], check: tuple[bool, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A configuration's joint tables: the party walk (``protocol._walk``) evaluated over the 3**n
    digit strings of every leaf of its tree, once. A leaf is the mixed-radix number of Eve's codes
    ``3 * position + outcome`` (position in ``eve``, ``_flags``), target by target; row
    ``leaf * len(check) + position`` holds the weight of each joint outcome in the check basis at
    that position of ``check``, the product of its digits' weights in their rows. Returns those
    weights, their cumulative sums and the pass flags ``(len(check), 3**n)`` of every joint
    outcome. Leaves that take a zero-weight outcome are never drawn. The arrays are read-only and
    shared by every thread."""
    rows, following = _span_model().digits[0], _span_model().eve[2]
    radix = 3 * len(eve)
    leaf = np.arange(radix ** len(axes))
    state, members = np.zeros(len(leaf), dtype=np.intp), np.empty((len(axes), len(leaf)), dtype=np.intp)
    for i in range(len(axes)):
        code = leaf // radix ** (len(axes) - 1 - i) % radix
        basis = np.array(eve)[code // 3]
        state = following[6 * basis + state, code % 3]
        members[i] = 3 * basis + code % 3
    fourier = np.tile(check, len(leaf))[:, None]
    digits = _trits(np.arange(3**num_parties), num_parties).T
    weights = np.ones((len(fourier), 3**num_parties))

    def weigh(axis: int, row: np.ndarray) -> np.ndarray:
        weights[...] *= rows[row, digits[axis]]
        return digits[axis]

    state, members = np.repeat(state, len(check))[:, None], np.repeat(members, len(check), axis=1)[:, :, None]
    _walk(num_parties, axes, state, members, fourier, weigh)
    passes = _passes(digits, np.array(check)[:, None])
    return _freeze(weights), _freeze(np.cumsum(weights, axis=1)), _freeze(passes)


def _check_block(
    u: np.ndarray, config: _Config, tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play a block of check rounds of ``config``; return per round the Fourier-basis flag, the
    parties' joint outcome index (its base-3 digits are their trits, ``protocol._trits``) and the
    verdict. Round r reads ``u[r]``: its check basis, Eve's basis and outcome on each target, then
    its joint outcome. Every round starts in the channel's span state, and each intercept draws
    from Eve's table (``protocol._span_model``). With the configuration's ``tables`` the joint
    outcome is drawn from the row of the round's leaf; with None the check step draws it digit by
    digit from the round's span state and members (``protocol._check_step``)."""
    num_parties, axes, eve, check = config
    position = _flags(u[:, 0], check)
    fourier = position ^ check[0]
    weights, sums, following = _span_model().eve
    state, leaf = 0, 0  # the channel's state, q = 0, and the tree's root
    members = np.empty((len(axes), len(u)), dtype=np.intp) if tables is None else None
    for i, (basis, drawn) in enumerate(zip(u[:, 1 : 1 + 2 * len(axes) : 2].T, u[:, 2::2].T)):
        flag = _flags(basis, eve)  # Eve's basis is flag ^ eve[0], as flag is False where she has one
        row = 6 * flag + (state + 6 * eve[0])
        outcome, _ = _sample(weights, drawn, row, sums)
        if tables is None:
            members[i] = 3 * (flag + eve[0]) + outcome
        else:
            leaf = leaf * 3 * len(eve) + 3 * flag + outcome
        if tables is None or i + 1 < len(axes):  # the tables need a state only for a next intercept
            state = following.take(3 * row + outcome)
    last = u[:, 1 + 2 * len(axes)]
    if tables is None:
        digits, passed = _check_step(num_parties, axes, state, members, fourier, last)
        return fourier, 3 ** np.arange(num_parties - 1, -1, -1) @ digits, passed
    joint_weights, joint_sums, passes = tables
    joint, _ = _sample(joint_weights, last, leaf * len(check) + position, joint_sums)
    return fourier, joint, passes.reshape(-1)[position * 3**num_parties + joint]


# ---------------------------------------------------------------------------
# experiments


def _uniform_blocks(count: int, name: str, unit: str, seed: int, step: int, uniforms: int) -> Iterator[np.ndarray]:
    """Validate a run of ``count`` trials (``name`` as the caller spells the argument, one ``unit``
    each) and return its blocks' ``(size, uniforms)`` draws, in trial order, from the seed's stream:
    ``step`` trials a block, the last one what is left."""
    count = _integer(count, ConfigInvalid, name)
    if count < 1:
        raise ConfigInvalid(f"at least one {unit} is required")
    rng = _stream(seed)
    return (rng.random((min(step, count - start), uniforms)) for start in range(0, count, step))


def _attack_stats(blocks: Iterable[tuple[int, int, int]], seed: int) -> AttackStats:
    """The run's ``AttackStats``: the sums of its blocks' (trials, successes, detections) and their rates."""
    trials, successes, detections = (sum(column) for column in zip(*blocks))
    return AttackStats(trials, successes, detections, successes / trials, detections / trials, int(seed))


def _agent(value: int, name: str) -> int:
    """``value`` as one of the three-party setting's agents, 1 or 2."""
    value = _integer(value, ConfigInvalid, name)
    if value not in (1, 2):
        raise ConfigInvalid(f"{name} must be agent 1 or 2")
    return value


def _check_blocks(
    count: int, name: str, unit: str, attack: OutsideAttack | None, check_basis_policy: str, seed: int, num_parties: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Validate a run of check rounds, resolve its configuration once and return ``_check_block``'s
    arrays block by block, ``_BLOCK`` rounds a block. One rule decides the route (see
    ``_TABLE_WEIGHTS``); a refused run builds no tables."""
    if check_basis_policy not in CHECK_BASES + (RANDOM_CHECK_BASIS,):
        raise ConfigInvalid(f"unknown check basis policy {check_basis_policy!r}")
    num_parties = _validated_parties(num_parties)
    axes, eve = (), ()
    if attack is not None:
        for target in attack.target_qutrits:
            if not 2 <= target <= num_parties:
                raise LabelOutOfRange(f"target {target} is not a transit qutrit (2..{num_parties})")
        axes = tuple(target - 1 for target in attack.target_qutrits)
        policy = attack.measure_basis_policy
        eve = (False, True) if policy == RANDOM_PER_QUTRIT else (policy == ALWAYS_FOURIER,)
    check = (False, True) if check_basis_policy == RANDOM_CHECK_BASIS else (check_basis_policy == FOURIER,)
    fits = (3 * len(eve)) ** len(axes) * 3**num_parties <= _TABLE_WEIGHTS
    # a round's uniforms (see ``_check_block``), in whole Philox steps
    blocks = _uniform_blocks(count, name, unit, seed, _BLOCK, -(-(2 + 2 * len(axes)) // 4) * 4)
    config = (num_parties, axes, eve, check)
    tables = _check_tables(*config) if fits else None
    return (_check_block(u, config, tables) for u in blocks)


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
    blocks = _check_blocks(rounds, "rounds", "check round", attack, check_basis_policy, seed, num_parties)
    return [
        CheckRecord(FOURIER if f else COMPUTATIONAL, tuple(t), p)
        for fourier, joint, passed in blocks
        for f, t, p in zip(fourier.tolist(), _trits(joint, num_parties).tolist(), passed.tolist())
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
    blocks = _check_blocks(trials, "trials", "trial", attack, check_basis_policy, seed, num_parties)
    return _attack_stats(((len(passed), 0, int(np.count_nonzero(~passed))) for _, _, passed in blocks), seed)


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
    agent = _agent(attack.dishonest_agent, "dishonest agent")
    designated = _agent(designated, "designated agent")
    if secret.num_qutrits != 1:
        raise ConfigInvalid("the shared secret is a single-qutrit state")
    u = rng.random((1, _INSIDE_UNIFORMS))
    block = _inside_block(secret.amplitudes[None, :], np.array([designated]), attack, u)
    return InsideTrialOutcome(
        BellOutcome.from_index(int(block.bell[0])),
        designated,
        designated == agent,
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
    blocks = _uniform_blocks(trials, "trials", "trial", seed, _BLOCK, _INSIDE_UNIFORMS)
    if comparison_mode not in COMPARISON_MODES:
        raise ConfigInvalid(f"comparison mode must be one of {COMPARISON_MODES}")
    if force_designate is not None:
        force_designate = _agent(force_designate, "forced designation")
    agent = _agent(attack.dishonest_agent, "dishonest agent")

    def counts(u: np.ndarray) -> tuple[int, int, int]:
        secrets, designated = _inside_inputs(u, force_designate)
        fid = _inside_block(secrets, designated, attack, u).fidelity
        compared = designated != agent
        if comparison_mode == EXACT:
            flagged = fid[compared] < EXACT_COMPARISON_THRESHOLD
        else:
            flagged = u[compared, _U_COMPARE] < 1.0 - fid[compared]
        return len(u), len(u) - int(np.count_nonzero(compared)), int(np.count_nonzero(flagged))

    return _attack_stats(map(counts, blocks), seed)
