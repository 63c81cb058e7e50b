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
every step runs along rows of B trials: the dealer's nine Bell weights are
one real form in the secret's features, the drawn member's row and the
correction are gathers from monomial tables built once
(``_span_tables``), and a helper's weights are ``|xi_l|^2 @ |a|^2``. Its
widest arrays are the nine Bell features and weights per trial; each
step allocates its own and writes in place where it can. The check
blocks run ``core``'s batched engine, the one every ``PureState``
operation runs on. A check round's draws depend only on its configuration:
the party count, Eve's target axes, the bases her policy draws from and
the check bases, which ``_check_blocks`` resolves once per run, after
validation. Each intercept and the check step have two parts, a per-pair
part, the Born weights and cumulative sums of a (register, basis) pair
and, for an intercept, the registers Eve resends, and a per-round draw
against the round's pair's sums (``core._sample``). One budget rule
picks a run's route and block size: where its complete register tree,
``(3 * |Eve's bases|)**t * 3**n`` amplitudes under t targets, fits the
amplitude budget of a block (``_BLOCK``), its per-pair parts are built
once, for every pair, and kept read-only in a small cache
(``_check_tables``): its blocks of ``_BLOCK`` rounds then only draw,
each round stepping from register to register through the tables, and
the verdict of a joint outcome is one lookup (``protocol._passes``).
Elsewhere a check block builds the pairs its rounds reach: it holds the
distinct registers its rounds can be in, plus one register index per
round, and groups its rounds by (register, basis) pair, scattering small
integer keys into a table of flags (``core._distinct``). An intercept
builds one register per (pair, outcome) that occurred, at most one per
round, so such a block holds as many rounds as registers fit the budget,
or ``_BLOCK`` rounds where no qutrit is targeted. Both routes run the
same steps on the same pairs, so they draw the same rounds.
``check-channel`` tallies each block's flags into its verdict
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
measures it, or reconstructs on it, alone. The one-register functions are
the same steps on one register and one round:
``outside_intercept_resend`` runs the intercept step,
``protocol.channel_check_round`` the check step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import (
    ZERO_PROB_TOL, PureState, _axes, _block, _contract, _distinct, _freeze, _integer, _normalized, _sample,
    _trusted_state, _weights, tensor,
)
from .errors import ConfigInvalid, LabelOutOfRange, SelfCapture, ZeroProbabilityBranchSampled
from .operators import _COMPUTATIONAL_ROWS, _XI_ROWS, BellOutcome, ghz_state
from .protocol import (
    _BELL_BLOCKS, CHECK_BASES, COMPUTATIONAL, FOURIER, CheckRecord, _check_outcomes, _dealer_forms, _joint_weights,
    _pairs, _passed, _recovery_table, _trits, _validated_parties, _validated_seed,
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

#: Inside trials simulated together as one array; with ``_INSIDE_QUTRITS`` it sets the one
#: amplitude budget of every block, ``_BLOCK * 3**_INSIDE_QUTRITS`` = 20,736 amplitudes. A check run
#: whose complete register tree fits it, ``(3 * |Eve's bases|)**t * 3**n`` amplitudes under t
#: targets, builds the tree once, into cached tables (``_check_tables``), and its blocks of
#: ``_BLOCK`` rounds only draw. Elsewhere a block builds its own registers, at most one per round
#: at each intercept, so it holds as many rounds as registers of 3**n fit, counting at least one:
#: 85 at five parties, 28 at six, 9 at seven, 3 at eight and 1 from nine up. An honest run's rounds
#: share one register, so its blocks hold ``_BLOCK`` rounds. ``_check_blocks`` applies this rule
#: once per run, and the draws are the same on either route and at any block size.
#: Traced peaks of a 2,304-round block once its tables are built: 152 KiB at three parties under
#: two intercepts, 0.36 registers at nine parties with no Eve; 5.0 registers at twelve, whose
#: blocks build theirs (2 cores, numpy 2.4).
#: Smaller blocks are bound by numpy's per-call overhead; larger ones raise an experiment's
#: peak memory. Over a warm 100-trial run in a fresh process, the peak RSS of a 4,000-trial
#: inside experiment grew by 0 MiB at 256-trial blocks, 0.25 MiB at 1,024 and 1.2 MiB at
#: 2,304, and that of a 1,000-trial one, a single block, by 0.1-0.25 MiB (2 cores, numpy 2.4).
#: Those figures were taken when an inside trial held a 3 x 3 register; it now holds three span
#: coefficients, and a warm 1,000-trial experiment's traced peak is 380 KiB.
_BLOCK = 2304
#: Qutrits per register of the amplitude budget: the two agents' channel qutrits of a three-party
#: session, 3 x 3 amplitudes (16 B each, so 324 KiB for 2,304 registers), the register the dense
#: dealer's step (``protocol._deal``) builds. The inside kernel keeps three amplitudes per trial,
#: on the GHZ span, and nine Bell features and weights (8 B each, 162 KiB a full block per array).
_INSIDE_QUTRITS = 2

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
    the Lüders projection onto the member that fired, renormalized. This is the check-round
    kernel's intercept step run on one register; it draws one uniform from ``rng``."""
    (axis,) = _axes(state, (label,), outside=LabelOutOfRange)
    if basis not in CHECK_BASES:
        raise ConfigInvalid(f"basis must be one of {CHECK_BASES}, got {basis!r}")
    resent, _ = _intercept(_block(state), np.zeros(1, dtype=np.intp), axis, np.array([basis == FOURIER]), rng.random(1))
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

    bell_forms: np.ndarray  # (9, 9): Bell outcome k's weight as a form in the secret's features (``_features``)
    bell: tuple[np.ndarray, np.ndarray]  # member k's row on the dealer's qutrit, times the channel's coefficients
    xi_weights: np.ndarray  # (3, 3): |<xi_l|k>|^2, a helper's outcome weights on |a_k|^2
    xi_columns: np.ndarray  # (3, 3): column l is the Fourier row l, the helper's factor on a_k
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


#: The secret's features that its Bell weights are linear in: |s_i|^2, then the real and the
#: imaginary parts of ``s_i conj(s_j)`` for the pairs (i, j) = (0, 1), (0, 2), (1, 2).
_PAIRS = ((0, 0, 1), (1, 2, 2))


def _feature_forms(forms: np.ndarray) -> np.ndarray:
    """``(9, 9)``: the dealer's ``(18, 9)`` forms (``protocol._dealer_forms``) as a map from a
    secret's features (``_features``) to its nine Bell weights. Rows 2p and 2p + 1 of the forms
    weigh the real and imaginary parts of ``s_i conj(s_j)`` at p = 3i + j; the pair (j, i) holds the
    conjugate, so a pair's real part takes both rows 2p and its imaginary part their difference."""
    combine = np.zeros((9, 18))
    for i in range(3):
        combine[i, 8 * i] = 1.0
    for f, (i, j) in enumerate(zip(*_PAIRS)):
        combine[3 + f, [6 * i + 2 * j, 6 * j + 2 * i]] = 1.0, 1.0
        combine[6 + f, [6 * i + 2 * j + 1, 6 * j + 2 * i + 1]] = 1.0, -1.0
    return np.ascontiguousarray((combine @ forms).T)


# Built on first use, as the correction table it reads is.
@lru_cache(maxsize=None)
def _span_tables() -> _SpanTables:
    """The inside kernel's tables, from the sharing steps' own constants: the dealer's forms on
    the three-party channel (``protocol._dealer_forms``), the Bell blocks and the correction
    table. The channel holds the agents' qutrits at |kk> with coefficient ``c_k`` when the
    dealer's qutrit reads k, so the dealt register is ``(s @ S_k)_k c_k`` on the |kk>."""
    channel = ghz_state(3).amplitudes.reshape(3, 9)
    column, entry = _monomial(_BELL_BLOCKS.transpose(0, 2, 1))
    return _SpanTables(
        bell_forms=_freeze(_feature_forms(_dealer_forms(channel))),
        bell=(column, _freeze(entry * channel[[0, 1, 2], [0, 4, 8]][:, None])),  # c_k, at |kk>
        xi_weights=_freeze(_XI_ROWS.real**2 + _XI_ROWS.imag**2),
        xi_columns=_freeze(np.ascontiguousarray(_XI_ROWS.T)),
        correction=_monomial(_recovery_table().reshape(27, 3, 3)),
    )


def _features(s: np.ndarray) -> np.ndarray:
    """``(9, B)``: the features of ``_PAIRS`` of the secrets ``s``, ``(3, B)``."""
    features = np.empty((9, s.shape[1]))
    features[:3] = s.real**2 + s.imag**2
    pairs, other = s[list(_PAIRS[0])], s[list(_PAIRS[1])]
    pairs *= np.conjugate(other, out=other)
    features[3:6] = pairs.real
    features[6:] = pairs.imag
    return features


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


def _scale(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Divide column b of the fresh complex ``(3, B)`` array ``x`` by ``sqrt(weight[b])`` in place,
    by one real multiply through its ``float64`` view."""
    x.view(np.float64).reshape(3, -1, 2)[...] *= (1.0 / np.sqrt(weight))[:, None]
    return x


def _span_deal(tables: _SpanTables, s: np.ndarray, draw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dealer's step (``protocol._deal``) on the span: draws each trial's Bell outcome from its
    nine weights, one real form in its secret's features, and returns the outcomes, the dealt
    coefficients a, normalized, and their squared moduli."""
    bell, _ = _sample((tables.bell_forms @ _features(s)).T, draw)
    dealt = _gather(tables.bell, bell, s)
    moduli = dealt.real**2 + dealt.imag**2
    weight = moduli.sum(axis=0)
    if weight.min() <= ZERO_PROB_TOL:
        raise ZeroProbabilityBranchSampled(f"dealt branch has probability {float(weight.min())!r}")
    moduli /= weight
    return bell, _scale(dealt, weight), moduli


def _span_help(tables: _SpanTables, dealt: np.ndarray, moduli: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """One helper's step (``protocol._help``) on the span: outcome l has weight ``|xi_l|^2 @ |a|^2``
    and leaves the other qutrit in ``xi_l * a``, normalized, which overwrites ``dealt``. Returns the
    outcomes."""
    outcome, chosen = _sample((tables.xi_weights @ moduli).T, draw)
    dealt *= tables.xi_columns.take(outcome, axis=1)
    _scale(dealt, chosen)
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
    are one real form in the secret's nine features, and the drawn
    member's row is a gather from a monomial table; a helper's weights
    are ``|xi_l|^2 @ |a|^2`` and it keeps ``xi_l * a``; the correction is
    a monomial gather too, and the fidelity one sum over three rows.

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
    bell, kept, moduli = _span_deal(tables, s, u[:, _U_BELL])
    if attack.fake_state is None:
        outcome = _span_help(tables, kept, moduli, u[:, _U_FIRST])
        captured, announced = np.full(len(u), -1, dtype=np.intp), outcome
    else:
        theft = designated == attack.dishonest_agent
        outcome = _span_help(tables, kept, moduli, np.where(theft, u[:, _U_SECOND], u[:, _U_FIRST]))
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


def _basis_rows(fourier: np.ndarray) -> np.ndarray:
    """Per-register measurement rows: the Fourier basis where flagged, else computational."""
    return np.where(fourier[:, None, None], _XI_ROWS, _COMPUTATIONAL_ROWS)


def _intercept(
    registers: np.ndarray, index: np.ndarray, axis: int, fourier: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The intercept step: in round r Eve measures qutrit ``axis`` of register ``index[r]`` with
    uniform ``u[r]``, in the Fourier basis where ``fourier[r]``, else the computational one, and
    resends the member she saw in the same slot. Returns the new distinct registers and each
    round's index into them.

    Only the distinct (register, basis) pairs are contracted, and each pair's cumulative weights
    are summed once (``_intercept_pairs``). Each round draws its outcome against its pair's sums
    (``core._sample``), and one register is built per (pair, outcome) that occurred (``_resent``)."""
    block, flags, pair = _pairs(registers, index, fourier)
    rows, coeffs, weights, sums = _intercept_pairs(block, flags, axis)
    outcome, _ = _sample(weights, u, pair, sums)
    kinds, index = _distinct(pair * 3 + outcome, 3 * len(weights))
    return _resent(rows, coeffs, weights, kinds, axis, registers.shape[1:]), index


def _intercept_pairs(
    block: np.ndarray, fourier: np.ndarray, axis: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The intercept step's per-pair part: Eve's rows on qutrit ``axis`` of pair p's register
    ``block[p]``, in the Fourier basis where ``fourier[p]``, with their coefficients, Born weights
    ``(P, 3)`` and cumulative sums."""
    rows = _basis_rows(fourier)
    coeffs = _contract(rows, block, (axis,))
    weights = _weights(coeffs)
    return rows, coeffs, weights, np.cumsum(weights, axis=1)


def _resent(
    rows: np.ndarray, coeffs: np.ndarray, weights: np.ndarray, kinds: np.ndarray, axis: int, shape: tuple[int, ...]
) -> np.ndarray:
    """The registers (each of ``shape``) that Eve resends, one per key ``3 p + k`` of ``kinds``:
    pair p's register after outcome k, its kept coefficients normalized and member k of its basis
    put back on ``axis``. Every key's weight lies above ``ZERO_PROB_TOL``."""
    p, k = kinds // 3, kinds % 3
    kept = _normalized(coeffs[p, k], weights[p, k])
    resent = kept.reshape(len(kinds), 3**axis, 1, -1) * rows[p, k].conj()[:, None, :, None]
    return resent.reshape((len(kinds),) + shape)


class _Tables(NamedTuple):
    """A check configuration's complete register tree, reduced to what its rounds draw from. Per
    intercept, pair ``r * len(bases) + p`` is register r in position p of Eve's bases (``_flags``):
    its weights ``(P, 3)``, their sums, and for each outcome the index of the register it resends,
    built only where the weight lies above ``ZERO_PROB_TOL`` (-1 elsewhere, as no draw takes such
    an outcome). Then the check pairs of the last registers, numbered alike: their joint weights
    ``(P, 3**n)`` and sums."""

    intercepts: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    joint: tuple[np.ndarray, np.ndarray]


def _flags(u: np.ndarray, bases: tuple[bool, ...]) -> np.ndarray:
    """Each round's position in ``bases``, the basis flags (True for Fourier) that a per-round policy
    draws from: a 50/50 draw between ``(False, True)``, else 0. Position p's flag ``bases[p]`` is
    ``p ^ bases[0]``, as the bases are ``(False,)``, ``(True,)`` or ``(False, True)``."""
    return u >= 0.5 if len(bases) == 2 else np.zeros(len(u), dtype=bool)


#: A check run's configuration, which alone decides its draws: the party count, Eve's target axes,
#: the bases her policy draws from (none without Eve) and the check bases (``_check_blocks``).
_Config = tuple[int, tuple[int, ...], tuple[bool, ...], tuple[bool, ...]]


#: Configurations whose tables stay cached. A configuration's tables fit the amplitude budget of a
#: block, 20,736 amplitudes, so its joint weights and sums take at most 2 check bases x 20,736 x
#: 16 B = 648 KiB and its intercepts at most 6 KiB (72 B per pair); the cache thus holds at most
#: 16 x 654 KiB, 10.3 MiB, plus the pass flags of ``protocol._passes``. At three parties a
#: configuration's tables take 5.2 KiB under one random intercept and 26 KiB under two.
_TABLES = 16


@lru_cache(maxsize=_TABLES)
def _check_tables(num_parties: int, axes: tuple[int, ...], eve: tuple[bool, ...], check: tuple[bool, ...]) -> _Tables:
    """Build a configuration's ``_Tables`` once: every register its rounds can reach under Eve's
    intercepts on ``axes`` in the bases ``eve``, and every check pair in the bases ``check``. The
    steps are the per-block route's (``_intercept_pairs``, ``_resent``, ``_joint_weights``), each on
    whole levels of the tree, so a round draws what it draws there. The arrays are read-only and
    shared by every thread."""
    registers = _block(ghz_state(num_parties))
    intercepts = []
    for axis in axes:
        block = np.repeat(registers, len(eve), axis=0)
        rows, coeffs, weights, sums = _intercept_pairs(block, np.tile(eve, len(registers)), axis)
        kinds = np.flatnonzero(weights > ZERO_PROB_TOL)
        resent = np.full(weights.shape, -1, dtype=np.intp)
        resent.reshape(-1)[kinds] = np.arange(len(kinds))
        registers = _resent(rows, coeffs, weights, kinds, axis, registers.shape[1:])
        intercepts.append((_freeze(weights), _freeze(sums), _freeze(resent)))
    flat = np.repeat(registers.reshape(len(registers), -1), len(check), axis=0)
    probs, sums = _joint_weights(flat, np.tile(check, len(registers)), num_parties)
    return _Tables(tuple(intercepts), (_freeze(probs), _freeze(sums)))


def _check_block(u: np.ndarray, config: _Config, tables: _Tables | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play a block of check rounds of ``config``; return per round the Fourier-basis flag, the
    parties' joint outcome index (its base-3 digits are their trits, ``protocol._trits``) and the
    verdict. Round r reads ``u[r]``: its check basis, Eve's basis and outcome on each target, then
    its joint outcome. With the configuration's ``tables`` every round only draws from them; with
    None each intercept builds only the registers that its (register, basis, outcome) triples call
    for. Both levels number a round's pair ``index * len(bases) + position`` (``_flags``)."""
    num_parties, axes, eve, check = config
    position = _flags(u[:, 0], check)
    fourier = position ^ check[0]
    last = u[:, 1 + 2 * len(axes)]
    index = np.zeros(len(u), dtype=np.intp)
    if tables is None:
        registers = _block(ghz_state(num_parties))
        for axis, basis, drawn in zip(axes, u[:, 1::2].T, u[:, 2::2].T):
            registers, index = _intercept(registers, index, axis, _flags(basis, eve) ^ eve[0], drawn)
        return (fourier,) + _check_outcomes(registers, index, fourier, last)
    for (weights, sums, resent), basis, drawn in zip(tables.intercepts, u[:, 1::2].T, u[:, 2::2].T):
        pair = index * len(eve) + _flags(basis, eve)
        outcome, _ = _sample(weights, drawn, pair, sums)
        index = resent[pair, outcome]
    joint, _ = _sample(tables.joint[0], last, index * len(check) + position, tables.joint[1])
    return fourier, joint, _passed(joint, fourier, num_parties)


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
    arrays block by block. One budget rule decides the route and the block size (see ``_BLOCK``);
    a refused run builds no tables."""
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
    budget = _BLOCK * 3**_INSIDE_QUTRITS
    fits = (3 * len(eve)) ** len(axes) * 3**num_parties <= budget
    step = _BLOCK if fits or not axes else max(1, budget // 3**num_parties)
    # a round's uniforms (see ``_check_block``), in whole Philox steps
    blocks = _uniform_blocks(count, name, unit, seed, step, -(-(2 + 2 * len(axes)) // 4) * 4)
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
