"""Dense state-vector engine for registers of qutrits.

Amplitude index ``i`` encodes the register's base-3 digit string with
qutrit label 1 as the most significant digit, so kets read left to right
exactly as their subscripts. Values are immutable once built; operations
return fresh normalized states and consume randomness only through an
explicit ``numpy.random.Generator``.

One private batched engine (``_contract``, ``_weights``, ``_measure``,
``_apply``) acts on B registers held as one ``(B, 3, ..., 3)`` array. The
``PureState`` operations validate and run it on one register; the Monte
Carlo kernels in ``attacks`` run it on blocks of trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyKeepSet,
    EmptyRegister,
    InvalidDensityMatrix,
    LabelOutOfRange,
    LengthMismatch,
    NonFiniteAmplitude,
    NotNormalized,
    NotOrthonormal,
    NotUnitary,
    TargetOutOfRange,
    TargetsOverlap,
    ZeroProbabilityBranchSampled,
)

#: Accepted deviation of the squared norm from 1 before ``make_state`` refuses.
INPUT_NORM_TOL = 1e-6
#: Orthonormality / unitarity tolerance for measurement families and operators.
ORTHONORMAL_TOL = 1e-9
#: Tolerance for internal consistency checks.
INTERNAL_TOL = 1e-12
#: Born weights at or below this are treated as exactly zero branches.
ZERO_PROB_TOL = 1e-24


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, repr=False)
class PureState:
    """Normalized pure state over a labeled register of qutrits.

    ``amplitudes[i]`` is the coefficient of the computational ket whose
    base-3 digits (qutrit 1 first) spell ``i``.
    """

    num_qutrits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.num_qutrits)
        if n < 1:
            raise LengthMismatch("a register holds at least one qutrit")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.size != 3**n:
            raise LengthMismatch(f"expected {3**n} amplitudes, got {amps.size}")
        if not np.all(np.isfinite(amps)):
            raise NonFiniteAmplitude("amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > ORTHONORMAL_TOL:
            raise NotNormalized(f"squared norm {norm_sq!r} is not 1 within {ORTHONORMAL_TOL}")
        object.__setattr__(self, "num_qutrits", n)
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"PureState(num_qutrits={self.num_qutrits})"


@dataclass(frozen=True, eq=False, repr=False)
class Unitary3:
    """Single-qutrit operator, unitary within ``ORTHONORMAL_TOL``."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=np.complex128).copy()
        if mat.shape != (3, 3):
            raise LengthMismatch("a single-qutrit operator is 3x3")
        if not np.all(np.isfinite(mat)):
            raise NonFiniteAmplitude("operator entries must be finite")
        if np.max(np.abs(mat @ mat.conj().T - np.eye(3))) > ORTHONORMAL_TOL:
            raise NotUnitary("U U-dagger deviates from the identity")
        object.__setattr__(self, "entries", _freeze(mat))

    def __repr__(self) -> str:
        return f"Unitary3({np.array2string(self.entries, precision=4)})"


@dataclass(frozen=True, eq=False, repr=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a register."""

    num_qutrits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.num_qutrits)
        if n < 1:
            raise LengthMismatch("a register holds at least one qutrit")
        dim = 3**n
        mat = np.asarray(self.entries, dtype=np.complex128).copy()
        if mat.shape != (dim, dim):
            raise LengthMismatch(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > ORTHONORMAL_TOL:
            raise InvalidDensityMatrix("matrix is not Hermitian")
        if abs(float(np.trace(mat).real) - 1.0) > ORTHONORMAL_TOL:
            raise InvalidDensityMatrix("trace is not 1")
        if float(np.min(np.linalg.eigvalsh(mat))) < -ORTHONORMAL_TOL:
            raise InvalidDensityMatrix("matrix has a negative eigenvalue")
        object.__setattr__(self, "num_qutrits", n)
        object.__setattr__(self, "entries", _freeze(mat))

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qutrits={self.num_qutrits})"


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective outcome: which family member fired, its Born weight,
    and the post-measurement state of the surviving qutrits."""

    outcome_index: int
    probability: float
    collapsed: PureState


def make_state(amplitudes: Sequence[complex], num_qutrits: int) -> PureState:
    """Build a state from raw amplitudes, then renormalize exactly.

    Refuses vectors whose squared norm deviates from 1 by more than
    ``INPUT_NORM_TOL``; smaller drift (hand-typed decimals) is absorbed by
    the exact renormalization.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(amps)):
        raise NonFiniteAmplitude("amplitudes must be finite")
    expected = 3 ** int(num_qutrits) if int(num_qutrits) >= 1 else -1
    if amps.size != expected:
        raise LengthMismatch(f"expected {expected} amplitudes for {num_qutrits} qutrit(s), got {amps.size}")
    norm_sq = float(np.vdot(amps, amps).real)
    if abs(norm_sq - 1.0) > INPUT_NORM_TOL:
        raise NotNormalized(f"squared norm {norm_sq!r} deviates from 1 by more than {INPUT_NORM_TOL}")
    return PureState(int(num_qutrits), amps / np.sqrt(norm_sq))


def basis_index(digits: Sequence[int]) -> int:
    """Amplitude index of the computational ket with the given per-qutrit digits (label 1 first)."""
    idx = 0
    for d in digits:
        if int(d) not in (0, 1, 2):
            raise LabelOutOfRange(f"qutrit digit must be 0, 1 or 2, got {d}")
        idx = idx * 3 + int(d)
    return idx


def basis_state(digits: Sequence[int]) -> PureState:
    """Computational ket |d1 d2 ... dn> for the given digits."""
    digits = list(digits)
    amps = np.zeros(3 ** len(digits), dtype=np.complex128)
    amps[basis_index(digits)] = 1.0
    return PureState(len(digits), amps)


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; ``a``'s qutrits take the more significant digit positions."""
    return PureState(a.num_qutrits + b.num_qutrits, np.kron(a.amplitudes, b.amplitudes))


def apply_single(u: Unitary3, target: int, s: PureState) -> PureState:
    """Apply a single-qutrit unitary to the qutrit with the given label."""
    (axis,) = _axes(s, (target,))
    return PureState(s.num_qutrits, _apply(u.entries, _block(s), axis))


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2; symmetric and invariant under global phases."""
    if a.num_qutrits != b.num_qutrits:
        raise DimensionMismatch(f"states live on {a.num_qutrits} vs {b.num_qutrits} qutrits")
    return float(min(1.0, abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


def _axes(
    s: PureState, labels: Sequence[int], empty: type = TargetOutOfRange, outside: type = TargetOutOfRange
) -> list[int]:
    """Axes (from 0) of distinct qutrit labels of the register, in the given order."""
    axes = [int(t) - 1 for t in labels]
    if not axes:
        raise empty("at least one qutrit label is required")
    if len(set(axes)) != len(axes):
        raise TargetsOverlap(f"duplicate labels in {[a + 1 for a in axes]}")
    for a in axes:
        if not 0 <= a < s.num_qutrits:
            raise outside(f"label {a + 1} outside register of {s.num_qutrits} qutrit(s)")
    return axes


# Families are keyed by their members, which hash by identity (``PureState``
# defines no equality), so a cached entry pins the very states it was built from.
@lru_cache(maxsize=64)
def _family_matrix(family: tuple[PureState, ...], width: int) -> np.ndarray:
    """A measurement family as conjugated member rows, checked for completeness and
    orthonormality: a row contracted with the targets gives that member's coefficient."""
    dim = 3**width
    for member in family:
        if member.num_qutrits != width:
            raise DimensionMismatch(f"family member spans {member.num_qutrits} qutrit(s), targets span {width}")
    mat = np.array([member.amplitudes for member in family]).conj()
    if mat.shape[0] != dim:
        raise NotOrthonormal(f"family of {mat.shape[0]} states cannot be complete on dimension {dim}")
    gram = mat @ mat.conj().T
    if np.max(np.abs(gram - np.eye(dim))) > ORTHONORMAL_TOL:
        raise NotOrthonormal("family Gram matrix deviates from the identity")
    return _freeze(mat)


# ---------------------------------------------------------------------------
# the batched engine; qutrit axes count from 0, after a block's register axis


def _block(s: PureState) -> np.ndarray:
    """A state as a one-register block."""
    return s.amplitudes.reshape((1,) + (3,) * s.num_qutrits)


def _grouped(block: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``(B, 3**t, rest)`` form of a block: the t target axes lead in the given order, the others follow in theirs."""
    others = [k for k in range(block.ndim - 1) if k not in axes]
    order = [0] + [k + 1 for k in axes] + [k + 1 for k in others]
    return block.transpose(order).reshape(len(block), 3 ** len(axes), -1)


def _contract(rows: np.ndarray, block: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``(B, m, rest)`` coefficients of shared ``(m, 3**t)`` or per-register ``(B, m, 3**t)`` rows on the targets."""
    return rows @ _grouped(block, axes)


def _weights(coeffs: np.ndarray) -> np.ndarray:
    """``(B, m)`` Born weights: squared moduli of ``(B, m, rest)`` coefficients summed over ``rest``."""
    parts = np.ascontiguousarray(coeffs).view(np.float64)  # real and imaginary parts side by side
    return np.einsum("bmr,bmr->bm", parts, parts)


def _measure(
    block: np.ndarray, axes: Sequence[int], rows: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the targets of register b with uniform ``u[b]`` in the family whose conjugated
    members are ``rows``; return the outcomes and the collapsed block of the other qutrits."""
    coeffs = _contract(rows, block, axes)
    probs = _weights(coeffs)
    outcome = sample_indices(probs, u)
    registers = np.arange(len(block))
    kept = coeffs[registers, outcome] / np.sqrt(probs[registers, outcome])[:, None]
    return outcome, kept.reshape((len(block),) + (3,) * (block.ndim - 1 - len(axes)))


def _apply(rows: np.ndarray, block: np.ndarray, axis: int) -> np.ndarray:
    """Apply shared ``(3, 3)`` or per-register ``(B, 3, 3)`` matrices to qutrit ``axis`` of every register."""
    return np.moveaxis(_contract(rows, block, (axis,)).reshape(block.shape), 1, axis + 1)


def _measurement(s: PureState, targets: Sequence[int], family: Sequence[PureState]) -> tuple[np.ndarray, np.ndarray]:
    """Validate a measurement of one register; return its coefficients and Born weights."""
    axes = _axes(s, targets)
    coeffs = _contract(_family_matrix(tuple(family), len(axes)), _block(s), axes)
    return coeffs, _weights(coeffs)


def born_distribution(s: PureState, targets: Sequence[int], family: Sequence[PureState]) -> np.ndarray:
    """Born weight of each family member on the target qutrits.

    The family must be a complete orthonormal basis of the target
    subspace; the returned vector sums to 1 within ``INTERNAL_TOL``.
    """
    return _measurement(s, targets, family)[1][0]


def sample_indices(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draws over ascending outcome index.

    Row ``b`` of ``probs`` is one Born distribution and ``u[b]`` in [0, 1)
    its uniform. Zero-probability entries contribute no cumulative gap and
    can never be selected; a uniform beyond a row's rounded total falls to
    its last positive entry.
    """
    n = probs.shape[1]
    k = np.sum(np.cumsum(probs, axis=1) <= u[:, None], axis=1)
    if k.max() >= n:
        positive = probs > ZERO_PROB_TOL
        overflow = k >= n
        if not positive[overflow].any(axis=1).all():
            raise ZeroProbabilityBranchSampled("no branch carries positive probability")
        k[overflow] = n - 1 - np.argmax(positive[overflow, ::-1], axis=1)
    chosen = probs[np.arange(k.size), k]
    if chosen.min() <= ZERO_PROB_TOL:
        b = int(np.argmin(chosen))
        raise ZeroProbabilityBranchSampled(f"sampled branch {k[b]} has probability {chosen[b]!r}")
    return k


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over ascending outcome index (one row of ``sample_indices``)."""
    return int(sample_indices(np.reshape(probs, (1, -1)), rng.random(1))[0])


def _collapse_branch(s: PureState, width: int, coeffs: np.ndarray, probs: np.ndarray, index: int) -> MeasurementRecord:
    if width >= s.num_qutrits:
        raise EmptyRegister("at least one qutrit must survive the measurement")
    k = int(index)
    if not 0 <= k < probs.shape[1]:
        raise LabelOutOfRange(f"outcome index {index} outside family of {probs.shape[1]}")
    prob = float(probs[0, k])
    if prob <= ZERO_PROB_TOL:
        raise ZeroProbabilityBranchSampled(f"branch {index} has probability {prob!r}")
    return MeasurementRecord(k, prob, PureState(s.num_qutrits - width, coeffs[0, k] / np.sqrt(prob)))


def project_subsystem(
    s: PureState, targets: Sequence[int], family: Sequence[PureState], outcome_index: int
) -> MeasurementRecord:
    """Deterministically collapse onto one family member.

    The measured qutrits are removed from the register; the survivors
    keep their relative order and are relabeled 1..n-t. Used directly
    when a branch is forced rather than sampled.
    """
    return _collapse_branch(s, len(targets), *_measurement(s, targets, family), outcome_index)


def measure_subsystem(
    s: PureState, targets: Sequence[int], family: Sequence[PureState], rng: np.random.Generator
) -> MeasurementRecord:
    """Sample one outcome by the Born rule and collapse.

    Deterministic given the generator's stream state; the collapsed state
    has the measured qutrits removed from the register.
    """
    coeffs, probs = _measurement(s, targets, family)
    return _collapse_branch(s, len(targets), coeffs, probs, sample_indices(probs, rng.random(1))[0])


def reduced_density(s: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace down to the kept qutrits, in the order given."""
    axes = _axes(s, keep, EmptyKeepSet, LabelOutOfRange)
    mat = _grouped(_block(s), axes)[0]
    return DensityMatrix(len(axes), mat @ mat.conj().T)


def haar_random_state(rng: np.random.Generator, num_qutrits: int = 1) -> PureState:
    """Haar-uniform pure state: i.i.d. complex Gaussian amplitudes, normalized."""
    dim = 3 ** int(num_qutrits)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(int(num_qutrits), vec / np.linalg.norm(vec))
