"""Dense state-vector engine for registers of qutrits.

Amplitude index ``i`` encodes the register's base-3 digit string with
qutrit label 1 as the most significant digit, so kets read left to right
exactly as their subscripts. Values are immutable once built; operations
return fresh, exactly normalized states and consume randomness only
through an explicit ``numpy.random.Generator``.
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


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise NotNormalized("cannot normalize the zero vector")
    return vec / norm


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
    return PureState(a.num_qutrits + b.num_qutrits, _unit(np.kron(a.amplitudes, b.amplitudes)))


def apply_single(u: Unitary3, target: int, s: PureState) -> PureState:
    """Apply a single-qutrit unitary to the qutrit with the given label."""
    if not 1 <= int(target) <= s.num_qutrits:
        raise TargetOutOfRange(f"target {target} outside register of {s.num_qutrits} qutrit(s)")
    psi = s.amplitudes.reshape((3,) * s.num_qutrits)
    moved = np.moveaxis(psi, int(target) - 1, 0)
    out = np.tensordot(u.entries, moved, axes=(1, 0))
    out = np.moveaxis(out, 0, int(target) - 1).reshape(-1)
    return PureState(s.num_qutrits, _unit(out))


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2; symmetric and invariant under global phases."""
    if a.num_qutrits != b.num_qutrits:
        raise DimensionMismatch(f"states live on {a.num_qutrits} vs {b.num_qutrits} qutrits")
    return float(min(1.0, abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


def _validated_targets(s: PureState, targets: Sequence[int]) -> list[int]:
    labels = [int(t) for t in targets]
    if not labels:
        raise TargetOutOfRange("at least one target qutrit is required")
    if len(set(labels)) != len(labels):
        raise TargetsOverlap(f"duplicate target labels in {labels}")
    for t in labels:
        if not 1 <= t <= s.num_qutrits:
            raise TargetOutOfRange(f"target {t} outside register of {s.num_qutrits} qutrit(s)")
    return labels


def _split_targets(s: PureState, labels: Sequence[int]) -> np.ndarray:
    """Reshape to (target subspace, rest), target axes leading in the given order."""
    n = s.num_qutrits
    axes = [t - 1 for t in labels]
    rest = [k for k in range(n) if k not in axes]
    psi = s.amplitudes.reshape((3,) * n).transpose(axes + rest)
    return psi.reshape(3 ** len(axes), -1)


# Families are keyed by their members, which hash by identity (``PureState``
# defines no equality), so a cached entry pins the very states it was built from.
@lru_cache(maxsize=64)
def _family_matrix(family: tuple[PureState, ...], width: int) -> np.ndarray:
    """Stack a measurement family into rows, checking completeness and orthonormality."""
    dim = 3**width
    rows = []
    for member in family:
        if member.num_qutrits != width:
            raise DimensionMismatch(f"family member spans {member.num_qutrits} qutrit(s), targets span {width}")
        rows.append(member.amplitudes)
    mat = np.array(rows)
    if mat.shape[0] != dim:
        raise NotOrthonormal(f"family of {mat.shape[0]} states cannot be complete on dimension {dim}")
    gram = mat.conj() @ mat.T
    if np.max(np.abs(gram - np.eye(dim))) > ORTHONORMAL_TOL:
        raise NotOrthonormal("family Gram matrix deviates from the identity")
    return _freeze(mat)


def _measurement_coeffs(
    s: PureState, targets: Sequence[int], family: Sequence[PureState]
) -> tuple[list[int], np.ndarray]:
    """Validate a measurement and return (labels, projection coefficients per member)."""
    labels = _validated_targets(s, targets)
    mat = _family_matrix(tuple(family), len(labels))
    return labels, mat.conj() @ _split_targets(s, labels)


def _branch_probs(coeffs: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", coeffs, coeffs.conj()).real


def born_distribution(s: PureState, targets: Sequence[int], family: Sequence[PureState]) -> np.ndarray:
    """Born weight of each family member on the target qutrits.

    The family must be a complete orthonormal basis of the target
    subspace; the returned vector sums to 1 within ``INTERNAL_TOL``.
    """
    _, coeffs = _measurement_coeffs(s, targets, family)
    return _branch_probs(coeffs)


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


def _collapse_branch(s: PureState, labels: list[int], coeffs: np.ndarray, outcome_index: int) -> MeasurementRecord:
    if len(labels) >= s.num_qutrits:
        raise EmptyRegister("at least one qutrit must survive the measurement")
    if not 0 <= int(outcome_index) < coeffs.shape[0]:
        raise LabelOutOfRange(f"outcome index {outcome_index} outside family of {coeffs.shape[0]}")
    row = coeffs[int(outcome_index)]
    prob = float(np.vdot(row, row).real)
    if prob <= ZERO_PROB_TOL:
        raise ZeroProbabilityBranchSampled(f"branch {outcome_index} has probability {prob!r}")
    collapsed = PureState(s.num_qutrits - len(labels), row / np.sqrt(prob))
    return MeasurementRecord(int(outcome_index), prob, collapsed)


def project_subsystem(
    s: PureState, targets: Sequence[int], family: Sequence[PureState], outcome_index: int
) -> MeasurementRecord:
    """Deterministically collapse onto one family member.

    The measured qutrits are removed from the register; the survivors
    keep their relative order and are relabeled 1..n-t. Used directly
    when a branch is forced rather than sampled.
    """
    labels, coeffs = _measurement_coeffs(s, targets, family)
    return _collapse_branch(s, labels, coeffs, outcome_index)


def measure_subsystem(
    s: PureState, targets: Sequence[int], family: Sequence[PureState], rng: np.random.Generator
) -> MeasurementRecord:
    """Sample one outcome by the Born rule and collapse.

    Deterministic given the generator's stream state; the collapsed state
    has the measured qutrits removed from the register.
    """
    labels, coeffs = _measurement_coeffs(s, targets, family)
    return _collapse_branch(s, labels, coeffs, sample_index(_branch_probs(coeffs), rng))


def reduced_density(s: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace down to the kept qutrits, in the order given."""
    labels = [int(t) for t in keep]
    if not labels:
        raise EmptyKeepSet("keep at least one qutrit")
    if len(set(labels)) != len(labels):
        raise TargetsOverlap(f"duplicate labels in keep set {labels}")
    for t in labels:
        if not 1 <= t <= s.num_qutrits:
            raise LabelOutOfRange(f"label {t} outside register of {s.num_qutrits} qutrit(s)")
    mat = _split_targets(s, labels)
    return DensityMatrix(len(labels), mat @ mat.conj().T)


def haar_random_state(rng: np.random.Generator, num_qutrits: int = 1) -> PureState:
    """Haar-uniform pure state: i.i.d. complex Gaussian amplitudes, normalized."""
    dim = 3 ** int(num_qutrits)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(int(num_qutrits), _unit(vec))
