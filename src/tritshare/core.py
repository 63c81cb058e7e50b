"""Dense state-vector engine for registers of qutrits.

Amplitude index ``i`` encodes the register's base-3 digit string with
qutrit label 1 as the most significant digit, so kets read left to right
exactly as their subscripts. Values are immutable once built; operations
return fresh normalized states and consume randomness only through an
explicit ``numpy.random.Generator``.

One private batched engine (``_contract``, ``_weights``, ``_measure``)
acts on B registers held as one ``(B, 3, ..., 3)`` array. The
``PureState`` operations validate and run it on one register, and a
sharing session's steps in ``protocol`` on its one register. The inside
kernel (``attacks._inside_block``) and the check kernel hold each trial's
or round's register on the GHZ span and take only their draws from here
(``_sample``): the check kernel draws every round against a row of its
own among a few tables whose cumulative sums it made once into exact
guide tables (``_cumulative``), so that each draw is a few gathers at the
bucket its uniform falls in (``_guided``); only the digit-by-digit
step, whose uniforms are rescaled, takes a binary search that all
rounds step through together (``_counts``). No array of the draw grows
as rounds times outcomes.
``apply_single`` turns one register's qutrit by a matrix product of its
own.
A step whose rows every register shares runs as one 2-D matrix product;
per-register rows run one stacked product. The sharing steps start from
one channel register, and the dealer's step (``protocol._deal``), whose
rows differ between secrets, gives each secret its own register.

Born weights are ``np.vecdot`` of the coefficients' ``float64`` view with
itself. A sampled draw returns the weights it drew (``_sample``), so they
are gathered once, and every kept row is normalized by one real multiply
through its ``float64`` view (``_normalized``).

``_measure`` has one route: it contracts every row with every register.
Its rows are a complete family, never more rows than the targets'
dimension. The dealer's step, whose nine secret-absorbed Bell rows on one
channel qutrit are more, draws from that qutrit's reduced density
instead (``protocol._deal``).

Inputs are checked, engine results are trusted. A ``PureState``, a
``make_state`` vector and a caller's measurement family are validated
when they come in. What the engine builds from validated inputs (the
results of ``tensor`` and ``apply_single``, the collapsed states of
``measure_subsystem`` and ``project_subsystem``, a session's
reconstructed qutrit) goes through ``_trusted_state``, which freezes the
fresh array without checking it again. A ``MeasurementFamily`` is checked
once, when it is built, and carries its rows; the protocol's fixed bases
are such families, and their members are trusted states too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

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
#: Largest register the package builds; ``operators.MAX_GHZ_QUTRITS`` is this cap.
_MAX_QUTRITS = 12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _integer(value: object, error: type, name: str) -> int:
    """``value`` as an int, refused with ``error`` unless it is an integer (numpy's included). A
    bool is refused too: ``operator.index`` takes Python's ``True`` as 1, numpy's ``True`` not."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise error(f"{name} {value!r} is not an integer") from None


@dataclass(frozen=True, eq=False, repr=False)
class PureState:
    """Normalized pure state over a labeled register of qutrits.

    ``amplitudes[i]`` is the coefficient of the computational ket whose
    base-3 digits (qutrit 1 first) spell ``i``.
    """

    num_qutrits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = _integer(self.num_qutrits, LengthMismatch, "num_qutrits")
        if n < 1:
            raise LengthMismatch("a register holds at least one qutrit")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.size != 3**n:
            raise LengthMismatch(f"expected {3**n} amplitudes, got {amps.size}")
        if not np.all(np.isfinite(amps)):
            raise NonFiniteAmplitude("amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= ORTHONORMAL_TOL:  # a NaN norm (finite amplitudes that overflow) fails too
            raise NotNormalized(f"squared norm {norm_sq!r} is not 1 within {ORTHONORMAL_TOL}")
        object.__setattr__(self, "num_qutrits", n)
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"PureState(num_qutrits={self.num_qutrits})"


def _trusted_state(num_qutrits: int, amplitudes: np.ndarray) -> PureState:
    """A state the package built as a ``PureState``, without ``PureState``'s checks: an engine
    result from validated inputs (complex, normalized, sharing no memory with them) or a
    member of a fixed basis. The array is frozen, not copied."""
    flat = _freeze(amplitudes.reshape(-1))
    if flat.base is not None:  # a view: the fresh array behind it is frozen too
        _freeze(flat.base)
    state = object.__new__(PureState)
    object.__setattr__(state, "num_qutrits", num_qutrits)
    object.__setattr__(state, "amplitudes", flat)
    return state


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
        if not np.max(np.abs(mat @ mat.conj().T - np.eye(3))) <= ORTHONORMAL_TOL:
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
        n = _integer(self.num_qutrits, LengthMismatch, "num_qutrits")
        if n < 1:
            raise LengthMismatch("a register holds at least one qutrit")
        dim = 3**n
        mat = np.asarray(self.entries, dtype=np.complex128).copy()
        if mat.shape != (dim, dim):
            raise LengthMismatch(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise NonFiniteAmplitude("matrix entries must be finite")
        if not np.max(np.abs(mat - mat.conj().T)) <= ORTHONORMAL_TOL:
            raise InvalidDensityMatrix("matrix is not Hermitian")
        if not abs(float(np.trace(mat).real) - 1.0) <= ORTHONORMAL_TOL:
            raise InvalidDensityMatrix("trace is not 1")
        if not float(np.min(np.linalg.eigvalsh(mat))) >= -ORTHONORMAL_TOL:
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
    n = _integer(num_qutrits, LengthMismatch, "num_qutrits")
    if n < 1:
        raise LengthMismatch("a register holds at least one qutrit")
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(amps)):
        raise NonFiniteAmplitude("amplitudes must be finite")
    if amps.size != 3**n:
        raise LengthMismatch(f"expected {3**n} amplitudes for {n} qutrit(s), got {amps.size}")
    norm_sq = float(np.vdot(amps, amps).real)
    if not abs(norm_sq - 1.0) <= INPUT_NORM_TOL:
        raise NotNormalized(f"squared norm {norm_sq!r} deviates from 1 by more than {INPUT_NORM_TOL}")
    return PureState(n, amps / np.sqrt(norm_sq))


def basis_index(digits: Sequence[int]) -> int:
    """Amplitude index of the computational ket with the given per-qutrit digits (label 1 first)."""
    idx = 0
    for d in digits:
        d = _integer(d, LabelOutOfRange, "qutrit digit")
        if d not in (0, 1, 2):
            raise LabelOutOfRange(f"qutrit digit must be 0, 1 or 2, got {d}")
        idx = idx * 3 + d
    return idx


def basis_state(digits: Sequence[int]) -> PureState:
    """Computational ket |d1 d2 ... dn> for the given digits."""
    digits = list(digits)
    amps = np.zeros(3 ** len(digits), dtype=np.complex128)
    amps[basis_index(digits)] = 1.0
    return PureState(len(digits), amps)


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; ``a``'s qutrits take the more significant digit positions."""
    return _trusted_state(a.num_qutrits + b.num_qutrits, np.kron(a.amplitudes, b.amplitudes))


#: Widest tail, in amplitudes after the target, on which ``apply_single`` turns its qutrit with one
#: product by ``u (x) 1``, ``3 * tail`` columns wide. On a wider tail it stacks ``(3, 3) @ (3, tail)``
#: products, one per prefix; on 12 qutrits (2 cores, numpy 2.4) those took 3-8x longer at tails of
#: 9 amplitudes or fewer than at 81 or more.
_KRON_TAIL = 9


def apply_single(u: Unitary3, target: int, s: PureState) -> PureState:
    """Apply a single-qutrit unitary to the qutrit with the given label, in one pass that
    writes the result in register order."""
    (axis,) = _axes(s, (target,))
    tail = 3 ** (s.num_qutrits - 1 - axis)
    if tail <= _KRON_TAIL:
        amps = s.amplitudes.reshape(-1, 3 * tail) @ np.kron(u.entries.T, np.eye(tail))
    else:
        amps = u.entries @ s.amplitudes.reshape(3**axis, 3, tail)
    return _trusted_state(s.num_qutrits, amps)


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2; symmetric and invariant under global phases."""
    if a.num_qutrits != b.num_qutrits:
        raise DimensionMismatch(f"states live on {a.num_qutrits} vs {b.num_qutrits} qutrits")
    return float(min(1.0, abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


def _axes(
    s: PureState, labels: Sequence[int], empty: type = TargetOutOfRange, outside: type = TargetOutOfRange
) -> list[int]:
    """Axes (from 0) of distinct qutrit labels of the register, in the given order."""
    axes = [_integer(t, outside, "label") - 1 for t in labels]
    if not axes:
        raise empty("at least one qutrit label is required")
    if len(set(axes)) != len(axes):
        raise TargetsOverlap(f"duplicate labels in {[a + 1 for a in axes]}")
    for a in axes:
        if not 0 <= a < s.num_qutrits:
            raise outside(f"label {a + 1} outside register of {s.num_qutrits} qutrit(s)")
    return axes


def _family_rows(members: tuple[PureState, ...], width: int) -> np.ndarray:
    """The members' conjugated amplitudes as read-only rows, once the members are checked to
    be a complete orthonormal family on ``width`` qutrits."""
    dim = 3**width
    for member in members:
        if member.num_qutrits != width:
            raise DimensionMismatch(f"family member spans {member.num_qutrits} qutrit(s), targets span {width}")
    mat = np.array([member.amplitudes for member in members]).conj()
    if mat.shape[0] != dim:
        raise NotOrthonormal(f"family of {mat.shape[0]} states cannot be complete on dimension {dim}")
    gram = mat @ mat.conj().T
    if not np.max(np.abs(gram - np.eye(dim))) <= ORTHONORMAL_TOL:
        raise NotOrthonormal("family Gram matrix deviates from the identity")
    return _freeze(mat)


class MeasurementFamily(tuple):
    """A complete orthonormal measurement family: the tuple of its member states, checked once
    when it is built, carrying their conjugated amplitudes as read-only ``rows``. A row
    contracted with the targets gives that member's coefficient. Measurements take a
    family's rows as they are; any other sequence of states is checked on every call."""

    rows: np.ndarray

    def __new__(cls, members: Iterable[PureState]) -> MeasurementFamily:
        members = tuple(members)
        if not members:
            raise NotOrthonormal("an empty family is not complete")
        return _trusted_family(members, _family_rows(members, members[0].num_qutrits))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("a measurement family is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("a measurement family is immutable")


def _trusted_family(members: tuple[PureState, ...], rows: np.ndarray) -> MeasurementFamily:
    """A ``MeasurementFamily`` of members whose read-only ``rows`` the package built itself."""
    family = tuple.__new__(MeasurementFamily, members)
    object.__setattr__(family, "rows", rows)
    return family


def _family_matrix(family: Sequence[PureState], width: int) -> np.ndarray:
    """A measurement family's rows on targets of ``width`` qutrits. A ``MeasurementFamily`` was
    checked when it was built, so only its width is compared. Any other sequence is outside
    input: every call checks it for completeness and orthonormality, and nothing is cached."""
    if not isinstance(family, MeasurementFamily):
        return _family_rows(tuple(family), width)
    if family.rows.shape[1] != 3**width:
        raise DimensionMismatch(f"family member spans {family[0].num_qutrits} qutrit(s), targets span {width}")
    return family.rows


# ---------------------------------------------------------------------------
# the batched engine; qutrit axes count from 0, after a block's register axis


def _block(s: PureState) -> np.ndarray:
    """A state as a one-register block."""
    return s.amplitudes.reshape((1,) + (3,) * s.num_qutrits)


def _others(block: np.ndarray, axes: Sequence[int]) -> list[int]:
    """Array axes of a block's qutrits other than the target ``axes``, in order."""
    return [k + 1 for k in range(block.ndim - 1) if k not in axes]


def _grouped(block: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``(B, 3**t, rest)`` form of a block: the t target axes lead in the given order, the others follow in theirs."""
    order = [0] + [k + 1 for k in axes] + _others(block, axes)
    return block.transpose(order).reshape(len(block), 3 ** len(axes), -1)


def _contract(rows: np.ndarray, block: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``(B, m, rest)`` coefficients of ``m`` rows on the targets of each register.

    Rows that the registers share run as one 2-D matrix product:

    - shared ``(m, 3**t)`` rows on B registers: the target axes move ahead of
      the register axis, ``rows @ (3**t, B * rest)`` runs once and its
      ``(B, m, rest)`` view is returned;
    - per-register ``(B, m, 3**t)`` rows: one stacked product per register,
      ``rows @ (B, 3**t, rest)``, which broadcasts a one-register block
      against every row set.
    """
    if rows.ndim == 2:
        flat = block.transpose([k + 1 for k in axes] + [0] + _others(block, axes)).reshape(rows.shape[1], -1)
        return (rows @ flat).reshape(len(rows), len(block), -1).transpose(1, 0, 2)
    return rows @ _grouped(block, axes)


def _weights(coeffs: np.ndarray) -> np.ndarray:
    """Born weights: squared moduli of coefficients summed over their last axis, so ``(B, m)``
    from ``(B, m, rest)``. ``np.vecdot`` of the ``float64`` view with itself costs a fraction
    of ``np.einsum``'s dispatch on small blocks and runs at BLAS speed on wide rows."""
    parts = coeffs.view(np.float64)  # real and imaginary parts side by side; every form's last axis is contiguous
    return np.vecdot(parts, parts)


def _normalized(kept: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Scale each fresh ``(B, rest)`` row of ``kept`` by ``1 / sqrt(weight[b])`` in place: a real
    multiply through the ``float64`` view, several times faster than complex / real."""
    kept.view(np.float64)[...] *= (1.0 / np.sqrt(weight))[:, None]
    return kept


def _measure(
    block: np.ndarray,
    axes: Sequence[int],
    rows: np.ndarray,
    draw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure the targets of register b in the family whose conjugated members are ``rows``,
    sampling with uniform ``draw[b]`` or, where ``draw`` holds integers, forcing that outcome.
    Return the outcomes, their Born weights and the collapsed block of the other qutrits.

    The registers are those of the coefficients: a one-register block measured
    with B per-register row sets collapses into B registers. Every row meets every register
    (``_contract``), the weights are the coefficients' squared norms, and the drawn row's
    coefficients are kept."""
    coeffs = _contract(rows, block, axes)
    probs = _weights(coeffs)
    registers = np.arange(len(coeffs))
    if draw.dtype.kind in "iu":
        outcome, weight = draw, probs[registers, draw]
        if weight.min() <= ZERO_PROB_TOL:
            raise ZeroProbabilityBranchSampled(f"forced branch has probability {float(weight.min())!r}")
    else:
        outcome, weight = _sample(probs, draw)
    kept = _normalized(coeffs[registers, outcome], weight)
    return outcome, weight, kept.reshape((len(coeffs),) + (3,) * (block.ndim - 1 - len(axes)))


def _measurement(s: PureState, targets: Sequence[int], family: Sequence[PureState]) -> tuple[list[int], np.ndarray]:
    """Validate a collapsing measurement of one register; return its target axes and the family's rows."""
    axes = _axes(s, targets)
    rows = _family_matrix(family, len(axes))
    if len(axes) >= s.num_qutrits:
        raise EmptyRegister("at least one qutrit must survive the measurement")
    return axes, rows


def born_distribution(s: PureState, targets: Sequence[int], family: Sequence[PureState]) -> np.ndarray:
    """Born weight of each family member on the target qutrits.

    The family must be a complete orthonormal basis of the target
    subspace; the returned vector sums to 1 within ``INTERNAL_TOL``.
    """
    axes = _axes(s, targets)
    return _weights(_contract(_family_matrix(family, len(axes)), _block(s), axes))[0]


#: Widest row whose cumulative sums come from one real matrix product with ``_upper_ones``;
#: wider rows take ``np.cumsum``, which is faster from between 81 and 243 outcomes on and
#: needs no ``(n, n)`` matrix (a 3**11-outcome row would need 250 GB).
_PRODUCT_CUMSUM_WIDTH = 81


@lru_cache(maxsize=None)
def _upper_ones(n: int) -> np.ndarray:
    """``(n, n)`` upper-triangular ones: ``probs @`` it gives each row's cumulative sums, and
    ``_upper_ones(n).T @ probs.T`` the same sums with one column per row of ``probs``."""
    return _freeze(np.triu(np.ones((n, n))))


def sample_indices(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draws over ascending outcome index.

    Row ``b`` of ``probs`` is one Born distribution, refused unless finite and
    non-negative, and ``u[b]`` in [0, 1) its uniform. Zero-probability entries
    contribute no cumulative gap and can never be selected; a uniform beyond a
    row's total, which is not checked, falls to its last positive entry. Rows
    of up to ``_PRODUCT_CUMSUM_WIDTH`` outcomes take their cumulative sums from
    one real matrix product, which stays fast right after a complex one where
    ``np.cumsum`` slows down several-fold; its sums may differ from a sequential
    sum in the last bit, and a draw that lands on a zero weight there is taken
    again from sequential sums.
    """
    return _sample(_checked_weights(probs), u)[0]


def _checked_weights(probs: np.ndarray) -> np.ndarray:
    """A caller's weights, refused unless every one is finite and non-negative."""
    if not np.isfinite(probs).all():
        raise NonFiniteAmplitude("weights must be finite")
    if (probs < 0).any():
        raise NotNormalized("weights must be non-negative")
    return probs


def _sample(
    probs: np.ndarray, u: np.ndarray, row: np.ndarray | None = None, table: _Guide | np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``sample_indices``' draws and the drawn entries' weights, which its refusal gathers anyway.

    With ``row``, draw b is from row ``row[b]`` of ``probs``, as ``sample_indices(probs[row], u)``
    draws, but each row's cumulative sums are taken once, by ``np.cumsum``, and no per-draw row is
    gathered. ``table``, with ``row``, is those sums taken before: the check kernel makes them once
    into guide tables (``_cumulative``), for Eve's rows of its span model and for each
    configuration's joint weights, and every draw of its rounds comes through here; a guide finds
    each count in a few gathers (``_guided``). The digit-by-digit step passes plain sums, as its
    rescaled uniforms may leave a guide's [0, 1), and they are searched (``_counts``); both count
    exactly the sums at or below the uniform. A sequential sum of non-negative weights is flat across a
    zero weight, so such a draw never lands on one. The product sums of a row of up to
    ``_PRODUCT_CUMSUM_WIDTH`` outcomes can step there, as OpenBLAS's small-matrix kernels sum out
    of order; a draw that lands on a weight at or below ``ZERO_PROB_TOL`` is redrawn from its
    row's sequential sums, and refused only if that weight is zero too. A draw therefore differs
    from a sequential sum's only where a uniform lies within the last bit of a boundary. The
    fallback past a row's rounded total and the refusals look only at the rows drawn from.

    The product sums are taken draw-last, ``_upper_ones(n).T @ probs.T``, so that the comparisons
    and the count run along rows as long as the draws. The inside kernel, whose weights are
    ``(n, B)``, passes them transposed, and the product then reads them as they lie."""
    n = probs.shape[1]
    product = row is None and n <= _PRODUCT_CUMSUM_WIDTH
    if row is None:
        row = np.arange(len(u))
    if product:
        k = np.sum(_upper_ones(n).T @ probs.T <= u, axis=0)
    elif isinstance(table, _Guide):
        k = _guided(table, u, row)
    else:
        k = _counts(np.cumsum(probs, axis=1) if table is None else table, u, row)
    if k.max() >= n:
        overflow = k >= n
        positive = probs[row[overflow]] > ZERO_PROB_TOL
        if not positive.any(axis=1).all():
            raise ZeroProbabilityBranchSampled("no branch carries positive probability")
        k[overflow] = n - 1 - np.argmax(positive[:, ::-1], axis=1)
    chosen = probs[row, k]
    if chosen.min() <= ZERO_PROB_TOL:
        if product:
            stepped = np.flatnonzero(chosen <= ZERO_PROB_TOL)
            k[stepped], chosen[stepped] = _sample(probs[stepped], u[stepped], np.arange(len(stepped)))
        else:
            b = int(np.argmin(chosen))
            raise ZeroProbabilityBranchSampled(f"sampled branch {k[b]} has probability {chosen[b]!r}")
    return k, chosen


class _Guide(NamedTuple):
    """An exact guide table over the ascending sums of some rows of weights (``_cumulative``), after
    Chen and Asau (AIIE Trans. 6, 163 (1974)). Each row's [0, 1) is cut into ``size`` = G buckets
    [g/G, (g+1)/G), G a power of two, with at most one distinct sum strictly inside each. Entry
    ``row * G + g`` holds the count of the row's sums at or below g/G (``low``), the one sum
    strictly inside the bucket (``inner``, inf where there is none) and the count of the row's sums
    at or below that one (``high``). The counts are at most the rows' width and take its smallest
    unsigned type, one byte per entry each up to 255 outcomes and two up to 65,535."""

    size: int
    low: np.ndarray
    inner: np.ndarray
    high: np.ndarray


def _cumulative(weights: np.ndarray) -> _Guide:
    """The sequential sums of rows of non-negative weights as a read-only guide table, for
    ``_sample`` to draw from.

    G is the smallest power of two at which no bucket holds two distinct sums strictly inside. It
    may be at most the rows' width rounded up to a power of two, so that a guide has fewer than
    twice as many entries as sums; sums that no such G separates are refused with ``ValueError``
    (every table of the check kernel fits one). The guide is built by array operations over the
    sums, with no loop over buckets: ``sums * G`` is exact, so a sum lies at or below g/G where its
    ceiling is at most g, and strictly inside bucket g where its floor is g and it is not an
    integer."""
    sums = np.cumsum(weights, axis=1)
    rows, n = sums.shape
    count = np.min_scalar_type(n)
    first, last = np.ones(sums.shape, dtype=bool), np.ones(sums.shape, dtype=bool)
    first[:, 1:] = last[:, :-1] = sums[:, 1:] != sums[:, :-1]
    size = 1
    while size < 2 * n:
        scaled = sums * size
        floor = np.floor(scaled)
        inside = (scaled != floor) & (floor < size)
        key = np.arange(rows)[:, None] * size + np.minimum(floor, size).astype(np.intp)
        distinct = key[inside & first]  # ascending, so two distinct sums in a bucket are neighbours
        if not (distinct[1:] == distinct[:-1]).any():
            edge = np.arange(rows)[:, None] * (size + 1) + np.minimum(np.ceil(scaled), size).astype(np.intp)
            low = np.bincount(edge.reshape(-1), minlength=rows * (size + 1)).reshape(rows, size + 1)
            low = np.cumsum(low, axis=1)[:, :size].reshape(-1).astype(count)
            inner, high = np.full(rows * size, np.inf), low.copy()
            inner[key[inside]] = sums[inside]
            high[key[inside & last]] = np.broadcast_to(np.arange(1, n + 1), sums.shape)[inside & last]
            return _Guide(size, _freeze(low), _freeze(inner), _freeze(high))
        size *= 2
    raise ValueError(f"no guide of at most {size // 2} buckets per row separates these {n} sums")


def _guided(guide: _Guide, u: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``_counts``' counts through a guide table, for uniforms in [0, 1). Draw b's bucket is
    ``floor(u[b] G)``, exact as G is a power of two. The row's sums at or below the bucket's lower
    edge count, and its inner sum with them where that is at most ``u[b]``; no other sum lies in
    the bucket, so the count is exact. A handful of operations over the draws, whatever the
    row's width."""
    key = (u * guide.size).astype(np.intp)
    key += row * guide.size
    counts = np.where(guide.inner.take(key) <= u, guide.high.take(key), guide.low.take(key))
    return counts.astype(np.intp)


def _counts(sums: np.ndarray, u: np.ndarray, row: np.ndarray) -> np.ndarray:
    """For each b, how many of the ascending ``sums[row[b]]`` are at most ``u[b]``: the count
    over a gathered ``(B, n)`` table of sums, found without building one. It serves rows drawn
    without a table taken before and the digit-by-digit check step, whose rescaled uniforms may
    leave a guide's [0, 1).

    All draws run one branch-free binary search over the flat sums together. A draw's position
    starts at its row's first sum; while m > 1 sums remain, it moves ahead by m // 2 where the
    sum m // 2 places ahead is at most its uniform, and m becomes m - m // 2. A last comparison
    settles the count. Each of the ceil(log2 n) + 1 steps is a few array operations over the
    draws, a position never leaves its row, and the sums are compared as they are, so the
    counts are exact. On 1,000 draws over 12 rows of 27 sums this took about 40 us, the gathered
    table about 100 us, and one ``np.searchsorted`` over (row, sum) keys about 140 us, as random
    uniforms defeat its branch prediction (2 cores, numpy 2.4)."""
    n = sums.shape[1]
    flat = sums.reshape(-1)
    position, m = row * n, n
    while m > 1:
        half = m // 2
        position += half * (flat[position + half] <= u)
        m -= half
    return position + (flat[position] <= u) - row * n


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over ascending outcome index (one row of ``sample_indices``) from a
    distribution: finite, non-negative weights whose total is 1 within ``INPUT_NORM_TOL``."""
    row = _checked_weights(np.reshape(probs, (1, -1)))
    total = float(row.sum())
    if not abs(total - 1.0) <= INPUT_NORM_TOL:
        raise NotNormalized(f"weights sum to {total!r}, not 1 within {INPUT_NORM_TOL}")
    return int(_sample(row, rng.random(1))[0][0])


def project_subsystem(
    s: PureState, targets: Sequence[int], family: Sequence[PureState], outcome_index: int
) -> MeasurementRecord:
    """Deterministically collapse onto one family member.

    The measured qutrits are removed from the register; the survivors
    keep their relative order and are relabeled 1..n-t. Used directly
    when a branch is forced rather than sampled.
    """
    axes, rows = _measurement(s, targets, family)
    k = _integer(outcome_index, LabelOutOfRange, "outcome index")
    if not 0 <= k < len(rows):
        raise LabelOutOfRange(f"outcome index {outcome_index} outside family of {len(rows)}")
    _, weight, kept = _measure(_block(s), axes, rows, np.array([k]))
    return MeasurementRecord(k, float(weight[0]), _trusted_state(s.num_qutrits - len(axes), kept[0]))


def measure_subsystem(
    s: PureState, targets: Sequence[int], family: Sequence[PureState], rng: np.random.Generator
) -> MeasurementRecord:
    """Sample one outcome by the Born rule and collapse.

    Deterministic given the generator's stream state; the collapsed state
    has the measured qutrits removed from the register.
    """
    axes, rows = _measurement(s, targets, family)
    outcome, weight, kept = _measure(_block(s), axes, rows, rng.random(1))
    return MeasurementRecord(int(outcome[0]), float(weight[0]), _trusted_state(s.num_qutrits - len(axes), kept[0]))


def reduced_density(s: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace down to the kept qutrits, in the order given."""
    axes = _axes(s, keep, EmptyKeepSet, LabelOutOfRange)
    mat = _grouped(_block(s), axes)[0]
    return DensityMatrix(len(axes), mat @ mat.conj().T)


def haar_random_state(rng: np.random.Generator, num_qutrits: int = 1) -> PureState:
    """Haar-uniform pure state: i.i.d. complex Gaussian amplitudes, normalized."""
    n = _integer(num_qutrits, LengthMismatch, "num_qutrits")
    if not 1 <= n <= _MAX_QUTRITS:
        raise LengthMismatch(f"a random register holds 1..{_MAX_QUTRITS} qutrits, got {n}")
    vec = rng.standard_normal(3**n) + 1j * rng.standard_normal(3**n)
    return PureState(n, vec / np.linalg.norm(vec))
