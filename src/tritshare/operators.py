"""Protocol-specific states, bases, and correction operators.

GHZ channel states, the nine-member generalized Bell basis on two
qutrits, the single-qutrit Fourier (xi) basis, the shift/clock Pauli
operators, and the recovery unitary the designated agent applies for any
combination of public announcements. The Bell and Fourier bases are
``MeasurementFamily`` constants built at import; the engine steps read
their rows directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import _MAX_QUTRITS, MeasurementFamily, PureState, Unitary3, _freeze, _integer, _trusted_family, _trusted_state
from .errors import LabelOutOfRange, SizeOutOfRange

#: Primitive cube root of unity, exp(2 pi i / 3).
OMEGA = np.exp(2j * np.pi / 3.0)
#: Desk-scale cap on GHZ register size, the largest register the package builds.
MAX_GHZ_QUTRITS = _MAX_QUTRITS
#: Cap on a computational family's register: 3**6 members of 3**6 amplitudes
#: are 8.5 MiB, the size of the largest GHZ register.
MAX_FAMILY_QUTRITS = 6


def _trit(value: object, name: str) -> int:
    """``value`` reduced mod 3, refused with ``LabelOutOfRange`` unless it is an integer (numpy's included)."""
    return _integer(value, LabelOutOfRange, name) % 3


@dataclass(frozen=True)
class BellOutcome:
    """Result (n, m) of the two-qutrit generalized Bell measurement; both reduced mod 3."""

    n: int
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _trit(self.n, "Bell outcome n"))
        object.__setattr__(self, "m", _trit(self.m, "Bell outcome m"))

    @property
    def index(self) -> int:
        """Position in the family ordering, 3n + m."""
        return 3 * self.n + self.m

    @classmethod
    def from_index(cls, index: int) -> BellOutcome:
        return cls(*divmod(_integer(index, LabelOutOfRange, "Bell outcome index"), 3))


@dataclass(frozen=True)
class XiOutcome:
    """Result of a single-qutrit Fourier-basis measurement, reduced mod 3."""

    l: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "l", _trit(self.l, "Fourier outcome l"))


@dataclass(frozen=True)
class HelperSum:
    """Mod-3 sum of the helper agents' Fourier outcomes; selects the phase correction."""

    L: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", _trit(self.L, "helper sum L"))

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[XiOutcome | int]) -> HelperSum:
        return cls(sum(o.l if isinstance(o, XiOutcome) else _trit(o, "helper outcome") for o in outcomes))


# Typed, so that a float size equal to a cached integer one is still refused.
@lru_cache(maxsize=None, typed=True)
def ghz_state(k: int) -> PureState:
    """Equal superposition of |00...0>, |11...1>, |22...2> on k qutrits."""
    k = _integer(k, SizeOutOfRange, "GHZ register size")
    if not 1 <= k <= MAX_GHZ_QUTRITS:
        raise SizeOutOfRange(f"GHZ register size must be in 1..{MAX_GHZ_QUTRITS}, got {k}")
    amps = np.zeros(3**k, dtype=np.complex128)
    step = (3**k - 1) // 2  # index of |11...1| in base 3
    amps[[0, step, 2 * step]] = 1.0 / np.sqrt(3.0)
    return PureState(k, amps)


def _bell_amplitudes() -> np.ndarray:
    """Row 3n + m: the Bell member sum_j w^{jn} |j>|(j+m) mod 3> / sqrt(3)."""
    amps = np.zeros((9, 9), dtype=np.complex128)
    for n in range(3):
        for m in range(3):
            for j in range(3):
                amps[3 * n + m, 3 * j + (j + m) % 3] = OMEGA ** (j * n)
    return _freeze(amps / np.sqrt(3.0))


def _xi_amplitudes() -> np.ndarray:
    """Row l: the Fourier member sum_k w^{lk} |k> / sqrt(3)."""
    amps = np.array([[OMEGA ** (l * k) for k in range(3)] for l in range(3)], dtype=np.complex128)
    return _freeze(amps / np.sqrt(3.0))


def _fixed_family(num_qutrits: int, amplitudes: np.ndarray) -> MeasurementFamily:
    """A fixed basis of the protocol as a family: its members' amplitudes are read-only rows of
    ``amplitudes`` and its rows their conjugates, built without a matrix product. Tests pin
    them to the full check of ``core._family_matrix``, bit for bit."""
    return _trusted_family(tuple(_trusted_state(num_qutrits, a) for a in amplitudes), _freeze(amplitudes.conj()))


# The protocol's fixed bases, built once at import. ``_*_ROWS`` hold the members'
# conjugated amplitudes, the rows the engine measures with.
_BELL_AMPLITUDES = _bell_amplitudes()
_XI_AMPLITUDES = _xi_amplitudes()
_BELL_FAMILY = _fixed_family(2, _BELL_AMPLITUDES)
_XI_FAMILY = _fixed_family(1, _XI_AMPLITUDES)
_BELL_ROWS = _BELL_FAMILY.rows
_XI_ROWS = _XI_FAMILY.rows
_COMPUTATIONAL_ROWS = _freeze(np.eye(3, dtype=np.complex128).conj())


def bell_state(outcome: BellOutcome | tuple[int, int]) -> PureState:
    """Two-qutrit basis member sum_j w^{jn} |j>|(j+m) mod 3> / sqrt(3)."""
    o = outcome if isinstance(outcome, BellOutcome) else BellOutcome(*outcome)
    return _BELL_FAMILY[o.index]


def xi_state(t: XiOutcome | int) -> PureState:
    """Single-qutrit Fourier-basis member sum_k w^{tk} |k> / sqrt(3)."""
    l = t.l if isinstance(t, XiOutcome) else _trit(t, "Fourier index")
    return _XI_FAMILY[l]


def bell_family() -> MeasurementFamily:
    """All nine Bell outcomes, ordered by index 3n + m."""
    return _BELL_FAMILY


def xi_family() -> MeasurementFamily:
    """The three Fourier-basis states, ordered by phase index."""
    return _XI_FAMILY


def computational_family(num_qutrits: int = 1) -> MeasurementFamily:
    """Computational-basis kets on a register of 1..``MAX_FAMILY_QUTRITS`` qutrits, in ascending
    index order. Built on each call: at 6 qutrits its rows alone are 8.5 MiB."""
    n = _integer(num_qutrits, SizeOutOfRange, "num_qutrits")
    if not 1 <= n <= MAX_FAMILY_QUTRITS:
        raise SizeOutOfRange(f"num_qutrits must be in 1..{MAX_FAMILY_QUTRITS}, got {n}")
    return _fixed_family(n, _freeze(np.eye(3**n, dtype=np.complex128)))


def pauli_x(a: int = 1) -> Unitary3:
    """Cyclic shift |j> -> |(j+a) mod 3>."""
    a = _trit(a, "shift")
    mat = np.zeros((3, 3), dtype=np.complex128)
    for j in range(3):
        mat[(j + a) % 3, j] = 1.0
    return Unitary3(mat)


def pauli_z(b: int = 1) -> Unitary3:
    """Clock phase diag(1, w^b, w^{2b}) with w = exp(2 pi i / 3)."""
    b = _trit(b, "clock power")
    return Unitary3(np.diag([OMEGA ** (b * j) for j in range(3)]))


@lru_cache(maxsize=None)
def _recovery_operator(n: int, m: int, L: int) -> Unitary3:
    return Unitary3(pauli_z((n + L) % 3).entries @ pauli_x((3 - m) % 3).entries)


def recovery_operator(outcome: BellOutcome, helper_sum: HelperSum | int) -> Unitary3:
    """Correction that maps the designated agent's collapsed qutrit back to the secret.

    For announcement (n, m) and helper sum L this is
    Z^{(n+L) mod 3} X^{(3-m) mod 3}: the shift undoes the digit rotation,
    the clock phase cancels the accumulated measurement phases. It is the
    unique shift/clock product achieving fidelity 1 for every secret.
    """
    L = helper_sum.L if isinstance(helper_sum, HelperSum) else _trit(helper_sum, "helper sum")
    return _recovery_operator(outcome.n, outcome.m, L)
