"""Reference kernels: fixed work that measures how fast the machine is right now.

On a shared host the same code runs up to twice as fast at one moment as at
another, so raw wall times of separate runs spread far wider than any
regression bound. Each workload therefore names a reference kernel of the
same character as its calls, and the harness runs that kernel after every
call. A call's time is scaled by ``NOMINAL_NS / (mean of the kernel times
just before and just after it)``: the time the call would take on the
machine running at its nominal speed. A change to the package moves the
call time and not the kernel, so it still shows in full.

The kernels use numpy and the standard library only, never ``tritshare``.
Importing this module does not import numpy: the ``interpreter`` kernel runs
in fresh interpreters before ``import tritshare`` is timed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_SOURCE = (Path(__file__).resolve().parent / "workloads.py").read_text(encoding="utf-8")


@dataclass(frozen=True)
class _Validated:
    """A small validated value object, built like the package's states."""

    amplitudes: Any

    def __post_init__(self) -> None:
        import numpy as np

        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitude")
        object.__setattr__(self, "amplitudes", amps)


@functools.cache
def _ghz(qutrits: int) -> Any:
    import numpy as np

    amps = np.zeros(3**qutrits, dtype=np.complex128)
    amps[[0, (3**qutrits - 1) // 2, 3**qutrits - 1]] = 3**-0.5
    return amps


def small_registers() -> float:
    """Per-trial Python work on 4- and 5-qutrit vectors: Generators, validation,
    tiny kernels, a partial trace and a 3x3 eigensolve."""
    import numpy as np

    acc = 0.0
    for t in range(20):
        rng = np.random.default_rng([7, t])
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        state = _Validated(np.kron(v / np.linalg.norm(v), _ghz(3)))
        psi = np.moveaxis(state.amplitudes.reshape(3, 3, 3, 3), 2, 0)
        out = np.tensordot(np.eye(3), psi, axes=(1, 0))
        cum = np.cumsum(np.abs(out.reshape(3, -1)) ** 2, axis=1)
        acc += float(np.searchsorted(cum[0], rng.random())) + abs(np.vdot(state.amplitudes, state.amplitudes))
        wide = _Validated(np.kron(state.amplitudes, v / np.linalg.norm(v))).amplitudes.reshape(3, -1)
        acc += float(np.linalg.eigvalsh(wide @ wide.conj().T)[0])
    return acc


@functools.cache
def _large_buffers() -> tuple[Any, Any, Any]:
    import numpy as np

    return tuple(np.empty((3, 3**10), dtype=np.complex128) for _ in range(3))


def large_registers() -> float:
    """Array kernels and copies on an 11-qutrit vector (2.8 MiB).

    It writes into buffers allocated once, so its time does not depend on
    what the calls before it left in the process's heap.
    """
    import numpy as np

    state, rows, coeffs = _large_buffers()
    np.multiply.outer(np.array([0.6, 0.8j, 0.0]), _ghz(10), out=state)
    np.copyto(rows.reshape((3,) * 11), np.moveaxis(state.reshape((3,) * 11), 5, 0))
    np.matmul(np.eye(3), rows, out=coeffs)
    return float(sum(np.vdot(row, row).real for row in coeffs) + np.vdot(state, state).real)


def interpreter() -> float:
    """Start-up-like work: compiling Python source, then a pure-Python loop."""
    compile(_SOURCE, "workloads.py", "exec")
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) % 1_000_003
    return float(acc)


KERNELS: dict[str, Callable[[], float]] = {
    "small_registers": small_registers,
    "large_registers": large_registers,
    "interpreter": interpreter,
}
#: Each kernel's time at the machine's nominal speed, a fixed scale: roughly
#: its fast-phase time where the benchmark was defined (2-vCPU Xeon VM,
#: Python 3.11, numpy 2.4).
NOMINAL_NS: dict[str, int] = {
    "small_registers": 3_600_000,
    "large_registers": 1_500_000,
    "interpreter": 5_000_000,
}


def time_kernel(name: str) -> int:
    """Run one kernel and return its wall time in nanoseconds."""
    kernel = KERNELS[name]
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start
