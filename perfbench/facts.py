"""Machine and build facts recorded next to every result (read-only probes)."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.metadata
import os
import platform
from pathlib import Path

import numpy as np

_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    """Unified/data cache size per level as the kernel reports it for cpu0."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            shared = _read(str(index / "shared_cpu_list")) or "?"
            sizes[f"L{level}"] = f"{size} (shared by cpus {shared})"
    return sizes


def process_threads() -> int | None:
    for line in (_read("/proc/self/status") or "").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in path and ".so" in path:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                return None
            for symbol in _OPENBLAS_THREAD_QUERIES:
                if hasattr(lib, symbol):
                    query = getattr(lib, symbol)
                    query.restype = ctypes.c_int
                    query.argtypes = []
                    return int(query())
            return None
    return None


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' where it is not a git work tree."""
    git = root / ".git"
    head = _read(str(git / "HEAD"))
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(git / ref))
    if direct:
        return direct
    for line in (_read(str(git / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, to identify the code where git is absent."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": blas_name(),
        "blas_threads": blas_threads(),
        "process_threads": process_threads(),
        "git_commit": git_commit(root),
        "src_digest": source_digest(root / "src"),
    }
