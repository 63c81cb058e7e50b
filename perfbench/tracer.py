"""Span tracing installed from outside the package.

``Tracer.install`` replaces every public function of the traced layers with
a timing wrapper, on every module that binds it (``tritshare.attacks`` binds
``measure_subsystem`` as well as ``tritshare.core``), and wraps
``PureState.__post_init__`` to count constructions. ``uninstall`` puts every
original binding back.

A span is recorded only while a root span (one benchmark call) is open.
Spans stay in memory as columns (name, start, end, parent, call id, tag)
and are written out once, by ``write``. Self time is a span's duration
minus the wrapper intervals of its children; the wrapper's own bookkeeping
is kept apart as tracer time, so that for every root

    root duration = sum of self times + tracer time

holds exactly, in integer nanoseconds.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

LAYERS = ("core", "operators", "protocol", "attacks", "reporting", "cli")
ROOT_NAME = "bench.call"
CONSTRUCTION_NAME = "core.PureState"

# Per-span tags: the agent count of a sharing session.
_TAGGERS: dict[str, Callable[[tuple, dict], int]] = {
    "protocol.run_sharing_session": lambda args, kwargs: int((args[0] if args else kwargs["cfg"]).num_agents),
}


def _array_bytes(obj: Any) -> int:
    """Bytes of the arrays a core argument or result carries."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(item) for item in obj)
    for attr in ("amplitudes", "entries", "collapsed"):
        value = getattr(obj, attr, None)
        if value is not None:
            return _array_bytes(value)
    return 0


def public_functions(module: Any) -> list[tuple[str, Callable]]:
    """Public callables defined in ``module`` itself (classes excluded)."""
    found = []
    for name, value in vars(module).items():
        if name.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            found.append((name, value))
    return found


class Tracer:
    """Wraps the package's layers and aggregates spans while a root is open."""

    def __init__(self, package: str = "tritshare") -> None:
        self.package = package
        self.names: list[str] = [ROOT_NAME]
        self.ids: dict[str, int] = {ROOT_NAME: 0}
        self.layer_of: list[str] = ["bench"]
        # One row per span.
        self.col_name = array("i")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("q")
        self.col_call = array("q")
        self.col_tag = array("i")
        # Aggregates per name id.
        self.calls: list[int] = [0]
        self.self_ns: list[int] = [0]
        self.errors: list[int] = [0]
        self.core_bytes = 0
        self.tracer_ns = 0
        self.root_ns = 0
        # Open spans: [row, child wrapper ns].
        self._stack: list[list[int]] = []
        self._call_id = -1
        # (owner, attribute, original, wrapper) for every binding replaced.
        self._bindings: list[tuple[Any, str, Any, Callable]] = []

    # -- installation --------------------------------------------------------

    def _collect(self) -> None:
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            for name, fn in public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", layer, fn)
        modules = [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(self.package + ".")]
        for module in modules:
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._bindings.append((module, attr, value, wrapper))
        pure_state = importlib.import_module(f"{self.package}.core").PureState
        original = pure_state.__dict__["__post_init__"]
        self._bindings.append((pure_state, "__post_init__", original, self._wrap(CONSTRUCTION_NAME, "core", original)))

    def install(self) -> None:
        """Put the wrappers in place; the first call builds them."""
        if not self._bindings:
            self._collect()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.ids[name] = name_id
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.errors.append(0)
        counts_bytes = layer == "core"
        tagger = _TAGGERS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            enter = clock()
            row = tracer._open(name_id, tagger(args, kwargs) if tagger else 0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                tracer.errors[name_id] += 1
                tracer._close(row, name_id, start, end, enter)
                raise
            end = clock()
            if counts_bytes:
                tracer.core_bytes += _array_bytes(args) + _array_bytes(result)
            tracer._close(row, name_id, start, end, enter)
            return result

        return functools.update_wrapper(traced, fn)

    # -- spans -----------------------------------------------------------------

    def _open(self, name_id: int, tag: int) -> int:
        row = len(self.col_name)
        self.col_name.append(name_id)
        self.col_start.append(0)
        self.col_end.append(0)
        self.col_parent.append(self._stack[-1][0] if self._stack else -1)
        self.col_call.append(self._call_id)
        self.col_tag.append(tag)
        self._stack.append([row, 0])
        return row

    def _close(self, row: int, name_id: int, start: int, end: int, enter: int) -> None:
        _, child_ns = self._stack.pop()
        self.col_start[row] = start
        self.col_end[row] = end
        duration = end - start
        self.self_ns[name_id] += duration - child_ns
        self.calls[name_id] += 1
        wrapped = time.perf_counter_ns() - enter
        self.tracer_ns += wrapped - duration
        self._stack[-1][1] += wrapped

    @contextlib.contextmanager
    def root(self, call_id: int) -> Iterator[None]:
        """Open the root span of one benchmark call."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._call_id = call_id
        row = self._open(0, 0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            _, child_ns = self._stack.pop()
            self.col_start[row] = start
            self.col_end[row] = end
            self.self_ns[0] += (end - start) - child_ns
            self.calls[0] += 1
            self.root_ns += end - start

    # -- results -----------------------------------------------------------------

    def check_accounting(self) -> None:
        """Self times plus tracer time must cover the root durations exactly."""
        covered = sum(self.self_ns) + self.tracer_ns
        if covered != self.root_ns:
            raise AssertionError(f"span accounting is off: {covered} ns covered, {self.root_ns} ns traced")

    def by_name(self, name: str) -> tuple[int, int, int]:
        """(calls, self ns, errors) of one wrapped function."""
        i = self.ids[name]
        return self.calls[i], self.self_ns[i], self.errors[i]

    def by_layer(self, layer: str) -> tuple[int, int, int]:
        """(calls, self ns, errors) summed over one layer."""
        idx = [i for i, lay in enumerate(self.layer_of) if lay == layer]
        return (
            sum(self.calls[i] for i in idx),
            sum(self.self_ns[i] for i in idx),
            sum(self.errors[i] for i in idx),
        )

    def durations_by_tag(self, name: str) -> dict[int, list[int]]:
        """Span durations (ns) of one function, grouped by tag."""
        wanted = self.ids[name]
        grouped: dict[int, list[int]] = {}
        for row, name_id in enumerate(self.col_name):
            if name_id == wanted:
                grouped.setdefault(self.col_tag[row], []).append(self.col_end[row] - self.col_start[row])
        return grouped

    @property
    def span_count(self) -> int:
        return len(self.col_name)

    def write(self, path: Path) -> None:
        """Write every span as columns of a compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.col_name, dtype=np.int32),
            start_ns=np.frombuffer(self.col_start, dtype=np.int64),
            end_ns=np.frombuffer(self.col_end, dtype=np.int64),
            parent=np.frombuffer(self.col_parent, dtype=np.int64),
            call=np.frombuffer(self.col_call, dtype=np.int64),
            tag=np.frombuffer(self.col_tag, dtype=np.int32),
        )
