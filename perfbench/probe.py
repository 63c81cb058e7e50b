"""Fresh-interpreter probes for set-up and import time; started by run.py.

    python3 perfbench/probe.py import
    python3 perfbench/probe.py setup <workload> <seed>

``import`` times ``import tritshare``. ``setup`` times ``import tritshare``
plus the workload's first call (run in this interpreter), leaving out the
benchmark's own input generation. The ``interpreter`` reference kernel runs
before the import, between the import and the call, and after the call (a
call made of parts: after each part); each phase is scaled to nominal
speed by the kernel times on its two sides (see reference.py). Prints one JSON object with scaled and raw seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

NOMINAL_NS = reference.NOMINAL_NS["interpreter"]


def _scaled(seconds: float, before_ns: int, after_ns: int) -> float:
    return seconds * 2 * NOMINAL_NS / (before_ns + after_ns)


def main(argv: list[str]) -> int:
    if not (argv == ["import"] or (len(argv) == 3 and argv[0] == "setup")):
        print(__doc__, file=sys.stderr)
        return 2
    k0 = reference.time_kernel("interpreter")
    start = time.perf_counter()
    import tritshare  # noqa: F401

    import_s = time.perf_counter() - start
    k1 = reference.time_kernel("interpreter")
    if argv[0] == "import":
        print(json.dumps({"import_s": _scaled(import_s, k0, k1), "raw_import_s": import_s}))
        return 0

    import workloads

    workload = workloads.WORKLOADS[argv[1]]
    inputs = workload.make_inputs(int(argv[2]), 0)
    if workload.part is None:
        pieces = [(workload.run_inprocess, (inputs,))]
    else:
        pieces = [(workload.part, args) for args in inputs]
    setup_s, raw_setup_s = _scaled(import_s, k0, k1), import_s
    before = k1
    for run_piece, args in pieces:
        start = time.perf_counter()
        run_piece(*args)
        piece_s = time.perf_counter() - start
        after = reference.time_kernel("interpreter")
        setup_s += _scaled(piece_s, before, after)
        raw_setup_s += piece_s
        before = after
    print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
