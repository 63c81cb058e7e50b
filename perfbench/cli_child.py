"""Run one tritshare command the way ``python -m tritshare`` does, between two
runs of the ``interpreter`` reference kernel.

    python3 perfbench/cli_child.py <tritshare arguments...>

The command's stdout, stderr and exit code are its own. After it, one more
line goes to stderr: ``perfbench-kernel-ns <before> <after>``, the kernel
times just after interpreter start and just after the command, so that the
caller can scale the command's wall time by the speed of the machine during
this very process (see reference.py). The caller strips that line.
"""

from __future__ import annotations

import runpy
import sys

import reference

TIMING_PREFIX = "perfbench-kernel-ns"


def main() -> int:
    before = reference.time_kernel("interpreter")
    sys.argv = ["tritshare", *sys.argv[1:]]
    code: int | str | None = 0
    try:
        runpy.run_module("tritshare", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    after = reference.time_kernel("interpreter")
    if not (code is None or isinstance(code, int)):
        print(code, file=sys.stderr)
        code = 1
    print(f"{TIMING_PREFIX} {before} {after}", file=sys.stderr)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
