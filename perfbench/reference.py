"""Reference figures for the command line: `facdisp verify all` and
`facdisp model <name>` at the default grid.

    python3 perfbench/reference.py

Each command runs in its own interpreter with `src/` on the path, so every
wall time includes interpreter start and package import.  The per-check times
of `verify all` are measured in this process, one check after another.
These figures are for orientation; they are not benchmark metrics.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import program

MODELS = ("mindlin", "twt", "wing", "kirchhoff")


def wall(argv: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(program.SRC))
    code = f"import sys; from facdisp.cli import main; sys.exit(main({argv!r}))"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main() -> int:
    program.ensure_source()
    print(f"facdisp verify all: {wall(['verify', 'all']):.2f} s wall")
    from facdisp.verify import SUITES

    for check in SUITES["all"]:
        t0 = time.perf_counter()
        result = check()
        print(f"  {check.__name__:28s} {time.perf_counter() - t0:6.2f} s  "
              f"{'PASS' if result.passed else 'FAIL'}")
    for name in MODELS:
        print(f"facdisp model {name:9s} {wall(['model', name, '--out', os.devnull]):.2f} s wall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
