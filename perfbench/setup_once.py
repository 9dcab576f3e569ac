"""Time one set-up of a workload in this fresh interpreter: import facdisp
from `src/` and build round 0's inputs as program objects.

    python3 perfbench/setup_once.py wl_detexp|wl_trace|wl_compile SEED

Prints the time in reference-speed seconds (see clock.py).  Only the
benchmark's own modules are loaded before the timed region, so every import
that facdisp makes, numpy included, is part of the figure.
"""

from __future__ import annotations

import importlib
import sys

import program
from clock import Clock


def main() -> int:
    module, seed = sys.argv[1], int(sys.argv[2])
    program.ensure_source()
    wl = importlib.import_module(module)
    clock = Clock()
    _, spent = clock.measure(_setup, wl, seed)
    print(repr(spent))
    return 0


def _setup(wl, seed: int):
    fd = program.load_program()
    return wl.build_round(fd, seed, 0)


if __name__ == "__main__":
    sys.exit(main())
