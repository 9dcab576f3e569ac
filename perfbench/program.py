"""Loading the facdisp package from the source tree of this checkout.

Every load starts from a clean module state: the facdisp modules are dropped
from `sys.modules` and imported again, so module-level state (such as a cache a
later engine might keep) never carries over from an earlier load.  Third-party
modules that facdisp imports (numpy) stay loaded.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no facdisp source tree next to the benchmark."""


def ensure_source() -> None:
    if not (SRC / "facdisp" / "__init__.py").is_file():
        raise ProgramMissing(f"no facdisp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_program():
    """Import facdisp afresh from `src/` and return the package module."""
    for name in [m for m in sys.modules if m == "facdisp" or m.startswith("facdisp.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    fd = importlib.import_module("facdisp")
    if Path(fd.__file__).resolve().parent != SRC / "facdisp":
        raise ProgramMissing(f"facdisp was imported from {fd.__file__}, not from {SRC}")
    return fd
