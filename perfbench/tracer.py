"""Span tracing of facdisp from outside the program, and the per-layer metrics
derived from the spans.

`Tracer.install` wraps the public functions of each facdisp layer module, and
the public methods, constructors and arithmetic operators of the classes those
modules define.  Each call records a span (name, parent, root, start, end) in
memory; the benchmark opens root spans around set-up, input building and each
operation.  Nothing is written until `write`.  A layer's self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import itertools
import sys
import time
from pathlib import Path

LAYERS = ("polyalg", "matdet", "lagparse", "lagrangian", "models", "branches")
DUNDERS = frozenset(
    ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__neg__", "__pow__", "__matmul__")
)
ROOT_SETUP, ROOT_BUILD, ROOT_OP = "bench.setup", "bench.build", "bench.op"

# span record fields
NAME, PARENT, ROOT, T0, T1, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._op_matrices: dict[int, tuple] = {}
        self._keep: list = []

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        idx = len(self.spans)
        root = self.stack[0] if self.stack else idx
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, root, time.perf_counter(), 0.0, None])
        self.stack.append(idx)

    def end(self) -> None:
        self.spans[self.stack.pop()][T1] = time.perf_counter()
        if not self.stack:
            self._op_matrices.clear()
            self._keep.clear()

    def _wrap(self, name: str, fn, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, stack[0] if stack else idx, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                stack.pop()
            if post is not None:
                rec[EXTRA] = post(args, result)
            return result

        return wrapper

    # -- hooks that tag spans with what the metrics need ------------------------------

    def _post_submatrix(self, args, result):
        src, rows, cols = args[0], tuple(args[1]), tuple(args[2])
        self._keep.append(src)
        self._op_matrices[id(result)] = (result, id(src), rows, cols)
        return None

    def _make_post_det(self, multipoly):
        def post(args, result):
            m = args[0]
            entries = m.entries
            const = all(type(e) is multipoly and not e.variables for row in entries for e in row)
            known = self._op_matrices.get(id(m))
            if known is None:
                self._keep.append(m)
                rng = tuple(range(len(entries)))
                known = (m, id(m), rng, rng)
                self._op_matrices[id(m)] = known
            return (const, known[1], known[2], known[3])

        return post

    @staticmethod
    def _post_roots(args, result):
        return len(result)

    # -- installation ----------------------------------------------------------------

    def install(self, fd) -> None:
        """Wrap the layer modules of a freshly imported facdisp package."""
        posts = {
            "matdet.PolyMatrix.submatrix": self._post_submatrix,
            "matdet.PolyMatrix.det": self._make_post_det(fd.polyalg.MultiPoly),
            "branches.real_roots": self._post_roots,
        }
        replaced = {}
        for layer in LAYERS:
            mod = getattr(fd, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        span = f"{layer}.{name}"
                        replaced[obj] = self._wrap(span, obj, posts.get(span))
                        setattr(mod, name, replaced[obj])
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{name}", obj, posts)
        for modname, mod in list(sys.modules.items()):
            if modname == "facdisp" or modname.startswith("facdisp."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(mod, name, replaced[obj])

    def _wrap_class(self, prefix: str, cls, posts) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            span = f"{prefix}.{attr}"
            if isinstance(val, (staticmethod, classmethod)):
                fn = val.__func__
                if not inspect.isgeneratorfunction(fn):
                    setattr(cls, attr, type(val)(self._wrap(span, fn, posts.get(span))))
            elif inspect.isfunction(val) and not inspect.isgeneratorfunction(val):
                setattr(cls, attr, self._wrap(span, val, posts.get(span)))

    # -- output ----------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV: index, parent, name, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][T0] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as out:
            w = csv.writer(out)
            w.writerow(("index", "parent", "name", "start_ns", "end_ns"))
            w.writerows((i, s[PARENT], s[NAME], round((s[T0] - t0) * 1e9),
                         round((s[T1] - t0) * 1e9)) for i, s in enumerate(self.spans))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times over the spans of one traced pass.

    Everything except `models.build_s` is taken inside operations only;
    `models.build_s` covers set-up and input building, where the models are
    made.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[T1] - s[T0]
    m = dict.fromkeys(
        ("polyalg.init_calls", "polyalg.mul_calls", "polyalg.mul_s", "polyalg.subs_calls",
         "polyalg.subs_s", "polyalg.self_s", "matdet.det_calls", "matdet.submatrix_calls",
         "matdet.det_const_s", "matdet.det_sym_s", "matdet.self_s", "lagparse.parse_calls",
         "lagparse.parse_s", "lagrangian.symbol_s", "models.build_s",
         "branches.real_roots_calls", "branches.real_roots_s", "branches.roots_found",
         "branches.trace_self_s"),
        0,
    )
    minors_total = minors_repeat = 0
    seen: set = set()
    current_op = -1
    for i, s in enumerate(spans):
        name = s[NAME]
        layer = name.split(".", 1)[0]
        dur = s[T1] - s[T0]
        if layer == "models":
            parent = s[PARENT]
            if parent < 0 or not spans[parent][NAME].startswith("models."):
                m["models.build_s"] += dur
            continue
        if spans[s[ROOT]][NAME] != ROOT_OP or i == s[ROOT]:
            continue
        own = dur - child[i]
        if layer == "polyalg":
            m["polyalg.self_s"] += own
            if name == "polyalg.MultiPoly.__init__":
                m["polyalg.init_calls"] += 1
            elif name in ("polyalg.MultiPoly.__mul__", "polyalg.MultiPoly.__rmul__"):
                m["polyalg.mul_calls"] += 1
                m["polyalg.mul_s"] += dur
            elif name == "polyalg.MultiPoly.subs":
                m["polyalg.subs_calls"] += 1
                m["polyalg.subs_s"] += dur
        elif layer == "matdet":
            m["matdet.self_s"] += own
            if name == "matdet.PolyMatrix.submatrix":
                m["matdet.submatrix_calls"] += 1
            elif name == "matdet.PolyMatrix.det":
                m["matdet.det_calls"] += 1
                const, src, rows, cols = s[EXTRA]
                m["matdet.det_const_s" if const else "matdet.det_sym_s"] += dur
                if s[ROOT] != current_op:
                    current_op, seen = s[ROOT], set()
                t, r = _minor_requests(seen, src, rows, cols)
                minors_total += t
                minors_repeat += r
        elif name == "lagparse.parse_lagrangian":
            m["lagparse.parse_calls"] += 1
            m["lagparse.parse_s"] += dur
        elif name == "lagrangian.symbol_matrix":
            m["lagrangian.symbol_s"] += dur
        elif name == "branches.real_roots":
            m["branches.real_roots_calls"] += 1
            m["branches.real_roots_s"] += dur
            m["branches.roots_found"] += s[EXTRA]
        elif name == "branches.trace_branches":
            m["branches.trace_self_s"] += own
    m["matdet.minor_repeat_ratio"] = minors_repeat / minors_total if minors_total else 0.0
    return m


def _minor_requests(seen: set, src: int, rows: tuple, cols: tuple) -> tuple[int, int]:
    """Minors that a first-row cofactor expansion of det(M[rows|cols]) needs.

    They are M[last s rows | any s of cols] for s = 1..r, keyed by the source
    matrix.  Returns (needed, needed earlier in the same operation).
    """
    r = len(rows)
    total = repeat = 0
    for s in range(1, r + 1):
        tail = rows[r - s:]
        for sub in itertools.combinations(cols, s):
            key = (src, tail, sub)
            total += 1
            if key in seen:
                repeat += 1
            else:
                seen.add(key)
    return total, repeat
