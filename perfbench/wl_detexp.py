"""Workload `detexp`: the determinant-expansion identities on constant matrices.

One round holds 34 operations in a seeded order, each on freshly drawn
entries (integers in -9..9, or rationals p/q with p in -9..9, q in 1..9):

- `markus_expansion(A, B)`: n = 2, 3, 4 once and n = 5 twice, per entry kind;
- `coupled_b_expansion(A, B0 + b*B1)` then `reassemble_b_expansion`:
  n = 2, 3, 4 per entry kind (B1 integer in -3..3);
- `laplace_expand(M, rows)` along a random proper row set: n = 2, 3, 4 once
  and n = 5 twice, per entry kind;
- `PolyMatrix.adjugate`: n = 2..5 per kind.

The operation mix places the percentiles inside blocks of one kind of
operation rather than between two kinds: the four n = 5 Laplace expansions
hold the median, and the four n = 5 Markus expansions, the costliest eighth
of the round, hold the 90th percentile.  Checks use the benchmark's own
Leibniz determinant in exact rational arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import constant, leibniz_det, mat_add, mat_mul, mat_scale, poly_eval

NEEDS_SYMPY = False
TRACE_ROUNDS = 3

_PLAN = (
    [("markus", n, kind) for kind in ("int", "frac") for n in (2, 3, 4, 5, 5)]
    + [("coupled", n, kind) for kind in ("int", "frac") for n in (2, 3, 4)]
    + [("laplace", n, kind) for kind in ("int", "frac") for n in (2, 3, 4, 5, 5)]
    + [("adjugate", n, kind) for kind in ("int", "frac") for n in (2, 3, 4, 5)]
)


@dataclass
class Case:
    op: str
    n: int
    args: tuple  # program objects handed to facdisp
    raw: dict  # the same inputs as Fractions, for the checks


def _entry(rng: random.Random, kind: str) -> Fraction:
    if kind == "int":
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _matrix(rng, n, kind):
    return [[_entry(rng, kind) for _ in range(n)] for _ in range(n)]


def build_round(fd, seed: int, rnd: int) -> list[Case]:
    rng = random.Random(f"detexp:{seed}:{rnd}")
    plan = list(_PLAN)
    rng.shuffle(plan)
    bvar = fd.MultiPoly.var("b")
    cases = []
    for op, n, kind in plan:
        a = _matrix(rng, n, kind)
        if op == "markus":
            b = _matrix(rng, n, kind)
            cases.append(Case(op, n, (fd.PolyMatrix(a), fd.PolyMatrix(b)), {"a": a, "b": b}))
        elif op == "coupled":
            b0 = _matrix(rng, n, kind)
            b1 = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            bmat = fd.PolyMatrix([[b0[i][j] + b1[i][j] * bvar for j in range(n)]
                                  for i in range(n)])
            points: set[Fraction] = set()
            while len(points) < 2 * n + 1:
                points.add(Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
            cases.append(Case(op, n, (fd.PolyMatrix(a), bmat),
                              {"a": a, "b0": b0, "b1": b1, "points": sorted(points)}))
        elif op == "laplace":
            size = rng.randint(1, n - 1)
            rows = tuple(sorted(rng.sample(range(1, n + 1), size)))
            cases.append(Case(op, n, (fd.PolyMatrix(a), fd.IndexSet(rows, n)), {"a": a}))
        else:
            cases.append(Case(op, n, (fd.PolyMatrix(a),), {"a": a}))
    return cases


def run_op(fd, case: Case):
    if case.op == "markus":
        return fd.markus_expansion(*case.args)
    if case.op == "coupled":
        parts = fd.coupled_b_expansion(*case.args)
        return parts, fd.reassemble_b_expansion(*parts)
    if case.op == "laplace":
        return fd.laplace_expand(*case.args)
    return case.args[0].adjugate()


def check(fd, case: Case, out) -> list[str]:
    """Names of the checks that the output fails; empty when it is right."""
    raw = case.raw
    try:
        if case.op == "markus":
            ok = constant(out) == leibniz_det(mat_add(raw["a"], raw["b"]))
            return [] if ok else ["markus != det(A+B)"]
        if case.op == "laplace":
            return [] if constant(out) == leibniz_det(raw["a"]) else ["laplace != det(M)"]
        if case.op == "adjugate":
            n = case.n
            adj = [[constant(out.entries[i][j]) for j in range(n)] for i in range(n)]
            d = leibniz_det(raw["a"])
            ident = [[d if i == j else Fraction(0) for j in range(n)] for i in range(n)]
            return [] if mat_mul(raw["a"], adj) == ident else ["A adj(A) != det(A) I"]
        return _check_coupled(case, out)
    except ValueError as exc:
        return [f"{case.op}: malformed output ({exc})"]


def _check_coupled(case: Case, out) -> list[str]:
    (det_a, coeffs, det_b), total = out
    raw, n = case.raw, case.n
    failures = []
    if constant(det_a) != leibniz_det(raw["a"]):
        failures.append("coupled: det A")
    if len(coeffs) != n - 1:
        failures.append("coupled: number of coefficients")
    if set(total.variables) - {"b"}:
        failures.append("coupled: reassembled polynomial has variables besides b")
        return failures
    for b in raw["points"]:
        bmat = mat_add(raw["b0"], mat_scale(raw["b1"], b))
        if poly_eval(det_b, {"b": b}) != leibniz_det(bmat):
            failures.append("coupled: det B(b)")
            break
        direct = leibniz_det(mat_add(raw["a"], mat_scale(bmat, b)))
        if poly_eval(total, {"b": b}) != direct:
            failures.append("coupled: reassembled != det(A + b B(b))")
            break
    return failures
