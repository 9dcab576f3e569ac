"""Workload `trace`: one `trace_branches` call per operation.

Round 0 holds the nine inputs of `facdisp model` at its defaults, on the
default 601-point grid -0.3..0.3 (which contains k = 0): mindlin `f` and `A`
at b = 0, 1/10, 1/5, then wing (b = 1), twt (b = 1) and kirchhoff.  It is the
same in every run.  Every later round holds eight seeded variants, in a
seeded order, with parameters drawn as p/4 for p in 2..8 (nu from
{0, 1/4, 1/3, 1/2}), b = p/100 for p in 1..25 where b > 0, and grids of
45..55 points:

    mindlin f, b > 0, k = 0 in grid     mindlin A, b > 0, k = 0 in grid
    mindlin f, b = 0                    mindlin A, b = 0, k = 0 in grid
    wing, b > 0                         wing, b = 0, k = 0 in grid
    twt, b > 0                          kirchhoff, k = 0 in grid

A grid with k = 0 is symmetric with half-width 0.2..1; the others start at
0.05..0.5 and span 0.2..1.  At k = 0 the plate factors have a multiple root
w = 0.

Checks: at four seeded grid points of each operation (plus k = 0 when the
grid has it), the roots found must equal sympy's exact real-root isolation of
the same polynomial within 1e-12, multiplicities included.  At b = 0 every
sample must lie on a closed-form branch of one uncoupled factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import sympy_real_roots

NEEDS_SYMPY = True
TRACE_ROUNDS = 3
ROOT_TOL = 1e-12
CHECK_POINTS = 4

_SLOTS = (
    ("mindlin-f", True, True), ("mindlin-A", True, True),
    ("mindlin-f", False, False), ("mindlin-A", False, True),
    ("wing", True, False), ("wing", False, True),
    ("twt", True, False), ("kirchhoff", False, True),
)


@dataclass
class Case:
    label: str
    dispersion: object  # facdisp MultiPoly in k and w
    grid: list[float]
    check_idx: list[int]
    closed: list[tuple[Fraction, int]] | None  # b = 0 branches w^2 = c k^(2p)


def _default_grid() -> list[float]:
    lo, hi, steps = -0.3, 0.3, 601
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _check_idx(rng: random.Random, grid: list[float]) -> list[int]:
    idx = set(rng.sample(range(len(grid)), CHECK_POINTS))
    idx.update(i for i, k in enumerate(grid) if k == 0.0)
    return sorted(idx)


def _mindlin_closed(p, factor):
    rho, h, D, nu, kG = p.rho, p.h, p.D, p.nu, p.kappa * p.G
    if factor == "f":
        return [(6 * D * (1 - nu) / (rho * h**3), 1)]
    return [(12 * D / (rho * h**3), 1), (kG / rho, 1)]


def _defaults(fd) -> list[tuple]:
    m = fd.models
    out = []
    p = m.MindlinParams()
    f, A = m.mindlin_factorized(p)
    for b in (Fraction(0), Fraction(1, 10), Fraction(1, 5)):
        for tag, poly in (("f", f), ("A", A)):
            closed = _mindlin_closed(p, tag) if b == 0 else None
            out.append((f"mindlin-{tag} b={b}", poly.subs({"b": b}), closed))
    out.append(("wing b=1", m.wing_matrix(m.WingParams()).det().subs({"b": 1}), None))
    twt = m.TwtParams(b=Fraction(1))
    out.append(("twt b=1", m.twt_matrix(twt).det().subs({"b": 1}), None))
    one = Fraction(1)
    out.append(("kirchhoff", m.kirchhoff_dispersion(1, 1, 1, radial=True), [(one, 2)]))
    return out


def _q(rng):
    return Fraction(rng.randint(2, 8), 4)


def _variant(fd, rng: random.Random, model: str, coupled: bool, with_zero: bool):
    m = fd.models
    b = Fraction(rng.randint(1, 25), 100) if coupled else Fraction(0)
    steps = 45 + 2 * rng.randint(0, 5)
    if with_zero:
        half = (steps - 1) // 2
        width = rng.uniform(0.2, 1.0)
        grid = [i * (width / half) for i in range(-half, half + 1)]
    else:
        lo, width = rng.uniform(0.05, 0.5), rng.uniform(0.2, 1.0)
        grid = [lo + i * (width / (steps - 1)) for i in range(steps)]
    closed = None
    if model.startswith("mindlin"):
        p = m.MindlinParams(rho=_q(rng), h=_q(rng), D=_q(rng), kappa=_q(rng), G=_q(rng),
                            nu=rng.choice((Fraction(0), Fraction(1, 4), Fraction(1, 3),
                                           Fraction(1, 2))))
        tag = model[-1]
        poly = m.mindlin_factorized(p)[0 if tag == "f" else 1].subs({"b": b})
        if not coupled:
            closed = _mindlin_closed(p, tag)
    elif model == "wing":
        p = m.WingParams(m=_q(rng), Im=_q(rng), E=_q(rng), I=_q(rng), G=_q(rng), J=_q(rng),
                         a=_q(rng), b=b)
        poly = m.wing_matrix(p).det().subs({"b": b})
        if not coupled:
            closed = [(p.G * p.J / p.Im, 1), (p.E * p.I / p.m, 2)]
    elif model == "twt":
        p = m.TwtParams(C=_q(rng), L=_q(rng), Cc=_q(rng), sigma_over_4pi=_q(rng),
                        wrp=_q(rng), v0=_q(rng), b=b)
        poly = m.twt_matrix(p).det().subs({"b": b})
    else:
        rho, h, D = _q(rng), _q(rng), _q(rng)
        poly = m.kirchhoff_dispersion(rho, h, D, radial=True)
        closed = [(D / (rho * h), 2)]
    return f"{model} b={b}", poly, grid, closed


def build_round(fd, seed: int, rnd: int) -> list[Case]:
    rng = random.Random(f"trace:{seed}:{rnd}")
    if rnd == 0:
        grid = _default_grid()
        return [Case(label, poly, grid, _check_idx(rng, grid), closed)
                for label, poly, closed in _defaults(fd)]
    slots = list(_SLOTS)
    rng.shuffle(slots)
    cases = []
    for model, coupled, with_zero in slots:
        label, poly, grid, closed = _variant(fd, rng, model, coupled, with_zero)
        cases.append(Case(label, poly, grid, _check_idx(rng, grid), closed))
    return cases


def run_op(fd, case: Case):
    return fd.branches.trace_branches(case.dispersion, case.grid)


def _coeffs_at(dispersion, k: float) -> list[Fraction]:
    """Coefficients in w of the dispersion polynomial at k, in exact arithmetic."""
    kq = Fraction(k)
    names = dispersion.variables
    out: dict[int, Fraction] = {}
    for exps, c in dispersion.terms.items():
        e = dict(zip(names, exps))
        if set(e) - {"k", "w"}:
            raise ValueError(f"dispersion has variables {names}")
        out[e.get("w", 0)] = out.get(e.get("w", 0), Fraction(0)) + c * kq ** e.get("k", 0)
    deg = max((d for d, c in out.items() if c), default=0)
    return [out.get(d, Fraction(0)) for d in range(deg + 1)]


def check(fd, case: Case, out) -> list[str]:
    roots_at: dict[float, list[float]] = {}
    for t in out:
        for k, w in t.samples:
            roots_at.setdefault(k, []).append(w)
    failures = []
    for i in case.check_idx:
        k = case.grid[i]
        want = sympy_real_roots(_coeffs_at(case.dispersion, k), Fraction(1, 10**16))
        got = sorted(roots_at.get(k, []))
        if len(got) != len(want) or any(abs(a - b) > ROOT_TOL for a, b in zip(got, want)):
            failures.append(f"{case.label}: roots at k={k!r} differ from sympy")
            break
    if case.closed is not None:
        branches = [(math.sqrt(c), p) for c, p in case.closed]
        for k, ws in roots_at.items():
            if not all(any(abs(abs(w) - s * abs(k) ** p) <= 1e-12 + 1e-14 * abs(w)
                           for s, p in branches) for w in ws):
                failures.append(f"{case.label}: a b=0 sample at k={k!r} is off every factor")
                break
    return failures
