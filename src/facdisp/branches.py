"""Numerical dispersion-branch machinery: real-root isolation (float
estimates certified by exact signs, with exact Sturm isolation as the
fallback), branch tracing by nearest-neighbor continuity on an integer table
compiled once per trace (estimates from one stacked eigenvalue call per degree,
judged real per grid point), the closed-form small-k expansions of the coupled
plate model as coefficient tuples, and the small-frequency Laurent analysis of
S = k^2/w^2 as the polynomial w*S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .models import MindlinParams
from .polyalg import MultiPoly, sqrt_exact

# this module is the package's only numpy user and loads it first; it stays
# below the package imports, as moving it ahead of them (with bytecode
# compiled at import) left 0.4 MiB more heap in a measured process
import numpy as np

# ---------------------------------------------------------------------------
# dense univariate polynomials over Q (internal helpers)
# ---------------------------------------------------------------------------


def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and not c[-1]:
        c.pop()
    return c


def _derivative(c: list[Fraction]) -> list[Fraction]:
    return [c[i] * i for i in range(1, len(c))]


def _divmod_poly(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        factor = a[shift + len(b) - 1] * inv
        q[shift] = factor
        if factor:
            for i, bc in enumerate(b):
                a[shift + i] -= factor * bc
    return _trim(q), _trim(a)


def _gcd_poly(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _divmod_poly(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _yun_squarefree(f: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's squarefree decomposition: [(factor, multiplicity), ...]."""
    df = _derivative(f)
    g = _gcd_poly(f, df)
    if len(g) <= 1:
        return [(f, 1)]
    out = []
    b = _divmod_poly(f, g)[0]
    c = _divmod_poly(df, g)[0]
    d = _trim([x - y for x, y in _zip_pad(c, _derivative(b))])
    i = 1
    while len(b) > 1:
        a = _gcd_poly(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _divmod_poly(b, a)[0]
        c = _divmod_poly(d, a)[0]
        d = _trim([x - y for x, y in _zip_pad(c, _derivative(b))])
        i += 1
    return out


def _zip_pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else Fraction(0), b[i] if i < len(b) else Fraction(0))


def _int_coeffs(c: list[Fraction]) -> list[int]:
    """Scale to integer coefficients (positive overall factor; sign-preserving)."""
    lcm = math.lcm(*(coef.denominator for coef in c))
    return [coef.numerator * (lcm // coef.denominator) for coef in c]


def _sign_at(ic: list[int], num: int, den: int) -> int:
    """Sign of the integer-scaled polynomial at x = num/den (den > 0).

    Evaluates p(num/den) * den^deg by a denominator-clearing Horner scheme,
    so only integer arithmetic is involved.
    """
    acc = ic[-1]
    dp = 1
    for coef in reversed(ic[:-1]):
        dp *= den
        acc = acc * num + coef * dp
    return (acc > 0) - (acc < 0)


def _sturm_chain(c: list[Fraction]) -> list[list[int]]:
    chain = [_trim(c[:]), _trim(_derivative(c))]
    while len(chain[-1]) > 1:
        rem = _divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-x for x in rem])
    if chain and not chain[-1]:
        chain.pop()
    return [_int_coeffs(p) for p in chain if p]


def _variations(chain: list[list[int]], num: int, den: int) -> int:
    signs = [s for s in (_sign_at(p, num, den) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _root_bound(ic: list[int]) -> int:
    """Cauchy bound of the integer-scaled polynomial: 1 + ceil(max|c_i| / |c_n|)."""
    m = max((abs(x) for x in ic[:-1]), default=0)
    return 1 - (-m // abs(ic[-1]))


def _isolate_squarefree(c: list[Fraction]):
    """Isolate all real roots of a squarefree polynomial.

    Returns (exact_roots, intervals) where intervals are dyadic triples
    (a, b, den) for the open-ish interval (a/den, b/den] holding exactly one
    root with nonzero endpoint signs; exact dyadic hits are reported directly.
    """
    chain = _sturm_chain(c)
    ic = _int_coeffs(c)
    bound = _root_bound(ic)
    exact: set[Fraction] = set()
    intervals: list[tuple[int, int, int]] = []
    stack = [(-bound, bound, 1)]
    while stack:
        a, b, den = stack.pop()
        count = _variations(chain, a, den) - _variations(chain, b, den)
        if count == 0:
            continue
        if _sign_at(ic, b, den) == 0:
            exact.add(Fraction(b, den))
            if count == 1:
                continue
        elif count == 1 and _sign_at(ic, a, den) != 0:
            intervals.append((a, b, den))
            continue
        # split at the midpoint (a+b)/2, doubling the dyadic denominator
        mid = a + b
        stack.append((a * 2, mid, den * 2))
        stack.append((mid, b * 2, den * 2))
    return [float(r) for r in exact], intervals


def _halvings(width: int, den: int, tol: float) -> int:
    """Least n >= 0 with width / (den * 2**n) <= tol, in exact integers: as a
    float the quotient overflows for huge root bounds."""
    if math.isinf(tol):
        return 0
    tn, td = tol.as_integer_ratio()
    return (-(-width * td // (tn * den)) - 1).bit_length()


def _refine(ic: list[int], a: int, b: int, den: int, tol: float) -> float:
    """Bisection inside (a/den, b/den); endpoint signs are nonzero and opposite."""
    sa = _sign_at(ic, a, den)
    for _ in range(_halvings(b - a, den, tol)):
        mid = a + b
        a, b, den = a * 2, b * 2, den * 2
        sm = _sign_at(ic, mid, den)
        if sm == 0:
            return mid / den
        if sm == sa:
            a = mid
        else:
            b = mid
    return (a + b) / (2 * den)


def _exact_roots(coeffs: list[Fraction], tol: float) -> list[float]:
    """The Sturm route: Yun's squarefree split, Sturm isolation, then `_refine`."""
    roots: list[float] = []
    for factor, mult in _yun_squarefree(coeffs):
        if len(factor) <= 1:
            continue
        ic = _int_coeffs(factor)
        exact, intervals = _isolate_squarefree(factor)
        found = exact + [_refine(ic, a, b, den, tol) for a, b, den in intervals]
        for r in found:
            roots.extend([r] * mult)
    return sorted(roots)


def _certified_roots(ic: list[int], est: list[float] | None, tol: float) -> list[float] | None:
    """The Sturm route's output from the float estimates `est` of `ic`, or None.

    `_refine` stops on the dyadic grid of [-bound, bound] at the least level M
    whose cell width is <= tol.  If every float root estimate lands in (or next
    to) a level-M cell with nonzero, opposite exact endpoint signs, and the deg
    cells are distinct, the polynomial has deg simple real roots, one per cell.
    Sturm isolation then never splits below level M, so `_refine` ends in
    exactly these cells and returns their midpoints.
    """
    if est is None:
        return None
    bound = _root_bound(ic)
    width = 2 * bound  # every cell's width in units of 1/den
    den = 2 ** _halvings(width, 1, tol)  # the level where `_refine` stops
    cells = set()
    for x in est:
        num, q = x.as_integer_ratio()
        lo = -bound * den + width * ((num + bound * q) * den // (width * q))
        for a in (lo, lo - width, lo + width):
            if _sign_at(ic, a, den) * _sign_at(ic, a + width, den) < 0:
                cells.add(a)
                break
        else:
            return None
    if len(cells) < len(ic) - 1:
        return None
    return [(2 * a + width) / (2 * den) for a in sorted(cells)]


def _roots_of(ics: list[list[int]], tol: float) -> list[list[float]]:
    """The real roots of each nonzero integer polynomial.  The estimates are
    companion-matrix eigenvalues as in np.roots (without its extra steps), from
    one stacked `eigvals` call per degree, judged real per row: a stack's
    result is complex as a whole when one matrix has a complex pair.  Rows not
    certified, or whose coefficient ratio overflows a float, take the Sturm route.
    """
    est: list[list[float] | None] = [None] * len(ics)
    groups: dict[int, list[tuple[int, list[float]]]] = {}
    for i, ic in enumerate(ics):
        try:
            top = [-c / ic[-1] for c in reversed(ic[:-1])]
        except OverflowError:
            continue
        groups.setdefault(len(top), []).append((i, top))
    for deg, rows in groups.items():
        stack = np.zeros((len(rows), deg, deg)) + np.eye(deg, k=-1)
        stack[:, :1] = [[top] for _, top in rows]
        vals = np.linalg.eigvals(stack)
        real = ((vals.imag == 0) & np.isfinite(vals)).all(axis=1).tolist()
        for (i, _), ok, row in zip(rows, real, vals.real.tolist()):
            est[i] = row if ok else None
    return [
        roots if (roots := _certified_roots(ic, e, tol)) is not None
        else _exact_roots([Fraction(c) for c in ic], tol)
        for ic, e in zip(ics, est)
    ]


def real_roots(p: MultiPoly, tol: float = 1e-12, var: str | None = None) -> list[float]:
    """All real roots of a univariate polynomial, repeated per multiplicity.

    The coefficients are scaled to integers.  Float root estimates
    (companion-matrix eigenvalues) are certified with exact integer signs on
    the dyadic cells where Sturm bisection would stop; the output is then
    identical to the Sturm route's.  Otherwise (complex or repeated roots, two
    roots in one cell, a root on a grid point, a coefficient ratio out of
    float range) the roots are isolated exactly by Sturm sequences on each
    squarefree factor and refined by bisection to the absolute tolerance.
    This is a batch of one through the core `trace_branches` runs on a grid.
    The zero polynomial and non-positive or NaN tolerances are rejected.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    ic = _int_coeffs(_trim([Fraction(x) for x in p.univariate_coefficients(var)]))
    if not ic:
        raise ValueError("zero polynomial has no well-defined root set")
    return _roots_of([ic], tol)[0]


# ---------------------------------------------------------------------------
# branch tracing
# ---------------------------------------------------------------------------


@dataclass
class BranchTrace:
    """One dispersion branch: ordered (k, omega) samples plus run metadata."""

    branch_id: int
    samples: list[tuple[float, float]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def ks(self) -> list[float]:
        return [k for k, _ in self.samples]

    @property
    def omegas(self) -> list[float]:
        return [w for _, w in self.samples]

    def last_omega(self) -> float:
        return self.samples[-1][1]


def _monotone_match(prev: list[float], new: list[float]) -> list[tuple[int, int]]:
    """Min-total-distance order-preserving matching between two sorted lists.

    Matches min(len(prev), len(new)) pairs; order preservation is exactly the
    tie-break that keeps the previous step's branch ordering.
    """
    m, n = len(prev), len(new)
    if m == n:  # the only order-preserving matching of all pairs
        return [(i, i) for i in range(m)]
    small, large, swapped = (prev, new, False) if m <= n else (new, prev, True)
    ms, ns = len(small), len(large)
    cost = [[math.inf] * (ns + 1) for _ in range(ms)] + [[0.0] * (ns + 1)]
    choice = [[0] * (ns + 1) for _ in range(ms + 1)]
    for i in range(ms - 1, -1, -1):
        for j in range(ns - 1, -1, -1):
            if ns - j < ms - i:
                continue
            take, skip = abs(small[i] - large[j]) + cost[i + 1][j + 1], cost[i][j + 1]
            cost[i][j], choice[i][j] = (take, 1) if take <= skip else (skip, 0)
    pairs = []
    i = j = 0
    while i < ms and j < ns:
        if choice[i][j]:
            pairs.append((i, j) if not swapped else (j, i))
            i += 1
        j += 1
    return pairs


def _grid_coefficients(dispersion: MultiPoly, kgrid: list, kvar: str, wvar: str) -> list[list[int]]:
    """Integer coefficients in `wvar` at each grid point k = n/d.  With all
    denominators cleared by one positive factor, the terms are grouped by their
    exponents in the other variables into (power p of `kvar`, integer a) pairs,
    summed as a*n^p*d^(K-p): the polynomial at k times lcm*d^K > 0, so no
    coefficient ratio or exact sign changes.  The errors are `real_roots`'s.
    """
    names, terms = dispersion.variables, dispersion.terms
    rest = [i for i, v in enumerate(names) if v != kvar]
    table: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for e, a in zip(terms, _int_coeffs(list(terms.values()))):
        p = sum(e) - sum(e[i] for i in rest)  # the power of kvar
        table.setdefault(tuple(e[i] for i in rest), []).append((p, a))
    K = max((p for pairs in table.values() for p, _ in pairs), default=0)
    out = []
    for k in kgrid:
        n, d = Fraction(k).as_integer_ratio()
        scale = [n**p * d ** (K - p) for p in range(K + 1)]
        vals = {e: s for e, pairs in table.items() if (s := sum(a * scale[p] for p, a in pairs))}
        used = tuple(names[i] for j, i in enumerate(rest) if any(e[j] for e in vals))
        if len(used) > 1:
            raise ValueError(f"polynomial has several variables: {used}")
        if used and used[0] != wvar:
            raise ValueError(f"polynomial is in {used[0]!r}, not {wvar!r}")
        if not vals:
            raise ValueError("zero polynomial has no well-defined root set")
        c = [0] * (1 + max(map(sum, vals)))
        for e, s in vals.items():
            c[sum(e)] = s  # only wvar has a nonzero exponent in e
        out.append(c)
    return out


def trace_branches(
    dispersion: MultiPoly,
    kgrid: Sequence[float],
    tol: float = 1e-12,
    kvar: str = "k",
    wvar: str = "w",
) -> list[BranchTrace]:
    """Thread the real roots in the frequency variable into continuous branches.

    The polynomial is compiled once into an integer table and evaluated in
    integers at every grid point (float, int or Fraction).  The estimates come
    from one stacked eigenvalue call per degree, judged real or complex per
    point, and are certified per point: the roots are those `real_roots` gives.
    Consecutive root sets are joined by the nearest-neighbor matching above.
    Branches may begin or end where roots appear or disappear.
    """
    kgrid = list(kgrid)
    if not kgrid:
        raise ValueError("empty wavenumber grid")
    if any(b <= a for a, b in zip(kgrid, kgrid[1:])):
        raise ValueError("wavenumber grid must be strictly increasing")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    rootsets = _roots_of(_grid_coefficients(dispersion, kgrid, kvar, wvar), tol)
    traces: list[BranchTrace] = []
    active: list[BranchTrace] = []  # kept sorted by their latest frequency
    for k, roots in zip(kgrid, rootsets):
        prev = [t.last_omega() for t in active]
        pairs = _monotone_match(prev, roots)
        matched_new = {j for _, j in pairs}
        surviving = []
        for i, j in pairs:
            active[i].samples.append((k, roots[j]))
            surviving.append(active[i])
        for j, w in enumerate(roots):
            if j not in matched_new:
                t = BranchTrace(len(traces), [(k, w)])
                traces.append(t)
                surviving.append(t)
        surviving.sort(key=lambda t: t.last_omega())
        active = surviving
    traces.sort(key=lambda t: t.branch_id)
    return traces


# ---------------------------------------------------------------------------
# closed-form branch expansions near the origin (coupled plate model)
# ---------------------------------------------------------------------------


def _sqrt_maybe(x: Fraction):
    r = sqrt_exact(x)
    return r if r is not None else math.sqrt(x)


def lower_series(p: MindlinParams) -> tuple:
    """Coefficients (c1, c2, c3) of the pinned parabolic branch
    omega = c1 k^2 + c2 k^4 + c3 k^6 + O(k^8), all proportional to
    sqrt(D/(rho h)): exact Fractions when that root is rational, else floats.
    """
    if p.b <= 0:
        raise ValueError("the branch expansion is singular at b = 0")
    rho, h, D, kG, b = p.rho, p.h, p.D, p.kappa * p.G, p.b
    s = _sqrt_maybe(D / (rho * h))
    c1 = s / b
    c2 = -(12 * D + kG * h**3) / (24 * kG * b**3 * h) * s
    c3 = (4 * D + kG * h**3) * (36 * D + kG * h**3) / (384 * kG**2 * b**5 * h**2) * s
    return c1, c2, c3


def upper_series(p: MindlinParams) -> tuple:
    """Coefficients (w0, d1, d2) of the lifted branch
    omega = w0 + d1 k^2 + d2 k^4 + O(k^6) above the cutoff frequency w0, all
    proportional to sqrt(3/(kappa G rho)): exact Fractions when that root is
    rational, else floats.
    """
    if p.b <= 0:
        raise ValueError("the branch expansion is singular at b = 0")
    rho, h, D, kG, b = p.rho, p.h, p.D, p.kappa * p.G, p.b
    t = _sqrt_maybe(Fraction(3) / (kG * rho))
    w0 = 2 * b * kG / h * t
    d1 = (D + kG * h**3 / 12) / (b * h**2) * t
    d2 = -(144 * D**2 + 72 * D * kG * h**3 + kG**2 * h**6) / (576 * kG * b**3 * h**3) * t
    return w0, d1, d2


def cutoff_frequency(p: MindlinParams) -> float:
    """Threshold frequency below which the upper branch has no real wavenumber."""
    return float(2 * p.b) * math.sqrt(float(3 * p.kappa * p.G / p.rho)) / float(p.h)


# ---------------------------------------------------------------------------
# Laurent analysis of S = k^2/omega^2 for small frequency
# ---------------------------------------------------------------------------


def laurent_PQR(p: MindlinParams):
    """The three parameter combinations entering the small-frequency series."""
    P = p.rho * p.h**3 * p.kappa * p.G / 12 + p.rho * p.D
    Q = p.rho * p.h**3 * p.kappa * p.G / 12 - p.rho * p.D
    R = 2 * p.b * p.kappa * p.G * _sqrt_maybe(p.D * p.rho * p.h)
    return P, Q, R


def laurent_S(p: MindlinParams, sign: int) -> MultiPoly:
    """w * S_+/-(w) for one root S_+/- of the quadratic in S = k^2/w^2.

    Multiplying by w clears the pole of S, so the series is a polynomial in w:
    +-R/(2 kappa G D) + P/(2 kappa G D) w + +-Q^2/(4 kappa G D R) w^2
    -+ Q^4/(16 kappa G D R^3) w^4, exact through w^5 (the w^3 and w^5
    coefficients are exact zeros); restricted to w > 0 (the dispersion
    polynomials are even in the frequency).  When D*rho*h is not a rational
    square, R is a float and the series only approximates w*S.
    """
    if p.b <= 0:
        raise ValueError("the Laurent series is singular at b = 0")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    P, Q, R = laurent_PQR(p)
    kGD = p.kappa * p.G * p.D
    coeffs = {
        (0,): sign * R / (2 * kGD),
        (1,): P / (2 * kGD),
        (2,): sign * Q**2 / (4 * kGD * R),
        (4,): -sign * Q**4 / (16 * kGD * R**3),
    }
    return MultiPoly(("w",), coeffs)


def laurent_quadratic_residual(p: MindlinParams, ws: MultiPoly) -> MultiPoly:
    """Substitute ws = w*S into w^2 times the defining quadratic of S.

    That is kappa*G*D*ws^2 - P*w*ws + rho^2 h^3/12 w^2 - b^2 kappa G rho h,
    in full: its lowest power of w is w^6 when ws is a root through w^5.
    """
    P, _, _ = laurent_PQR(p)
    w = MultiPoly.var("w")
    return (
        ws * ws * (p.kappa * p.G * p.D)
        - w * ws * P
        + w * w * (p.rho**2 * p.h**3 / 12)
        - p.b**2 * p.kappa * p.G * p.rho * p.h
    )


def asymptotic_slopes(p: MindlinParams) -> tuple[float, float]:
    """Large-k branch slopes; identical to the uncoupled (b=0) slopes."""
    s1 = math.sqrt(float(p.kappa * p.G / p.rho))
    s2 = math.sqrt(float(12 * p.D / (p.rho * p.h**3)))
    return s1, s2


def asymptotic_S_values(p: MindlinParams) -> tuple[Fraction, Fraction]:
    """Limits of S_+/- as the frequency grows: rho/(kappa G) and rho h^3/(12 D)."""
    return p.rho / (p.kappa * p.G), p.rho * p.h**3 / (12 * p.D)
