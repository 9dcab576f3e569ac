"""Reference arithmetic that shares no code with facdisp.

Determinants of rational matrices come from the Leibniz permutation sum;
polynomial outputs of the program are read through their public `variables`
and `terms` fields into plain dictionaries or into sympy rings, and compared
there.  sympy is imported only by the workloads that need it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

_SIGNS: dict[int, list[tuple[tuple[int, ...], int]]] = {}


def _perm_signs(n: int):
    if n not in _SIGNS:
        out = []
        for perm in itertools.permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            out.append((perm, -1 if inv % 2 else 1))
        _SIGNS[n] = out
    return _SIGNS[n]


def leibniz_det(m: list[list[Fraction]]) -> Fraction:
    """det(m) as the signed sum over all permutations."""
    total = Fraction(0)
    for perm, sign in _perm_signs(len(m)):
        prod = Fraction(sign)
        for i, j in enumerate(perm):
            prod *= m[i][j]
            if not prod:
                break
        total += prod
    return total


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[x * s for x in row] for row in a]


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def poly_dict(p) -> dict[tuple, Fraction]:
    """A facdisp MultiPoly as {((var, exp), ...): coefficient}, zero terms dropped."""
    out: dict[tuple, Fraction] = {}
    for exps, c in p.terms.items():
        if c:
            key = tuple((v, e) for v, e in zip(p.variables, exps) if e)
            out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {k: c for k, c in out.items() if c}


def parts(entry):
    """(real, imaginary) parts of a MultiPoly or ComplexPoly entry; imaginary may be None."""
    if hasattr(entry, "im"):
        return entry.re, entry.im
    return entry, None


def constant(p) -> Fraction:
    """The value of a constant polynomial; raises ValueError if it has variables."""
    d = poly_dict(p)
    if any(key for key in d):
        raise ValueError(f"expected a constant, got a polynomial in {p.variables}")
    return d.get((), Fraction(0))


def poly_eval(p, values: dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for key, c in poly_dict(p).items():
        for v, e in key:
            c *= values[v] ** e
        total += c
    return total


def sympy_ring(gens):
    """The sympy ring QQ_I[gens] and its imaginary unit."""
    from sympy import QQ_I
    from sympy.polys.rings import ring

    R = ring(list(gens), QQ_I)[0]
    return R, R(QQ_I(0, 1))


def to_ring(entry, R, unit):
    """A facdisp MultiPoly or ComplexPoly entry as an element of the sympy ring R."""
    from sympy import Rational

    gens = [str(g) for g in R.symbols]
    K = R.domain

    def conv(p):
        terms = {}
        for key, c in poly_dict(p).items():
            exps = dict(key)
            if not set(exps) <= set(gens):
                raise ValueError(f"variables {sorted(exps)} are not all among {gens}")
            mono = tuple(exps.get(g, 0) for g in gens)
            terms[mono] = K.from_sympy(Rational(c.numerator, c.denominator))
        return R(terms) if terms else R.zero

    re, im = parts(entry)
    return conv(re) if im is None else conv(re) + conv(im) * unit


def ring_det(rows, R):
    """sympy's determinant of a square matrix over the ring R: (-1)^n times the
    constant term of its characteristic polynomial (Berkowitz, division-free)."""
    from sympy.polys.matrices import DomainMatrix

    n = len(rows)
    return DomainMatrix(rows, (n, n), R.to_domain()).charpoly()[-1] * (-1) ** n


def variables_of(entries) -> set[str]:
    out: set[str] = set()
    for e in entries:
        for p in parts(e):
            if p is not None:
                out.update(p.variables)
    return out


def sympy_real_roots(coeffs: list[Fraction], eps: Fraction) -> list[float]:
    """Real roots of sum coeffs[i] x^i, repeated per multiplicity, by sympy's exact
    real-root isolation (`Poly.intervals`, the routine behind `real_roots`) refined
    to intervals narrower than eps; each root is its interval's midpoint."""
    from sympy import QQ, Poly, Rational, Symbol

    x = Symbol("x")
    P = Poly([QQ(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain=QQ)
    out = []
    for (a, b), mult in P.intervals(eps=Rational(eps.numerator, eps.denominator)):
        out.extend([float((Fraction(a.p, a.q) + Fraction(b.p, b.q)) / 2)] * mult)
    return sorted(out)
