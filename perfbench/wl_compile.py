"""Workload `compile`: `.lag` text to dispersion polynomial and its coupling
expansion.

An operation runs `parse_lagrangian`, `symbol_matrix`,
`SymbolMatrix.determinant`, then `coupled_b_expansion` of the symbol matrix
split as A + b*B (A = the entries' b-free terms, B = the rest divided by b),
and `reassemble_b_expansion`.

Round 0 holds the six builtin texts (the same in every run) plus one seeded
round; every later round holds 17 seeded texts in a seeded order, one per
combination of

    group sizes (1,1), (1,2), (2,1), (2,2)  x  dim 1, 2  x  coupling parity even, odd

plus a second text of the costliest combination, (2,2) in 2-D with odd
parity, so that the 90th percentile latency falls among those two rather
than between two combinations.

Each text declares three parameters p0..p2 (values p/q, p in 1..5, q in
1..3) and the coupling b.  Every field gets a kinetic term p*dt*dt and
stiffness terms -1/2 dx*dx (and dy*dy in 2-D); a two-field group gets one
cross term of even total derivative order.  Two terms couple the groups with
the factor b, and one diagonal term carries b^2.  Derivative factors have
order 0..2.  With odd parity the coupling terms have odd total order, so the
symbol matrix has imaginary entries: 9 of the 17 seeded texts in a round
give complex (ComplexPoly) matrices, the other 8 real ones.  Of the builtins
only mindlin gives a complex matrix.

Checks: the symbol matrix is Hermitian; the dispersion polynomial equals
sympy's determinant of the same matrix; the reassembled expansion equals the
dispersion polynomial; at b = 0 the dispersion polynomial equals
det(block 1) * det(block 2) of the two field groups; and rendering the
Lagrangian and parsing it again gives an equal one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import parts, poly_dict, ring_det, sympy_ring, to_ring, variables_of

NEEDS_SYMPY = True
TRACE_ROUNDS = 3

_BUILTIN_GROUPS = {
    "wing": (("theta",), ("w",)),
    "twt": (("Q",), ("q",)),
    "mindlin": (("psiy", "psix"), ("w",)),
    "kirchhoff": None,
    "crosspoint": None,
    "wave": None,
}
_PLAN = [(g, dim, odd) for g in ((1, 1), (1, 2), (2, 1), (2, 2))
         for dim in (1, 2) for odd in (False, True)] + [((2, 2), 2, True)]


@dataclass
class Case:
    label: str
    text: str
    groups: tuple | None  # the two field groups, or None for a single subsystem


def _derivs(dim: int) -> list[str]:
    axes = "tx" if dim == 1 else "txy"
    out = [""] + list(axes)
    out += [a + b for i, a in enumerate(axes) for b in axes[i:]]
    return out


def _text(rng: random.Random, sizes, dim: int, odd: bool):
    g1 = tuple(f"u{i}" for i in range(sizes[0]))
    g2 = tuple(f"v{i}" for i in range(sizes[1]))
    params = ("p0", "p1", "p2")
    lines = [f"dim {dim}", "fields " + " ".join(g1 + g2)]
    lines += [f"param {p} {rng.randint(1, 5)}/{rng.randint(1, 3)}" for p in params]
    lines += ["param b 1", "coupling b"]
    ds = _derivs(dim)

    def coef(extra=""):
        c = f"{rng.choice('+-')}{rng.randint(1, 9)}/{rng.randint(1, 4)}"
        if rng.random() < 0.6:
            c += "*" + rng.choice(params)
        return c + extra

    def pair(parity):
        d1 = rng.choice(ds)
        return d1, rng.choice([d for d in ds if (len(d) + len(d1)) % 2 == parity])

    for grp in (g1, g2):
        for f in grp:
            lines.append(f"term 1/2*{rng.choice(params)} dt({f}) dt({f})")
            lines.append(f"term -1/2 dx({f}) dx({f})")
            if dim == 2:
                lines.append(f"term -1/2 dy({f}) dy({f})")
        if len(grp) == 2:
            d1, d2 = pair(0)
            lines.append(f"term {coef()} d{d1}({grp[0]}) d{d2}({grp[1]})")
    for _ in range(2):
        d1, d2 = pair(1 if odd else 0)
        lines.append(f"term {coef('*b')} d{d1}({rng.choice(g1)}) d{d2}({rng.choice(g2)})")
    f = rng.choice(g1 + g2)
    lines.append(f"term {coef('*b^2')} d({f}) d({f})")
    return "\n".join(lines) + "\n", (g1, g2)


def build_round(fd, seed: int, rnd: int) -> list[Case]:
    rng = random.Random(f"compile:{seed}:{rnd}")
    cases = []
    if rnd == 0:
        for name, groups in _BUILTIN_GROUPS.items():
            cases.append(Case(name, fd.builtin_lagrangian_text(name), groups))
    plan = list(_PLAN)
    rng.shuffle(plan)
    for sizes, dim, odd in plan:
        text, groups = _text(rng, sizes, dim, odd)
        cases.append(Case(f"random {sizes} dim={dim} odd={odd}", text, groups))
    return cases


def _split(fd, matrix, var: str):
    """(A, B) with matrix = A + var*B, A free of var."""
    MultiPoly, ComplexPoly = fd.MultiPoly, fd.ComplexPoly

    def cut(p):
        if var not in p.variables:
            return p, MultiPoly.zero()
        i = p.variables.index(var)
        a = {e: c for e, c in p.terms.items() if not e[i]}
        b = {e[:i] + (e[i] - 1,) + e[i + 1:]: c for e, c in p.terms.items() if e[i]}
        return MultiPoly(p.variables, a), MultiPoly(p.variables, b)

    rows_a, rows_b = [], []
    for row in matrix.entries:
        ra, rb = [], []
        for e in row:
            if isinstance(e, ComplexPoly):
                (a_re, b_re), (a_im, b_im) = cut(e.re), cut(e.im)
                ra.append(ComplexPoly(a_re, a_im))
                rb.append(ComplexPoly(b_re, b_im))
            else:
                a, b = cut(e)
                ra.append(a)
                rb.append(b)
        rows_a.append(ra)
        rows_b.append(rb)
    return fd.PolyMatrix(rows_a), fd.PolyMatrix(rows_b)


def run_op(fd, case: Case):
    lag = fd.parse_lagrangian(case.text)
    sym = fd.symbol_matrix(lag)
    disp = sym.determinant()
    var = lag.coupling or "b"
    a, b = _split(fd, sym.matrix, var)
    expansion = fd.coupled_b_expansion(a, b, var)
    return lag, sym, disp, expansion, fd.reassemble_b_expansion(*expansion, var=var)


def check(fd, case: Case, out) -> list[str]:
    lag, sym, disp, (det_a, coeffs, det_b), total = out
    m = sym.matrix.entries
    n = len(m)
    var = lag.coupling or "b"
    failures = [] if _hermitian(m) else ["symbol matrix is not Hermitian"]
    entries = [e for row in m for e in row] + [disp, det_a, det_b, total] + list(coeffs)
    gens = sorted(variables_of(entries) | {var})
    R, unit = sympy_ring(gens)
    rows = [[to_ring(e, R, unit) for e in row] for row in m]
    d = to_ring(disp, R, unit)
    if ring_det(rows, R) != d:
        failures.append("dispersion polynomial != sympy det of the symbol matrix")
    bsym = R.gens[gens.index(var)]
    re_total = to_ring(det_a, R, unit) + to_ring(det_b, R, unit) * bsym ** n
    for r, c in enumerate(coeffs, start=1):
        re_total += to_ring(c, R, unit) * bsym**r
    if re_total != d or to_ring(total, R, unit) != d:
        failures.append("reassembled coupling expansion != dispersion polynomial")
    if case.groups is not None:
        failures += _check_blocks(lag, rows, d, case.groups, R, bsym)
    rendered = fd.parse_lagrangian(fd.render_lagrangian(lag))
    if _lag_key(rendered) != _lag_key(lag):
        failures.append("render then parse changed the Lagrangian")
    return failures


def _hermitian(m) -> bool:
    n = len(m)
    for i in range(n):
        for j in range(i, n):
            re_ij, im_ij = parts(m[i][j])
            re_ji, im_ji = parts(m[j][i])
            im_ij = poly_dict(im_ij) if im_ij is not None else {}
            im_ji = poly_dict(im_ji) if im_ji is not None else {}
            if poly_dict(re_ij) != poly_dict(re_ji) or im_ij != {k: -c for k, c in im_ji.items()}:
                return False
    return True


def _check_blocks(lag, rows, d, groups, R, bgen) -> list[str]:
    at0 = [[e.subs(bgen, 0) for e in row] for row in rows]
    idx = [[lag.fields.index(f) for f in g] for g in groups]
    if any(at0[i][j] for i in idx[0] for j in idx[1]):
        return ["symbol matrix at b=0 couples the two field groups"]
    dets = [ring_det([[at0[i][j] for j in g] for i in g], R) for g in idx]
    if dets[0] * dets[1] != d.subs(bgen, 0):
        return ["dispersion at b=0 != det(block 1) * det(block 2)"]
    return []


def _lag_key(lag):
    table = {k: poly_dict(v) for k, v in lag.table.items() if poly_dict(v)}
    return lag.dim, lag.fields, table, dict(lag.param_values), lag.coupling
