"""Compilation of quadratic space-time homogeneous Lagrangians into their
plane-wave symbol matrices and dispersion polynomials.

A Lagrangian here is (1/2) * sum a[(i,mu);(j,eta)] * v_{i,mu} * v_{j,eta} with
a symmetric coefficient table over (field, multi-index) pairs.  Coefficients
are polynomials in named parameters, so identities can be checked exactly in
symbolic form; numbers enter only when a parameter assignment is applied.

Plane-wave convention: fields proportional to exp(-i(w*t - k.x)), so d/dt maps
to -i*w and d/dx_j to +i*k_j.  The frequency variable is named "w"; spatial
wavevector components are "k" in one dimension and "kx", "ky", "kz" above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .matdet import PolyMatrix
from .polyalg import ComplexPoly, MultiPoly, NumberLike, as_fraction

MultiIndex = tuple[int, ...]
FieldDeriv = tuple[str, MultiIndex]
TermKey = tuple[FieldDeriv, FieldDeriv]

FREQUENCY_VAR = "w"
_AXIS_LETTERS = "txyz"


def wavevector_names(dim: int) -> tuple[str, ...]:
    if dim < 0 or dim > 3:
        raise ValueError("spatial dimension must be 0..3")
    if dim == 0:
        return ()
    if dim == 1:
        return ("k",)
    return tuple("k" + _AXIS_LETTERS[1 : dim + 1][i] for i in range(dim))


def multi_index_from_axes(axes: str, dim: int) -> MultiIndex:
    """Turn a derivative axis string like 'txx' into a multi-index (t,x,y,z counts)."""
    mu = [0] * (dim + 1)
    for ch in axes:
        pos = _AXIS_LETTERS.find(ch)
        if pos < 0:
            raise ValueError(f"unknown derivative axis {ch!r}")
        if pos > dim:
            raise ValueError(f"axis {ch!r} exceeds spatial dimension {dim}")
        mu[pos] += 1
    return tuple(mu)


def axes_from_multi_index(mu: MultiIndex) -> str:
    return "".join(_AXIS_LETTERS[i] * c for i, c in enumerate(mu))


def order(mu: MultiIndex) -> int:
    return sum(mu)


@dataclass(frozen=True)
class QuadraticLagrangian:
    """Symmetric coefficient table of a quadratic Lagrangian.

    `table` maps ((field, mu), (field, eta)) to the coefficient a, stored for
    both orderings of the pair; the Lagrangian value is (1/2) sum a * v * v.
    `param_values` holds the declared numeric value of each parameter symbol.
    `coupling` optionally names the parameter that drives the two-subsystem
    factorization.
    """

    dim: int
    fields: tuple[str, ...]
    table: dict[TermKey, MultiPoly]
    param_values: dict[str, Fraction] = field(default_factory=dict)
    coupling: str | None = None

    def __post_init__(self):
        if len(set(self.fields)) != len(self.fields):
            raise ValueError("duplicate field names")
        for (f1, mu1), (f2, mu2) in self.table:
            for f, mu in ((f1, mu1), (f2, mu2)):
                if f not in self.fields:
                    raise ValueError(f"unknown field {f!r}")
                if len(mu) != self.dim + 1:
                    raise ValueError(
                        f"multi-index {mu} has length {len(mu)}, expected {self.dim + 1}"
                    )
        for key, coef in self.table.items():
            sym = (key[1], key[0])
            if self.table.get(sym, MultiPoly.zero()) != coef:
                raise ValueError(f"coefficient table is not symmetric at {key}")
        if self.coupling is not None and self.coupling not in self.param_values:
            raise ValueError(f"coupling parameter {self.coupling!r} is not declared")

    def __eq__(self, other):
        if not isinstance(other, QuadraticLagrangian):
            return NotImplemented
        clean_self = {k: v for k, v in self.table.items() if not v.is_zero()}
        clean_other = {k: v for k, v in other.table.items() if not v.is_zero()}
        return (
            self.dim == other.dim
            and self.fields == other.fields
            and clean_self == clean_other
            and self.param_values == other.param_values
            and self.coupling == other.coupling
        )

    def scaled(self, factor: NumberLike) -> "QuadraticLagrangian":
        f = as_fraction(factor)
        return QuadraticLagrangian(
            self.dim,
            self.fields,
            {k: v * f for k, v in self.table.items()},
            dict(self.param_values),
            self.coupling,
        )


def symmetrize(
    dim: int,
    fields: Iterable[str],
    raw: Mapping[TermKey, MultiPoly | NumberLike],
    param_values: Mapping[str, NumberLike] | None = None,
    coupling: str | None = None,
) -> QuadraticLagrangian:
    """Average a raw coefficient table over pair orderings: a <- (raw + raw^T)/2."""
    half = Fraction(1, 2)
    sym: dict[TermKey, MultiPoly] = {}
    keys = set(raw) | {(k[1], k[0]) for k in raw}
    for key in keys:
        a = MultiPoly._coerce(raw.get(key, 0))
        b = MultiPoly._coerce(raw.get((key[1], key[0]), 0))
        val = (a + b) * half
        if not val.is_zero():
            sym[key] = val
            sym[(key[1], key[0])] = val
    params = {k: as_fraction(v) for k, v in (param_values or {}).items()}
    return QuadraticLagrangian(dim, tuple(fields), sym, params, coupling)


class LagrangianBuilder:
    """Accumulates literal Lagrangian summands c * (d_mu f1) * (d_eta f2).

    Each summand contributes c to both orderings of its pair, which makes the
    (1/2) sum a v v convention reproduce the literal terms exactly.
    """

    def __init__(self, dim: int, fields: Iterable[str]):
        self.dim = dim
        self.fields = tuple(fields)
        self.raw: dict[TermKey, MultiPoly] = {}
        self.param_values: dict[str, Fraction] = {}
        self.coupling: str | None = None

    def param(self, name: str, value: NumberLike) -> "LagrangianBuilder":
        self.param_values[name] = as_fraction(value)
        return self

    def set_coupling(self, name: str) -> "LagrangianBuilder":
        self.coupling = name
        return self

    def term(
        self,
        coef: MultiPoly | NumberLike,
        f1: str,
        axes1: str,
        f2: str,
        axes2: str,
    ) -> "LagrangianBuilder":
        c = MultiPoly._coerce(coef)
        p1 = (f1, multi_index_from_axes(axes1, self.dim))
        p2 = (f2, multi_index_from_axes(axes2, self.dim))
        for key in ((p1, p2), (p2, p1)):
            self.raw[key] = self.raw.get(key, MultiPoly.zero()) + c
        return self

    def build(self) -> QuadraticLagrangian:
        table = {k: v for k, v in self.raw.items() if not v.is_zero()}
        return QuadraticLagrangian(
            self.dim, self.fields, table, dict(self.param_values), self.coupling
        )


@dataclass(frozen=True)
class SymbolMatrix:
    """Plane-wave symbol matrix of a quadratic Lagrangian.

    Entries are complex polynomials over (w, wavevector, parameters); for the
    real Lagrangians handled here every entry is purely real or purely
    imaginary and the matrix is Hermitian.
    """

    fields: tuple[str, ...]
    dim: int
    matrix: PolyMatrix

    @property
    def n(self) -> int:
        return self.matrix.n

    def entry(self, i: int, j: int) -> ComplexPoly:
        e = self.matrix[i, j]
        return e if isinstance(e, ComplexPoly) else ComplexPoly(e)

    def entry_kind(self, i: int, j: int) -> str:
        e = self.entry(i, j)
        if e.is_zero():
            return "zero"
        if e.im.is_zero():
            return "real"
        if e.re.is_zero():
            return "imaginary"
        return "mixed"

    def is_hermitian(self) -> bool:
        return self.matrix.is_hermitian()

    def determinant(self) -> MultiPoly:
        det = self.matrix.det()
        if isinstance(det, ComplexPoly):
            return det.as_real()
        return det


def _derivative_symbol(mu: MultiIndex, knames: tuple[str, ...]) -> tuple[int, int, MultiPoly]:
    """Symbol of d_mu under the wave convention.

    Returns (i_power mod 4, time order mu0, monomial w^mu0 * prod k_j^mu_j);
    the full symbol is i^{|mu|} * (-1)^{mu0} * monomial.
    """
    mu0 = mu[0]
    mono = MultiPoly.var(FREQUENCY_VAR, mu0) if mu0 else MultiPoly.const(1)
    for name, power in zip(knames, mu[1:]):
        if power:
            mono = mono * MultiPoly.var(name, power)
    return sum(mu) % 4, mu0, mono


def symbol_matrix(lag: QuadraticLagrangian) -> SymbolMatrix:
    """Compile the Euler operator of a quadratic Lagrangian to its symbol matrix.

    Entry (i,j) collects (-1)^{|eta|} a[(i,eta);(j,gamma)] times the plane-wave
    symbol of d_{eta+gamma}.  The combined factor is (-1)^{|eta|+mu0} i^{|mu|}
    with mu = eta+gamma, so entries split into real (|mu| even) and imaginary
    (|mu| odd) accumulators.
    """
    knames = wavevector_names(lag.dim)
    n = len(lag.fields)
    idx = {f: i for i, f in enumerate(lag.fields)}
    re_acc = [[MultiPoly.zero() for _ in range(n)] for _ in range(n)]
    im_acc = [[MultiPoly.zero() for _ in range(n)] for _ in range(n)]
    for ((f1, eta), (f2, gamma)), a in lag.table.items():
        i, j = idx[f1], idx[f2]
        mu = tuple(x + y for x, y in zip(eta, gamma))
        ipow, mu0, mono = _derivative_symbol(mu, knames)
        sign = -1 if (order(eta) + mu0) % 2 else 1
        contrib = a * mono * sign
        if ipow == 0:
            re_acc[i][j] = re_acc[i][j] + contrib
        elif ipow == 1:
            im_acc[i][j] = im_acc[i][j] + contrib
        elif ipow == 2:
            re_acc[i][j] = re_acc[i][j] - contrib
        else:
            im_acc[i][j] = im_acc[i][j] - contrib
    if all(im_acc[i][j].is_zero() for i in range(n) for j in range(n)):
        entries = [[re_acc[i][j] for j in range(n)] for i in range(n)]
    else:
        entries = [
            [ComplexPoly(re_acc[i][j], im_acc[i][j]) for j in range(n)] for i in range(n)
        ]
    return SymbolMatrix(lag.fields, lag.dim, PolyMatrix(entries))


def dispersion_poly(lag: QuadraticLagrangian) -> MultiPoly:
    """Determinant of the symbol matrix: the dispersion polynomial."""
    return symbol_matrix(lag).determinant()


def equal_up_to_signature(a: PolyMatrix, b: PolyMatrix, factor=1) -> bool:
    """True if a == factor * D_s b D_s for some diagonal sign matrix D_s.

    Field sign flips are unobservable in a dispersion relation, so compiled
    and hand-coded matrices are compared modulo such a conjugation (and an
    optional documented overall factor).
    """
    if a.n != b.n:
        return False
    n = a.n
    scaled = b.scale(factor)
    for bits in range(1 << (n - 1)):
        signs = [1] + [1 if bits & (1 << i) else -1 for i in range(n - 1)]
        ok = True
        for i in range(n):
            for j in range(n):
                want = scaled[i, j] * (signs[i] * signs[j])
                have = a[i, j]
                if isinstance(want, ComplexPoly) or isinstance(have, ComplexPoly):
                    want = ComplexPoly._coerce(want)
                    have = ComplexPoly._coerce(have)
                if have != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
