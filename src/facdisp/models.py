"""Hand-coded system matrices and factorized dispersion functions for the four
reference models: the traveling wave tube, the torsion-bending wing beam, the
shear-deformable (Mindlin-Reissner) plate, and the classical Kirchhoff plate.

All matrices are exact: parameters are rationals, the coupling amplitude `b`
is a polynomial variable, and identities are checked as polynomial identities.
Frequency is the variable `w`; wavenumbers are `k` (radial / 1D) or `kx, ky`.
`MODELS` records what `facdisp model` traces for each of the four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .matdet import CoupledSystem, PolyMatrix
from .polyalg import ComplexPoly, MultiPoly, NumberLike, as_fraction

_W = MultiPoly.var


def _positive(name: str, value: Fraction) -> Fraction:
    if value <= 0:
        raise ValueError(f"parameter {name} must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# traveling wave tube
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwtParams:
    """Transmission-line + electron-beam parameters.

    `sigma_over_4pi` is the beam conductivity parameter divided by 4*pi, kept
    rational so that beta = sigma_over_4pi * wrp**2 and the principal coupling
    parameter gamma = b**2 * beta / C are exact.
    """

    C: Fraction = Fraction(1)
    L: Fraction = Fraction(1)
    Cc: Fraction = Fraction(1)
    sigma_over_4pi: Fraction = Fraction(1)
    wrp: Fraction = Fraction(1)
    v0: Fraction = Fraction(1)
    b: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("C", "L", "Cc", "sigma_over_4pi", "wrp"):
            object.__setattr__(self, name, _positive(name, as_fraction(getattr(self, name))))
        object.__setattr__(self, "v0", as_fraction(self.v0))
        b = as_fraction(self.b)
        if b < 0:
            raise ValueError("coupling amplitude b must be non-negative")
        object.__setattr__(self, "b", b)

    @property
    def beta(self) -> Fraction:
        return self.sigma_over_4pi * self.wrp**2

    @property
    def gamma(self) -> Fraction:
        """Principal coupling parameter; zero exactly when b is zero."""
        return self.b**2 * self.beta / self.C

    @property
    def line_speed(self) -> float:
        return 1 / math.sqrt(float(self.C * self.L))

    @property
    def cutoff(self) -> float:
        return 1 / math.sqrt(float(self.Cc * self.L))


def twt_matrix(p: TwtParams) -> PolyMatrix:
    """The 2x2 wavenumber-form system matrix, polynomial in (k, w, b).

    gamma is held as the fixed numeric principal parameter, which is exactly
    what makes the b-scaling identity an identity: the b=1 matrix carries no b.
    """
    if p.b == 0:
        raise ValueError("the gamma-normalized matrix needs b > 0")
    k, w, b = _W("k"), _W("w"), _W("b")
    ksq = k * k
    m11 = ksq + Fraction(p.C, 1) / p.Cc - p.C * p.L * w * w
    m12 = b * ksq
    shifted = (w - p.v0 * k) ** 2
    m22 = b * b * ksq + b * b * (MultiPoly.const(p.wrp**2) - shifted) * (1 / p.gamma)
    return PolyMatrix([[m11, m12], [m12, m22]])


def twt_matrix_raw(p: TwtParams) -> PolyMatrix:
    """The C-scaled Euler form of the system matrix, before gamma normalization.

    Entry (2,2) is b^2 k^2 + (C/beta)(wrp^2 - (w - v0 k)^2).  As a polynomial
    in b this differs from the gamma form (which absorbs b^2/gamma into the
    fixed principal parameter); the two agree exactly once b is evaluated at
    the numeric coupling amplitude.
    """
    k, w, b = _W("k"), _W("w"), _W("b")
    ksq = k * k
    m11 = ksq + Fraction(p.C, 1) / p.Cc - p.C * p.L * w * w
    m12 = b * ksq
    shifted = (w - p.v0 * k) ** 2
    m22 = b * b * ksq + (MultiPoly.const(p.wrp**2) - shifted) * (p.C / p.beta)
    return PolyMatrix([[m11, m12], [m12, m22]])


def twt_u_matrix(p: TwtParams) -> PolyMatrix:
    """The phase-velocity form, scaled by u**2 so entries stay polynomial in (u, w, b)."""
    if p.b == 0:
        raise ValueError("the gamma-normalized matrix needs b > 0")
    u, w, b = _W("u"), _W("w"), _W("b")
    wsq = w * w
    m11 = wsq + u * u * (Fraction(p.C, 1) / p.Cc) - p.C * p.L * wsq * u * u
    m12 = b * wsq
    shifted = wsq * (u - MultiPoly.const(p.v0)) ** 2
    m22 = b * b * wsq + b * b * (u * u * p.wrp**2 - shifted) * (1 / p.gamma)
    return PolyMatrix([[m11, m12], [m12, m22]])


def scaling_matrix(b_symbol: str = "b") -> PolyMatrix:
    """diag(1, b): the conjugation that carries the b=1 matrix to general b."""
    return PolyMatrix.diagonal([MultiPoly.const(1), MultiPoly.var(b_symbol)])


def twt_scaling_holds(m: PolyMatrix, b_symbol: str = "b") -> bool:
    """Exact check of M(b) = D_b M(1) D_b as a polynomial identity."""
    d = scaling_matrix(b_symbol)
    at_one = m.subs({b_symbol: 1})
    return m == d @ at_one @ d


# ---------------------------------------------------------------------------
# airplane wing (torsion-bending beam)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WingParams:
    m: Fraction = Fraction(1)
    Im: Fraction = Fraction(1)
    E: Fraction = Fraction(1)
    I: Fraction = Fraction(1)
    G: Fraction = Fraction(1)
    J: Fraction = Fraction(1)
    a: Fraction = Fraction(1)
    b: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("m", "Im", "E", "I", "G", "J"):
            object.__setattr__(self, name, _positive(name, as_fraction(getattr(self, name))))
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))

    @property
    def EI(self) -> Fraction:
        return self.E * self.I

    @property
    def GJ(self) -> Fraction:
        return self.G * self.J


def wing_matrix(p: WingParams) -> PolyMatrix:
    """The 2x2 torsion-bending matrix against fields (theta, w), in (k, w, b).

    Note the coupling enters the determinant with k^4 (direct expansion of
    this matrix); a k^2 variant seen in some displays of the determinant does
    not match the matrix, which is authoritative here.
    """
    k, w, b = _W("k"), _W("w"), _W("b")
    k2, k4, w2 = k * k, k**4, w * w
    m11 = p.Im * w2 - (b * b * p.a**2 * p.EI * k2 + MultiPoly.const(p.GJ)) * k2
    m12 = b * p.a * p.EI * k4
    m22 = p.m * w2 - p.EI * k4
    return PolyMatrix([[m11, m12], [m12, m22]])


def wing_system(p: WingParams) -> CoupledSystem:
    """The wing as a coupled system: torsion block, bending block, k^4 coupling."""
    k, w, b = _W("k"), _W("w"), _W("b")
    k2, k4, w2 = k * k, k**4, w * w
    lam1 = PolyMatrix([[p.Im * w2 - p.GJ * k2]])
    lam2 = PolyMatrix([[p.m * w2 - p.EI * k4]])
    off = b * p.a * p.EI * k4
    diag_shift = -(b * b) * p.a**2 * p.EI * k4
    coupling = PolyMatrix([[diag_shift, off], [off, MultiPoly.zero()]])
    return CoupledSystem(lam1, lam2, coupling)


# ---------------------------------------------------------------------------
# Mindlin-Reissner plate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MindlinParams:
    """Plate parameters; the flexural rigidity D may be given directly or
    derived from a Young modulus E via D = E h^3 / (12 (1 - nu^2)).

    nu may equal 1/2 (the reference data set uses it); only the longitudinal
    wave speed is undefined there.
    """

    rho: Fraction = Fraction(1)
    h: Fraction = Fraction(1)
    D: Fraction | None = Fraction(1)
    nu: Fraction = Fraction(1, 2)
    kappa: Fraction = Fraction(1)
    G: Fraction = Fraction(1)
    b: Fraction = Fraction(0)
    E: Fraction | None = None

    def __post_init__(self):
        for name in ("rho", "h", "kappa", "G"):
            object.__setattr__(self, name, _positive(name, as_fraction(getattr(self, name))))
        nu = as_fraction(self.nu)
        if not (-1 < nu <= Fraction(1, 2)):
            raise ValueError(f"Poisson ratio must lie in (-1, 1/2], got {nu}")
        object.__setattr__(self, "nu", nu)
        b = as_fraction(self.b)
        if b < 0:
            raise ValueError("coupling amplitude b must be non-negative")
        object.__setattr__(self, "b", b)
        E = None if self.E is None else _positive("E", as_fraction(self.E))
        object.__setattr__(self, "E", E)
        D = None if self.D is None else _positive("D", as_fraction(self.D))
        if D is None:
            if E is None:
                raise ValueError("supply D or E")
            D = E * self.h**3 / (12 * (1 - nu**2))
        elif E is not None and D != E * self.h**3 / (12 * (1 - nu**2)):
            raise ValueError("inconsistent D and E: D must equal E h^3/(12(1-nu^2))")
        object.__setattr__(self, "D", D)


def mindlin_default_params(b: NumberLike = 0) -> MindlinParams:
    """The reference data set: rho = h = D = kappa = G = 1, nu = 1/2."""
    return MindlinParams(b=b)


def mindlin_full_matrix(p: MindlinParams) -> PolyMatrix:
    """The Hermitian 3x3 plate matrix against fields (psi_y, psi_x, w), in (kx, ky, w, b).

    The rotation block is real; the rotation-deflection coupling is purely
    imaginary and changes sign across the diagonal.
    """
    kx, ky, w, b = _W("kx"), _W("ky"), _W("w"), _W("b")
    w2 = w * w
    rot = p.rho * p.h**3 * Fraction(1, 12) * w2 - p.kappa * p.h * p.G * b * b
    half = Fraction(1, 2)
    a11 = rot - p.D * ((1 - p.nu) * half * kx * kx + ky * ky)
    a22 = rot - p.D * ((1 - p.nu) * half * ky * ky + kx * kx)
    a12 = -p.D * (1 + p.nu) * half * kx * ky
    cy = p.kappa * p.h * p.G * b * ky
    cx = p.kappa * p.h * p.G * b * kx
    m33 = p.h * (p.rho * w2 - p.kappa * p.G * (kx * kx + ky * ky))
    z = MultiPoly.zero()
    return PolyMatrix(
        [
            [ComplexPoly(a11), ComplexPoly(a12), ComplexPoly(z, -cy)],
            [ComplexPoly(a12), ComplexPoly(a22), ComplexPoly(z, -cx)],
            [ComplexPoly(z, cy), ComplexPoly(z, cx), ComplexPoly(m33)],
        ]
    )


def mindlin_radial_matrix(p: MindlinParams) -> PolyMatrix:
    """The block-diagonal form in the rotated basis, with symbolic radial k.

    Basis order: (in-plane-shear/deflection pair first and second, pure
    transverse rotation third); entries polynomial in (k, w, b).
    """
    k, w, b = _W("k"), _W("w"), _W("b")
    f, _ = mindlin_factorized(p)
    w2, k2 = w * w, k * k
    g = p.rho * p.h**3 * Fraction(1, 12) * w2 - p.D * k2 - b * b * p.h * p.kappa * p.G
    m11 = p.h * (p.rho * w2 - p.kappa * p.G * k2)
    off = p.kappa * p.h * p.G * b * k
    z = MultiPoly.zero()
    return PolyMatrix(
        [
            [ComplexPoly(m11), ComplexPoly(z, off), ComplexPoly(z)],
            [ComplexPoly(z, -off), ComplexPoly(g), ComplexPoly(z)],
            [ComplexPoly(z), ComplexPoly(z), ComplexPoly(f)],
        ]
    )


def mindlin_factorized(p: MindlinParams) -> tuple[MultiPoly, MultiPoly]:
    """The two factors (f, A) of the dispersion determinant, in (k, w, b).

    det of the radial matrix equals h * f * A exactly; f carries the pure
    transverse rotation mode, A the coupled bending-shear modes.
    """
    k, w, b = _W("k"), _W("w"), _W("b")
    w2, k2 = w * w, k * k
    rot_inertia = p.rho * p.h**3 * Fraction(1, 12)
    f = rot_inertia * w2 - p.D * (1 - p.nu) * Fraction(1, 2) * k2 - b * b * p.kappa * p.h * p.G
    A = (rot_inertia * w2 - p.D * k2) * (p.rho * w2 - p.kappa * p.G * k2) \
        - b * b * p.kappa * p.G * p.rho * p.h * w2
    return f, A


def wave_speeds(p: MindlinParams) -> tuple[float, float, float]:
    """(c_L, c_T, c_P): bulk longitudinal, bulk transverse, thin-plate extensional.

    Uses E directly when supplied, else E = 2 G (1 + nu).  c_L diverges as nu
    approaches 1/2 and is rejected there.
    """
    nu = p.nu
    E = p.E if p.E is not None else 2 * p.G * (1 + nu)
    if nu == Fraction(1, 2):
        raise ValueError("longitudinal speed is infinite at nu = 1/2")
    cL = math.sqrt(float(E * (1 - nu) / (p.rho * (1 + nu) * (1 - 2 * nu))))
    cT = math.sqrt(float(E / (2 * p.rho * (1 + nu))))
    cP = math.sqrt(float(E / (p.rho * (1 - nu**2))))
    return cL, cT, cP


def velocity_residual_A(p: MindlinParams, c: float, k: float) -> float:
    """Residual of the phase-velocity form of the coupled factor A at (c, k).

    (h^2 k^2 / 12)(1 - c^2/(kappa c_T^2))(c_P^2/c^2 - 1) - b^2 with
    c_T^2 = G/rho and c_P^2 = 12 D/(rho h^3); zero exactly on solutions of
    A(k, ck) = 0.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    if c == 0:
        raise ValueError("velocity must be nonzero")
    cT2 = float(p.G / p.rho)
    cP2 = float(12 * p.D / (p.rho * p.h**3))
    h2k2 = float(p.h) ** 2 * k * k
    return h2k2 / 12 * (1 - c * c / (float(p.kappa) * cT2)) * (cP2 / (c * c) - 1) - float(
        p.b
    ) ** 2


# ---------------------------------------------------------------------------
# Kirchhoff plate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KirchhoffParams:
    """Density, thickness and flexural rigidity; `kirchhoff_dispersion` checks them."""

    rho: Fraction = Fraction(1)
    h: Fraction = Fraction(1)
    D: Fraction = Fraction(1)


def kirchhoff_dispersion(
    rho: NumberLike, h: NumberLike, D: NumberLike, radial: bool = False
) -> MultiPoly:
    """rho h w^2 - D k^4, with k^2 = kx^2 + ky^2 in the planar form."""
    rho, h, D = as_fraction(rho), as_fraction(h), as_fraction(D)
    if rho <= 0 or h <= 0 or D <= 0:
        raise ValueError("parameters must be positive")
    w = _W("w")
    if radial:
        ksq = _W("k") ** 2
    else:
        ksq = _W("kx") ** 2 + _W("ky") ** 2
    return rho * h * w * w - D * ksq * ksq


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """What `facdisp model` traces for one reference system.

    `params` is the parameter dataclass, whose defaults are the reference data;
    `b_values` are the default coupling amplitudes; `factors(params, b)` gives
    the tagged polynomials in (k, w) whose real roots are traced at one b.
    """

    params: type
    b_values: tuple[Fraction, ...]
    factors: Callable[..., list[tuple[str, MultiPoly]]]


MODELS: dict[str, Model] = {
    "twt": Model(TwtParams, (Fraction(1),),
                 lambda p, b: [("", twt_matrix(replace(p, b=b)).det().subs({"b": b}))]),
    "wing": Model(WingParams, (Fraction(1),),
                  lambda p, b: [("", wing_matrix(p).det().subs({"b": b}))]),
    "mindlin": Model(MindlinParams, (Fraction(0), Fraction(1, 10), Fraction(1, 5)),
                     lambda p, b: [(tag, f.subs({"b": b}))
                                   for tag, f in zip("fA", mindlin_factorized(p))]),
    "kirchhoff": Model(KirchhoffParams, (Fraction(0),),
                       lambda p, b: [("", kirchhoff_dispersion(p.rho, p.h, p.D, radial=True))]),
}
