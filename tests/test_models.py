import math
from fractions import Fraction as F

import pytest

from facdisp.branches import trace_branches
from facdisp.matdet import PolyMatrix
from facdisp.models import (
    MindlinParams,
    TwtParams,
    WingParams,
    kirchhoff_dispersion,
    mindlin_default_params,
    mindlin_factorized,
    mindlin_full_matrix,
    mindlin_radial_matrix,
    twt_matrix,
    twt_matrix_raw,
    twt_scaling_holds,
    twt_u_matrix,
    velocity_residual_A,
    wave_speeds,
    wing_matrix,
    wing_system,
)
from facdisp.polyalg import ComplexPoly, MultiPoly
from facdisp.verify import _compose

W = MultiPoly.var("w")
K = MultiPoly.var("k")
B = MultiPoly.var("b")

# the rational circle kx = t(1-u^2), ky = 2tu, k = t(1+u^2), and on it the
# rotation to the plate's mode basis scaled by k (columns: deflection axis,
# longitudinal and transverse in-plane directions) and its transpose
T, U = MultiPoly.var("t"), MultiPoly.var("u")
KX, KY, KR = T * (1 - U * U), 2 * T * U, T * (1 + U * U)
KT = PolyMatrix([[0, KY, -KX], [0, KX, KY], [KR, 0, 0]])
KTT = PolyMatrix([[0, 0, KR], [KY, KX, 0], [-KX, KY, 0]])


def on_circle(m: PolyMatrix) -> PolyMatrix:
    def put(e):
        for var, q in (("kx", KX), ("ky", KY), ("k", KR)):
            e = ComplexPoly(_compose(e.re, var, q), _compose(e.im, var, q))
        return e

    return PolyMatrix([[put(m[i, j]) for j in range(m.n)] for i in range(m.n)])


class TestTwt:
    def test_block_diagonal_at_zero_coupling(self):
        m = twt_matrix(TwtParams()).subs({"b": 0})
        assert m[0, 0] == K**2 + 1 - W**2
        assert m[0, 1].is_zero()
        assert m[1, 1].is_zero()  # the b^2 prefactor annihilates the beam block

    def test_scaling_identity_exact(self):
        p = TwtParams(C=F(2), L=F(3), Cc=F(5), sigma_over_4pi=F(1, 2),
                      wrp=F(2), v0=F(1, 3), b=F(1, 4))
        assert twt_scaling_holds(twt_matrix(p))
        assert twt_scaling_holds(twt_u_matrix(p))

    def test_det_at_zero_wavenumber(self):
        p = TwtParams()
        det = twt_matrix(p).det().subs({"k": 0})
        want = (MultiPoly.const(p.C / p.Cc) - p.C * p.L * W**2) * (
            (MultiPoly.const(p.wrp**2) - W**2) * (1 / p.gamma) * B**2
        )
        assert det == want

    def test_gamma_zero_iff_b_zero(self):
        assert TwtParams(b=0).gamma == 0
        assert TwtParams(b=F(1, 2)).gamma > 0
        with pytest.raises(ValueError):
            twt_matrix(TwtParams(b=0))

    def test_gamma_form_equals_raw_form_at_numeric_b(self):
        p = TwtParams(b=F(2, 5))
        bb = {"b": p.b}
        assert twt_matrix(p).subs(bb) == twt_matrix_raw(p).subs(bb)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            TwtParams(C=0)

    def test_derived_speeds(self):
        p = TwtParams(C=F(1, 4), L=F(1), Cc=F(1, 16))
        assert p.line_speed == pytest.approx(2.0)
        assert p.cutoff == pytest.approx(4.0)
        assert p.beta == p.sigma_over_4pi * p.wrp**2


class TestWing:
    def test_torsion_branch_root(self):
        p = WingParams()
        g1 = wing_system(p).g1
        # on the torsion branch w = k sqrt(GJ/Im)
        assert g1.eval({"w": 2.0, "k": 2.0}) == pytest.approx(0.0, abs=1e-14)

    def test_full_determinant_at_zero_coupling(self):
        sys = wing_system(WingParams())
        det0 = sys.full_determinant().subs({"b": 0})
        assert det0 == sys.g1 * sys.g2

    def test_remainder_value(self):
        # remainder / b^2 at (k, w) = (1, 1) is -a^2 EI m = -a^2 at unit EI, m
        p = WingParams(a=F(3, 2))
        rem = wing_system(p).remainder
        val = rem.coefficient("b", 2).eval_exact({"k": 1, "w": 1})
        assert val == -p.a**2

    def test_matrix_matches_system(self):
        p = WingParams(E=2, I=3, G=2, J=F(1, 2), a=F(2))
        sys = wing_system(p)
        assert wing_matrix(p).det() == sys.g1 * sys.g2 + sys.remainder


class TestMindlinMatrices:
    def test_zero_coupling_block_structure(self):
        m = mindlin_full_matrix(mindlin_default_params()).subs({"b": 0})
        for i in range(2):
            assert m[i, 2].is_zero()
            assert m[2, i].is_zero()
        kx, ky = MultiPoly.var("kx"), MultiPoly.var("ky")
        p = mindlin_default_params()
        half = F(1, 2)
        want = (p.rho * p.h**3 * F(1, 12)) * W**2 - p.D * ((1 - p.nu) * half * kx**2 + ky**2)
        assert m[0, 0].as_real() == want

    def test_coupling_confined_at_axis(self):
        # at ky = 0 only the (psi_x, w) pair couples
        m = mindlin_full_matrix(mindlin_default_params(b=1)).subs({"ky": 0})
        assert m[0, 2].is_zero()
        assert not m[1, 2].is_zero()

    def test_hermitian_numeric(self):
        m = mindlin_full_matrix(mindlin_default_params(b=F(1, 5)))
        assert m.is_hermitian()
        num = m.subs({"kx": F(37, 100), "ky": F(-91, 100), "w": F(13, 10), "b": F(2, 5)})
        for i in range(3):
            for j in range(3):
                assert num[i, j] == ComplexPoly(num[j, i].re, -num[j, i].im)

    def test_rotation_axis_aligned(self):
        # u = 0 is the kx axis: kT/k is a signed permutation, and on the whole
        # circle kT is k times an orthogonal matrix
        t = MultiPoly.var("t")
        assert KT.subs({"u": 0}) == PolyMatrix([[0, 0, -t], [0, t, 0], [t, 0, 0]])
        assert KT @ KTT == PolyMatrix.diagonal([KR * KR] * 3)
        assert KTT @ KT == PolyMatrix.diagonal([KR * KR] * 3)

    def test_rotation_requires_nonzero_k(self):
        # det(kT) = k^3: the rotation exists exactly where k != 0
        assert KT.det() == KR**3

    def test_block_diag_similarity(self):
        p = mindlin_default_params(b=F(1, 10))
        lhs = on_circle(mindlin_full_matrix(p)).scale(KR * KR)
        assert lhs == KT @ on_circle(mindlin_radial_matrix(p)) @ KTT

    def test_eigenvector_and_invariant_subspace(self):
        p = mindlin_default_params(b=F(1, 5))
        bmat = on_circle(mindlin_full_matrix(p))
        f, _ = mindlin_factorized(p)
        tau3 = PolyMatrix([[-KX, 0, 0], [KY, 0, 0], [0, 0, 0]])
        assert bmat @ tau3 == tau3.scale(_compose(f, "k", KR))
        # in the mode basis the transverse rotation couples to nothing
        rotated = KTT @ bmat @ KT
        for i in range(2):
            assert rotated[i, 2].is_zero() and rotated[2, i].is_zero()


class TestMindlinFactorization:
    def test_determinant_identity(self):
        p = mindlin_default_params(b=F(1, 10))
        f, A = mindlin_factorized(p)
        assert mindlin_radial_matrix(p).det().as_real() == MultiPoly.const(p.h) * f * A

    def test_full_matrix_determinant_matches_numerically(self):
        # at (kx, ky) = (3/10, 2/5), where k = 1/2 is rational, in exact arithmetic
        p = mindlin_default_params(b=F(1, 10))
        f, A = mindlin_factorized(p)
        pt = {"w": F(6, 5), "b": F(3, 10)}
        det = mindlin_full_matrix(p).subs({"kx": F(3, 10), "ky": F(2, 5), **pt}).det()
        at_k = {"k": F(1, 2), **pt}
        assert det == ComplexPoly(p.h * f.eval_exact(at_k) * A.eval_exact(at_k))

    def test_zero_coupling_factors(self):
        p = mindlin_default_params()
        f, A = mindlin_factorized(p)
        a0 = A.subs({"b": 0})
        q1 = p.rho * p.h**3 * F(1, 12) * W**2 - p.D * K**2
        q2 = p.rho * W**2 - p.kappa * p.G * K**2
        assert a0 == q1 * q2
        c0 = mindlin_radial_matrix(p).subs({"b": 0})
        assert c0[0, 1].is_zero() and c0[1, 0].is_zero()

    def test_cutoff_intercepts(self):
        # both factors contribute the same k=0 intercept w0^2 = 12 b^2 kG/(rho h^2)
        p = mindlin_default_params(b=F(1, 10))
        f, A = mindlin_factorized(p)
        w0sq = 12 * p.b**2 * p.kappa * p.G / (p.rho * p.h**2)
        assert f.subs({"k": 0, "b": p.b}).eval_exact({"w": 0}) != 0
        for poly in (f, A):
            at_cut = poly.subs({"k": 0, "b": p.b, "w": 0})
            # substitute w^2 = w0sq by hand: f(0, w) = rho h^3/12 w^2 - b^2 kappa h G
            coeffs = poly.subs({"k": 0, "b": p.b}).univariate_coefficients("w")
            value = sum(c * w0sq ** (i // 2) for i, c in enumerate(coeffs) if i % 2 == 0)
            assert value == 0


class TestVelocities:
    def test_nu_zero_collapse(self):
        p = MindlinParams(rho=1, h=1, D=None, nu=0, kappa=F(5, 6), G=F(3, 2), E=3)
        cL, cT, cP = wave_speeds(p)
        assert cP == pytest.approx(math.sqrt(3))
        assert cT == pytest.approx(math.sqrt(1.5))

    def test_ratio_at_nu_03(self):
        p = MindlinParams(rho=1, h=1, D=None, nu=F(3, 10), kappa=1, G=1, E=F(26, 10))
        _, cT, cP = wave_speeds(p)
        assert cT**2 / cP**2 == pytest.approx(0.35, abs=1e-15)

    def test_modified_lame_consistency(self):
        # nu E + (1 - nu) E = E: the plane-stress substitution gives the same cP
        E, nu = MultiPoly.var("E"), MultiPoly.var("nu")
        assert nu * E + (1 - nu) * E == E
        p = MindlinParams(rho=2, h=1, D=None, nu=F(1, 4), kappa=1, G=F(4, 5), E=2)
        lam_p = float(p.nu * p.E / (1 - p.nu**2))
        g = float(p.E / (2 * (1 + p.nu)))
        cP_from_lame = math.sqrt((lam_p + 2 * g) / float(p.rho))
        assert cP_from_lame == pytest.approx(wave_speeds(p)[2], rel=1e-14)

    def test_cl_rejected_at_half(self):
        with pytest.raises(ValueError):
            wave_speeds(mindlin_default_params())  # nu = 1/2 in the reference set

    def test_residual_zero_at_characteristic_speeds(self):
        p = mindlin_default_params(b=0)
        for c in (math.sqrt(float(p.kappa * p.G / p.rho)),
                  math.sqrt(float(12 * p.D / (p.rho * p.h**3)))):
            assert velocity_residual_A(p, c, 1.3) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("p", [
        mindlin_default_params(b=F(1, 10)),
        MindlinParams(D=None, nu=F(1, 4), G=2, E=5, b=F(1, 10)),
    ])
    def test_speed_expansion_matches_traced_f_root(self, p):
        # f = alpha w^2 - beta k^2 - gamma: speed^2 = (beta + gamma x^2)/alpha at x = 1/k
        f = mindlin_factorized(p)[0].subs({"b": p.b})
        alpha, beta = f.coefficient("w", 2).constant_value(), -f.coefficient("k", 2).constant_value()
        gamma = -f.subs({"k": 0, "w": 0}).constant_value()
        cinf, a, x = math.sqrt(beta / alpha), float(gamma / beta), 1 / 7
        (speed,) = [t.last_omega() / 7 for t in trace_branches(f, [7.0]) if t.last_omega() > 0]
        assert speed**2 == pytest.approx(float((beta + gamma * F(1, 49)) / alpha), rel=1e-12)
        # the next term of cinf sqrt(1 + a x^2) is -cinf a^2 x^4/8
        assert abs(speed - cinf * (1 + a * x * x / 2)) < cinf * a * a * x**4 / 4

    def test_guards(self):
        p = mindlin_default_params(b=F(1, 10))
        with pytest.raises(ValueError):
            velocity_residual_A(p, 0.0, 1.0)


class TestMindlinParams:
    def test_derive_D_from_E(self):
        p = MindlinParams(rho=1, h=2, D=None, nu=F(1, 4), kappa=1, G=1, E=3)
        assert p.D == 3 * 8 / (12 * (1 - F(1, 16)))

    def test_inconsistent_D_E_rejected(self):
        with pytest.raises(ValueError):
            MindlinParams(rho=1, h=1, D=1, nu=F(1, 4), kappa=1, G=1, E=1)

    def test_nu_range(self):
        with pytest.raises(ValueError):
            MindlinParams(nu=F(3, 5))
        MindlinParams(nu=F(1, 2))  # upper endpoint allowed (reference data set)


class TestKirchhoff:
    def test_unit_parameters_root(self):
        d = kirchhoff_dispersion(1, 1, 1, radial=True)
        assert d.eval({"k": 1, "w": 1}) == 0
        assert d.eval({"k": 1, "w": -1}) == 0

    def test_zero_frequency_forces_zero_wavenumber(self):
        d = kirchhoff_dispersion(2, 3, 5, radial=True)
        coeffs = d.subs({"w": 0}).univariate_coefficients("k")
        assert [c for c in coeffs if c] == [F(-5)]

    def test_matches_pipeline(self):
        from facdisp import builtin_lagrangian_text, parse_lagrangian
        from facdisp.lagrangian import dispersion_poly

        lag = parse_lagrangian(builtin_lagrangian_text("kirchhoff"))
        assert dispersion_poly(lag).subs(lag.param_values) == kirchhoff_dispersion(1, 1, 1)
