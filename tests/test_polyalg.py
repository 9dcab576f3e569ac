import random
from fractions import Fraction as F

import pytest

from facdisp.polyalg import (
    ComplexPoly,
    MultiPoly,
    format_poly,
    parse_poly,
    sqrt_exact,
)

X = MultiPoly.var("x")
W = MultiPoly.var("w")
K = MultiPoly.var("k")


def rand_poly(rng, nvars=2, nterms=4, maxdeg=3):
    names = ["x", "y", "z"][:nvars]
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, maxdeg) for _ in names)
        terms[exps] = F(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiPoly(names, terms)


class TestConstruction:
    def test_make_basic(self):
        p = MultiPoly.from_terms(("x",), [((2,), 1), ((0,), -1)])
        assert p == X**2 - 1

    def test_zero_polynomial(self):
        p = MultiPoly.from_terms(("w", "k"), [])
        assert p.is_zero()
        assert p == MultiPoly.zero()

    def test_cancellation(self):
        p = MultiPoly.from_terms(("x",), [((1,), 1), ((1,), -1)])
        assert p.is_zero()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.from_terms(("x", "y"), [((1,), 1)])

    def test_variable_alignment(self):
        # same polynomial built over different variable sets
        a = MultiPoly(("x", "y"), {(2, 0): F(1)})
        b = MultiPoly(("x",), {(2,): F(1)})
        assert a == b


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X + 1) * (X - 1) == X**2 - 1

    def test_crosspoint_product(self):
        # (w + k)(w + 10k) expanded by hand
        got = (W + K) * (W + 10 * K)
        want = W**2 + 11 * W * K + 10 * K**2
        assert got == want

    def test_pow_identity(self):
        assert X**0 == MultiPoly.const(1)
        assert X**3 == X * X * X

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_eval_is_multiplicative(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            sigma = {v: rng.uniform(-2, 2) for v in ("x", "y", "z")}
            lhs = (a * b).eval(sigma)
            rhs = a.eval(sigma) * b.eval(sigma)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestEvaluation:
    def test_eval_simple(self):
        assert (X**2 - 1).eval({"x": 3}) == 8

    def test_missing_variable_named(self):
        with pytest.raises(KeyError, match="x"):
            (X**2).eval({"y": 1})

    def test_wing_dispersion_vanishes_at_origin(self):
        from facdisp.models import WingParams, wing_matrix

        det = wing_matrix(WingParams()).det()
        assert det.eval({"k": 0, "w": 0, "b": 1}) == 0

    def test_partial_eval_mindlin_decouples(self):
        # A(k, w) at b=0 splits into two quadratics in (w^2, k^2): no cross term
        from facdisp.models import mindlin_default_params, mindlin_factorized

        _, A = mindlin_factorized(mindlin_default_params())
        a0 = A.subs({"b": 0})
        q1 = MultiPoly(("k", "w"), {(0, 2): F(1, 12), (2, 0): F(-1)})
        q2 = MultiPoly(("k", "w"), {(0, 2): F(1), (2, 0): F(-1)})
        assert a0 == q1 * q2

    def test_exact_eval(self):
        p = (X + 1) ** 3
        assert p.eval_exact({"x": F(1, 2)}) == F(27, 8)


class TestDerivative:
    def test_wave_frequency_derivative(self):
        c = MultiPoly.var("c")
        assert (W**2 - c**2 * K**2).derivative("w") == 2 * W

    def test_wing_bending_factor(self):
        m, EI = MultiPoly.var("m"), MultiPoly.var("EI")
        g2 = m * W**2 - EI * K**4
        assert g2.derivative("k") == -4 * EI * K**3

    def test_constant_derivative_is_zero(self):
        assert MultiPoly.const(5).derivative("x").is_zero()

    def test_product_rule_random(self):
        rng = random.Random(13)
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            lhs = (a * b).derivative("x")
            rhs = a.derivative("x") * b + a * b.derivative("x")
            assert lhs == rhs


class TestTextFormat:
    def test_wave_rendering(self):
        c = MultiPoly.var("c")
        assert format_poly(W**2 - c**2 * K**2) == "1*w^2 - 1*c^2*k^2"

    def test_zero_renders_as_0(self):
        assert format_poly(MultiPoly.zero()) == "0"
        assert parse_poly("0").is_zero()

    def test_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(80):
            p = rand_poly(rng, nvars=3, nterms=5)
            assert parse_poly(format_poly(p)) == p

    def test_parse_compact_form(self):
        assert parse_poly("w^2-k^2") == W**2 - K**2
        assert parse_poly("3/2*k") == F(3, 2) * K

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("k^-1")


class TestComplexPoly:
    def test_product(self):
        a = ComplexPoly(W, K)          # w + i k
        b = ComplexPoly(W, -K)         # w - i k
        assert (a * b) == ComplexPoly(W * W + K * K)

    def test_as_real_guard(self):
        with pytest.raises(ValueError):
            ComplexPoly(W, K).as_real()

    def test_truth_value_is_nonzero(self):
        assert not ComplexPoly.zero()
        assert ComplexPoly(0, 1)
        assert ComplexPoly(W)


def test_sqrt_exact():
    assert sqrt_exact(F(9, 4)) == F(3, 2)
    assert sqrt_exact(F(2)) is None
    assert sqrt_exact(F(0)) == 0
    assert sqrt_exact(F(-1)) is None
