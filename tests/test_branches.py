import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facdisp import branches
from facdisp.branches import (
    BranchTrace,
    asymptotic_S_values,
    asymptotic_slopes,
    cutoff_frequency,
    laurent_PQR,
    laurent_quadratic_residual,
    laurent_S,
    lower_series,
    real_roots,
    trace_branches,
    upper_series,
)
from facdisp.models import (
    MODELS,
    kirchhoff_dispersion,
    mindlin_default_params,
    mindlin_factorized,
    wing_matrix,
    WingParams,
)
from facdisp.polyalg import MultiPoly
from facdisp.verify import _valuation

W = MultiPoly.var("w")
DATA = mindlin_default_params(b=F(1, 10))


def mindlin_A(b):
    _, A = mindlin_factorized(mindlin_default_params(b=b))
    return A.subs({"b": F(b)})


class TestRealRoots:
    def test_simple_quadratic(self):
        assert real_roots(W**2 - 4) == pytest.approx([-2.0, 2.0], abs=1e-12)

    def test_plate_roots_at_zero_wavenumber(self):
        roots = real_roots(mindlin_A(F(1, 10)).subs({"k": 0}))
        w0 = 0.2 * math.sqrt(3)
        assert len(roots) == 4
        assert roots == pytest.approx([-w0, 0.0, 0.0, w0], abs=1e-12)

    def test_wing_degenerate_double_roots(self):
        # unit parameters, b=0, k=1: both factors vanish at w = +-1
        det = wing_matrix(WingParams()).det().subs({"b": 0, "k": 1})
        roots = real_roots(det)
        assert roots == pytest.approx([-1.0, -1.0, 1.0, 1.0], abs=1e-12)

    def test_no_real_roots(self):
        assert real_roots(W**2 + 1) == []

    def test_rational_root_exact_hit(self):
        assert real_roots(W * 2 - 1) == pytest.approx([0.5], abs=1e-15)

    def test_roots_beyond_float_cell_width(self):
        # the root bound is about 3e400, so isolation cells are wider than
        # the largest float until bisection has halved them about 310 times
        roots = real_roots((W - 10**200) * (W + 3 * 10**200))
        assert roots == pytest.approx([-3e200, 1e200], rel=1e-15)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            real_roots(MultiPoly.zero())

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            real_roots(W**2 - 1, tol=0)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            real_roots(7 * W - 3, tol=float("nan"))

    def test_root_containment(self):
        # every reported root satisfies the polynomial to local scale
        p = (W**2 - 2) * (W**2 - F(9, 7)) * (W + F(1, 3))
        for r in real_roots(p):
            coeffs = p.univariate_coefficients("w")
            scale = max(abs(float(c)) * abs(r) ** i for i, c in enumerate(coeffs))
            assert abs(p.eval({"w": r})) <= 1e-10 * scale


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def sturm_route(p, tol=1e-12):
    """The exact Sturm route alone, bypassing the certified float estimates."""
    return branches._exact_roots(branches._trim([F(c) for c in p.univariate_coefficients("w")]), tol)


@st.composite
def planted_poly(draw):
    """Degree 1-6 products of planted factors: distinct rational, double,
    conjugate complex, closer than tol, and dyadic grid-point roots, times a
    scale whose coefficients may overflow or underflow a float."""
    p = MultiPoly.const(draw(st.sampled_from([F(1), F(-3, 7), F(10) ** 400, F(1, 10**400)])))
    deg = draw(st.integers(1, 6))
    roots = draw(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=60),
                          min_size=deg, max_size=deg, unique=True))
    while deg:
        kind = draw(st.sampled_from(["simple"] * 6 + ["grid"] + ["double", "complex", "close"] * (deg > 1)))
        r = roots.pop()
        if kind == "simple":
            p, deg = p * (W - r), deg - 1
        elif kind == "grid":
            p, deg = p * (W - draw(st.sampled_from([F(0), F(1, 2), F(-3, 4)]))), deg - 1
        elif kind == "double":
            p, deg = p * (W - r) ** 2, deg - 2
        elif kind == "complex":
            s = draw(st.fractions(min_value=F(1, 1000), max_value=10))
            p, deg = p * ((W - r) ** 2 + s), deg - 2
        else:
            gap = draw(st.sampled_from([F(1, 10**13), F(1, 10**15)]))
            p, deg = p * (W - r) * (W - r - gap), deg - 2
    return p


class TestCertifiedRoots:
    @PROPERTY
    @given(planted_poly(), st.sampled_from([1e-12, 1e-14, 2.0**-40]))
    @example(W * 7 - 3, 2.0**-40)  # the cell width 4 / 2**42 equals tol exactly
    def test_bit_identical_to_sturm_route(self, p, tol):
        assert real_roots(p, tol=tol) == sturm_route(p, tol)

    @pytest.mark.parametrize("p, calls", [
        ((W - F(1, 3)) ** 2 * (W + 2), 1),
        (mindlin_A(F(1, 10)).subs({"k": 0}), 1),
        (((W - F(1, 3)) ** 2 + 1) * (W + 2), 1),
        ((W - F(1, 3)) * (W - F(1, 3) - F(1, 10**14)), 1),
        ((W - F(1, 2)) * (W + 3), 1),  # 1/2 is on the grid of [-4, 4], the root bound
        ((W - F(10) ** 160) * (W - F(10) ** 160 - 1), 1),
        (W**2 - F(1, 10**400), 1),
        ((W - F(1, 3)) * (W + F(5, 3)) * (W - F(12, 7)) * (W + F(27, 7)), 0),
    ], ids=["double-root", "plate-k0-double-zero", "complex-pair", "two-roots-one-cell",
            "grid-point-root", "coefficient-overflow", "coefficient-underflow",
            "four-separated-roots"])
    def test_sturm_route_only_as_fallback(self, monkeypatch, p, calls):
        expected = sturm_route(p)
        exact, seen = branches._exact_roots, []
        monkeypatch.setattr(branches, "_exact_roots", lambda c, tol: seen.append(c) or exact(c, tol))
        assert real_roots(p) == expected
        assert len(seen) == calls


# the polynomials `facdisp model` traces at its default parameters, keyed
# model[-tag][-b=...] (the b only where a model has several default values)
_CLI_MODELS = {
    "-".join(filter(None, (name, tag, f"b={b}" if len(model.b_values) > 1 else ""))): poly
    for name, model in MODELS.items()
    for b in model.b_values
    for tag, poly in model.factors(model.params(), b)
}


class TestRealRootsAgainstSympy:
    @pytest.mark.parametrize("k", [0.0, 0.05, -0.05, 0.3, -0.3, 1 / 3])
    @pytest.mark.parametrize("name", sorted(_CLI_MODELS))
    def test_cli_models(self, name, k):
        sympy = pytest.importorskip("sympy")
        pk = _CLI_MODELS[name].subs({"k": F(k)})
        coeffs = [sympy.Rational(c.numerator, c.denominator)
                  for c in map(F, reversed(pk.univariate_coefficients("w")))]
        expected = [float(r.evalf(30)) for r in sympy.Poly(coeffs, sympy.Symbol("w")).real_roots()]
        got = real_roots(pk)
        assert len(got) == len(expected)
        assert got == pytest.approx(expected, abs=1e-12)


class TestTraceBranches:
    def test_kirchhoff_parabolas(self):
        disp = kirchhoff_dispersion(1, 1, 1, radial=True)
        grid = [0.1 * i for i in range(1, 11)]
        traces = trace_branches(disp, grid)
        assert len(traces) == 2
        for t in traces:
            sign = 1 if t.last_omega() > 0 else -1
            for k, w in t.samples:
                assert w == pytest.approx(sign * k * k, abs=1e-10)

    def test_uncoupled_plate_slopes(self):
        traces = trace_branches(mindlin_A(0), [0.5, 1.0, 1.5, 2.0])
        s1, s2 = asymptotic_slopes(DATA)
        slopes = sorted(t.last_omega() / 2.0 for t in traces)
        assert slopes == pytest.approx([-s2, -s1, s1, s2], abs=1e-10)

    def test_f_branch_lifts_off(self):
        p = mindlin_default_params(b=F(1, 10))
        f, _ = mindlin_factorized(p)
        traces = trace_branches(f.subs({"b": p.b}), [0.0, 0.01, 0.02])
        w_at_zero = sorted(t.samples[0][1] for t in traces)
        w0 = cutoff_frequency(p)
        assert w_at_zero == pytest.approx([-w0, w0], abs=1e-12)

    def test_branch_symmetry(self):
        # even dispersion polynomials produce +- paired branches
        traces = trace_branches(mindlin_A(F(1, 10)), [0.05, 0.1, 0.15])
        omegas = sorted(t.last_omega() for t in traces)
        assert len(omegas) == 4
        assert omegas[0] == pytest.approx(-omegas[3], rel=1e-10)
        assert omegas[1] == pytest.approx(-omegas[2], rel=1e-10)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            trace_branches(W**2 - 1, [])
        with pytest.raises(ValueError):
            trace_branches(W**2 - 1, [1.0, 0.5])

    def test_branch_count_can_change(self):
        # w^2 - (k - 1/2): no real roots left of k = 1/2, two to the right
        K = MultiPoly.var("k")
        disp = W**2 - K + MultiPoly.const(F(1, 2))
        traces = trace_branches(disp, [0.0, 0.25, 0.75, 1.0])
        assert len(traces) == 2
        for t in traces:
            assert t.samples[0][0] == 0.75  # branches appear mid-grid

    def test_S_route_agrees_with_frequency_route(self):
        # on every traced sample, S = k^2/w^2 solves the quadratic in S
        p = mindlin_default_params(b=F(1, 10))
        P, Q, R = laurent_PQR(p)
        kGD = float(p.kappa * p.G * p.D)
        traces = trace_branches(mindlin_A(p.b), [0.1, 0.2, 0.3])
        checked = 0
        for t in traces:
            for k, w in t.samples:
                if w == 0:
                    continue
                S = k * k / (w * w)
                res = kGD * S * S - float(P) * S + float(p.rho**2 * p.h**3) / 12 \
                    - float(p.b**2 * p.kappa * p.G * p.rho * p.h) / (w * w)
                scale = max(kGD * S * S, abs(float(P)) * S, 1 / 12)
                assert abs(res) <= 1e-10 * scale
                checked += 1
        assert checked >= 12

    def test_threshold_region(self):
        # no roots strictly between the lower pair and the cutoff at small k
        p = mindlin_default_params(b=F(1, 10))
        w0 = cutoff_frequency(p)
        roots = [r for r in real_roots(mindlin_A(p.b).subs({"k": F(1, 100)})) if r > 0]
        assert len(roots) == 2
        assert roots[0] < 0.01 < w0 < roots[1] * (1 + 1e-9)
        # exactly four real roots just above the cutoff at k=0 side
        assert len(real_roots(mindlin_A(p.b).subs({"k": F(1, 50)}))) == 4


def _dp_match(prev, new):
    """The min-total-distance order-preserving matching, by dynamic programming
    for every pair of lengths (the reference for `_monotone_match`)."""
    small, large, swapped = (prev, new, False) if len(prev) <= len(new) else (new, prev, True)
    ms, ns = len(small), len(large)
    cost = [[math.inf] * (ns + 1) for _ in range(ms + 1)]
    choice = [[0] * (ns + 1) for _ in range(ms + 1)]
    cost[ms] = [0.0] * (ns + 1)
    for i in range(ms - 1, -1, -1):
        for j in range(ns - 1, -1, -1):
            if ns - j < ms - i:
                continue
            take, skip = abs(small[i] - large[j]) + cost[i + 1][j + 1], cost[i][j + 1]
            cost[i][j], choice[i][j] = (take, 1) if take <= skip else (skip, 0)
    pairs, i, j = [], 0, 0
    while i < ms and j < ns:
        if choice[i][j]:
            pairs.append((j, i) if swapped else (i, j))
            i += 1
        j += 1
    return pairs


def _reference_trace(disp, grid, tol=1e-12):
    """Branch threading with the roots found per grid point by `subs` and
    `real_roots`, matched by `_dp_match`."""
    traces, active = [], []
    for k in grid:
        roots = real_roots(disp.subs({"k": F(k)}), tol=tol, var="w")
        pairs = _dp_match([t.last_omega() for t in active], roots)
        matched = {j for _, j in pairs}
        surviving = []
        for i, j in pairs:
            active[i].samples.append((k, roots[j]))
            surviving.append(active[i])
        for j, w in enumerate(roots):
            if j not in matched:
                traces.append(BranchTrace(len(traces), [(k, w)]))
                surviving.append(traces[-1])
        active = sorted(surviving, key=lambda t: t.last_omega())
    return [(t.branch_id, t.samples) for t in traces]


K = MultiPoly.var("k")
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def grid_and_dispersion(draw):
    """A strictly increasing grid of float, int and Fraction points, and a
    product of factors in k and w that is nonzero at every grid point: a
    plate-like w^2 - c k^2 (double root w = 0 at k = 0), w^2 - (k - r)
    (a complex pair left of r), (k - k0) w + s (the leading w coefficient
    vanishes at the grid point k0) and lines w - a k - c."""
    points = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=12),
                           min_size=1, max_size=10, unique=True))
    if draw(st.booleans()):
        points = list({*points, F(0)})
    grid = []
    for x in sorted(points):
        kind = draw(st.sampled_from(["float", "fraction"] + ["int"] * (x.denominator == 1)))
        grid.append(float(x) if kind == "float" else int(x) if kind == "int" else x)
    disp = MultiPoly.const(draw(st.sampled_from([F(1), F(-5, 3), F(10) ** 30])))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["plate", "complex", "lead", "line"]))
        a, c = draw(SMALL), draw(SMALL)
        if kind == "plate":
            disp *= W**2 - (abs(a) + 1) * K**2
        elif kind == "complex":
            disp *= W**2 - (K - a)
        elif kind == "lead":
            disp *= (K - F(draw(st.sampled_from(grid)))) * W + (c or 1)
        else:
            disp *= W - a * K - c
    return grid, disp


class TestCompiledTrace:
    @PROPERTY
    @given(grid_and_dispersion())
    @example(([-1, F(-1, 2), 0.0, F(1, 3), 1.0], (W**2 - 4 * K**2) * (W**2 - K) * (K * W + 1)))
    def test_same_traces_as_per_point_route(self, case):
        grid, disp = case
        got = [(t.branch_id, t.samples) for t in trace_branches(disp, grid)]
        assert got == _reference_trace(disp, grid)

    @PROPERTY
    @given(st.lists(st.floats(-10, 10), max_size=6), st.lists(st.floats(-10, 10), max_size=6),
           st.booleans())
    def test_monotone_match_is_the_dp(self, prev, new, equal):
        prev, new = sorted(prev), sorted(new)
        if equal:
            new = (new + prev)[:len(prev)]
            new.sort()
        assert branches._monotone_match(prev, new) == _dp_match(prev, new)

    @pytest.mark.parametrize("disp, grid, sturm_k", [
        ((W**2 - K) * (W - F(1, 3)), [-1.0, 0.5, 2.0, 5.0], [-1.0]),
        (((K - 1) ** 2 + F(1, 10**400)) * W**2 - F(1, 3), [-0.3, 1.0, 1.7, 3.1], [1.0]),
        ((W**2 - K) * (W - F(1, 3)), [0.5, 2.0, 5.0], []),
    ], ids=["complex-pair-at-one-k", "coefficient-overflow-at-one-k", "all-certified"])
    def test_sturm_route_per_grid_point(self, monkeypatch, disp, grid, sturm_k):
        # the estimates come from one stacked eigvals call, but a complex pair
        # or an overflowing coefficient ratio sends only its own row to Sturm
        def monic(cs):
            return [F(c) / cs[-1] for c in cs]
        expected = _reference_trace(disp, grid)
        at = [monic(disp.subs({"k": F(k)}).univariate_coefficients("w")) for k in sturm_k]
        exact, seen = branches._exact_roots, []
        monkeypatch.setattr(branches, "_exact_roots", lambda c, tol: seen.append(c) or exact(c, tol))
        monkeypatch.delattr(MultiPoly, "subs")  # the compiled table replaces it
        assert [(t.branch_id, t.samples) for t in trace_branches(disp, grid)] == expected
        assert [monic(c) for c in seen] == at

    @pytest.mark.parametrize("disp, grid, kwargs, message", [
        (W**2 - 1, [], {}, "empty wavenumber grid"),
        (W**2 - 1, [1.0, 0.5], {}, "wavenumber grid must be strictly increasing"),
        (W**2 - 1, [0.5, 0.5], {}, "wavenumber grid must be strictly increasing"),
        (W**2 - 1, [0.0, 1.0], {"tol": 0}, "tolerance must be positive"),
        (W**2 - 1, [0.0, 1.0], {"tol": float("nan")}, "tolerance must be positive"),
        (W**2 - MultiPoly.var("x") * K, [0.0, 1.0], {}, "polynomial has several variables: ('w', 'x')"),
        (W**2 - K, [0.0], {"wvar": "x"}, "polynomial is in 'w', not 'x'"),
        (MultiPoly.var("x") ** 2 - K, [0.0, 1.0], {}, "polynomial is in 'x', not 'w'"),
        (K * W - K, [-1, 0, F(1, 2)], {}, "zero polynomial has no well-defined root set"),
    ], ids=["empty-grid", "decreasing-grid", "repeated-point", "zero-tol", "nan-tol",
            "other-variable", "other-wvar", "one-other-variable", "zero-at-a-grid-point"])
    def test_errors_unchanged(self, disp, grid, kwargs, message):
        with pytest.raises(ValueError) as exc:
            trace_branches(disp, grid, **kwargs)
        assert str(exc.value) == message


class TestClosedFormSeries:
    def test_lower_coefficients_at_data(self):
        assert lower_series(DATA) == (F(10), F(-1625, 3), F(578125, 12))

    def test_upper_coefficients_at_data(self):
        w0, d1, d2 = upper_series(DATA)
        assert float(w0) == pytest.approx(0.2 * math.sqrt(3), abs=1e-15)
        assert float(d1) == pytest.approx(math.sqrt(3) * 13 / 1.2, rel=1e-13)
        assert float(d2) == pytest.approx(-math.sqrt(3) * 217 / 0.576, rel=1e-13)

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            lower_series(mindlin_default_params(b=0))
        with pytest.raises(ValueError):
            upper_series(mindlin_default_params(b=0))

    def test_series_signs(self):
        assert lower_series(DATA)[0] > 0
        assert float(upper_series(DATA)[0]) > 0

    def test_branch_series_into_dispersion(self):
        # three-term pinned-branch series into the coupled plate factor:
        # everything below k^10 cancels exactly in rational arithmetic
        A = mindlin_A(DATA.b)
        c1, c2, c3 = lower_series(DATA)
        K = MultiPoly.var("k")
        w = c1 * K**2 + c2 * K**4 + c3 * K**6
        top = max(e[A.variables.index("w")] for e in A.terms)
        composed = sum((A.coefficient("w", j) * w**j for j in range(top + 1)), MultiPoly.zero())
        coeffs = composed.univariate_coefficients("k")
        assert not any(coeffs[:10])
        assert coeffs[10] != 0


class TestLaurent:
    def test_parameter_combinations(self):
        P, Q, R = laurent_PQR(DATA)
        assert P == F(13, 12)
        assert Q == F(-11, 12)
        assert R == F(1, 5)

    def test_sum_is_vieta_trace(self):
        # w*S_+ + w*S_- = (P / kGD) w
        P, _, _ = laurent_PQR(DATA)
        total = laurent_S(DATA, +1) + laurent_S(DATA, -1)
        assert total == W * (P / (DATA.kappa * DATA.G * DATA.D))

    def test_product_matches_vieta(self):
        # w^2 S_+ S_- = rho^2 h^3 w^2 / (12 kGD) - b^2 rho h / D + O(w^6)
        prod = laurent_S(DATA, +1) * laurent_S(DATA, -1)
        kGD = DATA.kappa * DATA.G * DATA.D
        coeffs = prod.univariate_coefficients("w")
        assert coeffs[0] == -F(1, 100)
        assert coeffs[2] == DATA.rho**2 * DATA.h**3 / (12 * kGD)
        assert coeffs[4] == 0

    def test_residual_vanishes_through_cubic_order(self):
        # w^2 times the S residual starts at w^6: S is known through w^3 when
        # w*S is known through w^5
        for sign in (1, -1):
            ws = laurent_S(DATA, sign)
            assert _valuation(laurent_quadratic_residual(DATA, ws), "w") == 6
            assert _valuation(laurent_quadratic_residual(DATA, ws + W**5), "w") == 5
            assert _valuation(laurent_quadratic_residual(DATA, ws + W**6), "w") >= 6

    def test_asymptotic_S_limits(self):
        assert asymptotic_S_values(DATA) == (F(1), F(1, 12))


class TestResidualOrder:
    def test_asymptotic_slopes_at_data(self):
        s1, s2 = asymptotic_slopes(DATA)
        assert s1 == pytest.approx(1.0)
        assert s2 == pytest.approx(math.sqrt(12))

    def test_traced_branch_slope_recovery(self):
        p = mindlin_default_params(b=F(1, 5))
        traces = trace_branches(mindlin_A(p.b), [99.0, 100.0])
        s1, s2 = asymptotic_slopes(p)
        finals = sorted(t.last_omega() / 100.0 for t in traces if t.last_omega() > 0)
        assert abs(finals[0] - s1) < 1e-3
        assert abs(finals[1] - s2) < 1e-3

    def test_slope_recovery_monotone_beyond_k10(self):
        p = mindlin_default_params(b=F(1, 5))
        s1, s2 = asymptotic_slopes(p)
        worst = []
        for k in (10.0, 30.0, 100.0):
            roots = [r for r in real_roots(mindlin_A(p.b).subs({"k": F(k)})) if r > 0]
            worst.append(max(min(abs(r / k - s) for s in (s1, s2)) for r in roots))
        assert worst[0] > worst[1] > worst[2]

    def test_curvature_decreases_with_coupling(self):
        kprobe = F(1, 100)
        curv = []
        for b in (F(1, 10), F(1, 5)):
            roots = [r for r in real_roots(mindlin_A(b).subs({"k": kprobe})) if r > 0]
            curv.append(min(roots) / float(kprobe) ** 2)
        assert curv[0] > curv[1]


def test_branch_trace_accessors():
    t = BranchTrace(0, [(0.1, 1.0), (0.2, 2.0)], {"model": "demo"})
    assert t.ks == [0.1, 0.2]
    assert t.omegas == [1.0, 2.0]
    assert t.last_omega() == 2.0
