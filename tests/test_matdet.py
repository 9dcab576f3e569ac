import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facdisp.matdet import (
    CoupledSystem,
    IndexSet,
    PolyMatrix,
    coupled_b_expansion,
    format_matrix,
    laplace_expand,
    markus_expansion,
    parse_matrix,
    reassemble_b_expansion,
)
from facdisp.polyalg import ComplexPoly, MultiPoly

W = MultiPoly.var("w")
K = MultiPoly.var("k")
B = MultiPoly.var("b")


def rand_int_matrix(rng, n, lo=-9, hi=9):
    return PolyMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class TestDet:
    def test_symbolic_2x2(self):
        a, b, c, d = (MultiPoly.var(v) for v in "abcd")
        m = PolyMatrix([[a, b], [c, d]])
        assert m.det() == a * d - b * c

    def test_wing_matrix_det(self):
        # coupling term comes out with k^4, forced by direct expansion
        from facdisp.models import WingParams, wing_matrix

        p = WingParams()
        want = (W**2 - K**2) * (W**2 - K**4) - B**2 * K**4 * W**2
        assert wing_matrix(p).det() == want

    def test_diagonal(self):
        d = [MultiPoly.var(f"d{i}") for i in range(4)]
        m = PolyMatrix.diagonal(d)
        assert m.det() == d[0] * d[1] * d[2] * d[3]

    def test_constant_matrix_uses_exact_elimination(self):
        m = PolyMatrix([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]])
        assert m.det() == MultiPoly.const(F(1, 14) - F(1, 15))

    def test_complex_hermitian_det_is_real(self):
        # [[w, ik], [-ik, w]]: det = w^2 + (ik)(ik) = w^2 - k^2, imaginary part zero
        z = MultiPoly.zero()
        m = PolyMatrix([[ComplexPoly(W), ComplexPoly(z, K)], [ComplexPoly(z, -K), ComplexPoly(W)]])
        assert m.det().as_real() == W * W - K * K


class TestAdjugate:
    def test_identity(self):
        assert PolyMatrix.identity(3).adjugate() == PolyMatrix.identity(3)

    def test_diagonal_case(self):
        d1, d2, d3 = (MultiPoly.var(v) for v in ("d1", "d2", "d3"))
        adj = PolyMatrix.diagonal([d1, d2, d3]).adjugate()
        assert adj == PolyMatrix.diagonal([d2 * d3, d1 * d3, d1 * d2])

    def test_one_by_one(self):
        assert PolyMatrix([[MultiPoly.var("a")]]).adjugate() == PolyMatrix([[1]])

    def test_random_integer_oracle(self):
        rng = random.Random(23)
        for _ in range(30):
            a = rand_int_matrix(rng, 3)
            det = a.det()
            assert a @ a.adjugate() == PolyMatrix.diagonal([det] * 3)
            assert a.adjugate() @ a == PolyMatrix.diagonal([det] * 3)


class TestIndexSet:
    def test_complement(self):
        s = IndexSet((1, 3), 4)
        assert s.complement().indices == (2, 4)
        assert s.weight == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexSet((3, 1), 4)
        with pytest.raises(ValueError):
            IndexSet((0, 1), 4)

    def test_enumeration(self):
        all2 = list(IndexSet.all_of_size(2, 4))
        assert len(all2) == 6


class TestLaplace:
    def test_2x2_single_row(self):
        a, b, c, d = (MultiPoly.var(v) for v in "abcd")
        m = PolyMatrix([[a, b], [c, d]])
        assert laplace_expand(m, IndexSet((1,), 2)) == a * d - b * c

    def test_random_4x4_against_elimination(self):
        rng = random.Random(29)
        for _ in range(25):
            m = rand_int_matrix(rng, 4)
            assert laplace_expand(m, IndexSet((1, 3), 4)) == m.det()

    def test_all_rows_degenerate_case(self):
        rng = random.Random(31)
        m = rand_int_matrix(rng, 3)
        assert laplace_expand(m, IndexSet((1, 2, 3), 3)) == m.det()

    def test_every_row_choice_agrees(self):
        rng = random.Random(37)
        for n in (2, 3, 4, 5):
            for _ in (0, 1, 2):
                m = rand_int_matrix(rng, n)
                det = m.det()
                for r in range(1, n + 1):
                    for rows in IndexSet.all_of_size(r, n):
                        assert laplace_expand(m, rows) == det

    def test_wrong_ambient_dimension(self):
        with pytest.raises(ValueError):
            laplace_expand(PolyMatrix.identity(3), IndexSet((1,), 4))


class TestMarkus:
    def test_identity_plus_zero(self):
        assert markus_expansion(PolyMatrix.identity(2), PolyMatrix.zeros(2)) == 1

    def test_hand_2x2(self):
        a = PolyMatrix.diagonal([2, 3])
        ones = PolyMatrix([[1, 1], [1, 1]])
        # det(A+B) = 3*4 - 1 = 11 and the expansion gives 6 + 0 + (2+3)
        assert markus_expansion(a, ones) == 11
        assert (a + ones).det() == 11

    def test_random_pairs(self):
        rng = random.Random(41)
        for n in (2, 3, 4, 5):
            for _ in range(100 if n == 4 else 20):
                a, b = rand_int_matrix(rng, n), rand_int_matrix(rng, n)
                assert markus_expansion(a, b) == (a + b).det()

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            markus_expansion(PolyMatrix.identity(2), PolyMatrix.identity(3))
        with pytest.raises(ValueError):
            markus_expansion(PolyMatrix.identity(1), PolyMatrix.identity(1))


class TestCoupledExpansion:
    def test_mechanical_analog_c1_vanishes(self):
        # purely off-diagonal coupling against a diagonal matrix: c1 = 0
        from facdisp.mechanalog import characteristic_system, reference_data

        sys = characteristic_system(reference_data(), 0)
        lam = PolyMatrix.block_diagonal(sys.lambda1, sys.lambda2)
        bmat = PolyMatrix([[MultiPoly.zero(), MultiPoly.const(1)],
                           [MultiPoly.const(1), MultiPoly.zero()]])
        det_a, coeffs, det_b = coupled_b_expansion(lam, bmat)
        assert coeffs[0].is_zero()
        reassembled = reassemble_b_expansion(det_a, coeffs, det_b)
        assert reassembled == (lam + bmat.scale(B)).det()

    def test_identity_gives_trace(self):
        rng = random.Random(43)
        bmat = rand_int_matrix(rng, 3)
        _, coeffs, _ = coupled_b_expansion(PolyMatrix.identity(3), bmat)
        assert coeffs[0] == bmat.trace()

    def test_first_order_truncation(self):
        rng = random.Random(47)
        a = rand_int_matrix(rng, 3)
        b0, b1 = rand_int_matrix(rng, 3), rand_int_matrix(rng, 3)
        bmat = b0 + b1.scale(B)
        det_a, coeffs, det_b = coupled_b_expansion(a, bmat)
        full = reassemble_b_expansion(det_a, coeffs, det_b)
        assert full.coefficient("b", 0) == det_a
        assert full.coefficient("b", 1) == (a.adjugate() @ b0).trace()

    def test_b_in_first_matrix_rejected(self):
        a = PolyMatrix([[B, MultiPoly.zero()], [MultiPoly.zero(), MultiPoly.const(1)]])
        with pytest.raises(ValueError):
            coupled_b_expansion(a, PolyMatrix.identity(2))


class TestFactorizeCoupled:
    def test_wing(self):
        from facdisp.models import WingParams, wing_system

        sys = wing_system(WingParams())
        assert sys.g1 == W**2 - K**2
        assert sys.g2 == W**2 - K**4
        assert sys.remainder == -(B**2) * K**4 * W**2

    def test_remainder_vanishes_at_zero_coupling(self):
        from facdisp.models import WingParams, wing_system

        rem = wing_system(WingParams()).remainder
        assert rem.subs({"b": 0}).is_zero()

    def test_mindlin_reduced_block(self):
        # rows/cols of the rotated plate matrix acting on the deflection pair
        from facdisp.models import mindlin_default_params

        p = mindlin_default_params()
        h, rho, kG, D = p.h, p.rho, p.kappa * p.G, p.D
        lam1 = PolyMatrix([[h * (rho * W**2 - kG * K**2)]])
        lam2 = PolyMatrix([[rho * h**3 * F(1, 12) * W**2 - D * K**2]])
        z = MultiPoly.zero()
        off = kG * h * B * K
        coupling = PolyMatrix(
            [[ComplexPoly(z), ComplexPoly(z, off)],
             [ComplexPoly(z, -off), ComplexPoly(-(B**2) * h * kG)]]
        )
        sys = CoupledSystem(lam1, lam2, coupling)
        assert sys.remainder == -(B**2) * kG * rho * (h**2) * W**2

    def test_nonvanishing_coupling_rejected(self):
        lam = PolyMatrix([[W]])
        with pytest.raises(ValueError):
            CoupledSystem(lam, lam, PolyMatrix([[MultiPoly.const(1), MultiPoly.zero()],
                                                [MultiPoly.zero(), MultiPoly.zero()]]))


class TestMatrixTextFormat:
    def test_parse_example(self):
        m = parse_matrix("[w^2-k^2, b*k; b*k, w^2-4*k^2]")
        assert m.n == 2
        assert m[0, 0] == W**2 - K**2
        assert m[1, 1] == W**2 - 4 * K**2

    def test_roundtrip(self):
        m = parse_matrix("[w^2-k^2, b*k; b*k, w^2-4*k^2]")
        assert parse_matrix(format_matrix(m)) == m

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix("[1, 2; 3]")


# -- property tests against a Leibniz permutation-sum determinant ----------------

def leibniz_det(m: PolyMatrix):
    """det(m) as the signed sum over permutations, in the entries' own arithmetic."""
    total = None
    for perm in itertools.permutations(range(m.n)):
        term = m[0, perm[0]]
        for i in range(1, m.n):
            term = term * m[i, perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(m.n) for j in range(i + 1, m.n))
        if inversions % 2:
            term = -term
        total = term if total is None else total + term
    return total


X, Y = MultiPoly.var("x"), MultiPoly.var("y")
SMALL = st.integers(-4, 4)
ENTRIES = {
    "int": SMALL,
    "frac": st.fractions(min_value=-4, max_value=4, max_denominator=6),
    "poly": st.builds(lambda c0, c1, c2: c0 + c1 * X + c2 * X * Y, SMALL, SMALL, SMALL),
    "complex": st.builds(lambda a, b, c: ComplexPoly(a + b * Y, c * X), SMALL, SMALL, SMALL),
}
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw, n):
    """An n x n matrix of one entry kind, about a third of its entries planted zeros."""
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    zero_or_entry = st.one_of(st.just(0), entry, entry)
    return PolyMatrix([[draw(zero_or_entry) for _ in range(n)] for _ in range(n)])


@st.composite
def matrix(draw):
    return draw(matrices(draw(st.integers(1, 4))))


@st.composite
def matrix_pair(draw, lo=1):
    n = draw(st.integers(lo, 4))
    return draw(matrices(n)), draw(matrices(n))


class TestPropertiesAgainstLeibniz:
    @PROPERTY
    @given(matrix())
    def test_det(self, m):
        assert m.det() == leibniz_det(m)

    @PROPERTY
    @given(matrix())
    def test_adjugate_identity(self, m):
        det_i = PolyMatrix.diagonal([leibniz_det(m)] * m.n)
        adj = m.adjugate()
        assert m @ adj == det_i
        assert adj @ m == det_i

    @PROPERTY
    @given(matrix())
    def test_laplace_every_row_set(self, m):
        det = leibniz_det(m)
        for r in range(1, m.n + 1):
            for rows in IndexSet.all_of_size(r, m.n):
                assert laplace_expand(m, rows) == det

    @PROPERTY
    @given(matrix_pair(lo=2))
    def test_markus(self, pair):
        a, b = pair
        assert markus_expansion(a, b) == leibniz_det(a + b)

    @PROPERTY
    @given(matrix_pair(), st.data())
    def test_coupled_b_expansion(self, pair, data):
        a, b0 = pair
        b1 = PolyMatrix([[data.draw(SMALL) for _ in range(a.n)] for _ in range(a.n)])
        bmat = b0 + b1.scale(B)
        det_a, coeffs, det_b = coupled_b_expansion(a, bmat)
        assert len(coeffs) == a.n - 1
        assert reassemble_b_expansion(det_a, coeffs, det_b) == leibniz_det(a + bmat.scale(B))
