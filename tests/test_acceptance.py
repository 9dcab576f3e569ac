"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Every criterion is an exact identity or a closed-form value with its stated
tolerance; the checks live in facdisp.verify so the command line `facdisp
verify` runs exactly the same code.
"""

from facdisp import verify
from facdisp.matdet import PolyMatrix
from facdisp.polyalg import MultiPoly
from facdisp.verify import (
    check_adjugate_laplace,
    check_coupling_expansion,
    check_crosspoint,
    check_markus,
    check_mechanalog,
    check_mindlin_asymptotics,
    check_mindlin_factorization,
    check_mindlin_large_k,
    check_pipeline,
    check_trace_linearization,
    check_twt_scaling,
    check_velocity_relations,
    check_wing_determinant,
)


def report(number: int, result) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  criterion {number}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {number}: {result.detail}"


def test_criterion_01_determinant_engine():
    report(1, check_markus())
    report(1, check_coupling_expansion())


def test_criterion_02_adjugate_and_laplace():
    report(2, check_adjugate_laplace())
    report(2, check_trace_linearization())


def test_criterion_03_wing_determinant():
    report(3, check_wing_determinant())


def test_criterion_04_twt_scaling():
    report(4, check_twt_scaling())


def test_criterion_05_mindlin_factorization():
    report(5, check_mindlin_factorization())


def test_criterion_06_mindlin_asymptotics():
    report(6, check_mindlin_asymptotics())


def test_criterion_07_mindlin_large_k():
    report(7, check_mindlin_large_k())


def test_criterion_08_velocity_relations():
    report(8, check_velocity_relations())


def test_criterion_09_crosspoint():
    report(9, check_crosspoint())


def test_criterion_10_mechanical_analog():
    report(10, check_mechanalog())


def test_criterion_11_pipeline():
    report(11, check_pipeline())


# mutations: each exact check must fail when the statement it checks is broken


def test_pinned_order_check_fails_on_perturbed_c3(monkeypatch):
    real = verify.lower_series
    monkeypatch.setattr(verify, "lower_series", lambda p: real(p)[:2] + (real(p)[2] + 1,))
    result = check_mindlin_asymptotics()
    assert not result.passed and "pinned-branch valuations (8, 2)" in result.detail


def test_laurent_check_fails_on_extra_w5(monkeypatch):
    real = verify.laurent_S
    monkeypatch.setattr(verify, "laurent_S", lambda p, sign: real(p, sign) + MultiPoly.var("w") ** 5)
    result = check_mindlin_asymptotics()
    assert not result.passed and "w^5" in result.detail


def test_similarity_check_fails_on_flipped_coupling(monkeypatch):
    # flipping both off-diagonal couplings keeps det(C_b), so the similarity must catch it
    real = verify.mindlin_radial_matrix

    def flipped(p):
        m = real(p)
        return PolyMatrix([[-m[i, j] if {i, j} == {0, 1} else m[i, j] for j in range(3)]
                           for i in range(3)])

    monkeypatch.setattr(verify, "mindlin_radial_matrix", flipped)
    result = check_mindlin_factorization()
    assert not result.passed and "k^2 B" in result.detail
