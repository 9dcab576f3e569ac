import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from facdisp.cli import main


def run_cli(*argv, capsys=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestLagrangianCommand:
    def test_wave_dispersion_output(self):
        code, out, _ = run_cli("lagrangian", "wave", "--emit", "dispersion")
        assert code == 0
        assert out.strip() == "1*w^2 - 1*c^2*k^2"

    def test_wing_matrix_output(self, tmp_path):
        code, out, _ = run_cli("lagrangian", "wing", "--emit", "matrix")
        assert code == 0
        assert out.count(";") == 1
        assert "EI" in out and "GJ" in out

    def test_malformed_file_exits_1_with_location(self, tmp_path):
        bad = tmp_path / "bad.lag"
        bad.write_text("dim 1\nfields u\nterm 1 dt(u) dt(u) dt(u)\n")
        code, _, err = run_cli("lagrangian", str(bad))
        assert code == 1
        assert "3:" in err and "not quadratic" in err

    def test_missing_file_exits_1(self):
        code, _, err = run_cli("lagrangian", "/nonexistent/path.lag")
        assert code == 1

    @pytest.mark.parametrize("text", ["dim 0\n", "dim 1\nfields\n"])
    @pytest.mark.parametrize("emit", ["matrix", "dispersion"])
    def test_fieldless_file_exits_1(self, tmp_path, text, emit):
        path = tmp_path / "empty.lag"
        path.write_text(text)
        code, out, err = run_cli("lagrangian", str(path), "--emit", emit)
        assert code == 1 and out == ""
        assert "no fields declared" in err and "usage error" not in err

    @pytest.mark.parametrize("line, col", [("term 1/0 dt(u) dt(u)", 6),
                                           ("param c 1/0", 9)])
    def test_zero_denominator_exits_1_with_location(self, tmp_path, line, col):
        bad = tmp_path / "bad.lag"
        bad.write_text(f"dim 1\nfields u\n{line}\n")
        code, _, err = run_cli("lagrangian", str(bad))
        assert code == 1
        assert f"3:{col}:" in err and "'1/0'" in err


class TestModelCommand:
    def test_kirchhoff_csv(self):
        code, out, _ = run_cli("model", "kirchhoff", "--k-range", "0.1:1:4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,omega,branch,b,model"
        assert len(lines) == 1 + 2 * 4

    def test_deterministic_output(self):
        a = run_cli("model", "kirchhoff", "--k-range", "0.1:1:4")
        b = run_cli("model", "kirchhoff", "--k-range", "0.1:1:4")
        assert a == b

    def test_mindlin_branches_tagged(self):
        code, out, _ = run_cli("model", "mindlin", "--b", "0.1", "--k-range", "0.05:0.2:3")
        assert code == 0
        tags = {line.split(",")[2] for line in out.strip().splitlines()[1:]}
        assert any(t.startswith("f") for t in tags)
        assert any(t.startswith("A") for t in tags)

    def test_unknown_model_is_usage_error(self):
        code, _, err = run_cli("model", "nosuch")
        assert code == 2
        assert "unknown model" in err

    def test_output_file(self, tmp_path):
        out_path = tmp_path / "data.csv"
        code, _, _ = run_cli("model", "kirchhoff", "--k-range", "0.1:1:3",
                             "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("k,omega,branch,b,model")

    def test_kirchhoff_parameter_override(self):
        # w = sqrt(D/(rho h)) k^2: quadrupling D doubles the branch frequency
        base = run_cli("model", "kirchhoff", "--k-range", "1:2:2")[1]
        stiff = run_cli("model", "kirchhoff", "--k-range", "1:2:2", "--param", "D=4")[1]
        w_base = float(base.strip().splitlines()[-1].split(",")[1])
        w_stiff = float(stiff.strip().splitlines()[-1].split(",")[1])
        assert w_stiff == pytest.approx(2 * w_base, rel=1e-10)

    def test_twt_zero_coupling_is_usage_error(self):
        code, _, err = run_cli("model", "twt", "--b", "0", "--k-range", "0.1:1:3")
        assert code == 2
        assert "b > 0" in err

    def test_kirchhoff_nonpositive_parameter_is_usage_error(self):
        code, _, err = run_cli("model", "kirchhoff", "--param", "D=0")
        assert code == 2
        assert "positive" in err

    def test_non_rational_override_is_usage_error(self):
        code, _, err = run_cli("model", "mindlin", "--param", "nu=abc")
        assert code == 2
        assert "not a rational number" in err

    def test_wing_avoided_crossing_region(self):
        # at k = 1 with unit parameters the four roots sit at the golden-ratio
        # split +-(sqrt(5)+-1)/2 left by the coupling
        code, out, _ = run_cli("model", "wing", "--b", "1", "--k-range", "0.9:1.1:3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        at1 = sorted(float(r[1]) for r in rows if float(r[0]) == 1.0)
        phi = (math.sqrt(5) + 1) / 2
        assert at1 == pytest.approx([-phi, -(phi - 1), phi - 1, phi], abs=1e-10)
        assert len({r[2] for r in rows}) == 4


@pytest.mark.parametrize("argv", [("model", "kirchhoff", "--k-range"),
                                  ("crosspoint", "--kappa-range")])
@pytest.mark.parametrize("bounds", ["0:nan:5", "0:inf:5", "-inf:0:5"])
def test_non_finite_range_is_usage_error(argv, bounds):
    code, _, err = run_cli(*argv[:-1], f"{argv[-1]}={bounds}")
    assert code == 2
    assert "range bounds must be finite" in err


@pytest.mark.parametrize("argv, message", [
    (("mech", "--p-min=nan"), "range bounds must be finite"),
    (("mech", "--p-max=inf"), "range bounds must be finite"),
    (("mech", "--p-steps=1"), "at least 2 steps"),
    (("mech", "--p-min=0.5"), "max > min"),
    (("crosspoint", "--gamma=nan"), "not a finite number"),
    (("crosspoint", "--g1=inf"), "not a finite number"),
    (("crosspoint", "--g2=-inf"), "not a finite number"),
    (("crosspoint", "--ggamma=nan"), "not a finite number"),
    (("crosspoint", "--g1=1e308", "--g2=-1e308"), "g1 - g2, g1 + g2 or gamma * ggamma overflows"),
    (("crosspoint", "--gamma=1e200", "--ggamma=-1e200"), "gamma * ggamma overflows"),
    (("crosspoint", "--g1=1e200", "--g2=-1e200"), "branch offsets at kappa = -3 overflow"),
    (("crosspoint", "--g1=1e154", "--g2=1"), "branch offsets at kappa = -3 overflow"),
    (("crosspoint", "--kappa-range=-1e300:1e300:3"),
     "branch offsets at kappa = -1.0000000000000001e+300 overflow"),
])
def test_non_finite_or_degenerate_grid_is_usage_error(argv, message):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_python_dash_m_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "facdisp", "verify", "crosspoint"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "1/1 checks passed" in proc.stdout


@pytest.mark.parametrize("argv, hint", [
    (("model", "mindlin", "--param", "b=1/2"), "--param b is not read; give coupling values with --b"),
    (("mech", "--param", "b=1/2"), "--param b is not read; give coupling values with --b"),
    (("mech", "--param", "p_limit=1"), "--param p_limit is not read"),
])
def test_unread_parameter_is_usage_error(argv, hint):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert hint in err


class TestCrosspointCommand:
    def test_csv_shape_and_gap(self):
        code, out, _ = run_cli("crosspoint", "--gamma", "1", "--ggamma", "-1",
                               "--kappa-range=-1:1:41")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kappa,delta,branch"
        kappas = {float(line.split(",")[0]) for line in lines[1:]}
        # the gap region around zero produces no rows
        assert 0.0 not in kappas


class TestMechCommand:
    def test_csv_header_and_branches(self):
        code, out, _ = run_cli("mech", "--b", "0.2", "--p-steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,omega,branch,b"
        assert {line.split(",")[2] for line in lines[1:]} == {"minus", "plus"}

    def test_parameter_override(self):
        code, out, _ = run_cli("mech", "--b", "0", "--p-steps", "3",
                               "--param", "kappa2=1", "--param", "alpha2=1")
        assert code == 0

    def test_bad_override_usage_error(self):
        code, _, err = run_cli("mech", "--param", "nosuch=1")
        assert code == 2

    def test_invalid_parameter_value_usage_error(self):
        code, _, err = run_cli("mech", "--param", "m1=0")
        assert code == 2
        assert "m1 must be positive" in err


class TestExpandCommand:
    def test_hand_example(self, tmp_path):
        a = tmp_path / "a.mat"
        bm = tmp_path / "b.mat"
        a.write_text("[2, 0; 0, 3]")
        bm.write_text("[1, 1; 1, 1]")
        code, out, _ = run_cli("expand", str(a), str(bm))
        assert code == 0
        assert "det A        = 6" in out
        assert "c_1(b)       = 5" in out
        assert "det B        = 0" in out
        assert "reassembled  = 5*b + 6" in out

    def test_identity_gives_trace(self, tmp_path):
        a = tmp_path / "a.mat"
        bm = tmp_path / "b.mat"
        a.write_text("[1, 0; 0, 1]")
        bm.write_text("[4, 1; 2, 7]")
        code, out, _ = run_cli("expand", str(a), str(bm))
        assert code == 0
        assert "c_1(b)       = 11" in out

    def test_wing_split_prints_remainder_term(self, tmp_path):
        from facdisp.matdet import PolyMatrix, format_matrix
        from facdisp.models import WingParams, wing_system

        sys_ = wing_system(WingParams())
        lam = PolyMatrix.block_diagonal(sys_.lambda1, sys_.lambda2)
        # the coupling divided by one power of b, as the expansion expects
        from facdisp.polyalg import MultiPoly, parse_poly

        k4 = MultiPoly.var("k") ** 4
        b = MultiPoly.var("b")
        bmat = PolyMatrix([[-b * k4, k4], [k4, MultiPoly.zero()]])
        a = tmp_path / "a.mat"
        bm = tmp_path / "b.mat"
        a.write_text(format_matrix(lam))
        bm.write_text(format_matrix(bmat))
        code, out, _ = run_cli("expand", str(a), str(bm))
        assert code == 0
        reassembled = out.splitlines()[-1].split("= ", 1)[1]
        assert parse_poly(reassembled) == sys_.full_determinant()

    def test_dimension_mismatch_usage_error(self, tmp_path):
        a = tmp_path / "a.mat"
        bm = tmp_path / "b.mat"
        a.write_text("[1, 0; 0, 1]")
        bm.write_text("[1]")
        code, _, err = run_cli("expand", str(a), str(bm))
        assert code == 2

    def test_zero_denominator_exits_1(self, tmp_path):
        a = tmp_path / "a.mat"
        bm = tmp_path / "b.mat"
        a.write_text("[1/0, 1; 1, 1]")
        bm.write_text("[1, 0; 0, 1]")
        code, _, err = run_cli("expand", str(a), str(bm))
        assert code == 1
        assert "zero denominator" in err

    def test_variable_misuse_usage_error(self, tmp_path):
        a = tmp_path / "a.mat"
        bm = tmp_path / "b.mat"
        a.write_text("[b, 0; 0, 1]")
        bm.write_text("[1, 0; 0, 1]")
        code, _, err = run_cli("expand", str(a), str(bm))
        assert code == 2


class TestVerifyCommand:
    def test_pipeline_suite_passes(self):
        # the detexp checks run in test_acceptance; a small suite covers the command
        code, out, _ = run_cli("verify", "pipeline")
        assert code == 0
        assert "3/3 checks passed" in out

    def test_unknown_suite_usage_error(self):
        code, _, err = run_cli("verify", "nosuch")
        assert code == 2
        assert "unknown suite 'nosuch'" in err and "'mindlin'" in err


def test_cli_import_leaves_verify_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, facdisp.cli; sys.exit('facdisp.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
