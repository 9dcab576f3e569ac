"""Grammar-shaped fuzzing of the two text front-ends.

`.lag` text goes through `try_parse_lagrangian`, which must report every
fault as a diagnostic, and matrix text through `parse_matrix`, which may
only raise ValueError.  Any other exception is a crash.  The same texts also
go end to end through `facdisp lagrangian` and `facdisp expand`, which must
exit 0, 1 or 2 without a traceback.  Exponents stay at most 9 so that no
case does huge arithmetic.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facdisp.cli import main
from facdisp.lagparse import ParseDiagnostic, try_parse_lagrangian
from facdisp.matdet import PolyMatrix, parse_matrix

FUZZ = settings(max_examples=80, derandomize=True, deadline=None, database=None)

NAMES = st.sampled_from(["u", "v", "c", "a_1", "w", "k", "kx", "x", "_", "ü"])
NUMBERS = st.sampled_from(
    ["0", "1", "-2", "+7", "3/4", "09", "1/0", "1/00", "1.5", "2/-3", "٣", "²", "10" * 8]
)
EXPONENT = st.integers(-2, 9).map(str)
NOISE = st.sampled_from(["", "^", "*", "/", "(", ")", "#", "-", "d", "()", "^^", "i"])

POWER = st.builds(lambda name, e: f"{name}^{e}", NAMES, EXPONENT)
FACTOR = st.one_of(NAMES, NUMBERS, POWER, NOISE)
COEF = st.lists(FACTOR, min_size=1, max_size=4).map("*".join)
DERIV = st.builds(
    lambda d, axes, name, close: f"{d}{axes}({name}{close}",
    st.sampled_from(["d", "D", "dd", ""]),
    st.text(alphabet="txyzq", max_size=3),
    NAMES,
    st.sampled_from([")", "", "))"]),
)
TOKEN = st.one_of(NAMES, NUMBERS, COEF, DERIV, NOISE)
DIRECTIVE = st.sampled_from(["dim", "fields", "param", "coupling", "term", "dims", "#", ""])
LAG_LINE = st.builds(
    lambda head, tokens, sep: sep.join([head, *tokens]),
    DIRECTIVE,
    st.lists(TOKEN, max_size=4),
    st.sampled_from([" ", "  ", "\t"]),
)
LAG_TEXT = st.lists(LAG_LINE, max_size=8).map("\n".join)


@FUZZ
@given(LAG_TEXT)
@example("dim ²")  # a digit that int() rejects
def test_lag_text_gives_diagnostics(text):
    lag, diags = try_parse_lagrangian(text)
    assert (lag is None) == bool(diags)
    assert all(isinstance(d, ParseDiagnostic) for d in diags)


ATOM = st.one_of(NAMES, NUMBERS, NOISE)
EXPR = st.recursive(
    ATOM,
    lambda inner: st.one_of(
        st.builds(lambda a: f"({a})", inner),
        st.builds(lambda a: f"-{a}", inner),
        st.builds(lambda a, e: f"{a}^{e}", inner, EXPONENT),
        st.builds(lambda a, op, b: f"{a}{op}{b}", inner, st.sampled_from("+-* "), inner),
    ),
    max_leaves=4,
)
ROW = st.lists(EXPR, min_size=1, max_size=3).map(", ".join)
MATRIX_TEXT = st.builds(
    lambda rows, opening, closing: opening + "; ".join(rows) + closing,
    st.lists(ROW, max_size=3),
    st.sampled_from(["[", "", "[["]),
    st.sampled_from(["]", "", ";]"]),
)


@FUZZ
@given(MATRIX_TEXT)
def test_matrix_text_parses_or_raises_value_error(text):
    try:
        m = parse_matrix(text)
    except ValueError:
        return
    assert isinstance(m, PolyMatrix)


# a valid preamble, so that some fuzzed term lines reach the symbol matrix
PREAMBLE = st.sampled_from(["", "dim 1\nfields u v\nparam c 3/4\n",
                            "dim 2\nfields u\nparam c 1\ncoupling c\n"])
TERM_LINE = st.builds(lambda c, d1, d2: f"term {c} {d1} {d2}", COEF, DERIV, DERIV)
CLI_LAG_TEXT = st.builds(lambda head, lines: head + "\n".join(lines), PREAMBLE,
                         st.lists(st.one_of(TERM_LINE, LAG_LINE), max_size=4))
CLI_MATRIX_TEXT = st.one_of(MATRIX_TEXT, st.sampled_from(["[1, b; b, 2]", "[u^2, 0; 3/4, -1]", "[x]"]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue()
    return code


@FUZZ
@given(CLI_LAG_TEXT, st.sampled_from(["matrix", "dispersion"]))
@example("dim 1\nfields u\nparam c 1\nterm 1/2 dt(u) dt(u)\nterm -1/2*c^2 dx(u) dx(u)", "dispersion")
def test_cli_lagrangian_exits_cleanly(workdir, text, emit):
    path = workdir / "fuzz.lag"
    path.write_text(text)
    run_cli("lagrangian", str(path), "--emit", emit)


@FUZZ
@given(CLI_MATRIX_TEXT, CLI_MATRIX_TEXT, st.sampled_from(["b", "u", "x", "1"]))
@example("[1, b; b, 2]", "[u^2, 0; 3/4, -1]", "b")
def test_cli_expand_exits_cleanly(workdir, text_a, text_b, var):
    (workdir / "a.txt").write_text(text_a)
    (workdir / "b.txt").write_text(text_b)
    run_cli("expand", str(workdir / "a.txt"), str(workdir / "b.txt"), "--var", var)
