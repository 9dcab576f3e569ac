from fractions import Fraction as F

import pytest

from facdisp import builtin_lagrangian_text
from facdisp.lagparse import (
    LagrangianSyntaxError,
    parse_lagrangian,
    render_lagrangian,
    try_parse_lagrangian,
)
from facdisp.lagrangian import dispersion_poly
from facdisp.polyalg import MultiPoly

WAVE = """\
dim 1
fields u
param c 1
term 1/2 dt(u) dt(u)
term -1/2*c^2 dx(u) dx(u)
"""


class TestParsing:
    def test_wave_equation(self):
        lag = parse_lagrangian(WAVE)
        assert lag.dim == 1
        assert lag.fields == ("u",)
        assert lag.param_values == {"c": F(1)}
        c = MultiPoly.var("c")
        w, k = MultiPoly.var("w"), MultiPoly.var("k")
        assert dispersion_poly(lag) == w * w - c * c * k * k

    def test_wing_symbol_matrix(self):
        from facdisp.lagrangian import equal_up_to_signature, symbol_matrix
        from facdisp.models import WingParams, wing_matrix

        lag = parse_lagrangian(builtin_lagrangian_text("wing"))
        compiled = symbol_matrix(lag).matrix.subs(
            {n: v for n, v in lag.param_values.items() if n != lag.coupling}
        )
        assert equal_up_to_signature(compiled, wing_matrix(WingParams()))

    def test_non_quadratic_term(self):
        src = "dim 1\nfields u\nterm 1 dt(u) dt(u) dt(u)\n"
        lag, diags = try_parse_lagrangian(src)
        assert lag is None
        assert len(diags) == 1
        assert diags[0].message == "term is not quadratic"
        assert diags[0].line == 3
        # the column points inside the offending third factor
        assert src.splitlines()[2][diags[0].column - 1 :].startswith("dt(u)")

    def test_unknown_field(self):
        src = "dim 1\nfields u\nterm 1 dt(u) dt(v)\n"
        _, diags = try_parse_lagrangian(src)
        assert any("unknown field name 'v'" in d.message for d in diags)

    def test_axis_exceeds_dimension(self):
        src = "dim 1\nfields u\nterm 1 dy(u) dy(u)\n"
        _, diags = try_parse_lagrangian(src)
        assert any("exceeds declared dimension" in d.message for d in diags)

    def test_duplicate_field(self):
        _, diags = try_parse_lagrangian("dim 1\nfields u u\n")
        assert any("duplicate field" in d.message for d in diags)

    def test_bad_numeric_literal(self):
        _, diags = try_parse_lagrangian("dim 1\nfields u\nparam c 1.5\n")
        assert any("not a rational" in d.message for d in diags)
        _, diags = try_parse_lagrangian("dim 1\nfields u\nterm 0.5 dt(u) dt(u)\n")
        assert any("not a rational" in d.message for d in diags)

    def test_undeclared_parameter(self):
        _, diags = try_parse_lagrangian("dim 1\nfields u\nterm c dt(u) dt(u)\n")
        assert any("before declaration" in d.message for d in diags)

    def test_rejected_param_reported_once(self):
        # the bad literal is the one fault: later uses of the name add nothing
        src = "dim 1\nfields u\nparam c 1/0\ncoupling c\nterm c dt(u) dt(u)\n"
        _, diags = try_parse_lagrangian(src)
        assert [(d.line, d.column, d.message) for d in diags] == [
            (3, 9, "numeric literal '1/0' is not a rational")
        ]

    def test_undeclared_coupling_located_at_directive(self):
        _, diags = try_parse_lagrangian("dim 1\nfields u\n\ncoupling  c\n")
        assert [(d.line, d.column, d.message) for d in diags] == [
            (4, 11, "coupling parameter 'c' is not declared")
        ]

    def test_reserved_parameter_name(self):
        _, diags = try_parse_lagrangian("dim 1\nfields u\nparam w 1\n")
        assert any("reserved" in d.message for d in diags)

    def test_diagnostic_locations_inside_tokens(self):
        src = "dim 1\nfields u\nterm 1 dt(u) dq(u)\n"
        _, diags = try_parse_lagrangian(src)
        assert diags
        for d in diags:
            line = src.splitlines()[d.line - 1]
            assert 1 <= d.column <= len(line)

    def test_error_raises_with_all_diagnostics(self):
        src = "dim 1\nfields u u\nparam c 1.5\n"
        with pytest.raises(LagrangianSyntaxError) as err:
            parse_lagrangian(src)
        assert len(err.value.diagnostics) == 2

    def test_comments_and_blanks(self):
        lag = parse_lagrangian("# heading\n\ndim 1\nfields u  # trailing\n")
        assert lag.fields == ("u",)

    def test_param_order_irrelevant(self):
        a = parse_lagrangian("dim 1\nfields u\nparam a 1\nparam c 2\nterm a*c dt(u) dt(u)\n")
        b = parse_lagrangian("dim 1\nfields u\nparam c 2\nparam a 1\nterm c*a dt(u) dt(u)\n")
        assert a == b


class TestRender:
    def test_wave_roundtrip(self):
        lag = parse_lagrangian(WAVE)
        assert parse_lagrangian(render_lagrangian(lag)) == lag

    def test_all_builtin_roundtrips(self):
        for name in ("wave", "wing", "twt", "kirchhoff", "mindlin", "crosspoint"):
            lag = parse_lagrangian(builtin_lagrangian_text(name))
            again = parse_lagrangian(render_lagrangian(lag))
            assert again == lag, name

    def test_empty_lagrangian(self):
        from facdisp.lagrangian import QuadraticLagrangian

        empty = QuadraticLagrangian(0, (), {})
        text = render_lagrangian(empty)
        assert text.splitlines() == ["dim 0", "fields"]
        assert parse_lagrangian(text) == empty
