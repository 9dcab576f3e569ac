"""Line-oriented parser and renderer for the small declarative Lagrangian
language (`.lag` files).

Grammar (one directive per line, `#` starts a comment):

    dim <n>                       spatial dimension, 0..3
    fields <name> ...             field declarations, in matrix order
    param <name> <rational>       parameter symbol with its numeric value
    coupling <name>               flags a declared parameter as the coupling
    term <coef> <deriv> <deriv>   literal Lagrangian summand

`<deriv>` is `d<axes>(<field>)` with axes a string over {t,x,y,z}; `d(u)` is
the field itself, `dxx(w)` its second x-derivative.  `<coef>` is a product of
a rational and parameter powers, e.g. `-1/2*c^2`.  Term lines accumulate, so
non-monomial coefficients are written as several lines for the same pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .lagrangian import (
    FREQUENCY_VAR,
    LagrangianBuilder,
    QuadraticLagrangian,
    axes_from_multi_index,
)
from .polyalg import MultiPoly

_RESERVED_PARAMS = {FREQUENCY_VAR, "k", "kx", "ky", "kz"}

_NAME = re.compile(r"[A-Za-z_]\w*$")
_RATIONAL = re.compile(r"[+-]?\d+(/0*[1-9]\d*)?$")  # no zero denominator
_DERIV = re.compile(r"d([txyz]*)\((\w+)\)$")


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class LagrangianSyntaxError(ValueError):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


def _tokenize(line: str):
    """Whitespace-separated tokens with their 1-based start columns."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.diags: list[ParseDiagnostic] = []
        self.dim: int | None = None
        self.fields: list[str] = []
        self.params: dict[str, Fraction] = {}
        self.rejected: set[str] = set()  # names whose 'param' line has a diagnostic
        self.coupling: str | None = None
        self.coupling_at = (1, 1)
        self.terms: list[tuple] = []  # (coef MultiPoly, f1, axes1, f2, axes2)

    def error(self, line: int, col: int, message: str):
        self.diags.append(ParseDiagnostic(line, col, message))

    def run(self):
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            tokens = _tokenize(line)
            head, col = tokens[0]
            rest = tokens[1:]
            if head == "dim":
                self.parse_dim(lineno, col, rest)
            elif head == "fields":
                self.parse_fields(lineno, col, rest)
            elif head == "param":
                self.parse_param(lineno, col, rest)
            elif head == "coupling":
                self.parse_coupling(lineno, col, rest)
            elif head == "term":
                self.parse_term(lineno, col, rest)
            else:
                self.error(lineno, col, f"unknown directive {head!r}")
        if self.coupling is not None and self.coupling not in {*self.params, *self.rejected}:
            self.error(*self.coupling_at, f"coupling parameter {self.coupling!r} is not declared")
        if self.dim is None:
            self.error(1, 1, "missing 'dim' declaration")

    def parse_dim(self, lineno, col, rest):
        if self.dim is not None:
            self.error(lineno, col, "duplicate 'dim' declaration")
            return
        if len(rest) != 1 or not rest[0][0].isdecimal():
            self.error(lineno, col, "'dim' expects one non-negative integer")
            return
        value = int(rest[0][0])
        if value > 3:
            self.error(lineno, rest[0][1], "spatial dimension must be 0..3")
            return
        self.dim = value

    def parse_fields(self, lineno, col, rest):
        for name, c in rest:
            if not _NAME.match(name):
                self.error(lineno, c, f"invalid field name {name!r}")
            elif name in self.fields:
                self.error(lineno, c, f"duplicate field declaration {name!r}")
            else:
                self.fields.append(name)

    def parse_param(self, lineno, col, rest):
        if len(rest) != 2:
            self.error(lineno, col, "'param' expects a name and a rational value")
            return
        (name, c1), (value, c2) = rest
        if not _NAME.match(name):
            self.error(lineno, c1, f"invalid parameter name {name!r}")
            return
        if name in _RESERVED_PARAMS:
            self.error(
                lineno, c1, f"parameter name {name!r} is reserved for the symbol variables"
            )
            self.rejected.add(name)
            return
        if name in self.params:
            self.error(lineno, c1, f"duplicate parameter declaration {name!r}")
            return
        if not _RATIONAL.match(value):
            self.error(lineno, c2, f"numeric literal {value!r} is not a rational")
            self.rejected.add(name)
            return
        self.params[name] = Fraction(value)

    def parse_coupling(self, lineno, col, rest):
        if len(rest) != 1:
            self.error(lineno, col, "'coupling' expects one parameter name")
            return
        self.coupling, col = rest[0]
        self.coupling_at = (lineno, col)

    def parse_term(self, lineno, col, rest):
        if len(rest) < 3:
            self.error(lineno, col, "'term' expects a coefficient and two derivative factors")
            return
        if len(rest) > 3:
            self.error(lineno, rest[3][1], "term is not quadratic")
            return
        coef = self.parse_coef(lineno, *rest[0])
        d1 = self.parse_deriv(lineno, *rest[1])
        d2 = self.parse_deriv(lineno, *rest[2])
        if coef is not None and d1 is not None and d2 is not None:
            self.terms.append((coef, *d1, *d2))

    def parse_coef(self, lineno, token, col) -> MultiPoly | None:
        text = token
        sign = 1
        offset = 0
        if text.startswith(("-", "+")):
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
            offset = 1
        result = MultiPoly.const(sign)
        ok = True
        pos = offset
        for factor in text.split("*"):
            fcol = col + pos
            pos += len(factor) + 1
            if not factor:
                self.error(lineno, fcol, "empty factor in coefficient")
                ok = False
                continue
            if _RATIONAL.match(factor):
                result = result * Fraction(factor)
                continue
            m = re.match(r"([A-Za-z_]\w*)(?:\^([+-]?\d+))?$", factor)
            if not m:
                self.error(lineno, fcol, f"numeric literal {factor!r} is not a rational")
                ok = False
                continue
            name, power = m.group(1), int(m.group(2) or 1)
            if name not in self.params:
                if name not in self.rejected:
                    self.error(lineno, fcol, f"parameter {name!r} used before declaration")
                ok = False
                continue
            if power < 0:
                self.error(lineno, fcol, "negative parameter powers are not supported")
                ok = False
                continue
            result = result * MultiPoly.var(name, power)
        return result if ok else None

    def parse_deriv(self, lineno, token, col):
        m = _DERIV.match(token)
        if not m:
            self.error(lineno, col, f"malformed derivative factor {token!r}")
            return None
        axes, fname = m.group(1), m.group(2)
        if fname not in self.fields:
            self.error(lineno, col + token.index(fname), f"unknown field name {fname!r}")
            return None
        if self.dim is None:
            self.error(lineno, col, "'dim' must appear before any 'term'")
            return None
        limit = "txyz"[: self.dim + 1]
        for i, ch in enumerate(axes):
            if ch not in limit:
                self.error(
                    lineno, col + 1 + i, f"axis {ch!r} exceeds declared dimension {self.dim}"
                )
                return None
        return fname, axes


def try_parse_lagrangian(text: str):
    """Parse; returns (lagrangian_or_None, diagnostics)."""
    p = _Parser(text)
    p.run()
    if p.diags:
        return None, p.diags
    builder = LagrangianBuilder(p.dim, p.fields)
    for name, value in p.params.items():
        builder.param(name, value)
    if p.coupling:
        builder.set_coupling(p.coupling)
    for coef, f1, axes1, f2, axes2 in p.terms:
        builder.term(coef, f1, axes1, f2, axes2)
    return builder.build(), []


def parse_lagrangian(text: str) -> QuadraticLagrangian:
    """Parse a `.lag` source, raising LagrangianSyntaxError on any diagnostic."""
    lag, diags = try_parse_lagrangian(text)
    if diags:
        raise LagrangianSyntaxError(diags)
    return lag


def _monomial_lines(coef: MultiPoly) -> list[str]:
    """Split a parameter-polynomial coefficient into monomial coefficient strings."""
    if coef.is_zero():
        return []
    out = []
    for exps, q in sorted(coef.terms.items()):
        factors = [str(q)]
        for name, e in zip(coef.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        out.append("*".join(factors))
    return out


def render_lagrangian(lag: QuadraticLagrangian) -> str:
    """Canonical `.lag` text; parse(render(lag)) == lag exactly."""
    lines = [f"dim {lag.dim}", ("fields " + " ".join(lag.fields)).rstrip()]
    for name in sorted(lag.param_values):
        lines.append(f"param {name} {lag.param_values[name]}")
    if lag.coupling:
        lines.append(f"coupling {lag.coupling}")
    field_pos = {f: i for i, f in enumerate(lag.fields)}

    def pair_key(p):
        return (field_pos[p[0]], p[1])

    seen = set()
    entries = []
    for (p1, p2), coef in lag.table.items():
        a, b = sorted((p1, p2), key=pair_key)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        literal = coef if a != b else coef * Fraction(1, 2)
        entries.append((pair_key(a), pair_key(b), a, b, literal))
    entries.sort(key=lambda e: (e[0], e[1]))
    for _, _, a, b, literal in entries:
        d1 = f"d{axes_from_multi_index(a[1])}({a[0]})"
        d2 = f"d{axes_from_multi_index(b[1])}({b[0]})"
        for mono in _monomial_lines(literal):
            lines.append(f"term {mono} {d1} {d2}")
    return "\n".join(lines) + "\n"
