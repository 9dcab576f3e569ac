"""Exact multivariate polynomial arithmetic over big rationals.

All coefficients are `fractions.Fraction`; floating point enters only at the
evaluation boundary.  `MultiPoly` is the carrier for every dispersion function
in this package, and for the truncated series of the asymptotics too: a
series known through some power is kept as the polynomial of its known terms.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction
Exponents = tuple[int, ...]
NumberLike = Union[int, float, Fraction]


def as_fraction(value: NumberLike) -> Fraction:
    """Convert a number to an exact Fraction (floats convert to their exact binary value)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def sqrt_exact(x: Fraction) -> Fraction | None:
    """Square root of a non-negative rational if it is rational, else None."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


_NAME_RE = re.compile(r"[A-Za-z_]\w*")


def _check_varname(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid variable name {name!r}")
    return name


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Canonical form: variable names are sorted, variables that appear in no
    term are pruned, and zero coefficients are never stored.  Two polynomials
    compare equal iff they are the same polynomial after embedding both into
    the union of their variable sets.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, NumberLike]):
        variables = tuple(_check_varname(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        merged: dict[Exponents, Fraction] = {}
        for exps, coef in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent tuple {exps} does not match {len(variables)} variable(s)"
                )
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be non-negative integers, got {exps}")
            c = as_fraction(coef)
            if c:
                merged[exps] = merged.get(exps, Fraction(0)) + c
        merged = {e: c for e, c in merged.items() if c}
        # prune unused variables, then sort the survivors
        used = [i for i in range(len(variables)) if any(e[i] for e in merged)]
        variables = tuple(variables[i] for i in used)
        merged = {tuple(e[i] for i in used): c for e, c in merged.items()}
        order = sorted(range(len(variables)), key=lambda i: variables[i])
        object.__setattr__(self, "variables", tuple(variables[i] for i in order))
        object.__setattr__(
            self, "terms", {tuple(e[i] for i in order): c for e, c in merged.items()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls((), {})

    @classmethod
    def const(cls, value: NumberLike) -> "MultiPoly":
        c = as_fraction(value)
        return cls((), {(): c} if c else {})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "MultiPoly":
        if power < 0:
            raise ValueError("power must be non-negative")
        if power == 0:
            return cls.const(1)
        return cls((name,), {(power,): Fraction(1)})

    @classmethod
    def from_terms(
        cls, variables: Sequence[str], terms: Iterable[tuple[Sequence[int], NumberLike]]
    ) -> "MultiPoly":
        """Build a polynomial from (exponents, coefficient) pairs; duplicates are summed."""
        acc: dict[Exponents, Fraction] = {}
        nv = len(variables)
        for exps, coef in terms:
            exps = tuple(exps)
            if len(exps) != nv:
                raise ValueError(f"exponent tuple {exps} does not match {nv} variable(s)")
            acc[exps] = acc.get(exps, Fraction(0)) + as_fraction(coef)
        return cls(variables, acc)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.variables

    def constant_value(self) -> Fraction:
        if self.variables:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def coefficient(self, var: str, power: int) -> "MultiPoly":
        """The coefficient of var**power, as a polynomial in the remaining variables."""
        if var not in self.variables:
            return self if power == 0 else MultiPoly.zero()
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1 :]
        picked = {
            e[:i] + e[i + 1 :]: c for e, c in self.terms.items() if e[i] == power
        }
        return MultiPoly(rest, picked)

    # -- alignment and arithmetic ---------------------------------------------

    def _aligned(self, other: "MultiPoly"):
        union = tuple(sorted(set(self.variables) | set(other.variables)))

        def embed(p: "MultiPoly") -> dict[Exponents, Fraction]:
            pos = [union.index(v) for v in p.variables]
            out = {}
            for e, c in p.terms.items():
                full = [0] * len(union)
                for i, ex in zip(pos, e):
                    full[i] = ex
                out[tuple(full)] = c
            return out

        return union, embed(self), embed(other)

    @staticmethod
    def _coerce(value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(value)

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        union, a, b = self._aligned(other)
        for e, c in b.items():
            a[e] = a.get(e, Fraction(0)) + c
        return MultiPoly(union, a)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        union, a, b = self._aligned(other)
        out: dict[Exponents, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return MultiPoly(union, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        """Formal partial derivative; differentiating by an absent variable gives 0."""
        _check_varname(var)
        if var not in self.variables:
            return MultiPoly.zero()
        i = self.variables.index(var)
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                de = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[de] = out.get(de, Fraction(0)) + c * e[i]
        return MultiPoly(self.variables, out)

    def eval(self, assignment: Mapping[str, NumberLike]) -> float:
        """Horner-style full evaluation; every variable must be assigned."""
        for v in self.variables:
            if v not in assignment:
                raise KeyError(f"no value supplied for variable {v!r}")
        return float(self._eval_rec(self.variables, self.terms, assignment))

    @staticmethod
    def _eval_rec(variables, terms, assignment):
        if not variables:
            return float(terms.get((), Fraction(0))) if terms else 0.0
        x = float(assignment[variables[0]])
        groups: dict[int, dict] = {}
        for e, c in terms.items():
            groups.setdefault(e[0], {})[e[1:]] = c
        acc = 0.0
        prev = None
        for p in sorted(groups, reverse=True):
            acc = acc if prev is None else acc * x ** (prev - p)
            acc += MultiPoly._eval_rec(variables[1:], groups[p], assignment)
            prev = p
        return acc * x ** prev if prev else acc

    def eval_exact(self, assignment: Mapping[str, NumberLike]) -> Fraction:
        """Exact full evaluation in rational arithmetic."""
        total = Fraction(0)
        vals = {v: as_fraction(assignment[v]) for v in self.variables}
        for e, c in self.terms.items():
            t = c
            for v, p in zip(self.variables, e):
                if p:
                    t *= vals[v] ** p
            total += t
        return total

    def subs(self, assignment: Mapping[str, NumberLike]) -> "MultiPoly":
        """Partial evaluation: substitute exact values for a subset of the variables."""
        hit = [v for v in self.variables if v in assignment]
        if not hit:
            return self
        vals = {v: as_fraction(assignment[v]) for v in hit}
        keep = [i for i, v in enumerate(self.variables) if v not in assignment]
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            for i, v in enumerate(self.variables):
                if v in vals and e[i]:
                    c = c * vals[v] ** e[i]
            re_ = tuple(e[i] for i in keep)
            out[re_] = out.get(re_, Fraction(0)) + c
        return MultiPoly(tuple(self.variables[i] for i in keep), out)

    def univariate_coefficients(self, var: str | None = None) -> list[Fraction]:
        """Dense coefficient list [c0, c1, ...] for a polynomial in at most one variable."""
        if len(self.variables) > 1:
            raise ValueError(f"polynomial has several variables: {self.variables}")
        if self.variables and var is not None and self.variables[0] != var:
            raise ValueError(f"polynomial is in {self.variables[0]!r}, not {var!r}")
        if not self.terms:
            return []
        deg = max(e[0] if e else 0 for e in self.terms)
        out = [Fraction(0)] * (deg + 1)
        for e, c in self.terms.items():
            out[e[0] if e else 0] = c
        return out

    # -- text format -----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)!r})"


def format_poly(p: MultiPoly) -> str:
    """Render in the textual format `c*v1^e1*v2^e2 + ...`, zero as `0`.

    Terms are ordered by descending reverse-lexicographic exponent tuples, so
    with alphabetically sorted variables the frequency variable `w` leads.
    """
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda ec: tuple(reversed(ec[0])), reverse=True)
    pieces = []
    for e, c in items:
        factors = [str(abs(c))]
        for v, ex in zip(p.variables, e):
            if ex == 1:
                factors.append(v)
            elif ex > 1:
                factors.append(f"{v}^{ex}")
        term = "*".join(factors)
        if not pieces:
            pieces.append(term if c > 0 else f"-{term}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + term)
    return " ".join(pieces)


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^()]))")


def parse_poly(text: str) -> MultiPoly:
    """Parse the textual polynomial format; exact round-trip with format_poly."""
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"unexpected character {text[pos]!r} at offset {pos}")
            break
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind):
                tokens.append((kind, m.group(kind)))
                break
    tokens.append(("end", ""))

    idx = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_factor() -> MultiPoly:
        kind, val = take()
        if kind == "num":
            try:
                base = MultiPoly.const(Fraction(val))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in numeric literal {val!r}") from None
        elif kind == "name":
            base = MultiPoly.var(val)
        elif (kind, val) == ("op", "("):
            base = parse_sum()
            if take() != ("op", ")"):
                raise ValueError("unbalanced parenthesis")
        else:
            raise ValueError(f"unexpected token {val!r} in polynomial")
        if peek() == ("op", "^"):
            take()
            ekind, ev = take()
            sign = 1
            if (ekind, ev) == ("op", "-"):
                sign = -1
                ekind, ev = take()
            if ekind != "num" or "/" in ev:
                raise ValueError("exponent must be an integer")
            if sign < 0:
                raise ValueError("negative exponents are not polynomial")
            base = base ** int(ev)
        return base

    def parse_term() -> MultiPoly:
        result = parse_factor()
        while peek() == ("op", "*"):
            take()
            result = result * parse_factor()
        return result

    def parse_sum() -> MultiPoly:
        sign = 1
        if peek()[0] == "op" and peek()[1] in "+-":
            sign = -1 if take()[1] == "-" else 1
        result = parse_term() * sign
        while peek()[0] == "op" and peek()[1] in "+-":
            sign = -1 if take()[1] == "-" else 1
            result = result + parse_term() * sign
        return result

    result = parse_sum()
    if peek()[0] != "end":
        raise ValueError(f"trailing input {peek()[1]!r} in polynomial")
    return result


class ComplexPoly:
    """A polynomial with separated real and imaginary parts: re + i*im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        object.__setattr__(self, "re", MultiPoly._coerce(re))
        object.__setattr__(self, "im", MultiPoly._coerce(im if im is not None else 0))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexPoly is immutable")

    @classmethod
    def zero(cls) -> "ComplexPoly":
        return cls(MultiPoly.zero())

    @staticmethod
    def _coerce(value) -> "ComplexPoly":
        if isinstance(value, ComplexPoly):
            return value
        return ComplexPoly(MultiPoly._coerce(value))

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def is_real(self) -> bool:
        return self.im.is_zero()

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def as_real(self) -> MultiPoly:
        if not self.im.is_zero():
            raise ValueError(f"polynomial has an imaginary part: {self.im}")
        return self.re

    def __add__(self, other):
        other = self._coerce(other)
        return ComplexPoly(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexPoly(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return ComplexPoly(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (MultiPoly, int, Fraction)):
            other = ComplexPoly(other)
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def eval(self, assignment: Mapping[str, NumberLike]) -> complex:
        return complex(self.re.eval(assignment), self.im.eval(assignment))

    def subs(self, assignment: Mapping[str, NumberLike]) -> "ComplexPoly":
        return ComplexPoly(self.re.subs(assignment), self.im.subs(assignment))

    def __str__(self):
        if self.im.is_zero():
            return str(self.re)
        if self.re.is_zero():
            return f"i*({self.im})"
        return f"({self.re}) + i*({self.im})"

    __repr__ = __str__
