"""Command-line interface.

Subcommands: `lagrangian` (compile a .lag file), `model` (trace dispersion
branches to CSV), `crosspoint` (local crossing-model branches to CSV), `mech`
(oscillator-analog sweep to CSV), `expand` (coupling-parameter determinant
expansion of two matrices), `verify` (run the identity suites).

Exit codes: 0 success, 1 parse or verification failure, 2 usage error.
CSV output is deterministic: 17 significant digits, rows ordered by
(b, branch, abscissa).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields as dc_fields, replace
from fractions import Fraction
from pathlib import Path

from . import BUILTIN_MODELS, builtin_lagrangian_text
from .branches import trace_branches
from .crosspoint import CrossPointData, solve_delta
from .lagrangian import dispersion_poly, symbol_matrix
from .lagparse import try_parse_lagrangian
from .matdet import coupled_b_expansion, parse_matrix, reassemble_b_expansion
from .mechanalog import OscillatorPair, sweep
from .models import MODELS
from .polyalg import format_poly


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _check_range(lo: float, hi: float, steps: int) -> tuple[float, float, int]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("range bounds must be finite numbers")
    if steps < 2 or hi <= lo:
        raise argparse.ArgumentTypeError("range needs max > min and at least 2 steps")
    return lo, hi, steps


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must be min:max:steps")
    return _check_range(float(parts[0]), float(parts[1]), int(parts[2]))


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


# parameter fields that no subcommand reads, with what to do instead
_UNREAD_PARAMS = {"b": "give coupling values with --b", "p_limit": "sweeps do not enforce it"}


def _apply_overrides(params, overrides: list[str]):
    known = {f.name for f in dc_fields(params)}
    values = {}
    for item in overrides:
        name, _, value = item.partition("=")
        if name in _UNREAD_PARAMS:
            raise SystemExit2(f"--param {name} is not read; {_UNREAD_PARAMS[name]}")
        if not value or name not in known:
            raise SystemExit2(f"unknown or malformed parameter override {item!r}")
        values[name] = _parse_fraction(value)
    return replace(params, **values)


class SystemExit2(Exception):
    """Usage error discovered after argument parsing."""


def _write_csv(path: str | None, header: list[str], rows: list[list]):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


# -- subcommand handlers -----------------------------------------------------------


def cmd_lagrangian(args) -> int:
    if args.file in BUILTIN_MODELS:
        text = builtin_lagrangian_text(args.file)
    else:
        text = Path(args.file).read_text()
    lag, diags = try_parse_lagrangian(text)
    if diags:
        for d in diags:
            print(f"{args.file}:{d}", file=sys.stderr)
        return 1
    if not lag.fields:
        print(f"{args.file}: error: no fields declared, so there is no matrix", file=sys.stderr)
        return 1
    if args.emit == "dispersion":
        print(format_poly(dispersion_poly(lag)))
        return 0
    sym = symbol_matrix(lag)
    cells = []
    for i in range(sym.n):
        row = []
        for j in range(sym.n):
            e = sym.entry(i, j)
            row.append(format_poly(e.re) if e.im.is_zero() else str(e))
        cells.append(", ".join(row))
    print("[" + "; ".join(cells) + "]")
    return 0


def cmd_model(args) -> int:
    model = MODELS.get(args.name)
    if model is None:
        raise SystemExit2(f"unknown model {args.name!r}; choose from {sorted(MODELS)}")
    params = _apply_overrides(model.params(), args.param)
    kgrid = _grid(*args.k_range)
    rows = []
    for b in args.b or model.b_values:
        fb = float(b)
        for tag, disp in model.factors(params, b):
            for t in trace_branches(disp, kgrid):
                branch = f"{tag}{t.branch_id}"
                for k, w in t.samples:
                    rows.append((fb, branch, k, [_fmt(k), _fmt(w), branch, _fmt(fb), args.name]))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(args.out, ["k", "omega", "branch", "b", "model"], [r[3] for r in rows])
    return 0


def cmd_crosspoint(args) -> int:
    cp = CrossPointData.from_normalized(args.g1, args.g2, args.gamma, args.ggamma)
    if not all(map(math.isfinite, (cp.g1 - cp.g2, cp.g1 + cp.g2, cp.coupling_product()))):
        raise SystemExit2("g1 - g2, g1 + g2 or gamma * ggamma overflows a float")
    rows = []
    for kappa in _grid(*args.kappa_range):
        try:
            roots = solve_delta(cp, kappa)
        except OverflowError:  # a float ** overflows where a * gives inf
            roots = (math.inf,)
        if roots is None:
            continue
        if not all(map(math.isfinite, roots)):
            raise SystemExit2(f"the branch offsets at kappa = {_fmt(kappa)} overflow a float")
        for tag, delta in zip(("minus", "plus"), roots):
            rows.append((tag, kappa, [_fmt(kappa), _fmt(delta), tag]))
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(args.out, ["kappa", "delta", "branch"], [r[2] for r in rows])
    return 0


def cmd_mech(args) -> int:
    params = _apply_overrides(OscillatorPair(), args.param)
    b_values = args.b or [Fraction(0), Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)]
    pgrid = _grid(*_check_range(args.p_min, args.p_max, args.p_steps))
    rows = []
    for t in sweep(params, pgrid, b_values):
        tag = t.metadata["branch"]
        b = t.metadata["b"]
        for p, w in t.samples:
            rows.append((b, tag, p, [_fmt(p), _fmt(w), tag, _fmt(b)]))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(args.out, ["p", "omega", "branch", "b"], [r[3] for r in rows])
    return 0


def cmd_expand(args) -> int:
    try:
        a = parse_matrix(Path(args.matrix_a).read_text())
        bmat = parse_matrix(Path(args.matrix_b).read_text())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if a.n != bmat.n:
        raise SystemExit2(f"dimension mismatch: {a.n} vs {bmat.n}")
    try:
        det_a, coeffs, det_b = coupled_b_expansion(a, bmat, var=args.var)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    print(f"det A        = {format_poly(det_a)}")
    for r, c in enumerate(coeffs, start=1):
        print(f"c_{r}({args.var})       = {format_poly(c)}")
    print(f"det B        = {format_poly(det_b)}")
    total = reassemble_b_expansion(det_a, coeffs, det_b, var=args.var)
    print(f"reassembled  = {format_poly(total)}")
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suite  # only this subcommand loads the suites

    if args.suite not in SUITES:
        raise SystemExit2(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    results = run_suite(args.suite)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="facdisp",
        description="Factorized dispersion relations of coupled Lagrangian systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lagrangian", help="compile a .lag file (or a builtin name)")
    p.add_argument("file", help=".lag path or builtin: " + "|".join(BUILTIN_MODELS))
    p.add_argument("--emit", choices=("matrix", "dispersion"), default="matrix")
    p.set_defaults(handler=cmd_lagrangian)

    p = sub.add_parser("model", help="trace dispersion branches of a builtin model to CSV")
    p.add_argument("name", help="|".join(MODELS))
    p.add_argument("--b", action="append", type=_parse_fraction,
                   help="coupling amplitude (repeatable)")
    p.add_argument("--k-range", type=_parse_range, default=(-0.3, 0.3, 601),
                   metavar="MIN:MAX:STEPS")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(handler=cmd_model)

    p = sub.add_parser("crosspoint", help="local crossing-model branches to CSV")
    p.add_argument("--g1", type=_finite, default=1.0)
    p.add_argument("--g2", type=_finite, default=10.0)
    p.add_argument("--gamma", type=_finite, default=0.4)
    p.add_argument("--ggamma", type=_finite, default=1.0)
    p.add_argument("--kappa-range", type=_parse_range, default=(-3.0, 3.0, 601),
                   metavar="MIN:MAX:STEPS")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_crosspoint)

    p = sub.add_parser("mech", help="oscillator-analog eigenfrequency sweep to CSV")
    p.add_argument("--b", action="append", type=_parse_fraction)
    p.add_argument("--p-min", type=float, default=-0.05)
    p.add_argument("--p-max", type=float, default=0.23)
    p.add_argument("--p-steps", type=int, default=541)
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_mech)

    p = sub.add_parser("expand", help="coupling-parameter determinant expansion")
    p.add_argument("matrix_a", help="text file with the coupling-free matrix")
    p.add_argument("matrix_b", help="text file with the coupling matrix")
    p.add_argument("--var", default="b", help="coupling variable name (default b)")
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("suite", nargs="?", default="all",
                   help="the suite to run (default all; an unknown name lists them)")
    p.set_defaults(handler=cmd_verify)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.handler(args)
    except (SystemExit2, argparse.ArgumentTypeError, ValueError) as exc:
        # invalid parameter values surface here too (a non-rational override, a non-positive mass)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
