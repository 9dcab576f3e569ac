"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one small seeded round of each workload, requires every check to pass
on the program's real outputs, then plants a wrong answer for each check (a
perturbed determinant, a shifted root, a non-Hermitian matrix, a render that
drops a term, ...) and requires that check to flag it.  Exits 0 when all of
that holds, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import program
import run
import wl_compile
import wl_detexp
import wl_trace

SEED, ROUND = 0, 1


class Failed(Exception):
    pass


def expect(failures: list[str], text: str, what: str) -> None:
    if not any(text in f for f in failures):
        raise Failed(f"{what}: expected a failure mentioning {text!r}, got {failures}")
    print(f"  flagged: {what}")


def run_clean(fd, wl):
    cases = wl.build_round(fd, SEED, ROUND)
    outs = [wl.run_op(fd, c) for c in cases]
    for case, out in zip(cases, outs):
        problems = wl.check(fd, case, out)
        if problems:
            raise Failed(f"real output failed its check: {problems}")
    print(f"  {len(cases)} real outputs pass")
    return cases, outs


def first(cases, outs, pred):
    return next((c, o) for c, o in zip(cases, outs) if pred(c))


def test_detexp(fd) -> None:
    print("detexp")
    cases, outs = run_clean(fd, wl_detexp)
    one = fd.MultiPoly.const(1)
    c, o = first(cases, outs, lambda c: c.op == "markus")
    expect(wl_detexp.check(fd, c, o + one), "markus", "Markus expansion off by one")
    right, wrong = run.check_apart(wl_detexp, fd, [(c, o), (c, o + one)])
    if right:
        raise Failed(f"forked check failed a real output: {right}")
    expect(wrong, "markus", "Markus expansion off by one, checked in a forked process")
    c, o = first(cases, outs, lambda c: c.op == "laplace")
    expect(wl_detexp.check(fd, c, o + one), "laplace", "Laplace expansion off by one")
    c, o = first(cases, outs, lambda c: c.op == "adjugate")
    rows = [list(r) for r in o.entries]
    rows[0][-1] = rows[0][-1] + one
    expect(wl_detexp.check(fd, c, fd.PolyMatrix(rows)), "adj", "adjugate entry off by one")
    c, ((det_a, coeffs, det_b), total) = first(cases, outs, lambda c: c.op == "coupled")
    b = fd.MultiPoly.var("b")
    expect(wl_detexp.check(fd, c, ((det_a, coeffs, det_b), total + b)), "reassembled",
           "reassembled coupling expansion plus b")
    expect(wl_detexp.check(fd, c, ((det_a + one, coeffs, det_b), total)), "det A",
           "det A off by one")


def _shift(fd, traces, k, delta, count=1):
    """Copies of the traces with `count` roots at k moved by delta (delta None: dropped)."""
    out = []
    for t in traces:
        samples = []
        for kk, w in t.samples:
            if kk == k and count:
                count -= 1
                if delta is None:
                    continue
                w += delta
            samples.append((kk, w))
        out.append(fd.branches.BranchTrace(t.branch_id, samples, dict(t.metadata)))
    return out


def test_trace(fd) -> None:
    print("trace")
    cases, outs = run_clean(fd, wl_trace)
    c, o = first(cases, outs, lambda c: True)
    k = c.grid[c.check_idx[0]]
    expect(wl_trace.check(fd, c, _shift(fd, o, k, 1e-9)), "differ from sympy",
           "one root shifted by 1e-9 at a checked k")
    c, o = first(cases, outs, lambda c: 0.0 in c.grid and c.label.startswith("mindlin-A"))
    expect(wl_trace.check(fd, c, _shift(fd, o, 0.0, None)), "differ from sympy",
           "the double root at k = 0 reported once")
    c, o = first(cases, outs, lambda c: c.closed is not None)
    k = next(k for i, k in enumerate(c.grid) if i not in c.check_idx and k != 0.0)
    expect(wl_trace.check(fd, c, _shift(fd, o, k, 1e-6)), "off every factor",
           "a b = 0 root shifted by 1e-6 at an unchecked k")


def test_compile(fd) -> None:
    print("compile")
    cases, outs = run_clean(fd, wl_compile)
    one = fd.MultiPoly.const(1)
    c, o = first(cases, outs, lambda c: True)
    lag, sym, disp, (det_a, coeffs, det_b), total = o

    rows = [list(r) for r in sym.matrix.entries]
    rows[0][1] = rows[0][1] + one
    bad = replace(sym, matrix=fd.PolyMatrix(rows))
    expect(wl_compile.check(fd, c, (lag, bad, disp, (det_a, coeffs, det_b), total)),
           "not Hermitian", "one off-diagonal entry changed")
    expect(wl_compile.check(fd, c, (lag, sym, disp + one, (det_a, coeffs, det_b), total)),
           "sympy det", "dispersion polynomial off by one")
    bad_coeffs = [coeffs[0] + one] + list(coeffs[1:])
    expect(wl_compile.check(fd, c, (lag, sym, disp, (det_a, bad_coeffs, det_b), total)),
           "reassembled", "first coupling coefficient off by one")

    # a Hermitian matrix whose b-free part couples the two field groups
    i, j = (lag.fields.index(g[0]) for g in c.groups)
    rows = [list(r) for r in sym.matrix.entries]
    rows[i][j] = rows[i][j] + one
    rows[j][i] = rows[j][i] + one
    bad = replace(sym, matrix=fd.PolyMatrix(rows))
    expect(wl_compile.check(fd, c, (lag, bad, bad.determinant(), (det_a, coeffs, det_b), total)),
           "b=0", "b-free coupling between the field groups")

    render = fd.render_lagrangian
    fd.render_lagrangian = lambda lg: "\n".join(render(lg).splitlines()[:-1]) + "\n"
    try:
        expect(wl_compile.check(fd, c, o), "render", "a render that drops the last term")
    finally:
        fd.render_lagrangian = render


def main() -> int:
    program.ensure_source()
    fd = program.load_program()
    try:
        for test in (test_detexp, test_trace, test_compile):
            test(fd)
    except Failed as exc:
        print(f"FAIL: {exc}")
        return 1
    print("all checks flag their planted wrong answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
