"""Mode hybridization in the shear-deformable plate.

The factorized dispersion relation splits into a pure transverse factor f and
a coupled factor A.  Near the origin the coupling rewrites the branch
geometry: two branches are lifted to a cutoff frequency proportional to b,
two stay pinned with parabolic tangency whose curvature *decreases* with b.
Far from the origin all four branches forget the coupling and recover the
uncoupled slopes.
"""

from fractions import Fraction as F

from facdisp.branches import (
    asymptotic_slopes,
    cutoff_frequency,
    laurent_quadratic_residual,
    laurent_S,
    lower_series,
    real_roots,
    trace_branches,
    upper_series,
)
from facdisp.models import mindlin_default_params, mindlin_factorized

print("reference data set: rho = h = D = kappa = G = 1, nu = 1/2")
print()
print(f"{'b':>5} {'cutoff w0':>12} {'curvature c1':>14} {'w(k=0.01)':>12}")
for btext in ("0.05", "0.1", "0.2"):
    p = mindlin_default_params(b=F(btext))
    _, A = mindlin_factorized(p)
    c1, _, _ = lower_series(p)
    roots = [r for r in real_roots(A.subs({"b": p.b, "k": F(1, 100)})) if r > 0]
    print(f"{btext:>5} {cutoff_frequency(p):12.6f} {float(c1):14.4f}"
          f" {min(roots):12.3e}")
print()
print("larger coupling lifts the upper branches higher and opens the pinned")
print("parabola more slowly: hybridization grows with b near the origin.")

p = mindlin_default_params(b=F(1, 10))
_, A = mindlin_factorized(p)
print()
print("series expansions at b = 0.1:")
print("  pinned branch  w =", " + ".join(
    f"({float(c):+.5g}) k^{2*(i+1)}" for i, c in enumerate(lower_series(p))))
print("  lifted branch  w =", " + ".join(
    f"({float(c):+.5g}) k^{2*i}" for i, c in enumerate(upper_series(p))))

# the Laurent analysis of S = k^2/w^2 shows both modes in every coefficient;
# w*S_+ is a polynomial, exact through w^5, so substituted into w^2 times its
# quadratic it leaves a residual that starts at w^6
wsplus = laurent_S(p, +1)
print()
print("w*S_+ series:", wsplus, "+ O(w^6)")
print("substituted into w^2 times its quadratic (from w^6 up):",
      laurent_quadratic_residual(p, wsplus))

# large-k recovery
s1, s2 = asymptotic_slopes(p)
traces = trace_branches(A.subs({"b": p.b}), [40.0, 70.0, 100.0])
print()
print(f"uncoupled slopes: {s1:.6f} and {s2:.6f}")
for t in traces:
    if t.last_omega() > 0:
        slope = t.last_omega() / 100.0
        nearest = min((s1, s2), key=lambda s: abs(s - slope))
        print(f"  branch slope at k=100: {slope:.8f}  (deviation "
              f"{abs(slope-nearest):.2e} from {nearest:.4f})")
