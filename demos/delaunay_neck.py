"""Follow the periodic singular profile as its period stretches.

In log-radial coordinates the radial problem becomes a one-dimensional
periodic fixed point.  Past the branch point near L = 2.01 a non-constant
profile exists; its neck pinches like e^{-gamma L} while the defect from a
pure stack of bubbles dies strictly faster.  Below the branch point the
solver lands on the flat profile and says so.  Last, the operator's
closed-form symbol against a quadrature of the kernel's cosine transform,
and the profile on M-point grids: Newton solves on ceil(7.5 L) + 16 cosine
modes whatever M is, and the resampled profiles agree with the M = 6400 one
to rounding from M = 200 on.
"""

import numpy as np
from scipy.integrate import quad

from qcurv import delaunay
from qcurv.kernels import riesz_kernel_cyl
from qcurv.params import derive_params
from qcurv.delaunay import bifurcation_half_period, neck_sweep, solve_periodic

prm = derive_params(5, 1.5)
L_star = bifurcation_half_period(prm)
print(f"branch point: non-constant profiles exist for L > {L_star:.5f}")

Ls = [2.0, 2.5, 3.0, 3.5, 4.0]
sweep = neck_sweep(Ls, prm, M=800)

print(f"\n{'L':>5} {'neck':>12} {'sup defect':>12} {'iters':>6}   note")
for row in sweep.rows:
    if row.error is not None:
        print(f"{row.L:5.1f} {'-':>12} {'-':>12} {row.iters:6d}   {row.error}")
    else:
        print(f"{row.L:5.1f} {row.eps:12.6f} {row.psi_sup:12.6f} "
              f"{row.iters:6d}")

print(f"\nfitted neck slope   {sweep.slope_eps:+.4f}   "
      f"(law: {-prm.gamma_s:+.1f})")
print(f"fitted defect slope {sweep.slope_psi:+.4f}   "
      f"(strictly steeper than the neck)")

necks = [r.eps for r in sweep.rows if r.error is None]
ratios = [b / a for a, b in zip(necks, necks[1:])]
print("\nneck ratios between consecutive periods:",
      ", ".join(f"{r:.4f}" for r in ratios),
      f"  vs e^(-gamma/2) = {np.exp(-prm.gamma_s * 0.5):.4f}")

xi = 2.0
F = sum(quad(riesz_kernel_cyl, a, a + 1.0, args=(prm,), weight="cos",
             wvar=xi, epsabs=0.0, epsrel=1e-12)[0] for a in range(45))
sym = prm.q_ns * np.exp(-delaunay._log_symbol(xi, prm))
print(f"\nsymbol at xi = {xi}: q_ns / Theta_0 = {sym:.15f}, "
      f"dual_const * 2 int R cos = {2.0 * prm.dual_const * F:.15f}")

Ms = [200, 400, 800, 1600, 3200]
pairs = [(5, 1.5), (6, 1.2), (7, 2.5)]
errs = {}
for pair in pairs:
    p = derive_params(*pair)
    ref = solve_periodic(3.5, p, M=6400)
    errs[pair] = [np.max(np.abs(solve_periodic(3.5, p, M=M).v
                                - ref.v[::6400 // M])) for M in Ms]

print(f"\nprofile at L = 3.5 from {delaunay._modes(3.5, 6400) + 1} Newton nodes, "
      "sup |v_M - v_6400|:")
print(f"{'M':>6} " + " ".join(f"{str(pair):>12}" for pair in pairs))
for k, M in enumerate(Ms):
    print(f"{M:6d} " + " ".join(f"{errs[pair][k]:12.3e}" for pair in pairs))
