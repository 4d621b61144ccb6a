"""Follow the periodic singular profile as its period stretches.

In log-radial coordinates the radial problem becomes a one-dimensional
periodic fixed point.  Past the branch point near L = 2.01 a non-constant
profile exists; its neck pinches like e^{-gamma L} while the defect from a
pure stack of bubbles dies strictly faster.  Below the branch point the
solver lands on the flat profile and says so.  Last, the profile's grid
error: sup distance to an M = 12800 solve, and its fitted order in M.
"""

import numpy as np

from qcurv.params import derive_params
from qcurv.delaunay import bifurcation_half_period, neck_sweep, solve_periodic

prm = derive_params(5, 1.5)
L_star = bifurcation_half_period(prm)
print(f"branch point: non-constant profiles exist for L > {L_star:.5f}")

Ls = [2.0, 2.5, 3.0, 3.5, 4.0]
sweep = neck_sweep(Ls, prm, M=800, tol=1e-10)

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

Ms = [400, 800, 1600, 3200]
pairs = [(5, 1.5), (6, 1.2)]
errs = {}
for pair in pairs:
    p = derive_params(*pair)
    ref = solve_periodic(3.5, p, M=12800)
    errs[pair] = [np.max(np.abs(solve_periodic(3.5, p, M=M).v
                                - ref.v[::12800 // M])) for M in Ms]

print("\nprofile grid error at L = 3.5, sup |v_M - v_12800|:")
print(f"{'M':>6} " + " ".join(f"{str(pair):>12}" for pair in pairs))
for k, M in enumerate(Ms):
    print(f"{M:6d} " + " ".join(f"{errs[pair][k]:12.3e}" for pair in pairs))
print(f"{'order':>6} " + " ".join(
    f"{-np.polyfit(np.log(Ms), np.log(errs[pair]), 1)[0]:12.2f}"
    for pair in pairs))
