"""Check the log-radial kernel's constant and watch the bubble sit still.

The dual form of the equation turns the fractional operator into a
convolution against two radial kernels.  Its constant has a closed form,
dual_const = riesz_const q_ns, because the bubble family solves the equation
with the curvature constant q_ns; with it the standard bubble is a fixed
point of the dual map, and everything downstream (towers, residuals,
projections) rides on this.
"""

import numpy as np

from qcurv.params import derive_params
from qcurv.kernels import decay_slope, riesz_kernel_cyl, singular_kernel_cyl
from qcurv.bubbles import Bubble, bubble_eval
from qcurv.assembler import dual_apply_radial

prm = derive_params(5, 1.5)
print(f"parameters: n={prm.n}, sigma={prm.sigma}, "
      f"near rate gamma={prm.gamma_s}, far rate gamma'={prm.gamma_dual}, "
      f"power p={prm.p}")

print(f"\nkernel constant in closed form: dual_const = riesz_const q_ns = "
      f"{prm.dual_const:.12g}")

bub = Bubble(center=np.zeros(prm.n), lam=1.0)
fn = lambda pts: bubble_eval(pts, bub, prm)
print("\nbubble through the dual map (should come back unchanged):")
print(f"{'radius':>8} {'bubble':>14} {'mapped':>14} {'rel err':>10}")
for r in (0.0, 0.5, 1.0, 2.0, 5.0):
    x = np.zeros(prm.n)
    x[0] = r
    ref = float(fn(x[None, :])[0])
    img = dual_apply_radial(fn, np.zeros(prm.n), x, prm, tol=1e-10)
    print(f"{r:8.2f} {ref:14.8f} {img:14.8f} {abs(img / ref - 1):10.2e}")

ts = np.linspace(8.0, 16.0, 9)
print("\nkernel tails on t in [8, 16]:")
for kind, kernel, target in (("riesz", riesz_kernel_cyl, prm.gamma_s),
                             ("singular", singular_kernel_cyl, prm.gamma_dual)):
    slope = decay_slope(ts, kernel(ts, prm))
    print(f"  {kind:9s} fitted slope {slope:+.5f}   expected {-target:+.1f}")
