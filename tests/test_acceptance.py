"""Top-level acceptance gates, one test per shipped guarantee.

Each test prints its measured numbers next to the required tolerance, so a
verbose run carries one pass/fail line per gate.  The expensive N=2
assemblies are shared through module fixtures; everything else is cheap.
"""

import time

import numpy as np
import pytest

from qcurv.params import derive_params
from qcurv.kernels import decay_slope, riesz_kernel_cyl, singular_kernel_cyl
from qcurv.delaunay import neck_sweep
from qcurv import interactions as it
from qcurv import toda
from qcurv.balancing import (BalancedConfig, SingularSet, balance,
                             balance_jacobian, periods_from_q)
from qcurv.bubbles import Bubble, KernelIndex, TowerConfig, bubble_eval
from qcurv.assembler import (WeightSpec, assemble, beta_leading_form,
                             beta_projection, dual_apply_radial, residuals)

PRM = derive_params(5, 1.5)
IC = it.interaction_constants(PRM)
E1 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def towers():
    """Balanced two-tower assemblies at three periods, plus the control
    with the first multiplicity bumped 20% and the geometry kept."""
    ss = SingularSet(points=np.vstack([np.zeros(5), 3.0 * E1]))
    q = np.ones(2)
    out = {}
    for L in (2.5, 3.0, 3.5):
        out[L] = assemble(balance(ss, q, L, IC, PRM), PRM)
    ref = out[3.5].balanced
    qq = np.array([1.2, 1.0])
    unb = BalancedConfig(sigma_set=ref.sigma_set, q=qq, R=ref.R,
                         a0_hat=ref.a0_hat, L=ref.L,
                         L_i=periods_from_q(qq, ref.L, PRM),
                         resid_B1=float("nan"), resid_B2=float("nan"))
    out["unbal"] = assemble(unb, PRM)
    return out


@pytest.fixture(scope="module")
def residual_norms(towers):
    weight = WeightSpec(tau=0.5, kind="starstar")
    t0 = time.time()
    reps = residuals(list(towers.values()), weight, tol=1e-7)
    norms = {key: rep.weighted_norm for key, rep in zip(towers, reps)}
    norms["elapsed"] = time.time() - t0
    return norms


def test_01_bubble_fixed_point():
    bub = Bubble(center=np.zeros(5), lam=1.0)
    fn = lambda pts: bubble_eval(pts, bub, PRM)
    t0 = time.time()
    errs = []
    for r in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
        x = r * E1
        img = dual_apply_radial(fn, np.zeros(5), x, PRM, tol=1e-10)
        ref = float(fn(x[None, :])[0])
        errs.append(abs(img - ref) / ref)
    print(f"fixed point of the dual map, 10 radii: sup rel err "
          f"{max(errs):.3e} (<= 1e-3), {time.time() - t0:.1f}s")
    assert max(errs) <= 1e-3


def test_02_kernel_decay_rates():
    ts = np.linspace(8.0, 16.0, 9)
    slope_r = decay_slope(ts, riesz_kernel_cyl(ts, PRM))
    slope_s = decay_slope(ts, singular_kernel_cyl(ts, PRM))
    print(f"kernel tail slopes on [8,16]: smooth {slope_r:.5f} "
          f"(target {-PRM.gamma_s}), singular {slope_s:.5f} "
          f"(target {-PRM.gamma_dual}), both within 2%")
    assert abs(slope_r + PRM.gamma_s) <= 0.02 * PRM.gamma_s
    assert abs(slope_s + PRM.gamma_dual) <= 0.02 * PRM.gamma_dual


def test_03_delaunay_neck_law():
    t0 = time.time()
    sweep = neck_sweep([2.0, 2.5, 3.0, 3.5, 4.0], PRM, M=800)
    below = sweep.rows[0]
    print(f"neck law over 5 half-periods ({time.time() - t0:.1f}s): "
          f"eps slope {sweep.slope_eps:.4f} (within 5% of "
          f"{-PRM.gamma_s}), psi slope {sweep.slope_psi:.4f} "
          f"(<= {-1.05 * PRM.gamma_s})")
    print(f"half-period 2.0 sits below the branch point: {below.error}")
    assert below.error is not None and np.isnan(below.eps)
    assert abs(sweep.slope_eps + PRM.gamma_s) <= 0.05 * PRM.gamma_s
    assert sweep.slope_psi <= -1.05 * PRM.gamma_s


def test_04_interaction_constants():
    t0 = time.time()
    for n, sigma in ((5, 1.5), (7, 2.5)):
        prm = derive_params(n, sigma)
        ic = it.interaction_constants(prm)
        fit = it.oracle_fit_constants(prm)
        rel2 = abs(fit.A2 / ic.A2 - 1.0)
        rel3 = abs(fit.A3 / ic.A3 - 1.0)
        print(f"({n},{sigma}): A1={ic.A1:.6g}>0 A2={ic.A2:.6g}>0 "
              f"A3={ic.A3:.6g}<0; fit agreement A2 {rel2:.2e}, "
              f"A3 {rel3:.2e} (<= 2e-2)")
        assert ic.A1 > 0 and ic.A2 > 0 and ic.A3 < 0
        assert rel2 <= 0.02 and rel3 <= 0.02
    print(f"{time.time() - t0:.1f}s")


def test_05_interaction_potential_law():
    at_zero = it.psi(0.0, PRM)
    ells = np.linspace(6.0, 12.0, 7)
    slope = decay_slope(ells, np.array([it.psi(l, PRM) for l in ells]))
    print(f"potential at 0: {at_zero:.2e} (<= 1e-10); tail slope on "
          f"[6,12]: {slope:.5f} (within 3% of {-PRM.gamma_s})")
    assert abs(at_zero) <= 1e-10
    assert abs(slope + PRM.gamma_s) <= 0.03 * PRM.gamma_s


def test_06_balancing_closed_form():
    d = 3.0
    ss = SingularSet(points=np.vstack([np.zeros(5), d * E1]))
    q = np.ones(2)
    cfg = balance(ss, q, 3.0, IC, PRM)
    g = PRM.gamma_s

    r_closed = d * IC.A2 ** (-1.0 / (2 * g))
    # two-point offsets: the general formula collapses to 2/(A1 d) along
    # the axis once R^2 = d^2/A2 and A3 = -2 A2 are substituted
    diff = ss.points[::-1] - ss.points
    a0_closed = (-(IC.A3 / IC.A1) * d ** (-2 * g - 2)
                 * cfg.R[0] ** g * cfg.R[1] ** g * diff)
    rep = balance_jacobian(ss, q, cfg.R, IC, PRM)
    clock_err = np.max(np.abs(rep.dilation_clock - g * q))
    print(f"symmetric pair: R={cfg.R[0]:.10f} vs closed form "
          f"{r_closed:.10f}; offset magnitude {np.abs(cfg.a0_hat).max():.8f}"
          f" vs 2/(A1 d)={2 / (IC.A1 * d):.8f}; kernel dim "
          f"{rep.q_kernel_dim}, angle to q {rep.q_kernel_angle:.2e}, "
          f"dilation clock err {clock_err:.2e} (all <= 1e-8)")
    assert cfg.R == pytest.approx([r_closed, r_closed], rel=1e-8)
    assert np.allclose(cfg.a0_hat, a0_closed, rtol=1e-8, atol=1e-12)
    assert np.allclose(np.abs(cfg.a0_hat[0]),
                       2 / (IC.A1 * d) * E1, rtol=1e-8, atol=1e-12)
    assert rep.q_kernel_dim == 1
    assert rep.q_kernel_angle <= 1e-8
    assert clock_err <= 1e-8


def test_07_toda_inversion():
    rng = np.random.default_rng(20240817)
    ops = (toda.TodaOperator(kind="dilation", K=200),
           toda.TodaOperator(kind="translation", K=200, period=2.0))
    for op in ops:
        b = rng.standard_normal(200)
        err = np.max(np.abs(toda.apply(op, toda.invert(op, b)) - b))
        print(f"{op.kind}: apply(invert(b)) - b sup err {err:.2e} "
              f"(<= 1e-10)")
        assert err <= 1e-10
    target = np.exp(-2.0 * (0.5 - 0.1) * 2.0)
    ratio = (toda.amplification(ops[1], 0.5)
             / toda.amplification(ops[1], 0.1))
    print(f"translation weighted gain ratio tau 0.5/0.1: {ratio:.4f}, "
          f"law value {target:.4f} (within a factor 2)")
    assert target / 2 <= ratio <= target * 2


def test_08_residual_decay(residual_norms):
    Ls = np.array([2.5, 3.0, 3.5])
    norms = np.array([residual_norms[L] for L in Ls])
    slope = decay_slope(Ls, norms)
    ratio = residual_norms["unbal"] / residual_norms[3.5]
    print(f"balanced residual norms: " +
          ", ".join(f"L={L} {v:.6e}" for L, v in zip(Ls, norms)) +
          f" ({residual_norms['elapsed']:.0f}s)")
    print(f"fitted slope {slope:.4f} (required strictly below "
          f"{-PRM.gamma_s})")
    print(f"unbalanced control (q +20%) at L=3.5: "
          f"{residual_norms['unbal']:.6e}, ratio to balanced "
          f"{ratio:.4f} (required >= 2)")
    assert slope < -PRM.gamma_s
    assert ratio >= 2.0


def test_09_beta_leading_form(towers):
    g = PRM.gamma_s
    base = KernelIndex(0, 0, 0)
    Ls = (2.5, 3.0, 3.5)
    betas = [beta_projection(towers[L], base, tol=1e-7) for L in Ls]
    scaled = [abs(b) * np.exp(g * L) for b, L in zip(betas, Ls)]
    print("balanced dilation projections: " +
          ", ".join(f"L={L} {b:+.6e}" for L, b in zip(Ls, betas)))
    print("rescaled by e^(gamma L): " +
          ", ".join(f"{s:.4f}" for s in scaled) +
          " (must decrease strictly)")
    b_unbal = beta_projection(towers["unbal"], base, tol=1e-7)
    lead = beta_leading_form(towers["unbal"], 0)
    rel = abs(b_unbal - lead) / abs(lead)
    print(f"unbalanced control at L=3.5: measured {b_unbal:+.6e} vs "
          f"first-order bracket {lead:+.6e}, rel err {rel:.3f} "
          f"(required <= 0.15)")
    assert scaled[0] > scaled[1] > scaled[2]
    assert rel <= 0.15


def test_10_gram_cokernel_decay():
    t0 = time.time()
    cfg = TowerConfig(index=0, center=np.zeros(5), period=2.0, levels=4)
    G = it.gram_cokernels(cfg, PRM)
    idx = it.gram_indices(cfg)
    gaps = cfg.level_heights()[1:] - cfg.level_heights()[0]
    m0 = [i for i, k in enumerate(idx) if k.mode == 0]
    m1 = [i for i, k in enumerate(idx) if k.mode == 1]
    B0 = G[np.ix_(m0, m0)]
    B1 = G[np.ix_(m1, m1)]
    slope0 = np.polyfit(gaps, np.log(np.abs(B0[0, 1:])), 1)[0]
    slope1 = np.polyfit(gaps, np.log(np.abs(B1[0, 1:])), 1)[0]
    print(f"pairing matrix off-diagonal decay, 5 levels "
          f"({time.time() - t0:.1f}s): dilation block slope "
          f"{slope0:.4f} (within 10% of {-PRM.gamma_s}), translation "
          f"block slope {slope1:.4f} (at least as fast)")
    assert abs(slope0 + PRM.gamma_s) <= 0.10 * PRM.gamma_s
    assert slope1 <= -0.9 * PRM.gamma_s
