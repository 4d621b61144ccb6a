import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import IntegrationWarning, dblquad, quad

from qcurv.params import derive_params, nonlin_prime
from qcurv.bubbles import TowerConfig, dlam_bubble, translation_factor
from qcurv.kernels import QuadratureError, check_rules, gauss_panels
from qcurv import cli, interactions as it

PRM = derive_params(5, 1.5)


def closed_W(prm):
    # omega_{n-1} * B(n/2, sigma) / 2
    return (prm.omega_sphere * math.gamma(prm.n / 2) * math.gamma(prm.sigma)
            / math.gamma(prm.n / 2 + prm.sigma) / 2.0)


def a2_a3_quad(prm, tol=1e-12):
    """The bare A2/A3 by adaptive radial quadrature: the oracle of their
    Beta-function forms."""
    def moment(shift):
        val, err = quad(lambda r: (r * r - shift) * r ** (prm.n - 1)
                        * (1 + r * r) ** (-(prm.gamma_dual + 1.0)),
                        0.0, np.inf, epsabs=0.0, epsrel=tol, limit=300)
        assert err <= 100 * tol * abs(val)
        return val
    a2 = 0.5 * (prm.n + 2 * prm.sigma) * prm.omega_sphere * moment(1.0)
    a3 = (-((prm.n - 2 * prm.sigma) ** 2 / prm.n) * prm.omega_sphere
          * moment(0.0))
    return a2, a3


class TestConstants:
    @pytest.mark.parametrize("n,s", [(5, 1.5), (7, 2.5), (3, 1.4), (4, 1.8),
                                     (9, 3.5), (6, 1.2)])
    def test_a2_a3_match_radial_quadrature(self, n, s):
        prm = derive_params(n, s)
        a2, a3 = a2_a3_quad(prm)
        assert it.const_A2(prm) == pytest.approx(prm.c_ns * 2.0 ** n * a2,
                                                 rel=1e-12)
        assert it.const_A3(prm) == pytest.approx(
            prm.c_ns * prm.p * 2.0 ** n * a3, rel=1e-12)

    def test_a2_a3_beta_closed_forms(self):
        # the corrected integrals reduce to Beta functions:
        # bare A2 = gamma_s * W, bare A3 = -W (n-2s)^2/(n+2s)
        for (n, s) in ((5, 1.5), (7, 1.5), (7, 2.5)):
            prm = derive_params(n, s)
            W = closed_W(prm)
            conv = prm.c_ns * 2.0 ** prm.n
            assert it.const_A2(prm) == pytest.approx(
                conv * prm.gamma_s * W, rel=1e-9)
            assert it.const_A3(prm) == pytest.approx(
                -conv * prm.p * W * (n - 2 * s) ** 2 / (n + 2 * s), rel=1e-9)

    def test_a3_is_minus_two_a2(self):
        # A3/A2 = -p (n-2s)^2 / ((n+2s) gamma_s) = -(n-2s)/gamma_s = -2,
        # independent of (n, sigma)
        for (n, s) in ((5, 1.5), (7, 1.5), (7, 2.5), (9, 3.5)):
            prm = derive_params(n, s)
            assert it.const_A3(prm) == pytest.approx(-2.0 * it.const_A2(prm),
                                                     rel=1e-10)

    def test_a1_against_mpmath(self):
        # (3, 1.4) has the slowest tails, (20, 1.5) the narrowest peak
        mp.dps = 30
        for n, s in ((5, 1.5), (7, 2.5), (3, 1.4), (6, 1.2), (20, 1.5)):
            prm = derive_params(n, s)
            g, gd = prm.gamma_s, prm.gamma_dual

            def f(r):
                return r ** (n - 1) / (r ** (2 * g) * (1 + r * r) ** gd + 1)

            ref = float(mp.quad(f, [0, 1, 10, mp.inf]))
            pref = (n + 2 * s) * (n - 2 * s) / n
            assert it.const_A1(prm) == pytest.approx(
                pref * prm.omega_sphere * ref, rel=1e-10)

    def test_signs(self):
        for (n, s) in ((5, 1.5), (7, 1.5), (7, 2.5)):
            prm = derive_params(n, s)
            ic = it.interaction_constants(prm)
            assert ic.A1 > 0 and ic.A2 > 0 and ic.A3 < 0

    def test_sign_validation(self):
        with pytest.raises(ValueError, match="A1>0"):
            it.InteractionConstants(A1=-1.0, A2=1.0, A3=-1.0,
                                    method="closed_integral", est_error=0.0)

    def test_payload_roundtrip(self, tmp_path):
        # constants.json carries the InteractionConstants fields unchanged
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 5, "sigma": 1.5,
                                   "points": [[0] * 5, [3, 0, 0, 0, 0]],
                                   "q": [1.0, 1.0], "L": 2.5}))
        out = tmp_path / "out"
        assert cli.main(["constants", "--config", str(cfg),
                         "--out", str(out)]) == 0
        data = json.loads((out / "constants.json").read_text())
        assert data["n"] == 5 and data["sigma"] == 1.5
        ic = it.interaction_constants(PRM)
        for key, val in dataclasses.asdict(ic).items():
            assert data[key] == val


def interaction_lambda(l1, l2, prm, tol=1e-9):
    """int f'(U_1) U_2 d_lam1 U_1 dx for two concentric bubbles, by
    adaptive quadrature in log coordinates: the oracle of psi.  It equals
    omega_sphere / lam1 times the two-scale interaction function at
    |ln(l2/l1)|, signed by ln(l2/l1)."""
    if l1 <= 0 or l2 <= 0:
        raise ValueError("scales must be positive")

    def f(t):
        r2 = np.exp(-2.0 * t)
        u1 = (2.0 * l1 / (l1 * l1 + r2)) ** prm.gamma_s
        u2 = (2.0 * l2 / (l2 * l2 + r2)) ** prm.gamma_s
        return (nonlin_prime(u1, prm) * u2 * dlam_bubble(r2, l1, prm)
                * np.exp(-prm.n * t))

    t1, t2 = -np.log(l1), -np.log(l2)
    lo = min(t1, t2) - 40.0
    hi = max(t1, t2) + 40.0
    val, _ = quad(f, lo, hi, epsabs=1e-14, epsrel=tol, limit=400,
                  points=[t1, t2, 0.5 * (t1 + t2)])
    return float(prm.omega_sphere * val)


def psi_quad(ell, prm):
    """psi's integral by adaptive quadrature on unit panels, with no
    absolute floor."""
    g = prm.gamma_s

    def f(t):
        return (np.tanh(t) * np.cosh(t) ** (-prm.gamma_dual)
                * (np.cosh(t + ell) ** (-g) - np.cosh(t - ell) ** (-g)))

    total = sum(quad(f, a, a + 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a in range(int(60 + ell)))
    return -prm.c_ns * prm.p * g * total


def faraway_dblquad(l1, l3, d, mode, prm, tol=1e-10):
    """Adaptive oracle for the two-bubble integrals of _faraway_rules:
    nested scalar quadrature of the rescaled integrand over the same box."""
    B = 120.0
    g = prm.gamma_s

    def integrand(s, y1):
        y2 = y1 * y1 + s * s
        u1 = (2.0 / (1.0 + y2)) ** g
        fp = nonlin_prime(u1, prm) * l1 ** (-2.0 * prm.sigma)
        rho2 = (l1 * y1 - d) ** 2 + (l1 * s) ** 2
        u3 = (2.0 * l3 / (l3 * l3 + rho2)) ** g
        if mode == 0:
            dU = l1 ** (-g - 1.0) * g * u1 * (y2 - 1.0) / (1.0 + y2)
        else:
            dU = -2.0 * g * l1 ** (-g - 1.0) * y1 * u1 / (1.0 + y2)
        return fp * u3 * dU * s ** (prm.n - 2)

    with warnings.catch_warnings():
        # slices far from both bubbles integrate tails near the roundoff floor
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = dblquad(integrand, -B, B, 0.0, B, epsabs=1e-13, epsrel=tol)
    return prm.omega_equator * l1 ** prm.n * val


def faraway_per_mode(l1, l3, d, mode, prm, B=120.0):
    """The 16- and 8-point values of _faraway_rules' tensor rule, one mode
    and one pair at a time, on the box of half-width B: the per-mode loop
    the shared-grid evaluation replaced, kept as its oracle."""
    g = prm.gamma_s
    c3, h3 = d / l1, l3 / l1

    def integrand(s, y1):
        y2 = y1 * y1 + s * s
        u1 = (2.0 / (1.0 + y2)) ** g
        fp = nonlin_prime(u1, prm) * l1 ** (-2.0 * prm.sigma)
        x1 = l1 * y1
        rho2 = (x1 - d) ** 2 + (l1 * s) ** 2
        u3 = (2.0 * l3 / (l3 * l3 + rho2)) ** g
        if mode == 0:
            dU = l1 ** (-g - 1.0) * g * u1 * (y2 - 1.0) / (1.0 + y2)
        else:
            dU = -2.0 * g * l1 ** (-g - 1.0) * y1 * u1 / (1.0 + y2)
        return fp * u3 * dU * s ** (prm.n - 2)

    centers = [(0.0, 1.0)] + ([(c3, h3)] if abs(c3) < B else [])
    y_edges = it._graded_edges(-B, B, centers)
    s_edges = it._graded_edges(0.0, B, [(0.0, min(h for _, h in centers))])
    vals = []
    for order in (16, 8):
        y1, wy = gauss_panels(y_edges, order)
        s_nodes, ws = gauss_panels(s_edges, order)
        total = 0.0
        for s_panel, w_panel in zip(s_nodes.reshape(-1, order),
                                    ws.reshape(-1, order)):
            total += wy @ integrand(s_panel[None, :], y1[:, None]) @ w_panel
        vals.append(prm.omega_equator * l1 ** prm.n * total)
    return vals


def oracle_fit_per_mode(prm, d=2.0, B=120.0):
    """A2, A3 and est_error of oracle_fit_constants from faraway_per_mode."""
    lams = (1e-2, 1e-3)
    a2 = [faraway_per_mode(l, l, d, 0, prm, B)[0]
          * d ** (prm.n - 2 * prm.sigma) * l / l ** (2 * prm.gamma_s)
          for l in lams]
    a3 = [faraway_per_mode(l, l, d, 1, prm, B)[0]
          * d ** (2 * prm.gamma_s + 1) / l ** (2 * prm.gamma_s)
          for l in lams]
    err = max(abs(a2[1] - a2[0]) / abs(a2[1]), abs(a3[1] - a3[0]) / abs(a3[1]))
    return a2[1], a3[1], err


# the last case puts a sharp bubble 3 inside the box (center 10, scale 0.1
# after rescaling), where the rule needs its second grading
FARAWAY_CASES = [(1e-2, 1e-2, 2.0), (0.05, 0.05, 2.0), (0.05, 0.01, 2.0),
                 (0.1, 0.01, 1.0)]


class TestFarawayRule:
    @pytest.mark.parametrize("l1,l3,d", FARAWAY_CASES)
    @pytest.mark.parametrize("mode", [0, 1])
    def test_matches_dblquad(self, l1, l3, d, mode):
        fine, coarse = it._faraway_rules([(l1, l3)], d, PRM)[0, mode]
        check_rules(fine, coarse, it._FIT_TOL, "two-bubble integral")
        assert fine == pytest.approx(faraway_dblquad(l1, l3, d, mode, PRM),
                                     rel=1e-9)

    @pytest.mark.parametrize("l1,l3,d", FARAWAY_CASES)
    @pytest.mark.parametrize("mode", [0, 1])
    def test_bitwise_per_mode_oracle(self, l1, l3, d, mode):
        # the shared-grid evaluation keeps every operand order of the
        # per-mode loop, so the values are the same doubles
        fine, coarse = it._faraway_rules([(l1, l3)], d, PRM)[0, mode]
        assert [fine, coarse] == faraway_per_mode(l1, l3, d, mode, PRM)

    def test_pairs_share_grid_bitwise(self, monkeypatch):
        # the two pairs with bubble 3 outside the box share one grid, the
        # one inside gets its own: two grids, each built for both rules in
        # y and s; every pair keeps its own per-mode values
        built = []

        def counted(edges, order):
            built.append(order)
            return gauss_panels(edges, order)
        monkeypatch.setattr(it, "gauss_panels", counted)
        pairs = [(1e-2, 1e-2), (0.1, 0.01), (1e-3, 1e-3)]
        vals = it._faraway_rules(pairs, 2.0, PRM)
        assert len(built) == 2 * 2 * 2
        for (l1, l3), v in zip(pairs, vals):
            for mode in (0, 1):
                assert list(v[mode]) == faraway_per_mode(l1, l3, 2.0, mode,
                                                         PRM)

    def test_self_check_raises(self, monkeypatch):
        # ripples in f' far shorter than a panel: the 16- and 8-point rules
        # disagree and the fit refuses to return either
        def rippled(xi, prm):
            return nonlin_prime(xi, prm) * (1.0 + 1e-3 * np.cos(2000.0 * xi))
        monkeypatch.setattr(it, "nonlin_prime", rippled)
        fine, coarse = it._faraway_rules([(1e-2, 1e-2)], 2.0, PRM)[0, 0]
        assert abs(fine - coarse) > it._FIT_TOL * abs(fine)
        with pytest.raises(QuadratureError, match="oracle_fit_constants"):
            it.oracle_fit_constants(PRM)

    @pytest.mark.parametrize("n,s,documented", [
        (5, 1.5, 6.1e-6), (7, 2.5, 1.9e-9), (6, 1.2, 6.9e-5), (3, 1.2, 1.1e-4)])
    def test_box_tail_as_documented(self, n, s, documented):
        # the tail beyond the box of 120, against a box of 1000, is the size
        # the docstring gives, far above the 1e-8 of the 16/8 check at
        # sigma < 5/2
        prm = derive_params(n, s)
        worst = max(abs(faraway_per_mode(l, l, 2.0, mode, prm)[0]
                        / faraway_per_mode(l, l, 2.0, mode, prm, B=1000.0)[0]
                        - 1.0)
                    for l in (1e-2, 1e-3) for mode in (0, 1))
        assert worst == pytest.approx(documented, rel=0.05)


class TestOracleFit:
    def test_certification_gate(self):
        closed = it.interaction_constants(PRM)
        fitted = it.oracle_fit_constants(PRM)
        assert fitted.method == "oracle_fit"
        assert abs(fitted.A2 - closed.A2) / closed.A2 < 0.02
        assert abs(fitted.A3 - closed.A3) / abs(closed.A3) < 0.02
        # lam = 1e-3 should sit much closer than the gate
        assert abs(fitted.A2 - closed.A2) / closed.A2 < 1e-3
        assert fitted.est_error < 1e-3

    @pytest.mark.parametrize("n,s", [(5, 1.5), (7, 2.5), (6, 1.2)])
    def test_bitwise_per_mode_oracle(self, n, s):
        prm = derive_params(n, s)
        fitted = it.oracle_fit_constants(prm)
        assert (fitted.A2, fitted.A3, fitted.est_error) == \
            oracle_fit_per_mode(prm)

    @pytest.mark.parametrize("pair,mode", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_checks_every_integral(self, monkeypatch, pair, mode):
        # a 16/8 gap in any of the four integrals refuses the fit
        gapped = np.ones((2, 2, 2))
        gapped[pair, mode, 1] = 2.0
        monkeypatch.setattr(it, "_faraway_rules", lambda pairs, d, prm: gapped)
        with pytest.raises(QuadratureError, match="8-point"):
            it.oracle_fit_constants(PRM)

    def test_distance_scaling_exponent(self):
        lam = 1e-2
        ds = np.array([2.0, 4.0, 8.0])
        vals = np.array([it._faraway_rules([(lam, lam)], d, PRM)[0, 0, 0]
                         for d in ds])
        slope = np.polyfit(np.log(ds), np.log(np.abs(vals)), 1)[0]
        target = 2 * PRM.sigma - PRM.n
        assert abs(slope - target) <= 0.02 * abs(target)


class TestPsi:
    def test_vanishes_at_zero(self):
        assert abs(it.psi(0.0, PRM)) <= 1e-10

    def test_positive_beyond_two(self):
        for ell in (2.0, 3.0, 5.0, 8.0, 12.0):
            assert it.psi(ell, PRM) > 0

    def test_decay_slope(self):
        ells = np.linspace(6.0, 12.0, 7)
        vals = np.array([it.psi(l, PRM) for l in ells])
        slope = np.polyfit(ells, np.log(vals), 1)[0]
        assert abs(slope + PRM.gamma_s) <= 0.03 * PRM.gamma_s

    def test_asymptote_constant_is_a2(self):
        # omega_{n-1} * psi(l) * e^(gamma_s l) -> A2; the correction decays
        # like e^(-2l), so at l = 10 the match is far inside 1e-6
        val = PRM.omega_sphere * it.psi(10.0, PRM) * np.exp(10.0 * PRM.gamma_s)
        assert val == pytest.approx(it.const_A2(PRM), rel=1e-6)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            it.psi(-1.0, PRM)

    @pytest.mark.parametrize("n,s", [(5, 1.5), (7, 2.5), (3, 1.4), (9, 3.5),
                                     (6, 1.2), (20, 1.5)])
    def test_matches_quadrature_without_floor(self, n, s):
        # psi(35) at (5, 1.5) is 5e-15: an absolute error floor near 1e-13
        # would swamp it
        prm = derive_params(n, s)
        for ell in (1e-3, 0.25, 1.0, 3.0, 8.0, 20.0, 30.0, 35.0):
            assert it.psi(ell, prm) == pytest.approx(psi_quad(ell, prm),
                                                     rel=1e-9, abs=0.0)


class TestInteractionLambda:
    def test_matches_psi_identity(self):
        # the concentric integral collapses to the two-scale function; the
        # prefactor carries the sphere area from the angular integration
        val = interaction_lambda(1.0, np.exp(-8.0), PRM)
        pred = -PRM.omega_sphere * it.psi(8.0, PRM)
        assert val == pytest.approx(pred, rel=1e-9)

    def test_sign_flips_with_scale_order(self):
        small = np.exp(-8.0)
        assert interaction_lambda(1.0, small, PRM) < 0
        assert interaction_lambda(small, 1.0, PRM) > 0

    def test_joint_rescaling(self):
        # I(s l1, s l2) = I(l1, l2) / s
        base = interaction_lambda(1.0, 0.2, PRM)
        scaled = interaction_lambda(3.0, 0.6, PRM)
        assert scaled == pytest.approx(base / 3.0, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            interaction_lambda(0.0, 1.0, PRM)


@pytest.fixture(scope="module")
def gram():
    cfg = TowerConfig(index=0, center=np.zeros(5), period=2.0, levels=4)
    return cfg, it.gram_cokernels(cfg, PRM)


class TestGram:
    def test_shape_and_order(self, gram):
        cfg, G = gram
        idx = it.gram_indices(cfg)
        assert G.shape == (30, 30) and len(idx) == 30
        assert idx[0].mode == 0 and idx[0].level == 0
        assert idx[6].level == 1

    def test_dilation_diagonal_scale_free(self, gram):
        cfg, G = gram
        idx = it.gram_indices(cfg)
        m0 = [i for i, k in enumerate(idx) if k.mode == 0]
        d = np.diag(G[np.ix_(m0, m0)])
        assert np.all(d > 0)
        assert np.max(np.abs(d / d[0] - 1.0)) < 1e-9

    def test_dilation_offdiagonal_rate(self, gram):
        cfg, G = gram
        idx = it.gram_indices(cfg)
        m0 = [i for i, k in enumerate(idx) if k.mode == 0]
        B = G[np.ix_(m0, m0)]
        gaps = cfg.level_heights()[1:] - cfg.level_heights()[0]
        slope = np.polyfit(gaps, np.log(np.abs(B[0, 1:])), 1)[0]
        assert abs(slope + PRM.gamma_s) <= 0.10 * PRM.gamma_s

    def test_translation_offdiagonal_rate(self, gram):
        cfg, G = gram
        idx = it.gram_indices(cfg)
        m1 = [i for i, k in enumerate(idx) if k.mode == 1]
        B = G[np.ix_(m1, m1)]
        gaps = cfg.level_heights()[1:] - cfg.level_heights()[0]
        slope = np.polyfit(gaps, np.log(np.abs(B[0, 1:])), 1)[0]
        target = PRM.gamma_s + 1.0
        assert abs(slope + target) <= 0.10 * target

    def test_cross_mode_blocks_vanish(self, gram):
        cfg, G = gram
        idx = it.gram_indices(cfg)
        m0 = [i for i, k in enumerate(idx) if k.mode == 0]
        m1 = [i for i, k in enumerate(idx) if k.mode == 1]
        m2 = [i for i, k in enumerate(idx) if k.mode == 2]
        assert np.all(G[np.ix_(m0, m1)] == 0.0)
        assert np.all(G[np.ix_(m1, m2)] == 0.0)

    def test_rejects_deep_or_shifted(self):
        with pytest.raises(ValueError, match="6 levels"):
            cfg = TowerConfig(index=0, center=np.zeros(5), period=2.0, levels=7)
            it.gram_cokernels(cfg, PRM)
        with pytest.raises(ValueError, match="common-center"):
            shifts = np.zeros((3, 5))
            shifts[1, 0] = 1e-9
            cfg = TowerConfig(index=0, center=np.zeros(5), period=2.0,
                              levels=2, shifts=shifts)
            it.gram_cokernels(cfg, PRM)


def _gram_integrand(cfg, prm, j, k, mode):
    """Integrand in t = -ln|x| and prefactor of the (level j, level k) entry
    of the dilation (mode 0) or translation (mode >= 1) block."""
    heights, lams = cfg.level_heights(), cfg.level_scales
    slopes = cfg.baseline * np.exp(-heights)
    lj, lk, n = lams[j], lams[k], prm.n

    def u_at(r2, lam):
        return (2.0 * lam / (lam * lam + r2)) ** prm.gamma_s

    if mode == 0:
        def f(t):
            r2 = np.exp(-2.0 * t)
            zbar = (nonlin_prime(u_at(r2, lj), prm)
                    * slopes[j] * dlam_bubble(r2, lj, prm))
            return (zbar * slopes[k] * dlam_bubble(r2, lk, prm)
                    * np.exp(-n * t))
        return f, prm.omega_sphere

    def f(t):
        r2 = np.exp(-2.0 * t)
        zbar_j, zbar_k = (nonlin_prime(u_at(r2, lam), prm)
                          * translation_factor(r2, lam, prm) for lam in (lj, lk))
        return r2 * zbar_j * zbar_k * np.exp(-n * t)
    return f, prm.omega_sphere / n


def gram_quad(cfg, prm, tol=1e-9):
    """The per-entry adaptive quadrature gram_cokernels used before its
    fixed rule, kept as the oracle: one quad per nonzero entry, on
    [min(t_j, t_k) - 30, max(t_j, t_k) + 30] with breakpoints at the levels.
    Its epsabs of 1e-15 leaves entries near that size inaccurate."""
    heights = cfg.level_heights()
    idx = it.gram_indices(cfg)
    G = np.zeros((len(idx), len(idx)))
    for a, ia in enumerate(idx):
        for b, ib in enumerate(idx):
            if (ia.mode == 0) != (ib.mode == 0) or (ia.mode and ia.mode != ib.mode):
                continue  # odd symmetry and the angular average vanish these
            tj, tk = heights[ia.level], heights[ib.level]
            f, c = _gram_integrand(cfg, prm, ia.level, ib.level, ia.mode)
            val, _ = quad(f, min(tj, tk) - 30.0, max(tj, tk) + 30.0,
                          epsabs=1e-15, epsrel=tol, limit=500,
                          points=[tj, tk, 0.5 * (tj + tk)])
            G[a, b] = c * val
    return G


def gram_entry_panelled(cfg, prm, j, k, mode):
    """One entry by adaptive quad on every unit panel of the fixed rule's
    window, with no absolute floor: accurate to about 1e-13 of its own
    size however small it is."""
    heights = cfg.level_heights()
    edges = np.arange(heights[0] - 30.0, heights[-1] + 30.5, 1.0)
    f, c = _gram_integrand(cfg, prm, j, k, mode)
    with warnings.catch_warnings():
        # roundoff warnings on panels whose share of the sum is negligible
        warnings.simplefilter("ignore", IntegrationWarning)
        return c * sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                       for a, b in zip(edges[:-1], edges[1:]))


class TestGramFixedRule:
    @pytest.mark.parametrize("n,s", [(5, 1.5), (7, 2.5)])
    def test_matches_per_entry_quad(self, n, s):
        prm = derive_params(n, s)
        cfg = TowerConfig(index=0, center=np.zeros(n), period=2.0, levels=4)
        G, ref = it.gram_cokernels(cfg, prm), gram_quad(cfg, prm)
        assert np.array_equal(G == 0.0, ref == 0.0)
        big = np.abs(ref) >= 1e-10 * np.max(np.abs(ref))
        assert np.all(np.abs(G - ref)[big] <= 1e-11 * np.abs(ref[big]))

    def test_tiny_entries_match_panelled_quad(self):
        # entries down to 1e-51 of the largest one; the per-entry quad's
        # epsabs gave (level 0, level 6, mode 1) = 1.97350e-14 for 1.97292e-14
        cfg = TowerConfig(index=0, center=np.zeros(5), period=2.0, levels=6)
        G = it.gram_cokernels(cfg, PRM)
        m = PRM.n + 1
        for mode in (0, 1):
            block = G[mode::m, mode::m]
            for j in range(cfg.levels + 1):
                for k in range(cfg.levels + 1):
                    ref = gram_entry_panelled(cfg, PRM, j, k, mode)
                    assert block[j, k] == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_rule_gap_above_tol_raises(self):
        cfg = TowerConfig(index=0, center=np.zeros(5), period=2.0, levels=4)
        with pytest.raises(QuadratureError, match="gram_cokernels"):
            it.gram_cokernels(cfg, PRM, tol=1e-14)
