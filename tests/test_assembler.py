import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import adaptive_quadrature as adaptive

from qcurv.params import derive_params
from qcurv.interactions import interaction_constants
from qcurv import assembler, balancing as bal
from qcurv.assembler import (CUT_OFF, CUT_ON, ApproxSolution, WeightSpec,
                             assemble, beta_leading_form, beta_projection,
                             cutoff, dual_apply, dual_apply_radial, mc_probe,
                             residual, sample_grid, weighted_fn_norm,
                             _Line, _MC_BLOCK, _Panels, _build_towers,
                             _dual_integral, _node_set, _patch_sum,
                             _plain_integral, _t_edges)
from qcurv.bubbles import (Bubble, KernelIndex, bubble_eval, kernel_Z,
                           tower_eval)
from qcurv.delaunay import radial_profile, solve_periodic
from qcurv.kernels import QuadratureError, gauss_panels, riesz_kernel_cyl
from qcurv.params import nonlin_prime

PRM = derive_params(5, 1.5)
IC = interaction_constants(PRM)
E1 = np.array([1.0, 0, 0, 0, 0])
E2 = np.array([0.0, 1.0, 0, 0, 0])


def assemble_single(center, R, L, prm, M=400):
    """One-point assembly, with no balancing: the pipeline null test."""
    center = np.asarray(center, dtype=float)[None, :]
    towers, base = _build_towers(center, np.array([R]), np.array([L]),
                                 np.zeros_like(center), None, prm)
    return ApproxSolution(prm=prm, centers=center, towers=towers,
                          base_towers=base,
                          cyls=(solve_periodic(L, prm, M=M),),
                          baselines=np.array([float(R)]), balanced=None)


def correction(u, x, i):
    """phi_i at the points x (k, n): the exact periodic profile about x_i
    minus its two-sided tower.  The subtraction includes the outward
    (negative-level) bubbles, so phi_i is the genuinely small periodic
    remainder and the glued function loses those bubbles in value and in
    mass alike.  u itself evaluates phi_i from the distance to x_i."""
    R = u.baselines[i]
    prof = R ** (-u.prm.gamma_s) * radial_profile(
        u.cyls[i], np.linalg.norm(x - u.centers[i], axis=-1) / R, u.prm)
    return prof - tower_eval(x, u.base_towers[i], u.prm, half=False)


def line_points(line, zr):
    """The n-D points p0 + z a + rho e of the (z, rho) points zr (k, 2)."""
    return line.p0 + zr[:, :1] * line.a + zr[:, 1:] * line.e


def on_line(u, F):
    """F, an integrand on points (k, n), on the (z, rho) points of u's
    meridian half-plane: the quadrature's integrand before the reduction.
    It takes the node set's u values and leaves them unused."""
    line = _Line.of(u)
    return lambda zr, uv: F(line_points(line, zr))


def mc_probe_oracle(u, x, prm, n_samples, seed):
    """`mc_probe` with every draw's point and temporary held at once, in its
    draw order: the labels, one uniform per draw, then every normal as one
    batch.  The blocked probe must reproduce it bit for bit."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    n, g, two_s = prm.n, prm.gamma_s, 2 * prm.sigma
    N = u.size
    comp = rng.integers(0, N + 1, size=n_samples)
    r = (1.0 - rng.random(n_samples)) ** np.where(comp < N, 1.0 / g,
                                                  -1.0 / two_s)
    dirs = rng.standard_normal((n_samples, n))
    ys = (np.vstack((u.centers, x))[comp]
          + (r / np.linalg.norm(dirs, axis=1))[:, None] * dirs)
    # mixture density at each draw, from squared distances
    dens = np.zeros(n_samples)
    for c in u.centers:
        d2 = np.sum((ys - c) ** 2, axis=1)
        inside = d2 <= 1.0
        dens[inside] += (g / prm.omega_sphere / (N + 1)
                         * d2[inside] ** (0.5 * (g - n)))
    rr2 = np.sum((ys - x) ** 2, axis=1)
    far = rr2 >= 1.0
    dens[far] += (two_s / prm.omega_sphere / (N + 1)
                  * rr2[far] ** (-0.5 * (two_s + n)))
    good = dens > 0.0
    vals = np.zeros(n_samples)
    kern = rr2[good] ** (0.5 * (two_s - n))
    vals[good] = kern * u(ys[good]) ** prm.p / dens[good]
    est = prm.dual_const * float(np.mean(vals))
    err = prm.dual_const * float(np.std(vals) / np.sqrt(n_samples))
    return est, err


def mc_probe_retired(u, x, prm, n_samples, seed):
    """The probe's earlier random stream, all at once: the labels, every
    normal, then per component its radii, the centers' as exp(-Exp(gamma_s))
    and the far ones as (1 - U)^(-1/(2 sigma)).  Its far density is
    corrected to 2 sigma r^(-2 sigma - n) / |S^(n-1)|, as in `mc_probe`
    (it read r^(-2 sigma - n + 1)), so that only the stream differs."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    n, g = prm.n, prm.gamma_s
    N = u.size
    comp = rng.integers(0, N + 1, size=n_samples)
    dirs = rng.standard_normal((n_samples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ys = np.empty((n_samples, n))
    dens = np.zeros(n_samples)
    for k in range(N):
        m = comp == k
        taus = rng.exponential(1.0 / g, size=int(np.sum(m)))
        s = np.exp(-taus)
        ys[m] = u.centers[k] + s[:, None] * dirs[m]
    m = comp == N
    r = (1.0 - rng.random(int(np.sum(m)))) ** (-1.0 / (2 * prm.sigma))
    ys[m] = x + r[:, None] * dirs[m]
    # mixture density at each draw
    for k in range(N):
        s = np.linalg.norm(ys - u.centers[k], axis=1)
        inside = s <= 1.0
        dens[inside] += (g * s[inside] ** (g - n)
                         / prm.omega_sphere) / (N + 1)
    rr = np.linalg.norm(ys - x, axis=1)
    far = rr >= 1.0
    dens[far] += (2 * prm.sigma * rr[far] ** (-2 * prm.sigma - n)
                  / prm.omega_sphere) / (N + 1)
    good = dens > 0.0
    vals = np.zeros(n_samples)
    kern = rr[good] ** (2 * prm.sigma - n)
    vals[good] = kern * u(ys[good]) ** prm.p / dens[good]
    est = prm.dual_const * float(np.mean(vals))
    err = prm.dual_const * float(np.std(vals) / np.sqrt(n_samples))
    return est, err



def cutoff_masked(s, on=CUT_ON, off=CUT_OFF):
    """`cutoff` as it was written before, with a boolean scatter for each
    plateau: the oracle of its bits."""
    s = np.asarray(s, dtype=float)
    z = (s - on) / (off - on)
    out = np.empty_like(z)
    lo, hi = z <= 0.0, z >= 1.0
    out[lo], out[hi] = 1.0, 0.0
    mid = ~(lo | hi)
    zm = z[mid]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / zm)
        b = np.exp(-1.0 / (1.0 - zm))
    out[mid] = b / (a + b)
    return out if out.ndim else float(out)


def term_filtered(u, i, s, s2):
    """`ApproxSolution._term` as it was written before, when it took any
    distances and filtered them by s < CUT_OFF itself, then multiplied
    every live point by the cutoff."""
    out = np.zeros(s.shape)
    live = s < CUT_OFF
    s, s2 = s[live], s2[live]
    g, R, cfg = u.prm.gamma_s, u.baselines[i], u.base_towers[i]
    tower = s2 + cfg.level_scales_sq[:, None]
    np.divide(2.0 * cfg.level_scales[:, None], tower, out=tower)
    tower **= g
    phi = R ** (-g) * radial_profile(u.cyls[i], s / R, u.prm)
    phi -= tower.sum(axis=0)
    out[live] = cutoff_masked(s, CUT_ON, CUT_OFF) * phi
    return out


def patch_stacked(panel, q, rng, order, t_edges):
    """`_Panels.patch` as it was written before, each triangle's nodes built
    as one (T, S, 2) array: the oracle of its nodes and weights."""
    (i0, i1), (j0, j1) = rng
    e1, e2 = panel.e1[i0:i1 + 2], panel.e2[j0:j1 + 2]
    corners = np.array([(e1[0], e2[0]), (e1[-1], e2[0]),
                        (e1[-1], e2[-1]), (e1[0], e2[-1])])
    t, tw = gauss_panels(t_edges, order)
    q0 = np.asarray(q)
    q1s, q2s, ws = [], [], []
    for k in range(4):
        P, side = corners[k], corners[(k + 1) % 4] - corners[k]
        det = abs((P - q0)[0] * side[1] - (P - q0)[1] * side[0])
        if det == 0.0:          # q lies on this side
            continue
        along = (e1, e2)[k % 2]
        s, sw = gauss_panels(np.sort(np.abs(along - P[k % 2])
                                     / abs(side[k % 2])), order)
        pts = q0 + t[:, None, None] * (P + s[:, None] * side - q0)
        q1s.append(pts[..., 0].ravel())
        q2s.append(pts[..., 1].ravel())
        ws.append((det * (t * tw)[:, None] * sw[None, :]).ravel())
    return np.concatenate(q1s), np.concatenate(q2s), np.concatenate(ws)

def pair(d=3.0):
    pts = np.zeros((2, 5))
    pts[1, 0] = d
    return bal.SingularSet(points=pts)


@pytest.fixture(scope="module")
def single():
    return assemble_single(np.zeros(5), 0.7, 3.0, PRM)


@pytest.fixture(scope="module")
def balanced_pair():
    cfg = bal.balance(pair(), np.ones(2), 2.5, IC, PRM)
    return assemble(cfg, PRM)


@pytest.fixture(scope="module")
def pair_35():
    """The gate 8/9 pair at its largest period."""
    return assemble(bal.balance(pair(), np.ones(2), 3.5, IC, PRM), PRM)


class TestCutoff:
    def test_plateaus(self):
        s = np.array([0.0, 0.2, 0.5, 1.0, 1.7])
        assert cutoff(s).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_monotone_and_smooth(self):
        s = np.linspace(0.45, 1.05, 400)
        v = cutoff(s)
        assert np.all(np.diff(v) <= 0)
        # no jumps: the transition stays resolved on a fine grid
        assert np.max(np.abs(np.diff(v))) < 0.05

    def test_custom_radii(self):
        assert cutoff(np.array([1.4]), 1.0, 2.0)[0] == pytest.approx(
            cutoff(np.array([0.7]), 0.5, 1.0)[0], abs=1e-12)

    @pytest.mark.parametrize("on,off", [(CUT_ON, CUT_OFF), (1.0, 2.0)])
    def test_is_the_masked_cutoff(self, on, off):
        # the plateaus and their ends to the ulp, dense radii, NaN, and the
        # scalar, 0-d and 2-D inputs
        rng = np.random.default_rng(3)
        ends = np.array([on, off])
        edges = np.concatenate([ends, np.nextafter(ends, 0.0),
                                np.nextafter(ends, np.inf), [0.0, np.nan]])
        dense = rng.uniform(0.0, 2.5 * off, 20_000)
        for s in (edges, dense, dense.reshape(100, 200)):
            got = cutoff(s, on, off)
            assert got.shape == s.shape
            assert np.array_equal(got, cutoff_masked(s, on, off),
                                  equal_nan=True)
        for s in list(edges[:-1]) + [np.array(0.5 * (on + off))]:
            got = cutoff(s, on, off)
            assert type(got) is float and got == cutoff_masked(s, on, off)


class TestAssemble:
    def test_single_point_reduction(self, single):
        """Inside the cutoff the one-point assembly is the periodic profile
        with its outward (mirror) levels removed, exactly."""
        cyl = single.cyls[0]
        g = PRM.gamma_s
        R = single.baselines[0]
        for x in (0.04 * E1, 0.3 * E1, 0.3 * E2, 0.49 * E1):
            prof = R ** (-g) * radial_profile(cyl, np.linalg.norm(x) / R, PRM)
            mirror = (tower_eval(x[None, :], single.base_towers[0], PRM,
                                 half=False)
                      - tower_eval(x[None, :], single.base_towers[0], PRM,
                                   half=True))[0]
            assert float(single(x)) == pytest.approx(prof - mirror,
                                                     abs=1e-12)

    def test_single_point_mirror_offset_is_real(self, single):
        # the removed mirror levels displace the value from the pure profile
        # by a first-order amount; pinning it documents the construction
        cyl = single.cyls[0]
        R = single.baselines[0]
        x = 0.3 * E1
        prof = R ** (-PRM.gamma_s) * radial_profile(
            cyl, np.linalg.norm(x) / R, PRM)
        assert abs(float(single(x)) - prof) > 1e-3

    def test_near_envelope(self, single):
        cyl = single.cyls[0]
        lo = float(np.min(cyl.v)) / 2
        hi = 2 * float(np.max(cyl.v))
        L = single.towers[0].period
        for r in np.geomspace(np.exp(-2 * L), 0.5, 9):
            for direction in (E1, -E1, E2):
                w = float(single(r * direction)) * r ** PRM.gamma_s
                assert lo < w < hi

    def test_far_field_coefficient(self, balanced_pair):
        u = balanced_pair
        lam_sum = sum(np.sum(2.0 * t.scales() ** PRM.gamma_s)
                      for t in u.towers)
        for direction in (E1, E2):
            x = u.origin + 50.0 * direction
            coef = float(u(x)) * 50.0 ** (PRM.n - 2 * PRM.sigma)
            assert coef == pytest.approx(lam_sum, rel=0.05)

    def test_partition_consistency(self, balanced_pair):
        """Raw half-tower sum plus cutoff corrections reproduces the
        evaluator exactly (spec partition-of-unity invariant)."""
        u = balanced_pair
        for x in (0.2 * E1, 0.7 * E1, u.centers[1] + 0.4 * E2, 1.6 * E1,
                  9.0 * E2):
            raw = sum(tower_eval(x, cfg, PRM) for cfg in u.towers)
            for i in range(u.size):
                s = float(np.linalg.norm(x - u.centers[i]))
                chi = float(cutoff(np.array([s]), CUT_ON, CUT_OFF)[0])
                if chi > 0.0:
                    raw += chi * float(correction(u, x[None, :], i)[0])
            assert float(u(x)) == pytest.approx(raw, rel=1e-12, abs=1e-14)

    def test_term_is_the_filtered_term(self, balanced_pair, pair_35):
        # the callers select s < CUT_OFF, as _glued and _Panels.fill do;
        # the annulus ends to the ulp, and the s2 just below 1 whose root
        # rounds to s = 1.0, where the cutoff and so the term are 0
        rng = np.random.default_rng(8)
        ends = np.array([CUT_ON, CUT_OFF])
        s = np.concatenate([rng.uniform(0.0, 2.0, 20_000),
                            np.geomspace(1e-9, 2.0, 500), ends,
                            np.nextafter(ends, 0.0), np.nextafter(ends, 2.0)])
        s2 = s * s
        s = np.append(s, 1.0)
        s2 = np.append(s2, np.nextafter(1.0, 0.0))
        for u in (balanced_pair, pair_35, pair_35.meridian()):
            for i in range(u.size):
                cut = s < CUT_OFF
                got = np.zeros(s.size)
                got[cut] = u._term(i, s[cut], s2[cut])
                assert np.array_equal(got, term_filtered(u, i, s, s2))
                assert u._term(i, s[-1:], s2[-1:])[0] == 0.0

    def test_marked_point_raises(self, single, balanced_pair):
        # u is singular at its marked points
        with pytest.raises(ValueError, match="singular"):
            single(single.centers[0])
        with pytest.raises(ValueError, match="singular"):
            balanced_pair(np.vstack([E2, balanced_pair.centers[1]]))

    def test_blowup_rate(self, balanced_pair):
        # leading tower behavior dist^{-gamma_s} near each marked point
        u = balanced_pair
        vals = [float(u(u.centers[1] + r * E1)) * r ** PRM.gamma_s
                for r in (1e-3, 1e-4, 1e-5)]
        assert max(vals) / min(vals) < 30  # bounded ratio, no faster blowup

    def test_rejects_inadmissible_dilation(self):
        cfg = bal.balance(pair(), np.ones(2), 2.5, IC, PRM)
        r = np.zeros(7)
        r[0] = 0.9  # far beyond exp(-tau t_0)
        perturb = [(r, np.zeros((7, 5))), (np.zeros(7), np.zeros((7, 5)))]
        with pytest.raises(ValueError, match="admissible"):
            assemble(cfg, PRM, perturb=perturb)

    def test_rejects_inadmissible_shift(self):
        cfg = bal.balance(pair(), np.ones(2), 2.5, IC, PRM)
        a = np.zeros((7, 5))
        a[0, 1] = 50.0
        perturb = [(np.zeros(7), a), (np.zeros(7), np.zeros((7, 5)))]
        with pytest.raises(ValueError, match="admissible"):
            assemble(cfg, PRM, perturb=perturb)

    def test_rejects_shape_mismatch(self):
        cfg = bal.balance(pair(), np.ones(2), 2.5, IC, PRM)
        perturb = [(np.zeros(3), np.zeros((3, 5)))] * 2
        with pytest.raises(ValueError, match="shape"):
            assemble(cfg, PRM, perturb=perturb)

    def test_rejects_overlapping_balls(self):
        pts = np.zeros((2, 5))
        pts[1, 0] = 1.6
        with pytest.raises(ValueError):
            bal.SingularSet(points=pts)


class TestDualApply:
    def test_bubble_fixed_point(self):
        bub = Bubble(center=np.zeros(5), lam=1.0)
        fn = lambda pts: bubble_eval(pts, bub, PRM)
        for r in (0.0, 1.0, 3.0):
            x = r * E1
            img = dual_apply_radial(fn, np.zeros(5), x, PRM, tol=1e-10)
            assert img == pytest.approx(float(fn(x[None, :])[0]), rel=1e-3)

    def test_flat_cylinder_fixed_point(self):
        # coefficient from the kernel-mass identity, checked against the
        # closed form (c/q)^{1/(p-1)}
        mass, _ = quad(lambda t: riesz_kernel_cyl(t, PRM), -45, 45, limit=400)
        a = (PRM.dual_const * mass) ** (-1.0 / (PRM.p - 1))
        assert a == pytest.approx((PRM.c_ns / PRM.q_ns) ** (1 / (PRM.p - 1)),
                                  rel=1e-6)
        fn = lambda pts: a * np.linalg.norm(pts, axis=-1) ** (-PRM.gamma_s)
        x = 0.7 * E1
        img = dual_apply_radial(fn, np.zeros(5), x, PRM, tol=1e-10)
        assert img == pytest.approx(float(fn(x[None, :])[0]), rel=1e-3)

    def test_delaunay_null(self, single):
        """Pure periodic profile is an exact fixed point of the dual map:
        the pipeline null test, at solver-tolerance level."""
        cyl = single.cyls[0]
        R = single.baselines[0]
        g = PRM.gamma_s
        # near + transition samples only: the printed far weight |x|^{n+2s}
        # amplifies, so out there it measures quadrature noise, not the
        # fixed-point defect
        fn = lambda pts: R ** (-g) * radial_profile(
            cyl, np.linalg.norm(pts, axis=-1) / R, PRM)
        pts, vals, tags = [], [], []
        for r, tag in ((0.02, "near:0"), (0.1, "near:0"), (0.5, "near:0"),
                       (1.0, "transition"), (3.0, "transition")):
            x = r * E1
            uval = float(fn(x[None, :])[0])
            img = dual_apply_radial(fn, np.zeros(5), x, PRM, tol=1e-9)
            pts.append(x)
            vals.append(uval - img)
            tags.append(tag)
        norm = weighted_fn_norm(np.asarray(pts), np.asarray(vals), tags,
                                WeightSpec(tau=0.5, kind="star"),
                                np.zeros((1, 5)), PRM)
        assert norm <= 1e-2  # 10x a 1e-3 evaluation budget, with margin

    def test_monotone_in_u(self):
        bub = Bubble(center=np.zeros(5), lam=1.0)
        lo = lambda pts: bubble_eval(pts, bub, PRM)
        hi = lambda pts: 1.2 * bubble_eval(pts, bub, PRM)
        x = 0.5 * E1
        a = dual_apply_radial(lo, np.zeros(5), x, PRM)
        b = dual_apply_radial(hi, np.zeros(5), x, PRM)
        assert b > a

    def test_general_path_matches_radial(self, single):
        F = on_line(single, lambda p: single(p) ** PRM.p)
        for r in (0.35, 2.5):
            x = r * E1
            rad = dual_apply_radial(single, single.centers[0], x, PRM,
                                    tol=1e-9)
            gen = PRM.dual_const * _dual_integral(
                single.meridian(), F, *_Line.of(single).coords(x), 1e-7)
            assert gen == pytest.approx(rad, rel=1e-5)

    @pytest.mark.parametrize("n,sigma", [(6, 1.2), (7, 2.5)])
    def test_general_path_matches_radial_other_orders(self, n, sigma):
        # at (6, 1.2) the ring kernel's series does not terminate and its
        # d^0.4 kink takes the graded patch panels; at (7, 2.5) it is linear
        # in w.  Points on the line and off it.
        prm = derive_params(n, sigma)
        u = assemble_single(np.zeros(n), 0.7, 3.0, prm)
        F = on_line(u, lambda p: u(p) ** prm.p)
        for r in (0.05, 0.35, 2.5):
            x = np.zeros(n)
            x[0] = r
            rad = dual_apply_radial(u, u.centers[0], x, prm, tol=1e-9)
            for y in (x, np.roll(x, 1)):
                gen = prm.dual_const * _dual_integral(
                    u.meridian(), F, *_Line.of(u).coords(y), 1e-7)
                assert gen == pytest.approx(rad, rel=1e-7)

    @pytest.mark.parametrize("n,sigma", [(5, 1.5), (6, 1.2)])
    def test_patch_is_the_stacked_patch(self, n, sigma):
        # a point inside a ball panel and one on a far panel's edges (on the
        # line at a radial edge), with the plain and the graded radial rule
        prm = derive_params(n, sigma)
        ball = _Panels(0.0, np.linspace(-np.log(2.0), 3.0, 9),
                       np.linspace(0.0, np.pi, 7), n, own=0)
        far = _Panels(0.0, np.linspace(0.0, 4.0, 9),
                      np.linspace(0.0, np.pi, 7), n, part=lambda z, r: 1.0)
        for panel, (z, rho) in ((ball, (0.3, 0.2)), (far, (1.5, 0.0))):
            hit = panel.near(z, rho)
            assert hit is not None
            for order in (16, 8):
                got = panel.patch(*hit, order, _t_edges(prm))
                ref = patch_stacked(panel, *hit, order, _t_edges(prm))
                assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        # on the line the point lies on the patch's side along the radius
        # (3 panels), whose triangle drops out: the other sides have 2 + 3
        # + 2 panels
        hit = far.near(1.5, 0.0)
        assert hit[0] == (1.5, 0.0)
        t = gauss_panels(_t_edges(prm), 8)[0]
        assert far.patch(*hit, 8, _t_edges(prm))[0].size == t.size * 8 * 7

    def test_single_point_matches_radial(self, single):
        # a one-point assembly takes the meridian path like any other
        for r in (0.02, 0.35, 2.5, 20.0):
            x = r * E1
            rad = dual_apply_radial(single, single.centers[0], x, PRM,
                                    tol=1e-9)
            assert dual_apply(single, x, tol=1e-9) == pytest.approx(
                rad, rel=1e-8)

    @pytest.mark.parametrize("case", ["bubble", "flat", "delaunay", "single",
                                      "single-6-1.2", "single-7-2.5"])
    def test_radial_matches_quad_oracle(self, single, case):
        # the radii and tolerances of the radial tests above and of gate 1,
        # against the map on scipy quad that the fixed panels replaced
        prm, center, tol = PRM, np.zeros(5), 1e-9
        if case == "bubble":
            bub = Bubble(center=center, lam=1.0)
            fn = lambda pts: bubble_eval(pts, bub, PRM)
            radii, tol = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0,
                          8.0), 1e-10
        elif case == "flat":
            a = (PRM.c_ns / PRM.q_ns) ** (1 / (PRM.p - 1))
            fn = lambda pts: a * np.linalg.norm(pts, axis=-1) ** (-PRM.gamma_s)
            radii, tol = (0.7,), 1e-10
        elif case == "delaunay":
            cyl, R = single.cyls[0], single.baselines[0]
            fn = lambda pts: (R ** (-PRM.gamma_s) * radial_profile(
                cyl, np.linalg.norm(pts, axis=-1) / R, PRM))
            radii = (0.02, 0.1, 0.5, 1.0, 3.0)
        elif case == "single":
            fn, radii = single, (0.02, 0.35, 2.5, 20.0)
        else:
            n, sigma = case.split("-")[1:]
            prm = derive_params(int(n), float(sigma))
            center = np.zeros(prm.n)
            fn, radii = assemble_single(center, 0.7, 3.0, prm), (0.05, 0.35,
                                                                 2.5)
        for r in radii:
            x = np.zeros(prm.n)
            x[0] = r
            ref = adaptive.dual_apply_radial(fn, center, x, prm, tol)
            got = dual_apply_radial(fn, center, x, prm, tol=tol)
            assert got == pytest.approx(ref, rel=tol)

    def test_radial_refuses_marked_point(self, single):
        # the window +-45 made the divergent integral finite: 1.1336e19
        with pytest.raises(ValueError, match="marked point 0"):
            dual_apply_radial(single, single.centers[0], single.centers[0],
                              PRM, tol=1e-9)
        # a u growing like |x|^-gamma_s at its center fails the tail check
        a = (PRM.c_ns / PRM.q_ns) ** (1 / (PRM.p - 1))
        flat = lambda pts: a * np.linalg.norm(pts, axis=-1) ** (-PRM.gamma_s)
        with pytest.raises(QuadratureError, match="tail"):
            dual_apply_radial(flat, np.zeros(5), np.zeros(5), PRM, tol=1e-9)

    def test_marked_point_raises(self, single, balanced_pair):
        # u^p is not integrable against the kernel at a marked point
        with pytest.raises(ValueError, match="marked point 0"):
            dual_apply(single, single.centers[0])
        with pytest.raises(ValueError, match="marked point 1"):
            dual_apply(balanced_pair, balanced_pair.centers[1], tol=1e-7)

    def test_mc_probe_agrees(self, balanced_pair):
        u = balanced_pair
        x = u.centers[0] + 0.35 * E1
        det = dual_apply(u, x, tol=1e-7)
        est, err = mc_probe(u, x, 200_000, seed=11)
        assert abs(est - det) <= max(0.05 * abs(det), 4.0 * err)

    def test_requires_collinear(self):
        pts = np.zeros((3, 5))
        pts[1, 0] = 3.0
        pts[2, 0] = 1.5
        pts[2, 1] = 2.8
        ss = bal.SingularSet(points=pts)
        cfg = bal.balance(ss, np.ones(3), 2.5, IC, PRM)
        u = assemble(cfg, PRM)
        with pytest.raises(NotImplementedError, match="line"):
            dual_apply(u, 7.0 * E2)

    def test_line_off_the_origin(self):
        # the normal of this line shares coordinates with the centers; the
        # quadrature runs in the line's own frame, so the translated pair
        # gives the same residuals, and so does one translated by 1e6
        shift = np.array([0.0, 1.0, 0.5, 0.3, 0.2])
        out = []
        for t in (np.zeros(5), shift):
            ss = bal.SingularSet(points=np.vstack([np.zeros(5), 3.0 * E1]) + t)
            u = assemble(bal.balance(ss, np.ones(2), 2.5, IC, PRM), PRM)
            grid, tags = sample_grid(u)
            sel = [0, 38, 64]
            rep = residual(u, WeightSpec(tau=0.5), tol=1e-8,
                           samples=(grid[sel], [tags[k] for k in sel]))
            assert rep.errors == ()
            out.append((rep.values, u(grid[sel])))
        (v0, u0), (v1, _) = out
        assert np.all(np.abs(v1 - v0) <= 1e-9 * np.abs(u0))
        duals = []
        for t in (np.zeros(5), 1e6 * shift):
            ss = bal.SingularSet(points=np.vstack([np.zeros(5), 3.0 * E1]) + t)
            u = assemble(bal.balance(ss, np.ones(2), 2.5, IC, PRM), PRM)
            x = u.centers[0] + 0.5 * E2
            duals.append(dual_apply(u, x))
        assert abs(duals[1] - duals[0]) <= 1e-9 * abs(float(u(x)))

    def test_meridian_is_translation_invariant(self):
        # translated off the origin, the pair's function in the frame of its
        # line is the untranslated pair's, bit for bit; evaluated at the
        # translated n-D points it is off by rounding
        rng = np.random.default_rng(5)
        us = []
        for t in (np.zeros(5), np.array([0.0, 1.0, 0.5, 0.3, 0.2])):
            ss = bal.SingularSet(points=np.vstack([np.zeros(5), 3.0 * E1]) + t)
            us.append(assemble(bal.balance(ss, np.ones(2), 2.5, IC, PRM), PRM))
        s = np.exp(rng.uniform(-12.0, 3.0, 20_000))
        theta = rng.uniform(0.0, np.pi, s.size)
        zr = np.column_stack((3.0 * rng.integers(0, 2, s.size)
                              + s * np.cos(theta), s * np.sin(theta)))
        ref = us[0](line_points(_Line.of(us[0]), zr))
        assert np.array_equal(us[1].meridian()(zr), ref)
        assert np.array_equal(us[0].meridian()(zr), ref)
        moved = us[1](line_points(_Line.of(us[1]), zr))
        assert not np.array_equal(moved, ref)
        assert np.allclose(moved, ref, rtol=1e-9, atol=0.0)

    def test_off_line_shifts_raise(self):
        cfg = bal.balance(pair(), np.ones(2), 2.5, IC, PRM)
        a = np.zeros((7, 5))
        a[0, 1] = 0.5           # level 0 of tower 0 shifted off the line
        u = assemble(cfg, PRM, perturb=[(np.zeros(7), a),
                                        (np.zeros(7), np.zeros((7, 5)))])
        assert u.collinear() and not u.axisymmetric()
        with pytest.raises(NotImplementedError, match="along it"):
            u.meridian()
        with pytest.raises(NotImplementedError, match="along it"):
            dual_apply(u, 7.0 * E2)
        with pytest.raises(NotImplementedError, match="along it"):
            residual(u, WeightSpec(tau=0.5), samples=(np.array([7.0 * E2]),
                                                      ["far"]))

    def test_low_order_raises(self, balanced_pair):
        low = derive_params(5, 1.0, allow_low_order=True)
        u = dataclasses.replace(balanced_pair, prm=low)
        with pytest.raises(NotImplementedError, match="unbounded"):
            dual_apply(u, 7.0 * E2)
        with pytest.raises(NotImplementedError, match="unbounded"):
            residual(u, WeightSpec(tau=0.5), samples=(np.array([7.0 * E2]),
                                                      ["far"]))



class TestMCProbe:
    @pytest.fixture(scope="class")
    def triangle(self):
        """The equilateral triangle of side 3, off any one line."""
        pts = np.zeros((3, 5))
        pts[1, 0] = 3.0
        pts[2, :2] = 1.5, 1.5 * np.sqrt(3.0)
        return assemble(bal.balance(bal.SingularSet(points=pts), np.ones(3),
                                    3.0, IC, PRM), PRM)

    @pytest.mark.parametrize("k,seed", [(0, 1), (20, 2), (40, 3), (45, 4),
                                        (60, 5), (40, 6)])
    def test_matches_oracle_on_grid(self, balanced_pair, k, seed):
        # 50k draws: four blocks of 12.5k
        x = sample_grid(balanced_pair)[0][k]
        assert mc_probe(balanced_pair, x, 50_000, seed) == \
            mc_probe_oracle(balanced_pair, x, PRM, 50_000, seed)

    @pytest.mark.parametrize("n_samples", [2, 1000, _MC_BLOCK, _MC_BLOCK + 1,
                                           _MC_BLOCK + 5])
    def test_matches_oracle_at_block_edges(self, balanced_pair, n_samples):
        x = balanced_pair.centers[0] + 0.35 * E1
        assert mc_probe(balanced_pair, x, n_samples, 9) == \
            mc_probe_oracle(balanced_pair, x, PRM, n_samples, 9)

    def test_matches_oracle_off_the_line(self, triangle):
        x = triangle.centers.mean(axis=0) + 0.7 * np.eye(5)[2]
        assert mc_probe(triangle, x, 40_000, 3) == \
            mc_probe_oracle(triangle, x, PRM, 40_000, 3)

    @pytest.mark.parametrize("k,seed", [(0, 1), (20, 2), (40, 3), (45, 4),
                                        (60, 5), (40, 6)])
    def test_agrees_with_retired_stream(self, balanced_pair, k, seed):
        # the draw order changed the estimate of a given seed, not its law
        x = sample_grid(balanced_pair)[0][k]
        est, err = mc_probe(balanced_pair, x, 50_000, seed)
        old, old_err = mc_probe_retired(balanced_pair, x, PRM, 50_000, seed)
        assert abs(est - old) <= 4.0 * np.hypot(err, old_err)

    @pytest.mark.parametrize("block", [1000, 50_000])
    def test_block_size_is_only_performance(self, balanced_pair, triangle,
                                            monkeypatch, block):
        cases = [(balanced_pair, balanced_pair.centers[0] + 0.35 * E1),
                 (triangle, triangle.centers.mean(axis=0)
                  + 0.7 * np.eye(5)[2])]
        ref = [mc_probe(u, x, 40_000, 7) for u, x in cases]
        monkeypatch.setattr(assembler, "_MC_BLOCK", block)
        assert [mc_probe(u, x, 40_000, 7) for u, x in cases] == ref

    def test_far_density_is_normalised(self, balanced_pair):
        # u^p = |y - x|^(-4 sigma - 1) beyond 1 from x and 0 within: the
        # kernel times u^p integrates to |S^(n-1)| / (2 sigma + 1).  Far
        # from the centers only the far component reaches it, so a far
        # density off by the factor r gives (2 sigma + 1) / (2 sigma + 2)
        # of that, 4/5 here: 20 stderr off.
        x = balanced_pair.origin + 50.0 * E2

        class Tail(ApproxSolution):
            def _glued(self, pts, own=None, sq=None):
                rr = np.linalg.norm(pts - x, axis=1)
                return np.where(rr >= 1.0, rr, np.inf) ** (
                    -(4.0 * PRM.sigma + 1.0) / PRM.p)

        u = Tail(**{f.name: getattr(balanced_pair, f.name)
                    for f in dataclasses.fields(balanced_pair)})
        est, err = mc_probe(u, x, 20_000, 1)
        ref = PRM.dual_const * PRM.omega_sphere / (2.0 * PRM.sigma + 1.0)
        assert abs(est - ref) <= 4.0 * err

    def test_unsampled_share_is_negligible(self):
        # The centers' components cover the unit balls about them and the far
        # component |y - x| >= 1, so within 1 of x but outside every center
        # ball the mixture has density 0 and the probe omits that share of
        # the dual map.  There u is the half towers alone.  On the balanced
        # d = 3.1, L = 3.3 pair the share is 1.3e-7 to 7.8e-7 of the
        # deterministic value over the transition samples and falls from
        # 3.1e-7 at the far ones; these are the largest of each region.  The
        # share is drawn in the unit ball about x with radial density
        # 2 sigma r^(2 sigma - 1), which takes up the kernel.
        pts = np.zeros((2, 5))
        pts[1, 0] = 3.1
        u = assemble(bal.balance(bal.SingularSet(points=pts), np.ones(2),
                                 3.3, IC, PRM), PRM)
        grid, tags = sample_grid(u)
        pick = [45, 48, 51, 52]
        assert [tags[k] for k in pick] == ["transition"] * 2 + ["far"] * 2
        rep = residual(u, WeightSpec(tau=0.5), tol=1e-7,
                       samples=(grid[pick], [tags[k] for k in pick]))
        det = u(grid[pick]) - rep.values
        rng = np.random.default_rng(12)
        two_s, draws = 2.0 * PRM.sigma, 20_000
        for x, value in zip(grid[pick], det):
            r = rng.random(draws) ** (1.0 / two_s)
            dirs = rng.standard_normal((draws, PRM.n))
            y = x + (r / np.linalg.norm(dirs, axis=1))[:, None] * dirs
            gap = np.all(np.sum((y[:, None, :] - u.centers) ** 2, axis=-1)
                         > 1.0, axis=1)
            f = np.zeros(draws)
            f[gap] = u(y[gap]) ** PRM.p
            share = (PRM.dual_const * PRM.omega_sphere / two_s
                     * float(np.mean(f)) / value)
            assert 0.0 < share < 1e-6

    def test_memory_per_draw(self, balanced_pair):
        # a label, a radius and a value per draw, points one block at a
        # time; holding every draw's point and temporaries takes about 60 MB
        x = balanced_pair.centers[0] + 0.35 * E1
        mc_probe(balanced_pair, x, 1000, 1)
        tracemalloc.start()
        try:
            mc_probe(balanced_pair, x, 200_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 200_000 + 8e6

    def test_marked_point_raises(self, balanced_pair):
        # a finite mean of an infinite-mean variable is no estimate
        with pytest.raises(ValueError, match="marked point 1"):
            mc_probe(balanced_pair, balanced_pair.centers[1], 1000, 1)

    @pytest.mark.parametrize("n_samples", [-3, 0, 1])
    def test_too_few_draws_raise(self, balanced_pair, n_samples):
        with pytest.raises(ValueError, match="n_samples >= 2"):
            mc_probe(balanced_pair, balanced_pair.origin, n_samples, 1)

    def test_residual_probes_only_finite_samples(self, balanced_pair):
        # the sample at the marked point is NaN, so it is never probed
        u = balanced_pair
        pts = np.array([u.centers[1], u.centers[0] + 0.7 * E1])
        rep = residual(u, WeightSpec(tau=0.5),
                       samples=(pts, ["near:1", "transition"]), tol=1e-7,
                       mc_points=2)
        assert [c["sample"] for c in rep.mc_checks] == [1]

class TestAdaptiveOracle:
    """The meridian path against the adaptive quadrature it replaced."""

    # grid samples of the L = 3.5 pair: near (0.02 on and off the line,
    # 0.35 off it, 0.5 on it), transition (0.6 on and off the line, the
    # midpoint 1.5 on it) and far (4.5 and 21.5 on the line, 50 off it).
    # The adaptive path misses by up to 65 x tol x scale at 3 and 5 off the
    # line (its angular rule there is fixed), so those two are left out.
    SAMPLES = [0, 2, 14, 16, 37, 38, 48, 51, 59, 64]
    TOL = 1e-9

    def test_dual_map(self, pair_35):
        u = pair_35
        grid, tags = sample_grid(u)
        pts = grid[self.SAMPLES]
        assert tuple(pts[-1][:2]) == (1.5, 50.0)
        rep = residual(u, WeightSpec(tau=0.5), tol=self.TOL,
                       samples=(pts, [tags[k] for k in self.SAMPLES]))
        assert rep.errors == ()
        for x, val in zip(pts, rep.values):
            uval = float(u(x))
            ref = adaptive.dual_apply(u, x, self.TOL)
            scale = max(abs(uval), abs(val))
            assert abs(uval - val - ref) <= 100.0 * self.TOL * scale

    def test_level0_projections(self, pair_35):
        for tower in (0, 1):
            idx = KernelIndex(tower, 0, 0)
            ref = adaptive.beta_projection(pair_35, idx, self.TOL)
            assert beta_projection(pair_35, idx, tol=self.TOL) == \
                pytest.approx(ref, rel=100.0 * self.TOL)


class TestBetaProjection:
    def test_transverse_modes_vanish(self, balanced_pair):
        for tower in (0, 1):
            for mode in (2, 3, 4):
                idx = KernelIndex(tower=tower, level=0, mode=mode)
                beta = beta_projection(balanced_pair, idx)
                # exact by symmetry: nothing is integrated
                assert (beta, beta.err_est, beta.mass) == (0.0, 0.0, 0.0)

    def test_mirror_symmetry(self, balanced_pair):
        b0 = beta_projection(balanced_pair, KernelIndex(0, 0, 0), tol=1e-8)
        b1 = beta_projection(balanced_pair, KernelIndex(1, 0, 0), tol=1e-8)
        assert b0 == pytest.approx(b1, rel=1e-4)

    def test_one_meridian_per_projection(self, balanced_pair, monkeypatch):
        # the reduction check hands over the meridian function it builds
        calls = []
        meridian = ApproxSolution.meridian

        def counted(self):
            calls.append(self)
            return meridian(self)

        monkeypatch.setattr(ApproxSolution, "meridian", counted)
        beta_projection(balanced_pair, KernelIndex(0, 0, 0), tol=1e-6)
        assert len(calls) == 1

    def test_index_validation(self, balanced_pair):
        with pytest.raises(ValueError):
            beta_projection(balanced_pair, KernelIndex(5, 0, 0))
        with pytest.raises(ValueError):
            beta_projection(balanced_pair, KernelIndex(0, 99, 0))
        with pytest.raises(ValueError):
            KernelIndex(0, 0, -1)

    def test_level_window_keeps_pairing_scale_invariant(self):
        # int f'(U_j) Z_j^2 is scale invariant, so once normalised by the
        # level's slope and lam_j^2 it must not depend on the level; the
        # default 6-level tower at L = 3.5 puts levels 5 and 6 beyond
        # log-radius 36, so the ball window has to follow the level
        u = assemble(bal.balance(pair(), np.ones(2), 3.5, IC, PRM), PRM)
        cfg = u.towers[0]
        vals = []
        for j in range(cfg.levels + 1):
            idx = KernelIndex(0, j, 0)
            b = cfg.level_bubble(j)
            slope = cfg.baseline * np.exp(-(1.0 + 2.0 * j) * cfg.period)

            def G(pts):
                U = bubble_eval(pts, b, PRM)
                return nonlin_prime(U, PRM) * kernel_Z(pts, idx, cfg, PRM) ** 2

            vals.append(_plain_integral(u.meridian(), on_line(u, G), b.lam,
                                        1e-9)
                        * b.lam ** 2 / slope ** 2)
        assert vals == pytest.approx([vals[0]] * len(vals), rel=1e-6)

    def test_unresolved_level_raises(self):
        # tower 1 sits at 3*e1, where the double spacing is 6.7e-16; at
        # L = 3.5 its levels 4..6 have scales 4.3e-15 and below, and there
        # the pairing above came out 52.70, 673.6 and 673.7 instead of 52.64
        u = assemble(bal.balance(pair(), np.ones(2), 3.5, IC, PRM), PRM)
        for j in (4, 5, 6):
            with pytest.raises(ValueError, match="resolved"):
                beta_projection(u, KernelIndex(1, j, 0))
        for idx in (KernelIndex(0, 0, 0), KernelIndex(1, 0, 0),
                    KernelIndex(0, 6, 0)):
            assert np.isfinite(beta_projection(u, idx))

    def test_projection_is_translation_invariant(self):
        # the projections run on (z, rho) and judge a level by the double
        # spacing at its axial coordinate in the line's frame: on lines
        # whose foot is tower 0 they are the pair's at the origin bit for
        # bit.  Judged at |center| in R^n, levels 1-3 were refused on the
        # line through 1e3 e2, and on the other line level 3 was refused and
        # level 2 moved by 1.1e-9
        idxs = [KernelIndex(0, j, 0) for j in range(4)] + [KernelIndex(1, 0,
                                                                       0)]
        out = []
        for t in (np.zeros(5), 1e3 * E2, np.array([0.0, 1.0, 0.5, 0.3, 0.2])):
            ss = bal.SingularSet(points=np.vstack([np.zeros(5), 3.0 * E1]) + t)
            u = assemble(bal.balance(ss, np.ones(2), 2.5, IC, PRM), PRM)
            out.append([beta_projection(u, idx, tol=1e-9) for idx in idxs])
        assert out[1] == out[0] and out[2] == out[0]

    def test_projections_on_any_line_direction(self):
        # translation mode l is a_l times the axial mode, a the line's
        # direction, and the dilation mode does not see the direction: on
        # two rotated lines every level-0 beta is a_l times the e1 pair's
        # axial one, within the rounding of the rotated frame
        tol = 1e-7

        def betas(a, modes):
            ss = bal.SingularSet(points=np.vstack([np.zeros(5), 3.0 * a]))
            u = assemble(bal.balance(ss, np.ones(2), 2.5, IC, PRM), PRM)
            return u.axis, {(t, m): beta_projection(u, KernelIndex(t, 0, m),
                                                    tol=tol)
                            for t in (0, 1) for m in modes}

        _, ref = betas(E1, (0, 1))
        for a in (np.array([1.0, 1.0, 0, 0, 0]),
                  np.array([0.3, -0.5, 0.2, 0.7, 0.1])):
            axis, got = betas(a / np.linalg.norm(a), range(6))
            for (t, m), beta in got.items():
                a_l = axis[m - 1] if m else 1.0
                r = ref[t, min(m, 1)]
                assert abs(beta - a_l * r) <= tol * r.mass

    def test_hard_levels_check_or_raise(self, pair_35):
        # the adaptive path warned (roundoff, tolerance not reached) on these
        # at the default tol and returned a bare float; now the 16- and
        # 8-point rules must agree, or QuadratureError says why not
        passed = []
        for idx in (KernelIndex(0, 4, 0), KernelIndex(0, 6, 0),
                    KernelIndex(1, 1, 0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    passed.append(np.isfinite(beta_projection(pair_35, idx)))
                except QuadratureError as exc:
                    assert "8-point" in str(exc)
        assert all(passed)

    def test_leading_form_bracket_zero_at_balance(self, balanced_pair):
        # (B1) makes the printed bracket vanish: A2*cross == q_i
        u = balanced_pair
        lead = beta_leading_form(u, 0)
        scale = PRM.c_ns * np.exp(-PRM.gamma_s * u.balanced.L)
        assert abs(lead) / scale < 1e-8

    def test_leading_form_sign_when_unbalanced(self):
        cfg = bal.balance(pair(), np.ones(2), 2.5, IC, PRM)
        qq = np.array([1.2, 1.0])
        unb = bal.BalancedConfig(
            sigma_set=cfg.sigma_set, q=qq, R=cfg.R, a0_hat=cfg.a0_hat,
            L=cfg.L, L_i=bal.periods_from_q(qq, cfg.L, PRM),
            resid_B1=np.nan, resid_B2=np.nan)
        u = assemble(unb, PRM)
        # point 0 has the larger strength: its bracket term A2*cross - q_0
        # goes negative, the prefactor flips it positive
        assert beta_leading_form(u, 0) > 0
        assert beta_leading_form(u, 1) < 0


class TestWeightSpec:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            WeightSpec(tau=0.5, kind="plain")

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            WeightSpec(tau=0.0)

    def test_exponent_table(self):
        g, n, s = PRM.gamma_s, PRM.n, PRM.sigma
        near, far = WeightSpec(tau=0.5, kind="star").resolve(PRM)
        z1 = 0.5 * (-g + min(-g + 2 * s, 0.0))
        assert near == pytest.approx(min(z1, -g + 0.5))
        assert far == pytest.approx(-(n + 2 * s))
        near2, far2 = WeightSpec(tau=0.5, kind="starstar").resolve(PRM)
        assert near2 == pytest.approx(n + 0.5)
        assert far2 == pytest.approx(-n + 2 * s)


class TestWeightedNorm:
    def test_weight_cancellation(self):
        spec = WeightSpec(tau=0.5, kind="star")
        z_near, _ = spec.resolve(PRM)
        pts = np.array([[0.1, 0, 0, 0, 0], [0.3, 0, 0, 0, 0]])
        vals = np.linalg.norm(pts, axis=1) ** z_near
        norm = weighted_fn_norm(pts, vals, ["near:0", "near:0"], spec,
                                np.zeros((1, 5)), PRM)
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_homogeneity(self, balanced_pair):
        pts, tags = sample_grid(balanced_pair)
        vals = np.exp(-np.linalg.norm(pts, axis=1))
        spec = WeightSpec(tau=0.5)
        a = weighted_fn_norm(pts, vals, tags, spec,
                             balanced_pair.centers, PRM)
        b = weighted_fn_norm(pts, 3.0 * vals, tags, spec,
                             balanced_pair.centers, PRM)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_far_weight_is_translation_invariant(self):
        # far radii run from the marked points' centroid, where sample_grid
        # puts the far samples; from the coordinate origin the same four
        # values read 0.0372, 0.0397 and 25.4
        shift = np.array([0.0, 1.0, 0.5, 0.3, 0.2])
        norms = []
        for f in (0.0, 1.0, 100.0):
            pts = np.zeros((2, 5))
            pts[1, 0] = 3.0
            u = assemble(bal.balance(bal.SingularSet(points=pts + f * shift),
                                     np.ones(2), 2.5, IC, PRM), PRM)
            grid, tags = sample_grid(u)
            far = [k for k, t in enumerate(tags) if t == "far"][:4]
            rep = residual(u, WeightSpec(tau=0.5), tol=1e-7,
                           samples=(grid[far], ["far"] * 4))
            assert rep.errors == ()
            norms.append(rep.weighted_norm)
        assert norms == pytest.approx([norms[0]] * 3, rel=1e-12)

    def test_star_starstar_differ_by_table(self):
        pts = np.array([[0.25, 0, 0, 0, 0]])
        vals = np.array([1.0])
        near_s, _ = WeightSpec(tau=0.5, kind="star").resolve(PRM)
        near_ss, _ = WeightSpec(tau=0.5, kind="starstar").resolve(PRM)
        a = weighted_fn_norm(pts, vals, ["near:0"],
                             WeightSpec(tau=0.5, kind="star"),
                             np.zeros((1, 5)), PRM)
        b = weighted_fn_norm(pts, vals, ["near:0"],
                             WeightSpec(tau=0.5, kind="starstar"),
                             np.zeros((1, 5)), PRM)
        assert b / a == pytest.approx(0.25 ** (near_s - near_ss), rel=1e-12)


class TestResidual:
    def test_report_round_trip(self, balanced_pair):
        u = balanced_pair
        pts = np.array([u.centers[0] + 0.2 * E1,
                        u.centers[0] + 0.7 * E1,
                        u.origin + 5.0 * E2])
        tags = ["near:0", "transition", "far"]
        rep = residual(u, WeightSpec(tau=0.5), samples=(pts, tags), tol=1e-6)
        assert rep.errors == ()
        assert rep.weighted_norm > 0
        assert set(rep.region_sup) == {"near:0", "transition", "far"}
        doc = json.loads(rep.to_json())
        assert doc["L"] == pytest.approx(2.5)
        assert len(doc["values"]) == 3
        assert doc["weighted_norm"] == pytest.approx(rep.weighted_norm)
        assert doc["nodes"] == rep.nodes > 0

    def test_err_est_within_tol_and_reruns_identical(self, pair_35):
        u = pair_35
        rep = residual(u, WeightSpec(tau=0.5), tol=1e-7)
        assert rep.errors == ()
        dual = np.array([float(u(x)) for x in rep.points]) - rep.values
        assert np.all(rep.err_est <= 1e-7 * np.abs(dual))
        assert np.all(rep.err_est > 0.0)
        assert json.loads(rep.to_json())["err_est"] == rep.err_est.tolist()
        again = residual(u, WeightSpec(tau=0.5), tol=1e-7)
        assert again.to_json() == rep.to_json()

    def test_meridian_matches_nd_integrand(self, pair_35, monkeypatch):
        # the node set evaluates u in the line's frame and takes each ball's
        # radial part once per radius; the oracle evaluates u pointwise at
        # the n-D points of the half-plane, (z, rho, 0, 0, 0) on this line
        # (e1 through the origin).  With u pointwise in the frame at every
        # node the residual values, err_est and level-0 betas are the
        # oracle's bit for bit.  With the radial part u rounds apart by a few
        # eps relative at each node (delta), each node's f(u) = c u^p by p
        # delta, and the dual value sums positive terms: a value u - dual is
        # off by at most delta (|u| + p |dual|), its condition number times
        # delta relative.  That is 37 to 338 here, and the values agree to
        # 0.85 eps times it (5.1e-14 relative); err_est to 1.4e-15 |dual
        # value| and the origin tower's beta to 1.4e-15; the beta of the
        # tower at 3 e1 moves by 7.0e-13, where pointwise u loses digits to
        # the rounding of z near 3
        u = pair_35
        line = _Line.of(u)
        glued = ApproxSolution._glued

        def run():
            grid, tags = sample_grid(u)
            rep = residual(u, WeightSpec(tau=0.5), tol=1e-7,
                           samples=(grid[::4], tags[::4]))
            return rep, [beta_projection(u, KernelIndex(t, 0, 0), tol=1e-7)
                         for t in (0, 1)]

        def pointwise(self, pts, own=None):
            return glued(self, pts)

        def nd(self, pts, own=None):
            # a (z, rho) point of the meridian function goes to its n-D point
            if pts.shape[1] == 2:
                return glued(u, line_points(line, pts))
            return glued(self, pts)

        rep, betas = run()
        monkeypatch.setattr(ApproxSolution, "_glued", pointwise)
        rep_pt, betas_pt = run()
        monkeypatch.setattr(ApproxSolution, "_glued", nd)
        rep_nd, betas_nd = run()
        assert rep.errors == ()
        assert rep_pt.values.tolist() == rep_nd.values.tolist()
        assert rep_pt.err_est.tolist() == rep_nd.err_est.tolist()
        assert betas_pt == betas_nd
        assert rep.nodes == rep_pt.nodes == rep_nd.nodes
        uval = np.array([float(u(x)) for x in rep.points])
        dual = uval - rep.values
        rel = np.abs(rep.values - rep_nd.values) / np.abs(rep_nd.values)
        cond = (np.abs(uval) + u.prm.p * np.abs(dual)) / np.abs(rep_nd.values)
        err = np.abs(rep.err_est - rep_nd.err_est) / np.abs(dual)
        brel = [abs(a - b) / abs(b) for a, b in zip(betas, betas_nd)]
        assert np.all(rel <= 4.0 * np.finfo(float).eps * cond)
        assert err.max() <= 2e-15
        assert brel[0] <= 2e-15 and brel[1] <= 1e-12

    def test_block_size_is_only_performance(self, pair_35, monkeypatch):
        # _BLOCK sets the row chunks of the node sets and kernel sums and the
        # blocks of the patches: another size moves only the order in which
        # the kernel sums add up, and none of the node set's values
        u = pair_35
        grid, tags = sample_grid(u)

        def run():
            rep = residual(u, WeightSpec(tau=0.5), tol=1e-7,
                           samples=(grid[::4], tags[::4]))
            return rep, [beta_projection(u, KernelIndex(t, 0, 0), tol=1e-7)
                         for t in (0, 1)]

        rep, betas = run()
        for size in (2048, 1 << 30):
            monkeypatch.setattr(assembler, "_BLOCK", size)
            other, other_betas = run()
            assert other.errors == ()
            assert other.nodes == rep.nodes
            np.testing.assert_allclose(other.values, rep.values, rtol=1e-13,
                                       atol=0.0)
            assert [(float(b), b.err_est, b.mass) for b in other_betas] == \
                [(float(b), b.err_est, b.mass) for b in betas]

    def test_ball_panels_match_pointwise_u(self, balanced_pair):
        # the fill takes chi_i phi_i once per radius of a ball, at the exact
        # radius.  About the tower at the origin u agrees with pointwise u to
        # 4.3e-15 relative (one ulp of the radius moves -ln s mod 2L in the
        # profile by up to 3e-15).  The tower at 3 e1 shares the origin
        # tower's profile, R and base tower, so its radial part is the same
        # bit for bit; pointwise u there rounds z near 3 and at s = 1e-12
        # is off by 8.9e-6
        u = balanced_pair
        um = u.meridian()
        nodes = _node_set(um, lambda zr, uv: uv, 1e-7, 20.0, np.empty(0),
                          np.empty(0))
        seen = []

        def grab(zr, uv):
            seen.append((zr, uv))
            return uv

        for p in nodes.panels:
            if p.own == 0:
                p.fill(um, grab)
        zr = np.concatenate([a for a, _ in seen])
        uv = np.concatenate([b for _, b in seen])
        assert zr.shape[0] == 44_704
        assert np.max(np.abs(uv - um(zr)) / uv) <= 5e-15
        s = nodes.panels[0].rules[0][0]
        assert np.array_equal(um._term(1, s, s * s), um._term(0, s, s * s))
        theta = np.linspace(0.1, 3.0, 7)
        s = np.full(theta.size, 1e-12)
        zr = np.column_stack((3.0 + s * np.cos(theta), s * np.sin(theta)))
        ball = um._glued(zr, (1, um._term(1, s, s * s)))
        assert np.max(np.abs(um(zr) - ball) / ball) > 1e-6

    def test_integrand_points_stored_by_column(self, balanced_pair):
        # the node sets and the patches hand u and the integrand their
        # (z, rho) points stored by column: each coordinate reads contiguously
        u = balanced_pair
        um = u.meridian()
        seen = []

        def grab(zr, uv):
            seen.append(zr)
            return uv

        _node_set(um, grab, 1e-6, 20.0, np.empty(0), np.empty(0))
        fills = len(seen)
        theta = np.linspace(0.1, 3.0, 50)
        _patch_sum(um, grab, np.ones(theta.size), 3.0 + 0.3 * np.cos(theta),
                   0.3 * np.sin(theta), 0.0, 1.0)
        assert 0 < fills < len(seen)
        assert all(zr.shape[1] == 2 and zr.flags.f_contiguous for zr in seen)
        assert all(zr.shape[0] > 1 for zr in seen)

    def test_far_weight_only_within_reach(self, pair_35):
        # beyond the balls' reach every far node is INT_OFF or more from
        # both centers, where the far weight is exactly 1: taken only on the
        # rows within reach, the filled weights are the full evaluation's
        u = pair_35
        um = u.meridian()
        nodes = _node_set(um, lambda zr, uv: uv, 1e-7, 20.0, np.empty(0),
                          np.empty(0))
        far = nodes.panels[-1]
        full = _Panels(far.zc, far.e1, far.e2, PRM.n, part=far.part)
        assert full.reach == np.inf
        full.fill(um, lambda zr, uv: uv)
        s = far.rules[0][0]
        beyond = int(np.count_nonzero(s > far.reach))
        assert 0 < beyond < s.size
        assert np.all(far.part(*far.nodes(0, slice(s.size - beyond, None)))
                      == 1.0)
        for k in range(2):
            assert np.array_equal(far.rules[k][3], full.rules[k][3])

    def test_far_weight_never_called_empty(self, pair_35):
        # a far chunk wholly beyond reach skips the far weight: on this far
        # panel 3 of its 7 calls used to get empty arrays
        u = pair_35
        um = u.meridian()
        far = _node_set(um, lambda zr, uv: uv, 1e-7, 20.0, np.empty(0),
                        np.empty(0)).panels[-1]
        sizes = []

        def part(z, rho):
            sizes.append(z.size)
            return far.part(z, rho)

        again = _Panels(far.zc, far.e1, far.e2, PRM.n, part=part,
                        reach=far.reach)
        again.fill(um, lambda zr, uv: uv)
        assert sizes and min(sizes) > 0
        for k in range(2):
            assert np.array_equal(again.rules[k][3], far.rules[k][3])

    def test_failed_sample_is_nan(self, balanced_pair):
        # the dual map is infinite at a marked point: that sample fails alone
        u = balanced_pair
        pts = np.array([u.centers[1], u.centers[0] + 0.7 * E1])
        rep = residual(u, WeightSpec(tau=0.5), samples=(pts, ["near:1",
                                                             "transition"]),
                       tol=1e-7)
        assert np.isnan(rep.values[0]) and np.isnan(rep.err_est[0])
        assert np.isfinite(rep.values[1]) and np.isfinite(rep.err_est[1])
        assert rep.errors == ("sample 0: the dual map is infinite at marked "
                              "point 1",)

    def test_grid_covers_regions_once(self, balanced_pair):
        pts, tags = sample_grid(balanced_pair)
        assert len(pts) == len(tags)
        kinds = {t.split(":")[0] for t in tags}
        assert kinds == {"near", "transition", "far"}
