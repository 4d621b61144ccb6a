import numpy as np
import pytest
from dataclasses import replace

from qcurv.params import derive_params
from qcurv.bubbles import (
    _BLOCK,
    _sq_dist,
    Bubble,
    TowerConfig,
    KernelIndex,
    bubble_eval,
    tower_eval,
    kernel_Z,
    cyl_coefficient,
)

PRM = derive_params(5, 1.5)
N = PRM.n


def ef_forward(u, t, prm):
    """Profile in log coordinates: exp(-gamma_s*t) * u(exp(-t)), for u a
    radial evaluator taking the radius."""
    t = np.asarray(t, dtype=float)
    return np.exp(-prm.gamma_s * t) * u(np.exp(-t))


def _ray(f):
    # radial evaluator along the first coordinate axis, scalar or array radii
    def u(r):
        r = np.asarray(r, dtype=float)
        pts = np.zeros(r.shape + (N,))
        pts[..., 0] = r
        return f(pts)
    return u


def test_bubble_pointwise():
    b = Bubble(1.0, np.zeros(N))
    # at the center the value is (2*lam/lam^2)^gamma_s = 2 here (gamma_s = 1)
    assert bubble_eval(np.zeros(N), b, PRM) == pytest.approx(2.0 ** PRM.gamma_s, rel=1e-14)
    # radial symmetry about the center
    rng = np.random.default_rng(7)
    d = rng.normal(size=N)
    d /= np.linalg.norm(d)
    e = rng.normal(size=N)
    e /= np.linalg.norm(e)
    assert bubble_eval(1.3 * d, b, PRM) == pytest.approx(bubble_eval(1.3 * e, b, PRM), rel=1e-13)
    # far field approaches (2*lam)^gamma_s * |x|^(-2*gamma_s)
    x = 1e5 * d
    lead = (2.0 * b.lam) ** PRM.gamma_s
    assert bubble_eval(x, b, PRM) * 1e5 ** (PRM.n - 2 * PRM.sigma) == pytest.approx(lead, rel=1e-8)
    with pytest.raises(ValueError):
        Bubble(0.0, np.zeros(N))


def test_bubble_batch_matches_scalar():
    b = Bubble(0.3, np.arange(N, dtype=float))
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(6, N))
    batch = bubble_eval(xs, b, PRM)
    for i in range(6):
        assert batch[i] == pytest.approx(bubble_eval(xs[i], b, PRM), rel=1e-14)


def test_ef_pair_and_sphere_profile():
    b = Bubble(1.0, np.zeros(N))
    u = _ray(lambda pts: bubble_eval(pts, b, PRM))
    ts = np.linspace(-4.0, 4.0, 17)
    # the unit bubble becomes the even cosh profile
    vals = ef_forward(u, ts, PRM)
    assert np.allclose(vals, np.cosh(ts) ** (-PRM.gamma_s), rtol=1e-13)
    assert ef_forward(u, 0.0, PRM) == pytest.approx(1.0, rel=1e-14)
    # scale acts as a shift in t
    lam = 0.2
    b2 = Bubble(lam, np.zeros(N))
    u2 = _ray(lambda pts: bubble_eval(pts, b2, PRM))
    assert ef_forward(u2, 1.0, PRM) == pytest.approx(
        np.cosh(1.0 + np.log(lam)) ** (-PRM.gamma_s), rel=1e-13)


def test_cyl_coefficient_matches_kernel_mass():
    # independent route: the flat profile is a fixed point of the dual
    # map's convolution in log coordinates, so a^(p-1) * dual_const * mass(R)
    # = 1
    from scipy.integrate import quad
    from qcurv.kernels import riesz_kernel_cyl

    mass, _ = quad(lambda t: riesz_kernel_cyl(t, PRM), 0.0, 60.0,
                   epsabs=1e-12, epsrel=1e-11, limit=200)
    a_mass = (1.0 / (PRM.dual_const * 2.0 * mass)) ** (1.0 / (PRM.p - 1.0))
    assert cyl_coefficient(PRM) == pytest.approx(a_mass, rel=1e-5)


def _standard_cfg(levels=2, period=2.0, **kw):
    return TowerConfig(index=0, center=np.zeros(N), period=period,
                       levels=levels, **kw)


def test_tower_basics_and_truncation_tail():
    cfg = _standard_cfg(levels=0)
    x = np.array([0.5] + [0.0] * (N - 1))
    one = bubble_eval(x, cfg.level_bubble(0), PRM)
    assert tower_eval(x, cfg, PRM) == pytest.approx(one, rel=1e-14)
    # adding one level at unit distance moves the value by at most (2*lam)^gamma_s
    # (period kept moderate so the margin clears float rounding in the sums)
    big = _standard_cfg(levels=2, period=1.0)
    bigger = _standard_cfg(levels=3, period=1.0)
    xu = np.array([1.0] + [0.0] * (N - 1))
    lam_new = bigger.level_scales[-1]
    delta = tower_eval(xu, bigger, PRM) - tower_eval(xu, big, PRM)
    assert 0 < delta <= (2.0 * lam_new) ** PRM.gamma_s


def test_tower_ef_conjugation():
    cfg = _standard_cfg(levels=3, period=2.0)
    u = _ray(lambda pts: tower_eval(pts, cfg, PRM))
    ts = np.linspace(0.0, 9.0, 25)
    got = ef_forward(u, ts, PRM)
    want = sum(np.cosh(ts - (1.0 + 2.0 * j) * cfg.period) ** (-PRM.gamma_s)
               for j in range(cfg.levels + 1))
    assert np.allclose(got, want, rtol=1e-10)


def test_full_tower_adds_mirror_levels():
    cfg = _standard_cfg(levels=2)
    u = _ray(lambda pts: sum(bubble_eval(pts, Bubble(lam, cfg.center), PRM)
                             for lam in cfg.base_scales[0]))
    ts = np.linspace(-6.0, 6.0, 13)
    got = ef_forward(u, ts, PRM)
    want = sum(np.cosh(ts - (1.0 + 2.0 * j) * cfg.period) ** (-PRM.gamma_s)
               for j in range(-cfg.levels, cfg.levels + 1))
    assert np.allclose(got, want, rtol=1e-10)
    # reflecting t shifts the level window by one, so the asymmetry of the
    # truncated sum is exactly the two unpaired edge terms
    t0, L, J = 1.3, cfg.period, cfg.levels
    va = ef_forward(u, t0, PRM)
    vb = ef_forward(u, -t0, PRM)
    edge = (np.cosh(t0 - (1 + 2 * J) * L) ** (-PRM.gamma_s)
            - np.cosh(t0 + (1 + 2 * J) * L) ** (-PRM.gamma_s))
    assert va - vb == pytest.approx(edge, rel=1e-10)


def test_admissibility_enforced():
    t0 = 1.0 * 2.0  # height of level 0 at period 2
    with pytest.raises(ValueError):
        _standard_cfg(dilations=np.array([2.0 * np.exp(-0.5 * t0), 0.0, 0.0]))
    lam0 = np.exp(-2.0)
    bad_shift = np.zeros((3, N))
    bad_shift[0, 0] = 2.0 * lam0**2
    with pytest.raises(ValueError):
        _standard_cfg(shifts=bad_shift)
    with pytest.raises(ValueError):
        _standard_cfg(period=-1.0)
    # admissible deformations are accepted; envelope at level j is e^(-tau*t_j)
    ok = np.zeros((3, N))
    ok[1, 1] = 0.5 * _standard_cfg().level_scales[1] ** 2
    cfg = _standard_cfg(dilations=np.array([0.1, 0.01, 0.0]), shifts=ok)
    assert cfg.level_scales[0] == pytest.approx(1.1 * np.exp(-2.0), rel=1e-14)


def test_kernel_gradient_oracle():
    # analytic derivatives against centered differences, 100 seeded samples
    rng = np.random.default_rng(2024)
    cfg = _standard_cfg(levels=2, period=1.5,
                        dilations=np.array([0.05, -0.02, 0.0]))
    h = 1e-5
    checked = 0
    for _ in range(100):
        j = int(rng.integers(0, cfg.levels + 1))
        ell = int(rng.integers(0, N + 1))
        x = rng.normal(scale=1.5, size=N)
        idx = KernelIndex(0, j, ell)
        z = kernel_Z(x, idx, cfg, PRM)
        if ell == 0:
            dil_p = cfg.dilations.copy(); dil_p[j] += h
            dil_m = cfg.dilations.copy(); dil_m[j] -= h
            up = bubble_eval(x, replace(cfg, dilations=dil_p).level_bubble(j), PRM)
            dn = bubble_eval(x, replace(cfg, dilations=dil_m).level_bubble(j), PRM)
            fd = (up - dn) / (2.0 * h)
        else:
            lam = cfg.level_scales[j]
            e = np.zeros(N); e[ell - 1] = h
            up = bubble_eval(x + e, cfg.level_bubble(j), PRM)
            dn = bubble_eval(x - e, cfg.level_bubble(j), PRM)
            fd = -lam * (up - dn) / (2.0 * h)
        scale = max(abs(z), abs(fd), 1e-12)
        assert abs(z - fd) <= 1e-6 * scale
        checked += 1
    assert checked == 100


def test_kernel_zero_and_signs():
    cfg = _standard_cfg(levels=1)
    for ell in range(1, N + 1):
        idx = KernelIndex(0, 0, ell)
        ctr = cfg.level_bubble(0).center
        assert kernel_Z(ctr, idx, cfg, PRM) == 0.0
        x = ctr + 0.3 * np.eye(N)[ell - 1]
        assert kernel_Z(x, idx, cfg, PRM) > 0
        assert np.sign(kernel_Z(ctr - 0.3 * np.eye(N)[ell - 1], idx, cfg, PRM)) == -1.0


def test_kernel_far_field_bounds():
    # |Z_{j,0}| <= gamma_s * (2*lam)^gamma_s * |x|^(-2*gamma_s) for |x| >= 1,
    # lam <= 1: exact consequence of (rho^2-lam^2)/(rho^2+lam^2) <= 1
    cfg = _standard_cfg(levels=2, period=2.0)
    rng = np.random.default_rng(5)
    for j in range(cfg.levels + 1):
        lam = cfg.level_scales[j]
        for r in (1.0, 2.0, 5.0, 20.0):
            d = rng.normal(size=N)
            x = r * d / np.linalg.norm(d)
            z0 = kernel_Z(x, KernelIndex(0, j, 0), cfg, PRM)
            cap = PRM.gamma_s * 2.0 ** PRM.gamma_s * lam ** PRM.gamma_s * r ** (-2 * PRM.gamma_s)
            assert abs(z0) <= cap * (1 + 1e-12)


@pytest.mark.parametrize("build,detail", [
    (lambda: Bubble(1.0, np.zeros((2, N))), "single point"),
    # a NaN center built a bubble that evaluated to NaN, an infinite one a
    # bubble that evaluated to a "perfect" 0.0
    (lambda: Bubble(1.0, np.full(N, np.nan)), "finite coordinates"),
    (lambda: Bubble(1.0, np.array([np.inf, 0, 0, 0, 0])),
     "finite coordinates"),
    (lambda: TowerConfig(index=0, center=np.zeros((2, N)), period=2.0,
                         levels=2), "single point"),
    # a scalar center raised IndexError reading its dimension
    (lambda: TowerConfig(index=0, center=1.0, period=2.0, levels=2),
     "single point"),
    (lambda: TowerConfig(index=0, center=np.full(N, np.nan), period=2.0,
                         levels=2), "finite coordinates"),
    (lambda: _standard_cfg(levels=-1), "levels must be >= 0"),
    (lambda: _standard_cfg(dilations=np.zeros(2)), "dilations must have"),
    (lambda: _standard_cfg(shifts=np.zeros((3, N - 1))), "shifts must have"),
], ids=["bubble-center-2d", "bubble-center-nan", "bubble-center-inf",
        "tower-center-2d", "tower-center-scalar", "tower-center-nan",
        "levels-neg", "dilations-shape", "shifts-shape"])
def test_malformed_input_is_refused(build, detail):
    with pytest.raises(ValueError, match=detail):
        build()


def test_kernel_index_validation():
    cfg = _standard_cfg()
    with pytest.raises(ValueError):
        kernel_Z(np.zeros(N), KernelIndex(1, 0, 0), cfg, PRM)
    with pytest.raises(ValueError):
        kernel_Z(np.zeros(N), KernelIndex(0, 0, N + 1), cfg, PRM)
    with pytest.raises(ValueError):
        kernel_Z(np.zeros(N), KernelIndex(0, 9, 0), cfg, PRM)
    with pytest.raises(ValueError):
        KernelIndex(0, -1, 0)


# ─────────────────────────────────────────────────────────────────────────────
# oracle: the per-level loop that tower_eval replaced, one Bubble per level


def _oracle_level(cfg, j):
    if j >= 0:
        lam = (cfg.baseline * (1.0 + cfg.dilations[j])
               * np.exp(-(1.0 + 2.0 * j) * cfg.period))
        return Bubble(lam, cfg.center + cfg.shifts[j])
    return Bubble(cfg.baseline * np.exp(-(1.0 + 2.0 * j) * cfg.period),
                  cfg.center)


def _oracle_tower(x, cfg, prm, half=True):
    lo = 0 if half else -cfg.levels
    vals = [bubble_eval(x, _oracle_level(cfg, j), prm)
            for j in range(lo, cfg.levels + 1)]
    out = np.sum(vals, axis=0)
    return float(out) if np.ndim(out) == 0 else out


def _deformed_tower(n):
    # off-origin center, admissible dilations and shifts on all 6 levels
    rng = np.random.default_rng(n)
    kw = dict(index=1, center=3.0 * np.eye(n)[0], period=2.5, levels=6,
              baseline=0.2067)
    base = TowerConfig(**kw)
    dil = 0.5 * np.exp(-0.5 * base.level_heights()) * rng.uniform(-1.0, 1.0, 7)
    shf = rng.normal(size=(7, n))
    shf *= (0.5 * base.level_scales ** 2
            / np.linalg.norm(shf, axis=1))[:, None]
    return TowerConfig(**kw, dilations=dil, shifts=shf)


def _points(cfg, count, seed):
    # radii log-uniform from below the deepest scale to well outside the tower
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(count, cfg.dim))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = np.exp(rng.uniform(np.log(0.1 * cfg.level_scales[-1]), np.log(10.0),
                           count))
    return cfg.center + r[:, None] * d


@pytest.mark.parametrize("n", [3, 5, 7])
def test_level_arrays_match_level_bubble(n):
    # the level arrays hold levels 0..J in row j; base_scales holds the
    # undeformed two-sided levels -J..J in row j + J
    cfg = _deformed_tower(n)
    J = cfg.levels
    assert cfg.level_scales.shape == (J + 1,)
    assert cfg.level_centers.shape == (J + 1, n)
    for j in range(J + 1):
        b, old = cfg.level_bubble(j), _oracle_level(cfg, j)
        assert cfg.level_scales[j] == b.lam == old.lam
        assert np.array_equal(cfg.level_centers[j], b.center)
        assert np.array_equal(b.center, old.center)
        assert cfg.level_scales_sq[j] == old.lam ** 2
    lam, lam_sq = cfg.base_scales
    assert lam.shape == lam_sq.shape == (2 * J + 1,)
    base = replace(cfg, dilations=None, shifts=None)
    for j in range(-J, J + 1):
        old = _oracle_level(base, j)
        assert lam[j + J] == old.lam
        assert lam_sq[j + J] == old.lam ** 2
    with pytest.raises(ValueError):
        cfg.level_bubble(J + 1)
    with pytest.raises(ValueError):
        cfg.level_bubble(-1)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_sq_dist_matches_sum_of_squares_bitwise(n):
    # below dimension 8 np.sum adds a row in coordinate order, as _sq_dist
    rng = np.random.default_rng(n)
    c = rng.normal(size=n)
    x = 3.0 * rng.normal(size=(1000, n))
    want = np.sum((x - c) ** 2, axis=-1)
    for batch in (x, np.asfortranarray(x)):
        assert np.array_equal(_sq_dist(batch, c), want)
    nested = x.reshape(10, 100, n)
    assert np.array_equal(_sq_dist(nested, c),
                          np.sum((nested - c) ** 2, axis=-1))
    for xi, w in zip(x[:100], want):
        assert _sq_dist(xi, c) == np.sum((xi - c) ** 2) == w


@pytest.mark.parametrize("n,sigma", [(5, 1.5), (7, 2.5), (9, 3.5)])
def test_tower_eval_matches_per_level_oracle_bitwise(n, sigma):
    # integer gamma_s: every operation is exactly rounded, so bit equality
    # holds for single points, every block boundary and nested batches; at
    # n = 9 both add the squared differences in coordinate order
    prm = derive_params(n, sigma)
    assert prm.gamma_s == 1.0
    cfg = _deformed_tower(n)
    for count in (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        x = _points(cfg, count, seed=count)
        got = tower_eval(x, cfg, prm)
        assert got.shape == (count,)
        assert np.array_equal(got, _oracle_tower(x, cfg, prm))
        for xi in x[:50]:
            one = tower_eval(xi, cfg, prm)
            assert isinstance(one, float)
            assert one == _oracle_tower(xi, cfg, prm)
    x = _points(cfg, 24, seed=3).reshape(4, 6, n)
    got = tower_eval(x, cfg, prm)
    assert got.shape == (4, 6)
    assert np.array_equal(got, _oracle_tower(x, cfg, prm))


@pytest.mark.parametrize("n,sigma", [(3, 1.2), (9, 3.5)])
def test_tower_eval_matches_oracle_within_ulps(n, sigma):
    # at fractional gamma_s numpy's scalar pow (single points in the oracle)
    # and its vectorized pow can differ by an ulp per level; the squared
    # distances are the same bits, added in coordinate order by both
    prm = derive_params(n, sigma)
    cfg = _deformed_tower(n)
    x = _points(cfg, _BLOCK + 1, seed=9)
    np.testing.assert_array_max_ulp(tower_eval(x, cfg, prm),
                                    _oracle_tower(x, cfg, prm), 4)
    for xi in x[:200]:
        np.testing.assert_array_max_ulp(tower_eval(xi, cfg, prm),
                                        _oracle_tower(xi, cfg, prm), 4)


def _axial_tower(n, dim):
    # _deformed_tower's dilations with its shifts' norms laid along e1, in
    # dim coordinates: dim = 2 is the meridian (z, rho) frame
    cfg = _deformed_tower(n)
    shf = np.zeros((cfg.levels + 1, dim))
    shf[:, 0] = np.linalg.norm(cfg.shifts, axis=1) * np.sign(
        cfg.shifts[:, 0])
    return TowerConfig(index=1, center=3.0 * np.eye(dim)[0],
                       period=cfg.period, levels=cfg.levels,
                       baseline=cfg.baseline, dilations=cfg.dilations,
                       shifts=shf)


@pytest.mark.parametrize("n,sigma", [(5, 1.5), (7, 2.5)])
@pytest.mark.parametrize("dim", ["meridian", "n-D"])
def test_tower_eval_axial_shifts_match_oracle_bitwise(n, sigma, dim):
    # with the shifts along e1 every level center has the same e2..en, so
    # those coordinates are squared once per block and shared by the levels
    prm = derive_params(n, sigma)
    cfg = _axial_tower(n, 2 if dim == "meridian" else n)
    assert len(set(cfg.level_centers[:, 0])) > 1
    assert np.all(cfg.level_centers[:, 1:] == 0.0)
    for count in (1, 5, _BLOCK + 1, 2 * _BLOCK + 3):
        x = _points(cfg, count, seed=count)
        if dim == "meridian":
            x[:, 1] = np.abs(x[:, 1])
        assert np.array_equal(tower_eval(x, cfg, prm),
                              _oracle_tower(x, cfg, prm))
        for xi in x[:20]:
            assert tower_eval(xi, cfg, prm) == _oracle_tower(xi, cfg, prm)


def test_tower_eval_keeps_scalar_square_of_scales():
    # numpy squares a float64 scalar with pow and an array by multiplication,
    # which can differ by an ulp; the stored squares are the scalar ones
    prm = derive_params(5, 1.5)
    for k in range(1000):
        cfg = TowerConfig(index=0, center=np.zeros(N), period=1.0, levels=6,
                          baseline=0.2 + 1e-3 * k)
        if np.any(cfg.level_scales ** 2 != cfg.level_scales_sq):
            break
    else:
        pytest.skip("scalar and array squares agree on this platform")
    x = _points(cfg, 2000, seed=1)
    assert np.array_equal(tower_eval(x, cfg, prm), _oracle_tower(x, cfg, prm))
