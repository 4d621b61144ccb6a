import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from qcurv.kernels import (
    KERNEL_REL_ERR,
    QuadratureError,
    _hyp2f1,
    _unit_rule,
    build_kernel_table,
    decay_slope,
    fixed_point_defect,
    gauss_panels,
    log_radial_convolution,
    ring_kernel,
    riesz_kernel_cyl,
    singular_kernel_cyl,
)
from qcurv.params import derive_params
from test_delaunay import periodized_lattice

PRM = derive_params(5, 1.5)


def _mpmath_reduced(t: float, g: float, n: int) -> float:
    # independent oracle for the sphere-reduced kernel integral
    mpmath.mp.dps = 25
    f = lambda z: (1 - z * z) ** ((n - 3) / 2) * (mpmath.cosh(t) - z) ** (-g)
    return float(mpmath.quad(f, [-1, 1 - 1e-12]))


def test_value_at_zero_offset():
    # closed form at (5, 1.5): the reduced integrand collapses to 1 + zeta
    assert riesz_kernel_cyl(0.0, PRM) == pytest.approx(2.0 * math.pi**2, rel=1e-10)


def test_against_mpmath_oracle():
    for t in (0.7, 1.0, 3.0):
        ref = 2.0 ** (-PRM.gamma_s) * PRM.omega_equator * _mpmath_reduced(t, PRM.gamma_s, 5)
        assert riesz_kernel_cyl(t, PRM) == pytest.approx(ref, rel=1e-8)
    ref = 2.0 ** (-PRM.gamma_dual) * PRM.omega_equator * _mpmath_reduced(1.0, PRM.gamma_dual, 5)
    assert singular_kernel_cyl(1.0, PRM) == pytest.approx(ref, rel=1e-8)


def test_evenness_and_positivity():
    ts = np.array([-3.0, -1.2, -0.3, 0.3, 1.2, 3.0])
    vals = riesz_kernel_cyl(ts, PRM)
    assert np.all(vals > 0)
    assert np.allclose(vals, vals[::-1], rtol=1e-12)
    vals_s = singular_kernel_cyl(ts, PRM)
    assert np.all(vals_s > 0)
    assert np.allclose(vals_s, vals_s[::-1], rtol=1e-12)


def test_decay_rates():
    ts = np.linspace(8.0, 16.0, 9)
    slope_r = decay_slope(ts, riesz_kernel_cyl(ts, PRM))
    assert abs(slope_r + PRM.gamma_s) <= 0.02 * PRM.gamma_s
    slope_s = decay_slope(ts, singular_kernel_cyl(ts, PRM))
    assert abs(slope_s + PRM.gamma_dual) <= 0.02 * PRM.gamma_dual


def test_singular_guard_and_blowup():
    with pytest.raises(ValueError):
        singular_kernel_cyl(1e-4, PRM)
    assert singular_kernel_cyl(1e-3, PRM) > singular_kernel_cyl(1e-2, PRM) > singular_kernel_cyl(0.1, PRM)


@dataclass(frozen=True)
class PeriodizedValue:
    value: float
    tail_bound: float


def periodize(kernel: Callable[[float], float], t: float, L: float, J: int) -> PeriodizedValue:
    """Sum kernel(t - 2jL) over |j| <= J with a geometric tail bound: the
    scalar oracle of periodized_lattice.

    The bound uses the measured decay of the last retained shifts: with
    r = term_{J+1}/term_J < 1 the dropped tail is below term_{J+1}/(1-r).
    """
    if L <= 0.0 or J < 0:
        raise ValueError("periodize needs L > 0 and J >= 0")
    total = 0.0
    for j in range(-J, J + 1):
        total += kernel(t - 2.0 * j * L)
    term_j = abs(kernel(t - 2.0 * J * L)) + abs(kernel(t + 2.0 * J * L))
    term_next = abs(kernel(t - 2.0 * (J + 1) * L)) + abs(kernel(t + 2.0 * (J + 1) * L))
    if term_j > 0.0 and term_next < term_j:
        tail = term_next / (1.0 - term_next / term_j)
    else:
        tail = float("inf") if term_next > 0.0 else 0.0
    return PeriodizedValue(value=total, tail_bound=tail)


def test_periodize_tail_and_symmetry():
    kern = lambda t: riesz_kernel_cyl(t, PRM)
    L, J = 2.0, 2
    a = periodize(kern, 0.7, L, J)
    assert isinstance(a, PeriodizedValue)
    b = periodize(kern, 0.7, L, J + 1)
    # increasing J changes the value by less than the reported tail bound
    # (floor guards float cancellation in the ~20-magnitude sums)
    assert abs(b.value - a.value) <= a.tail_bound + 1e-13
    # periodicity and evenness hold once the window is wide enough that the
    # shifted edge terms drop below rounding (the truncated sum itself is not
    # exactly shift invariant)
    wide = periodize(kern, 0.7, L, 8)
    c = periodize(kern, 0.7 + 2 * L, L, 8)
    assert c.value == pytest.approx(wide.value, rel=1e-9)
    d = periodize(kern, -0.7, L, 8)
    assert d.value == pytest.approx(wide.value, rel=1e-12)


def test_periodize_tail_shrinks_with_L():
    kern = lambda t: riesz_kernel_cyl(t, PRM)
    t1 = periodize(kern, 0.3, 2.0, 6).tail_bound
    t2 = periodize(kern, 0.3, 4.0, 6).tail_bound
    assert t2 < t1


def test_periodized_lattice_matches_scalar():
    kern_vec = lambda ts: riesz_kernel_cyl(ts, PRM)
    kern = lambda t: riesz_kernel_cyl(t, PRM)
    ts = np.array([0.0, 0.4, 1.3, 2.0])
    lat = periodized_lattice(kern_vec, ts, 2.0, 6)
    for i, t in enumerate(ts):
        assert lat[i] == pytest.approx(periodize(kern, float(t), 2.0, 6).value, rel=1e-12)


def test_calibration_fixed_point():
    # the exact cosh-profile bubble is reproduced by the dual map's
    # closed-form constant dual_const = riesz_const q_ns: the bubble family
    # carries the curvature constant q_ns where f carries c_ns
    assert fixed_point_defect(PRM) <= 1e-4


def test_gauss_panels_exact_on_polynomials():
    # order k integrates degree 2k-1 exactly on every panel
    edges = [0.0, 0.1, 0.5, 2.0, 3.0]
    for order in (8, 16):
        x, w = gauss_panels(edges, order)
        assert x.shape == w.shape == (4 * order,)
        assert np.all(np.diff(x) > 0)
        assert w @ x ** (2 * order - 1) == pytest.approx(3.0 ** (2 * order) / (2 * order),
                                                          rel=1e-13)


@pytest.mark.parametrize("order", [8, 16])
def test_gauss_panels_cached_rule_is_bit_identical_and_read_only(order):
    # the uncached formula: leggauss scaled to [0, 1], then onto each panel
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    edges = np.array([-3.0, -2.5, 0.0, 1e-3, 7.25])
    h = np.diff(edges)
    for _ in range(2):  # a second call reads the same cached rule
        x, w = gauss_panels(edges, order)
        assert np.array_equal(x, (edges[:-1, None] + h[:, None] * gx).ravel())
        assert np.array_equal(w, (h[:, None] * gw).ravel())
    ux, uw = _unit_rule(order)
    assert np.array_equal(ux, gx) and np.array_equal(uw, gw)
    assert not ux.flags.writeable and not uw.flags.writeable
    with pytest.raises(ValueError):
        ux[0] = 0.0
    assert x.flags.writeable  # callers own the panel arrays


def _profile_convolution_loop(t_grid, prm, halfwidth, nodes_per_unit):
    # int R(t - tau) cosh(tau)^-gamma_dual dtau on uniform 16-point panels
    # split at tau = t: the rule the fitted kappa ran on, at (45, 12)
    gx, gw = np.polynomial.legendre.leggauss(16)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    out = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        taus, wts = [], []
        for a, b in ((t - halfwidth, t), (t, t + halfwidth)):
            n_panels = max(8, int(abs(b - a) * nodes_per_unit / 16) + 1)
            edges = np.linspace(a, b, n_panels + 1)
            for k in range(n_panels):
                h = edges[k + 1] - edges[k]
                taus.append(edges[k] + h * gx)
                wts.append(h * gw)
        taus, wts = np.concatenate(taus), np.concatenate(wts)
        kern = riesz_kernel_cyl(taus - t, prm)
        out[i] = np.sum(wts * kern * np.cosh(taus) ** (-prm.gamma_dual))
    return out


@pytest.mark.parametrize("n,sigma", [(5, 1.5), (6, 1.2), (3, 1.4), (4, 1.8),
                                     (7, 2.5), (9, 3.5)])
def test_closed_form_kappa_is_the_fixed_point(n, sigma):
    # no fit: the constant is dual_const = riesz_const q_ns.  The fit at
    # t = 0 on the uniform (45, 12) rule missed it by its own defect, up to
    # 1.8e-6
    assert fixed_point_defect(derive_params(n, sigma)) <= 1e-12


@pytest.mark.parametrize("n,sigma", [(5, 1.5), (3, 1.4), (7, 2.5)])
def test_closed_form_kappa_on_refined_uniform_rule(n, sigma):
    # the fit's uniform rule, refined from (45, 12) to (60, 768), shares no
    # panel with the graded rule and converges on the closed form (at
    # (6, 1.2) the kernel's |t|^1.4 kink leaves it 8.4e-11 short)
    prm = derive_params(n, sigma)
    ts = np.array([0.0, 1.0, 2.0, 4.0])
    conv = _profile_convolution_loop(ts, prm, 60.0, 768)
    v = np.cosh(ts) ** (-prm.gamma_s)
    assert np.max(np.abs(prm.dual_const * conv / v - 1.0)) <= 1e-12


def test_log_radial_convolution_refuses_long_windows_and_tails():
    kern = lambda s: riesz_kernel_cyl(s, PRM)
    # (ln(1e9) + 5)/0.01 = 2572 > 700
    with pytest.raises(ValueError, match="exceeds 700"):
        log_radial_convolution(kern, np.ones_like, 0.0, 0.01, 1e-9, "slow")
    # e^(0.9 |tau|) against e^(-|t - tau|) converges, but not inside t -+ 26
    with pytest.raises(QuadratureError, match="tail"):
        log_radial_convolution(kern, lambda tau: np.exp(0.9 * np.abs(tau)),
                               0.0, 1.0, 1e-9, "growing")
    # the mass identity below, on the fixed panels
    mass = log_radial_convolution(kern, np.ones_like, 0.0, 1.0, 1e-12, "mass")
    assert PRM.riesz_const * mass == pytest.approx(1.0 / PRM.c_ns, rel=1e-12)


def test_kernel_mass_flat_profile_identity():
    # integrating the reduced kernel against a constant must reproduce the
    # flat-profile eigenvalue: riesz_const * integral(R) = 1 / c_ns, the log
    # coordinate form of the power-law identity behind the nonlinearity
    # normalization; independent of the fixed-point check above
    from scipy.integrate import quad

    mass, est = quad(lambda t: riesz_kernel_cyl(t, PRM), 0.0, 60.0,
                     epsabs=1e-12, epsrel=1e-11, limit=200)
    total = 2.0 * mass  # even kernel
    assert est < 1e-8
    assert PRM.riesz_const * total == pytest.approx(1.0 / PRM.c_ns, rel=1e-8)


def test_kernel_table():
    tab = build_kernel_table(PRM, "riesz", np.linspace(0.0, 4.0, 9))
    assert np.all(np.isfinite(tab.value)) and np.all(tab.value > 0)
    assert np.all(tab.est_error < 1e-6)
    assert np.array_equal(tab.est_error, KERNEL_REL_ERR * tab.value)
    with pytest.raises(ValueError):
        build_kernel_table(PRM, "singular", np.linspace(0.0, 4.0, 9))
    with pytest.raises(ValueError):
        build_kernel_table(PRM, "nope", [1.0])


# ─────────────────────────────────────────────────────────────────────────────
# closed forms of the reduced kernels against 40-digit mpmath

KERNEL_PAIRS = [(5, 1.5), (7, 2.5), (3, 1.4), (4, 1.8), (9, 3.5), (6, 1.2)]
# t = 0 (bounded kernel only), toward the singular kernel's t_min = 1e-3,
# and out to where both underflow
KERNEL_TS = np.concatenate([[0.0, 1e-8, 1e-6, 1e-4],
                            np.geomspace(1e-3, 800.0, 45)])


def _kernel_mp_hyp2f1(t, g, n):
    # |S^(n-1)| e^(-g|t|) 2F1(g, g+1-n/2; n/2; e^(-2|t|)) at 40 digits from
    # the exact double t, with no Euler transformation
    mpmath.mp.dps = 40
    t, g, n = abs(mpmath.mpf(t)), mpmath.mpf(g), mpmath.mpf(n)
    omega = 2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
    return omega * mpmath.exp(-g * t) * mpmath.hyp2f1(g, g + 1 - n / 2, n / 2,
                                                      mpmath.exp(-2 * t))


def _kernel_mp_quad(t, g, n):
    # the defining sphere integral 2^(-g) |S^(n-2)| int_{-1}^{1}
    # (1-zeta^2)^((n-3)/2) (cosh t - zeta)^(-g) dzeta, with breakpoints that
    # resolve the near-diagonal scale cosh t - 1 = 2 sinh^2(t/2)
    mpmath.mp.dps = 40
    t, g, n = mpmath.mpf(t), mpmath.mpf(g), mpmath.mpf(n)
    ch, d = mpmath.cosh(t), 2 * mpmath.sinh(t / 2) ** 2
    pts = [mpmath.mpf(1)]
    k = 0
    while 1 - d * 10 ** k > -1:
        pts.append(1 - d * 10 ** k)
        k += 1
    pts.append(mpmath.mpf(-1))
    val = mpmath.quad(lambda z: (1 - z * z) ** ((n - 3) / 2) * (ch - z) ** (-g),
                      pts[::-1])
    omega = 2 * mpmath.pi ** ((n - 1) / 2) / mpmath.gamma((n - 1) / 2)
    return 2 ** (-g) * omega * val


@pytest.mark.parametrize("n,sigma", KERNEL_PAIRS)
def test_closed_forms_within_est_error_of_mpmath(n, sigma):
    prm = derive_params(n, sigma)
    tiny = np.finfo(float).tiny
    for kind, g, ts in (("riesz", prm.gamma_s, KERNEL_TS),
                        ("singular", prm.gamma_dual, KERNEL_TS[4:])):
        tab = build_kernel_table(prm, kind, ts)
        for t, val, err in tab.rows():
            ref = float(_kernel_mp_hyp2f1(t, g, n))
            if ref >= tiny:
                assert abs(val - ref) <= err, (kind, t, val, ref)
            else:   # past the normal doubles only an absolute bound holds
                assert abs(val - ref) <= tiny, (kind, t, val, ref)


@pytest.mark.parametrize("n,sigma", KERNEL_PAIRS)
def test_hypergeometric_form_is_the_sphere_integral(n, sigma):
    # certifies the identity behind the closed form, where the diagonal is
    # nearest (t = t_min) and at t = 1
    prm = derive_params(n, sigma)
    for g in (prm.gamma_s, prm.gamma_dual):
        for t in (1e-3, 1.0):
            quad_v, hyp_v = _kernel_mp_quad(t, g, n), _kernel_mp_hyp2f1(t, g, n)
            assert abs(quad_v / hyp_v - 1) < 1e-20


@pytest.mark.parametrize("n,sigma", KERNEL_PAIRS)
def test_singular_kernel_accurate_at_t_min(n, sigma):
    # forming cosh t - 1 in doubles costs eps / (t^2/2) relative here, which
    # the exponent gamma_dual amplifies to 6e-10 .. 1e-9
    prm = derive_params(n, sigma)
    ref = float(_kernel_mp_hyp2f1(1e-3, prm.gamma_dual, n))
    assert singular_kernel_cyl(1e-3, prm) == pytest.approx(ref, rel=1e-13)


# ─────────────────────────────────────────────────────────────────────────────
# ring kernel: the Riesz kernel integrated over the S^(n-2) orbit about a line

RING_PAIRS = [(5, 1.5), (7, 2.5), (3, 1.4), (6, 1.2), (9, 3.5), (4, 1.8)]
# (dz, rho, rho'): generic, on the line (rho = 0 or rho' = 0), and down to
# A - B = 1e-14 A (the last three: 1e-14, 1.25e-13 and 5e-15 of A)
RING_POINTS = [(0.3, 1.0, 0.8), (2.0, 0.1, 3.0), (0.01, 2.0, 2.3),
               (3.0, 1.0, 1.0), (1e-3, 1.0, 1.0), (0.0, 1.0, 1.01),
               (0.5, 0.0, 1.0), (0.5, 0.7, 0.0),
               (0.0, 1.0, 1.0 + 1.4142135623730951e-7), (5e-7, 1.0, 1.0),
               (1e-7, 1.0, 1.0)]


def _ring_mp(prm, dz, rho, rho_p):
    # Gegenbauer mean over the orbit, |S^(n-2)| A^(-g) 2F1(g/2, (g+1)/2;
    # m/2; (B/A)^2), at 40 digits from the exact double inputs: no quadratic
    # transformation and no difference forms
    mpmath.mp.dps = 40
    g, m = mpmath.mpf(prm.gamma_s), mpmath.mpf(prm.n - 1)
    dz, rho, rho_p = (mpmath.mpf(v) for v in (dz, rho, rho_p))
    A = dz ** 2 + rho ** 2 + rho_p ** 2
    B = 2 * rho * rho_p
    omega = 2 * mpmath.pi ** (m / 2) / mpmath.gamma(m / 2)
    return omega * A ** (-g) * mpmath.hyp2f1(g / 2, (g + 1) / 2, m / 2,
                                             (B / A) ** 2)


@pytest.mark.parametrize("n,sigma", RING_PAIRS)
def test_ring_kernel_matches_mpmath(n, sigma):
    prm = derive_params(n, sigma)
    worst = naive_worst = 0.0
    for dz, rho, rho_p in RING_POINTS:
        ref = _ring_mp(prm, dz, rho, rho_p)
        val = ring_kernel(dz, rho, rho_p, prm)
        worst = max(worst, float(abs(val - ref) / ref))
        # the same mean straight from (B/A)^2 in doubles
        A, B = dz * dz + rho * rho + rho_p * rho_p, 2.0 * rho * rho_p
        g, m = prm.gamma_s, n - 1
        naive = prm.omega_equator * A ** (-g) * hyp2f1(
            g / 2, (g + 1) / 2, m / 2, (B / A) ** 2)
        naive_worst = max(naive_worst, float(abs(naive - ref) / ref))
    assert worst < 1e-12
    if (n, sigma) in ((5, 1.5), (3, 1.4), (6, 1.2)):
        # near the diagonal the naive argument loses what this test demands
        assert naive_worst > 1e-8


@pytest.mark.parametrize("n,sigma", [(5, 1.5), (6, 1.2), (4, 1.8)])
def test_ring_kernel_matches_orbit_quadrature(n, sigma):
    # |S^(n-3)| int_0^pi (A - B cos phi)^(-gamma_s) sin^(n-3) phi dphi,
    # adaptively, at points away from the diagonal
    prm = derive_params(n, sigma)
    k = n - 3
    omega = 2.0 * math.pi ** ((k + 1) / 2) / math.gamma((k + 1) / 2)
    for dz, rho, rho_p in [(0.3, 1.0, 0.8), (2.0, 0.1, 3.0), (0.05, 1.0, 1.1)]:
        A, B = dz * dz + rho * rho + rho_p * rho_p, 2.0 * rho * rho_p
        val, _ = quad(lambda phi: (A - B * math.cos(phi)) ** (-prm.gamma_s)
                      * math.sin(phi) ** k, 0.0, math.pi, epsabs=0.0,
                      epsrel=1e-13, limit=200)
        assert ring_kernel(dz, rho, rho_p, prm) == pytest.approx(omega * val,
                                                                 rel=1e-11)


def test_ring_kernel_broadcasts():
    # a point of an array call is bit for bit the 1-element array call.  A
    # scalar call may not be: wherever gamma_s != 1 numpy's scalar power
    # (libm) and its array power can round apart by one ulp, at most eps
    # relative, and the products after it round once more on each side, so
    # the values stay within 2 eps relative (87-114 of these 2000 points
    # differ at each pair, by at most 1.9 eps)
    rho_p = np.array([[0.5, 1.0 + 1e-9], [2.0, 0.0]])
    assert ring_kernel(0.1, 1.0, rho_p, derive_params(6, 1.2)).shape == (2, 2)
    rng = np.random.default_rng(11)
    dz, rho, rho_p = (rng.normal(size=2000), rng.uniform(0.0, 3.0, 2000),
                      rng.uniform(0.0, 3.0, 2000))
    for n, sigma in ((3, 1.4), (6, 1.2), (4, 1.8)):
        prm = derive_params(n, sigma)
        vals = ring_kernel(dz, rho, rho_p, prm)
        for i in range(dz.size):
            one = ring_kernel(dz[i:i + 1], rho[i:i + 1], rho_p[i:i + 1], prm)
            assert one.shape == (1,) and one[0] == vals[i]
            scalar = ring_kernel(float(dz[i]), float(rho[i]),
                                 float(rho_p[i]), prm)
            assert abs(scalar - vals[i]) <= 2.0 * np.finfo(float).eps * vals[i]



def ring_kernel_expr(dz, rho, rho_p, prm):
    """`ring_kernel` as one out-of-place expression, as it read before it
    ran in place on its own temporaries: the same operations in the same
    order, so the values must agree bit for bit."""
    g, c = prm.gamma_s, 0.5 * (prm.n - 1)
    dz2 = np.asarray(dz, dtype=float) ** 2
    rho, rho_p = np.asarray(rho, dtype=float), np.asarray(rho_p, dtype=float)
    lo = dz2 + (rho - rho_p) ** 2
    hi = dz2 + (rho + rho_p) ** 2
    S = np.sqrt(lo * hi)
    AS = 0.5 * (lo + hi) + S
    if g + 1.0 - c == 0.0:  # the series is the constant 1
        return prm.omega_equator * (0.5 * AS) ** (-g)
    F = _hyp2f1(g, g + 1.0 - c, c, (2.0 * rho * rho_p / AS) ** 2, 2.0 * S / AS)
    return prm.omega_equator * (0.5 * AS) ** (-g) * F


@pytest.mark.parametrize("n,sigma", RING_PAIRS)
def test_ring_kernel_is_the_expression(n, sigma):
    # terminating series at (5, 1.5), (7, 2.5) and (9, 3.5), the general
    # one elsewhere; the dual map's shapes (a block of nodes against one
    # sample), broadcasting every way, and scalars
    prm = derive_params(n, sigma)
    rng = np.random.default_rng(n)
    dz = np.concatenate([[p[0] for p in RING_POINTS], rng.normal(size=300)])
    rho = np.concatenate([[p[1] for p in RING_POINTS],
                          rng.uniform(0.0, 3.0, 300)])
    rho_p = np.concatenate([[p[2] for p in RING_POINTS],
                            rng.uniform(0.0, 3.0, 300)])
    block = (dz[:306].reshape(18, 17), 0.8, rho_p[:306].reshape(18, 17))
    cases = [(dz, rho, rho_p), block, (0.1, 1.0, rho_p),
             (dz[:, None], rho[None, :50], 1.3), (dz[:40], 0.7, 0.9)]
    for args in cases:
        kept = [np.copy(a) for a in args]
        got = ring_kernel(*args, prm)
        assert np.array_equal(got, ring_kernel_expr(*args, prm))
        # the caller's arrays are read, never written
        assert all(np.array_equal(a, b) for a, b in zip(args, kept))
    for dz0, rho0, rho_p0 in RING_POINTS:
        got = ring_kernel(dz0, rho0, rho_p0, prm)
        ref = ring_kernel_expr(dz0, rho0, rho_p0, prm)
        assert type(got) is type(ref) and got == ref

def test_ring_kernel_constant_series_shortcut_is_bitwise():
    # at (5, 1.5) the series parameter gamma_s + 1 - (n-1)/2 is 0, so 2F1 is
    # the constant 1 and ring_kernel skips building its argument; the value
    # must be the general expression's to the bit
    prm = derive_params(5, 1.5)
    g, c = prm.gamma_s, 0.5 * (prm.n - 1)
    assert g + 1.0 - c == 0.0
    rng = np.random.default_rng(4)
    dz = np.concatenate([[0.0, 1e-7, 0.5], rng.normal(size=200)])
    rho = np.concatenate([[1.0, 1.0, 0.0], rng.uniform(0.0, 3.0, 200)])
    rho_p = np.concatenate([[1.0 + 1e-7, 1.0, 1.0],
                            rng.uniform(0.0, 3.0, 200)])
    lo = dz ** 2 + (rho - rho_p) ** 2
    hi = dz ** 2 + (rho + rho_p) ** 2
    S = np.sqrt(lo * hi)
    AS = 0.5 * (lo + hi) + S
    general = prm.omega_equator * (0.5 * AS) ** (-g) * _hyp2f1(
        g, g + 1.0 - c, c, (2.0 * rho * rho_p / AS) ** 2, 2.0 * S / AS)
    assert np.array_equal(ring_kernel(dz, rho, rho_p, prm), general)
    for k in range(5):
        assert ring_kernel(float(dz[k]), float(rho[k]), float(rho_p[k]),
                           prm) == general[k]
