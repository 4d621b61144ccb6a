import tracemalloc

import numpy as np
import pytest
from scipy.fft import dct
from scipy.integrate import quad
from scipy.optimize import brentq

from qcurv import delaunay
from qcurv.params import derive_params
from qcurv.bubbles import cyl_coefficient
from qcurv.kernels import gauss_panels, graded_edges, riesz_kernel_cyl
from qcurv.delaunay import (
    CylSolution,
    NewtonError,
    solve_periodic,
    radial_profile,
    neck_sweep,
    sweep_csv,
    bifurcation_half_period,
)

PRM = derive_params(5, 1.5)


def periodized_lattice(kernel_vals, ts, L, J):
    """Sum of kernel_vals(t - 2jL) over |j| <= J for each offset t in ts."""
    ts = np.asarray(ts, dtype=float)
    shifts = 2.0 * L * np.arange(-J, J + 1)
    return kernel_vals(ts[:, None] - shifts[None, :]).sum(axis=1)


def trapezoid_symbol(L, m, prm):
    """Eigenvalues of the product-trapezoid operator on the 2m-point grid,
    the DCT-I of the periodized kernel at t = jL/m, j = 0..m: by Poisson
    summation the exact symbol plus its aliases at pi j/L + 2 pi k m/L.
    The solver took these before it took the exact symbol; they stay as the
    oracle of the aliased operator."""
    h = L / m
    lattice = periodized_lattice(
        lambda a: riesz_kernel_cyl(a, prm),
        np.arange(m + 1) * h, L, delaunay._periodization_order(L, prm))
    return prm.dual_const * h * dct(lattice, type=1)


def dense_matrix(L, m, prm):
    """The folded product-trapezoid matrix on the m + 1 nodes of [0, L],
    lattice on all 2m + 1 offsets in [0, 2L]: the oracle of the DCT-I
    operator of `trapezoid_symbol`, as the solver built it before."""
    h = L / m
    lattice = periodized_lattice(
        lambda a: riesz_kernel_cyl(a, prm),
        np.arange(2 * m + 1) * h, L, delaunay._periodization_order(L, prm))
    k = np.arange(m + 1)
    W = lattice[np.abs(k[:, None] - k)]
    W += lattice[k[:, None] + k]
    W[:, 0] = lattice[k]            # tau = 0 contributes once
    W[:, m] = lattice[np.abs(k - m)]  # tau = L pairs with tau = -L by periodicity
    W *= prm.dual_const * h
    return W


def dense_solve(L, prm, M, tol=1e-10, max_iter=60):
    """Half-grid profile and Newton steps of solve_periodic on the
    trapezoid operator with every step an LU solve on the dense matrix."""
    m = M // 2
    A = dense_matrix(L, m, prm)
    v = delaunay._tower_profile(np.linspace(0.0, L, m + 1), L, prm,
                                delaunay._periodization_order(L, prm) + 1)
    F = v - A @ v**prm.p
    norm, it = float(np.max(np.abs(F))), 0
    while norm > tol:
        assert it < max_iter
        Jac = A * -(prm.p * v ** (prm.p - 1.0))
        Jac.flat[::m + 2] += 1.0
        step = np.linalg.solve(Jac, -F)
        alpha = 1.0
        for _ in range(50):
            cand = v + alpha * step
            if np.all(cand > 0.0):
                Fc = cand - A @ cand**prm.p
                if np.max(np.abs(Fc)) < norm:
                    v, F, norm = cand, Fc, float(np.max(np.abs(Fc)))
                    break
            alpha *= 0.5
        else:
            pytest.fail("dense oracle: no decrease along the Newton step")
        it += 1
    return v, it


ORACLE_PAIRS = [(5, 1.5), (7, 2.5), (6, 1.2)]


@pytest.fixture(scope="module")
def sol3():
    return solve_periodic(3.0, PRM, M=400, tol=1e-10)


def test_solution_invariants(sol3):
    assert isinstance(sol3, CylSolution)
    assert sol3.residual_norm <= 1e-10
    assert np.all(sol3.v > 0)
    # evenness is structural on the mirrored grid
    assert np.max(np.abs(sol3.v - sol3.v[::-1])) <= 1e-12
    assert sol3.neck == pytest.approx(sol3.v.min(), rel=1e-14)
    # peaks sit at the period endpoints, neck at the origin
    assert sol3.grid[np.argmax(sol3.v)] == pytest.approx(-sol3.L)
    assert sol3.v.max() < 1.0


def test_neck_against_tail_sum(sol3):
    # the neck tracks the two neighboring peak tails 2^(1+gamma_s)e^(-gamma_s L)
    lead = 2.0 ** (1.0 + PRM.gamma_s) * np.exp(-PRM.gamma_s * sol3.L)
    assert sol3.neck == pytest.approx(lead, rel=0.05)


def test_grid_refinement_stability():
    a = solve_periodic(3.0, PRM, M=400, tol=1e-10)
    b = solve_periodic(3.0, PRM, M=800, tol=1e-10)
    assert abs(a.neck - b.neck) / b.neck <= 1e-4


def test_newton_basin():
    a = solve_periodic(3.0, PRM, M=400, tol=1e-10)
    b = solve_periodic(3.0, PRM, M=400, tol=1e-10, init_factor=1.2)
    assert np.max(np.abs(a.v - b.v)) <= 10 * 1e-10


def test_flat_branch_detected_below_threshold():
    thr = bifurcation_half_period(PRM)
    assert thr == pytest.approx(2.014, abs=2e-3)
    # below the threshold the only solution is the flat profile; the solver
    # must refuse rather than report it as a tower
    with pytest.raises(NewtonError, match="constant branch|neck away"):
        solve_periodic(2.0, PRM, M=400, tol=1e-10)
    # and the flat value it would have reported is the closed-form height
    a = cyl_coefficient(PRM)
    assert 0.75 < a < 0.76


def kernel_cosine_rule(prm, tol=1e-10):
    """(t, w * R(t)) of the 16-point composite Gauss rule on [0, T], panels
    halving toward the t log t kink at t = 0 and at most 0.5 wide beyond:
    the window T = max(60, (ln(1/tol) + 5)/gamma_s) drops a kernel tail
    below tol.  `bifurcation_half_period` took the kernel's cosine
    transform from this rule before it took the closed-form symbol."""
    T = max(60.0, (np.log(1.0 / tol) + 5.0) / prm.gamma_s)
    t, w = gauss_panels(graded_edges(T, 0.5), 16)
    return t, w * riesz_kernel_cyl(t, prm)


def cosine_rule_half_period(prm, tol=1e-10):
    """The branch point from p F(pi/L) = F(0), F(w) = 2 int R(t) cos(w t)
    dt on `kernel_cosine_rule`."""
    t, wR = kernel_cosine_rule(prm, tol)
    f0 = 2.0 * float(wR.sum())
    w = brentq(lambda w: 2.0 * float(wR @ np.cos(w * t)) - f0 / prm.p,
               1e-2, 8.0, xtol=np.finfo(float).tiny,
               rtol=max(tol / 10.0, 4.0 * np.finfo(float).eps))
    return np.pi / w


@pytest.mark.parametrize("n,sigma", [(5, 1.5), (7, 2.5)])
def test_branch_transform_matches_nested_quad(n, sigma):
    # the cosine-rule oracle against the adaptive outer quad over scalar
    # kernel calls on [0, 60]
    prm = derive_params(n, sigma)
    t, wR = kernel_cosine_rule(prm)
    for w in (0.0, 1.0, 2.0):
        ref, _ = quad(lambda x: riesz_kernel_cyl(x, prm) * np.cos(w * x),
                      0.0, 60.0, epsabs=1e-12, epsrel=1e-10, limit=400)
        assert 2.0 * float(wR @ np.cos(w * t)) == pytest.approx(2.0 * ref, rel=1e-9)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n,sigma", ORACLE_PAIRS)
def test_symbol_is_the_kernel_transform(n, sigma):
    # dual_const R^(xi) = q_ns / Theta_0(xi), R^ = 2 int_0^inf R cos(xi t):
    # quad's cosine weight on unit panels out to a tail below 1e-16.  At
    # epsrel 1e-13 quad warns of roundoff on some panels; the comparison
    # with the symbol is the check of its sum (worst seen 7.8e-15)
    prm = derive_params(n, sigma)
    T = np.ceil((np.log(1e16) + 5.0) / prm.gamma_s)
    edges = np.arange(T + 1.0)
    for xi in (0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 7.0):
        F = sum(quad(riesz_kernel_cyl, a, b, args=(prm,), weight="cos",
                     wvar=xi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges, edges[1:]))
        got = prm.q_ns * np.exp(-delaunay._log_symbol(xi, prm))
        assert got == pytest.approx(2.0 * prm.dual_const * F, rel=1e-13)
    # Theta_0(0) is the nonlinearity's constant
    assert np.exp(delaunay._log_symbol(0.0, prm)) == pytest.approx(prm.c_ns,
                                                                   rel=1e-14)


@pytest.mark.parametrize("n,sigma", [(5, 1.5), (6, 1.2), (7, 2.5), (9, 3.5)])
def test_branch_point_matches_cosine_rule(n, sigma):
    prm = derive_params(n, sigma)
    assert bifurcation_half_period(prm) == pytest.approx(
        cosine_rule_half_period(prm), rel=1e-12)


def test_branch_point_at_slow_kernel_decay():
    # gamma_s = 0.1: the kernel still holds e^-6 of its weight at t = 60,
    # where a fixed cosine-rule window gave L* = 6.06146 instead of 6.04886.
    # gamma_s = 0.01: the cosine rule needs a window of 2800, past the cap
    # of 700 that once made this a refusal; the symbol needs none.  The
    # rule's tail, below 1e-10 of F(0), leaves it 1.7e-12 off at (3, 1.4)
    for sigma, ref in ((1.4, 6.0488630), (1.49, 18.245577)):
        prm = derive_params(3, sigma)
        got = bifurcation_half_period(prm)
        assert got == pytest.approx(ref, rel=1e-6)
        assert got == pytest.approx(cosine_rule_half_period(prm), rel=1e-9)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_branch_point_closed_form_at_sigma_2(n):
    # at sigma = 2 the mode-1 condition is a quadratic in xi^2: L* = pi/xi*
    # with xi*^2 = (-(A+B) + sqrt((A+B)^2 + 4(p-1)AB))/2, A = (n-4)^2/4,
    # B = n^2/4.  A root finder stopping at a fixed xtol of 1e-9 missed it
    # by 1.9e-10 at n = 5
    prm = derive_params(n, 2.0)
    A, B = (n - 4) ** 2 / 4.0, n ** 2 / 4.0
    xi2 = (-(A + B) + np.sqrt((A + B) ** 2 + 4.0 * (prm.p - 1.0) * A * B)) / 2
    ref = np.pi / np.sqrt(xi2)
    assert abs(bifurcation_half_period(prm) - ref) <= 1e-13 * ref


def test_preconditions():
    with pytest.raises(ValueError):
        solve_periodic(1.0, PRM)
    with pytest.raises(ValueError):
        solve_periodic(3.0, PRM, M=100)
    # M // 2 would silently solve on the M - 1 grid
    with pytest.raises(ValueError, match="even"):
        solve_periodic(3.0, PRM, M=801)


def test_map_back_to_rn(sol3):
    # u(x) = radial_profile at |x|; |x| = 1 lands on the neck
    to_rn = lambda x: radial_profile(sol3, np.linalg.norm(x, axis=-1), PRM)
    e1 = np.array([1.0, 0, 0, 0, 0])
    assert to_rn(e1) == pytest.approx(sol3.neck, rel=1e-12)
    # self-similarity under one period of scaling
    x = np.array([0.3, -0.2, 0.1, 0.0, 0.4])
    shrink = np.exp(-2.0 * sol3.L)
    v1 = to_rn(x)
    v2 = to_rn(shrink * x)
    assert v2 == pytest.approx(np.exp(2.0 * sol3.L * PRM.gamma_s) * v1, rel=1e-10)
    # global bound from the transform definition
    r = float(np.linalg.norm(x))
    assert v1 <= r ** (-PRM.gamma_s) * sol3.v.max() * (1 + 1e-12)
    with pytest.raises(ValueError):
        to_rn(np.zeros(5))
    # batch evaluation agrees with scalars
    xs = np.stack([x, 2.0 * x, e1])
    batch = to_rn(xs)
    for i in range(3):
        assert batch[i] == pytest.approx(to_rn(xs[i]), rel=1e-13)



def radial_profile_spline(sol, r, prm):
    """`radial_profile` as it read the profile before: the periodic
    `CubicSpline` call on the wrapped log-radius.  The direct lookup must
    reproduce it bit for bit."""
    r = np.asarray(r, dtype=float)
    t = -np.log(r)
    tr = np.mod(t + sol.L, 2.0 * sol.L) - sol.L
    return r ** (-prm.gamma_s) * sol.spline(tr)


@pytest.mark.parametrize("n,sigma,L", [(5, 1.5, 3.3), (7, 2.5, 3.0),
                                       (6, 1.2, 3.5), (5, 1.5, 3.1416)])
def test_radial_profile_is_the_spline_call(n, sigma, L):
    prm = derive_params(n, sigma)
    sol = solve_periodic(L, prm, M=400)
    x = sol.spline.x
    rng = np.random.default_rng(5)
    dense = np.exp(rng.uniform(-4.0 * L, 4.0 * L, 50_000))
    # every breakpoint and its neighbours, in t and in r, and their images
    # one and two periods away; r = e^L is where tr rounds to +L and wraps
    t = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    r = np.exp(-t)
    r = np.concatenate([r, np.nextafter(r, 0.0), np.nextafter(r, np.inf)])
    edges = np.concatenate([r, r * np.exp(2.0 * L), r * np.exp(-2.0 * L),
                            r * np.exp(4.0 * L), r * np.exp(-4.0 * L),
                            np.exp([L, -L, 2.0 * L, -2.0 * L, 0.0])])
    for radii in (dense, edges, np.stack([edges, edges[::-1]])):
        got = radial_profile(sol, radii, prm)
        assert got.shape == radii.shape
        assert np.array_equal(got, radial_profile_spline(sol, radii, prm))
    for r0 in (float(np.exp(L)), np.float64(0.3), np.array(2.0)):
        got = radial_profile(sol, r0, prm)
        ref = radial_profile_spline(sol, r0, prm)
        assert type(got) is type(ref) and got == ref
    assert radial_profile(sol, np.empty(0), prm).shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
def test_radial_profile_refuses_unmappable_radii(sol3, bad):
    # a NaN would index an arbitrary interval, a negative r has no log
    with pytest.raises(ValueError, match="singular" if bad == 0.0
                       else "finite radii r > 0"):
        radial_profile(sol3, bad, PRM)
    with pytest.raises(ValueError):
        radial_profile(sol3, np.array([[1.0, 0.5], [bad, 2.0]]), PRM)

def test_sweep_laws_and_markers():
    sweep = neck_sweep([2.0, 2.5, 3.0, 3.5, 4.0], PRM, M=400, tol=1e-10)
    assert len(sweep.rows) == 5
    # the below-threshold entry is marked, the rest carry the tower branch
    assert sweep.rows[0].error is not None
    assert np.isnan(sweep.rows[0].eps)
    good = [r for r in sweep.rows if r.error is None]
    assert len(good) == 4
    eps = np.array([r.eps for r in good])
    assert np.all(np.diff(eps) < 0)
    # decay laws: neck at -gamma_s within 5%, defect strictly faster
    assert abs(sweep.slope_eps + PRM.gamma_s) <= 0.05 * PRM.gamma_s
    assert sweep.slope_psi / (-PRM.gamma_s) >= 1.05
    csv = sweep_csv(sweep)
    lines = csv.strip().split("\n")
    assert lines[0] == "L,eps,psi_sup,resid,iters"
    assert len(lines) == 6
    assert "nan" in lines[1]


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        neck_sweep([3.0, 2.5, 4.0], PRM)
    with pytest.raises(ValueError):
        neck_sweep([2.5, 3.0], PRM)
    # a bad grid is refused before any solve, not kept as failed rows
    with pytest.raises(ValueError, match="even"):
        neck_sweep([2.5, 3.0, 3.5], PRM, M=801)


@pytest.mark.parametrize("n,sigma", ORACLE_PAIRS)
def test_fft_operator_matches_dense_matrix(n, sigma):
    # the DCT-I pair applies an operator given by its eigenvalues
    prm = derive_params(n, sigma)
    rng = np.random.default_rng(7)
    for L, m in ((2.6, 200), (3.5, 400)):
        A = dense_matrix(L, m, prm)
        lam = trapezoid_symbol(L, m, prm)
        for _ in range(3):
            w = rng.random(m + 1) + 0.01
            ref = A @ w
            got = delaunay._collocation_apply(lam, w)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("M", [400, 800])
@pytest.mark.parametrize("L", [2.6, 3.1, 3.5, 4.5])
@pytest.mark.parametrize("n,sigma", ORACLE_PAIRS)
def test_solver_matches_dense_newton(n, sigma, L, M, monkeypatch):
    # Newton, GMRES and the line search on the trapezoid operator against
    # the dense LU Newton on the same operator
    prm = derive_params(n, sigma)
    monkeypatch.setattr(delaunay, "_collocation_symbol", trapezoid_symbol)
    sol = solve_periodic(L, prm, M=M, tol=1e-10)
    v, it = dense_solve(L, prm, M)
    assert sol.n_iter == it
    half = sol.v[M // 2:]
    assert np.max(np.abs(half - v)) <= 1e-14 * np.max(v)
    assert sol.krylov_iters >= sol.n_iter


def test_reruns_are_bit_identical():
    a = solve_periodic(3.5, PRM, M=800)
    b = solve_periodic(3.5, PRM, M=800)
    assert a.v.tobytes() == b.v.tobytes()
    assert a.psi.tobytes() == b.psi.tobytes()
    assert (a.n_iter, a.krylov_iters, a.residual_norm) == \
        (b.n_iter, b.krylov_iters, b.residual_norm)


def test_krylov_failure_raises(monkeypatch):
    def stalled(A, b, **kw):
        return np.zeros_like(b), 1
    monkeypatch.setattr(delaunay, "gmres", stalled)
    with pytest.raises(NewtonError, match="Krylov solve .* Newton step 1") as exc:
        solve_periodic(3.0, PRM, M=400)
    assert exc.value.iterations == 0
    assert exc.value.residual > 1e-10


@pytest.mark.parametrize("n,sigma", ORACLE_PAIRS)
def test_solver_eigenvalues_meet_branch_point(n, sigma):
    # at the continuum branch point the collocation operator's mode-1
    # eigenvalue satisfies the same condition p * lam_1 = lam_0 on any grid,
    # up to the root's relative tol/10 times d ln Theta_0 / d ln w (1.2e-14,
    # 1.5e-12 and 3.6e-15 at M = 200 and 3200 alike)
    prm = derive_params(n, sigma)
    L_star = bifurcation_half_period(prm)
    for m in (100, 1600):
        lam = delaunay._collocation_symbol(L_star, m, prm)
        assert abs(prm.p * lam[1] / lam[0] - 1.0) <= 1e-10


def test_peak_memory_at_M_6400():
    # the dense Newton step needed three (M/2+1)^2 matrices, 82 MB each here
    tracemalloc.start()
    try:
        solve_periodic(3.5, PRM, M=6400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("n,sigma", ORACLE_PAIRS)
def test_grid_error_is_rounding_at_M_400(n, sigma):
    # the exact symbol leaves no aliasing error at the nodes: the trapezoid
    # operator was off by its alias sum, 2.3e-7 at (5, 1.5) and 1.4e-5 at
    # (6, 1.2) for M = 400
    prm = derive_params(n, sigma)
    ref = solve_periodic(3.5, prm, M=6400)
    sol = solve_periodic(3.5, prm, M=400)
    assert np.max(np.abs(sol.v - ref.v[::16])) <= 1e-12
