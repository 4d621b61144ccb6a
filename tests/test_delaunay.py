import numpy as np
import pytest
from scipy.integrate import quad

from qcurv import delaunay
from qcurv.params import derive_params
from qcurv.bubbles import cyl_coefficient
from qcurv.kernels import QuadratureError, riesz_kernel_cyl
from qcurv.delaunay import (
    CylSolution,
    NewtonError,
    solve_periodic,
    delaunay_to_rn,
    neck_sweep,
    sweep_csv,
    bifurcation_half_period,
)

PRM = derive_params(5, 1.5)


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


@pytest.mark.parametrize("n,sigma", [(5, 1.5), (7, 2.5)])
def test_branch_transform_matches_nested_quad(n, sigma):
    # oracle: the adaptive outer quad over scalar kernel calls on [0, 60]
    prm = derive_params(n, sigma)
    (t, wR), _ = delaunay._kernel_cosine_rule(prm, 1e-10)
    for w in (0.0, 1.0, 2.0):
        ref, _ = quad(lambda x: riesz_kernel_cyl(x, prm) * np.cos(w * x),
                      0.0, 60.0, epsabs=1e-12, epsrel=1e-10, limit=400)
        assert 2.0 * float(wR @ np.cos(w * t)) == pytest.approx(2.0 * ref, rel=1e-9)


def test_branch_window_follows_kernel_decay(monkeypatch):
    # gamma_s = 0.1: the kernel still holds e^-6 of its weight at t = 60,
    # where a fixed window gave L* = 6.06146 instead of 6.04886
    prm = derive_params(3, 1.4)
    got = bifurcation_half_period(prm)
    # gamma_s = 0.01 would need a window past the fixed rule's cap
    with pytest.raises(ValueError, match="exceeds 700"):
        bifurcation_half_period(derive_params(3, 1.49))
    monkeypatch.setattr(delaunay, "_branch_window", lambda prm, tol: 400.0)
    wide = bifurcation_half_period(prm)
    assert got == pytest.approx(wide, rel=1e-9)
    assert got == pytest.approx(6.0488630, rel=1e-7)


def test_branch_rule_self_check_raises(monkeypatch):
    # ripples much shorter than a panel: the 16- and 8-point rules disagree
    def rippled(t, prm):
        return riesz_kernel_cyl(t, prm) * (1.0 + 1e-3 * np.cos(200.0 * t))
    monkeypatch.setattr(delaunay, "riesz_kernel_cyl", rippled)
    with pytest.raises(QuadratureError, match="8-point"):
        bifurcation_half_period(PRM)


def test_preconditions():
    with pytest.raises(ValueError):
        solve_periodic(1.0, PRM)
    with pytest.raises(ValueError):
        solve_periodic(3.0, PRM, M=100)


def test_map_back_to_rn(sol3):
    # |x| = 1 lands on the neck
    e1 = np.array([1.0, 0, 0, 0, 0])
    assert delaunay_to_rn(sol3, e1, PRM) == pytest.approx(sol3.neck, rel=1e-12)
    # self-similarity under one period of scaling
    x = np.array([0.3, -0.2, 0.1, 0.0, 0.4])
    shrink = np.exp(-2.0 * sol3.L)
    v1 = delaunay_to_rn(sol3, x, PRM)
    v2 = delaunay_to_rn(sol3, shrink * x, PRM)
    assert v2 == pytest.approx(np.exp(2.0 * sol3.L * PRM.gamma_s) * v1, rel=1e-10)
    # global bound from the transform definition
    r = float(np.linalg.norm(x))
    assert v1 <= r ** (-PRM.gamma_s) * sol3.v.max() * (1 + 1e-12)
    with pytest.raises(ValueError):
        delaunay_to_rn(sol3, np.zeros(5), PRM)
    # batch evaluation agrees with scalars
    xs = np.stack([x, 2.0 * x, e1])
    batch = delaunay_to_rn(sol3, xs, PRM)
    for i in range(3):
        assert batch[i] == pytest.approx(delaunay_to_rn(sol3, xs[i], PRM), rel=1e-13)


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
