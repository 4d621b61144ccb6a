"""Periodic cylindrical solutions by collocation and damped Newton.

In log coordinates the singular radial problem becomes a 2L-periodic fixed
point v = dual_const * R_per * v^p for the bounded reduced kernel R, with
the closed-form constant ``Params.dual_const`` of the dual map.  The
solver collocates with the trapezoid rule on the 2m-point periodic grid
(M = 2m), keeps the m + 1 nodes of [0, L] as unknowns (evenness is
structural), iterates Newton with a positivity-preserving line search, and
reports the neck value v(0) and the defect psi against the periodized
profile sum.  The trapezoid operator is circulant, so on even vectors the
DCT-I of the periodized kernel at the m + 1 offsets in [0, L] gives its
eigenvalues and one DCT-I pair applies it; GMRES on that operator solves
each Newton step.  No matrix is formed: time O(M log M), memory O(M).

Phase convention: profile peaks sit at odd multiples (1+2j)L so the neck,
the minimum of v, is at t = 0.  The two printed phase choices differ by a
half-period shift of the same solution; pinning the neck at the origin is
what makes v(0) the decaying quantity the sweeps fit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.fft import dct, idct
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.sparse.linalg import LinearOperator, gmres

from .params import Params
from .bubbles import cyl_coefficient
from .kernels import (check_rules, decay_slope, gauss_panels, graded_edges,
                      periodized_lattice, riesz_kernel_cyl)

__all__ = [
    "CylSolution",
    "NewtonError",
    "solve_periodic",
    "radial_profile",
    "neck_sweep",
    "sweep_csv",
    "bifurcation_half_period",
]


class NewtonError(RuntimeError):
    """Raised when the damped iteration cannot reach the tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} steps)")
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class CylSolution:
    """Discrete 2L-periodic solution on the symmetric grid [-L, L]; its
    n_iter Newton steps took krylov_iters GMRES iterations in all."""

    L: float
    grid: np.ndarray
    v: np.ndarray
    psi: np.ndarray
    neck: float
    residual_norm: float
    n_iter: int
    krylov_iters: int

    @cached_property
    def spline(self) -> CubicSpline:
        return CubicSpline(self.grid, self.v, bc_type="periodic")

    @cached_property
    def pieces(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The spline's breakpoints x, its coefficients c (4, intervals),
        the cubic on [x_i, x_i+1) being sum_k c[k, i] (t - x_i)^(3-k), and
        the grid step."""
        x = self.spline.x
        return x, self.spline.c, float((x[-1] - x[0]) / (x.size - 1))


def _periodization_order(L: float, prm: Params) -> int:
    # keep the dropped image tail below e^{-40}
    return max(3, int(np.ceil(20.0 / (prm.gamma_s * L))))


def _tower_profile(ts: np.ndarray, L: float, prm: Params, J: int) -> np.ndarray:
    """Periodized profile sum with peaks at the odd multiples (1+2j)L."""
    js = np.arange(-J - 1, J + 1)
    centers = (1.0 + 2.0 * js) * L
    return np.cosh(ts[..., None] - centers) ** (-prm.gamma_s) @ np.ones(len(centers))


def _collocation_symbol(L: float, m: int, prm: Params) -> np.ndarray:
    """Eigenvalues of (A w)_k ~ dual_const * int R_per w on the 2m-point grid,
    entry j for cos(pi j t/L): the DCT-I of R_per at t = jL/m, j = 0..m."""
    h = L / m
    lattice = periodized_lattice(
        lambda a: riesz_kernel_cyl(a, prm),
        np.arange(m + 1) * h, L, _periodization_order(L, prm))
    return prm.dual_const * h * dct(lattice, type=1)


def _collocation_apply(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A w for the operator of eigenvalues lam, w on the m + 1 nodes."""
    return idct(lam * dct(w, type=1), type=1)


def _check_grid(M: int) -> None:
    if M < 200 or M % 2:
        raise ValueError(f"grid size must be even and >= 200: {M}")


def solve_periodic(L: float, prm: Params, M: int = 800, tol: float = 1e-10,
                   init_factor: float = 1.0) -> CylSolution:
    """Solve the periodic problem at half-period L on an M-point grid.

    The returned solution is even by construction (half-grid unknowns,
    reflected quadrature) and strictly positive; the damped Newton step
    halves until positivity and residual decrease both hold.  GMRES solves
    each step to 1e-14 relative; NewtonError when it does not, or after 60
    steps.
    """
    if L < 1.5:
        raise ValueError(f"half-period too small: {L} < 1.5")
    _check_grid(M)
    m = M // 2
    ts = np.linspace(0.0, L, m + 1)
    lam = _collocation_symbol(L, m, prm)
    Jper = _periodization_order(L, prm)
    v = init_factor * _tower_profile(ts, L, prm, Jper + 1)

    def residual(w: np.ndarray) -> np.ndarray:
        return w - _collocation_apply(lam, w**prm.p)

    F = residual(v)
    norm = float(np.max(np.abs(F)))
    it, krylov = 0, []
    while norm > tol:
        if it >= 60:
            raise NewtonError("iteration budget exhausted", norm, it)
        d = prm.p * v ** (prm.p - 1.0)
        jac = LinearOperator((m + 1, m + 1), dtype=float,
                             matvec=lambda s: s - _collocation_apply(lam, d * s))
        step, info = gmres(jac, -F, rtol=1e-14, atol=0.0,
                           restart=min(m + 1, 64), maxiter=10,
                           callback=krylov.append, callback_type="pr_norm")
        if info != 0:
            raise NewtonError(f"Krylov solve (GMRES) of Newton step {it + 1} "
                              "did not reach 1e-14", norm, it)
        alpha = 1.0
        for _ in range(50):
            cand = v + alpha * step
            if np.all(cand > 0.0):
                Fc = residual(cand)
                nc = float(np.max(np.abs(Fc)))
                if nc < norm:
                    v, F, norm = cand, Fc, nc
                    break
            alpha *= 0.5
        else:
            raise NewtonError("positivity lost along the Newton step", norm, it)
        it += 1

    # reject states off the tower branch: below the bifurcation half-period
    # the collocation fixed point collapses to the flat profile, and near the
    # threshold Newton can land phase-flipped (peak at the origin)
    osc = float((v.max() - v.min()) / v.mean())
    if osc < 1e-2:
        a = cyl_coefficient(prm)
        raise NewtonError(
            f"converged to the constant branch (flat profile {a:.6g}); "
            "no tower solution at this half-period", norm, it)
    if v[0] > np.min(v):
        raise NewtonError("converged with the neck away from the origin", norm, it)

    grid = np.concatenate([-ts[:0:-1], ts])
    v_full = np.concatenate([v[:0:-1], v])
    psi_full = v_full - _tower_profile(grid, L, prm, Jper + 1)
    return CylSolution(
        L=float(L),
        grid=grid,
        v=v_full,
        psi=psi_full,
        neck=float(v[0]),
        residual_norm=norm,
        n_iter=it,
        krylov_iters=len(krylov),
    )


def radial_profile(sol: CylSolution, r, prm: Params):
    """The periodic profile at radii r > 0: r^{-gamma_s} v(-ln r mod 2L),
    exactly self-similar under r -> e^{-2L} r by construction.  v is read
    from the spline's pieces by direct index on the uniform grid, bit for
    bit the periodic `CubicSpline` call: scipy's wrap onto [x_0, x_0 + 2L),
    its half-open intervals [x_i, x_i+1) with the last one closed, and its
    order of the cubic's terms.  ValueError at r = 0, where it is
    singular, and at negative or non-finite r."""
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & (r < np.inf)):
        if np.any(r == 0.0):
            raise ValueError("the profile is singular at the origin")
        raise ValueError("the profile needs finite radii r > 0")
    x, (c0, c1, c2, c3), h = sol.pieces
    # tr = mod(-ln r + L, 2L) - L, the remainder taken as np.mod takes it:
    # fmod, plus 2L where negative (np.mod also forms the quotient); the
    # steps run in place, each temporary freed when the next needs room
    b = np.fmod(sol.L - np.log(r), 2.0 * sol.L)
    b += np.where(b < 0.0, 2.0 * sol.L, 0.0)
    b -= sol.L
    # b = tr - x_0 lies in [0, 2L], and scipy's mod maps only 2L to 0
    b -= x[0]
    xs = np.where(b < x[-1] - x[0], b, 0.0)
    del b
    xs += x[0]
    i = np.minimum(((xs - x[0]) / h).astype(np.intp), x.size - 2)
    i -= xs < x[i]
    i += (xs >= x[i + 1]) & (i < x.size - 2)
    s = xs
    s -= x[i]
    ss = s * s
    # ((c3 + c2 s) + c1 s^2) + c0 s^3, as scipy sums it
    v = c2[i] * s
    v += c3[i]
    v += c1[i] * ss
    ss *= s
    ss *= c0[i]
    v += ss
    v *= r ** (-prm.gamma_s)
    return v


def delaunay_to_rn(sol: CylSolution, x, prm: Params):
    """Map the periodic profile back to the punctured space:
    u(x) = `radial_profile` at |x|."""
    x = np.asarray(x, dtype=float)
    val = radial_profile(sol, np.sqrt(np.sum(x * x, axis=-1)), prm)
    return float(val) if np.ndim(val) == 0 else val


# ─────────────────────────────────────────────────────────────────────────────
# sweeps


@dataclass(frozen=True)
class SweepRow:
    L: float
    eps: float
    psi_sup: float
    resid: float
    iters: int
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope_eps: float
    slope_psi: float


def neck_sweep(L_list: Sequence[float], prm: Params, M: int = 800,
               tol: float = 1e-10) -> SweepResult:
    """Solve along increasing L and fit the two decay laws.

    A bad grid size M raises ValueError before any solve; solver failures
    are kept as marked rows, and the slopes use the successful entries.
    """
    L_arr = [float(L) for L in L_list]
    if len(L_arr) < 3:
        raise ValueError("need at least three half-periods for a slope fit")
    if any(b <= a for a, b in zip(L_arr, L_arr[1:])):
        raise ValueError("half-periods must be strictly increasing")
    _check_grid(M)
    rows = []
    for L in L_arr:
        try:
            sol = solve_periodic(L, prm, M=M, tol=tol)
            rows.append(SweepRow(L, sol.neck, float(np.max(np.abs(sol.psi))),
                                 sol.residual_norm, sol.n_iter))
        except (NewtonError, ValueError) as exc:
            rows.append(SweepRow(L, float("nan"), float("nan"), float("nan"),
                                 0, error=str(exc)))
    good = [r for r in rows if r.error is None]
    if len(good) < 2:
        slope_eps = slope_psi = float("nan")
    else:
        Ls = [r.L for r in good]
        slope_eps = decay_slope(Ls, [r.eps for r in good])
        slope_psi = decay_slope(Ls, [r.psi_sup for r in good])
    return SweepResult(rows=tuple(rows), slope_eps=slope_eps, slope_psi=slope_psi)


def sweep_csv(sweep: SweepResult) -> str:
    """Render a sweep as CSV (failed rows keep nan markers)."""
    buf = io.StringIO()
    buf.write("L,eps,psi_sup,resid,iters\n")
    for r in sweep.rows:
        buf.write(f"{r.L:.6g},{r.eps:.12g},{r.psi_sup:.12g},{r.resid:.6g},{r.iters}\n")
    return buf.getvalue()


def _branch_window(prm: Params, tol: float) -> float:
    """Right end T of the cosine-transform window: the reduced kernel decays
    like e^{-gamma_s t}, so the dropped tail is below tol relative to F(0)
    once gamma_s T > ln(1/tol), plus a margin of five decay lengths.  The
    cap T <= 700 bounds the fixed rule at 1400 half-unit panels (about 34k
    kernel values); a gamma_s that needs more decays too slowly for it."""
    T = max(60.0, (np.log(1.0 / tol) + 5.0) / prm.gamma_s)
    if T > 700.0:
        raise ValueError(
            f"branch-point window {T:.0f} exceeds 700, the cap of the fixed "
            f"rule (gamma_s = {prm.gamma_s:.3g} decays too slowly)")
    return T


def _kernel_cosine_rule(prm: Params, tol: float):
    """(t, w * R(t)) of the 16- and the 8-point composite Gauss rules on the
    window [0, T]: panels halve geometrically toward the t log t kink at
    t = 0 and are at most 0.5 wide beyond t = 0.5.  One kernel call serves
    both rules."""
    T = _branch_window(prm, tol)
    (t16, w16), (t8, w8) = (gauss_panels(graded_edges(T, 0.5), order)
                            for order in (16, 8))
    R = riesz_kernel_cyl(np.concatenate([t16, t8]), prm)
    return (t16, w16 * R[:len(t16)]), (t8, w8 * R[len(t16):])


def bifurcation_half_period(prm: Params, tol: float = 1e-10) -> float:
    """Half-period where tower solutions split off the constant branch.

    Linearizing the collocation fixed point at the flat profile gives the
    mode-1 condition p * F(pi/L) = F(0) with F the cosine transform of the
    reduced kernel, its root bracketed in [0.01, 8] and found to a
    relative tol/10 (at least 4 eps); the normalization constants cancel,
    so the threshold depends on (n, sigma) only.  Below the returned L the
    flat profile is the only positive even periodic solution.

    F(w) = 2 int_0^T R(t) cos(w t) dt is a dot product on a fixed graded
    rule (window T from ``_branch_window``).  F(0) and F at the root are
    checked against the 8-point rule on the same panels; a gap above
    tol * F(0) raises QuadratureError.
    """
    (t, wR), (t8, wR8) = _kernel_cosine_rule(prm, tol)

    def ft(w: float) -> float:
        return 2.0 * float(wR @ np.cos(w * t))

    f0 = ft(0.0)
    w_star = brentq(lambda w: ft(w) - f0 / prm.p, 1e-2, 8.0,
                    xtol=np.finfo(float).tiny,
                    rtol=max(tol / 10.0, 4.0 * np.finfo(float).eps))
    check_rules([f0, ft(w_star)],
                [2.0 * float(wR8 @ np.cos(w * t8)) for w in (0.0, w_star)],
                tol, "branch-point cosine transform")
    return float(np.pi / w_star)
