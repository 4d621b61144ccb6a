"""Periodic cylindrical solutions by collocation and damped Newton.

In log coordinates the singular radial problem becomes a 2L-periodic fixed
point v = dual_const * R_per * v^p for the bounded reduced kernel R, with
the closed-form constant ``Params.dual_const`` of the dual map.  The
operator has a closed-form Fourier symbol: with Theta_0 the symbol of the
conformal fractional Laplacian on R x S^(n-1),

    Theta_0(xi) = 4^sigma |Gamma((n+2 sigma)/4 + i xi/2)|^2
                  / |Gamma((n-2 sigma)/4 + i xi/2)|^2,

dual_const * R^(xi) = q_ns / Theta_0(xi) (DelaTorre, del Pino, Gonzalez &
Wei, Math. Ann. 2017), and Theta_0(0) = c_ns.  The solver collocates on
the 2m-point periodic grid with the m + 1 nodes of [0, L] as unknowns
(evenness is structural): on even vectors the operator is the cosine
series with eigenvalues q_ns / Theta_0(pi j/L), one DCT-I pair, so the
nodes carry the exact operator's fixed point and no image sum is formed.
The profile is analytic in a strip, so m grows like L, not like the output
grid M: Newton with a positivity-preserving line search takes each step by
LU on the dense (m+1)^2 operator, and the zero-padded cosine series puts v
on the M-point grid.  The solver reports the neck value v(0), the defect
psi against the periodized profile sum and the inverse Jacobian's norm.
The branch point of the tower family is a root of the same symbol.

Phase convention: profile peaks sit at odd multiples (1+2j)L so the neck,
the minimum of v, is at t = 0.  The two printed phase choices differ by a
half-period shift of the same solution; pinning the neck at the origin is
what makes v(0) the decaying quantity the sweeps fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.fft import dct, idct
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import loggamma

from .params import Params, _check_finite, _check_tol
from .bubbles import cyl_coefficient
from .kernels import decay_slope

__all__ = [
    "CylSolution",
    "NewtonError",
    "solve_periodic",
    "radial_profile",
    "neck_sweep",
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
    """Discrete 2L-periodic solution on the symmetric grid [-L, L], after
    n_iter Newton steps; jac_inv_norm is the max norm of the inverse
    Newton Jacobian at the solution (in floating point)."""

    L: float
    grid: np.ndarray
    v: np.ndarray
    psi: np.ndarray
    neck: float
    residual_norm: float
    n_iter: int
    jac_inv_norm: float

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


def _log_symbol(xi, prm: Params):
    """ln Theta_0(xi), the Gamma ratio of the module docstring."""
    z = 0.5j * np.asarray(xi, dtype=float)
    return prm.sigma * np.log(4.0) + 2.0 * (
        loggamma(0.5 * prm.gamma_dual + z).real
        - loggamma(0.5 * prm.gamma_s + z).real)


def _collocation_symbol(L: float, m: int, prm: Params) -> np.ndarray:
    """Eigenvalues of (A w) = dual_const * R_per * w on the m + 1 nodes,
    entry j for cos(pi j t/L): q_ns / Theta_0(pi j/L), j = 0..m."""
    return prm.q_ns * np.exp(-_log_symbol(np.pi / L * np.arange(m + 1), prm))


def _collocation_apply(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A w for the operator of eigenvalues lam, w on the m + 1 nodes."""
    return idct(lam * dct(w, type=1), type=1)


# Newton stops once max |v - A v^p| on the nodes is at most this
NEWTON_TOL = 1e-10


def _check_grid(M: int) -> None:
    if M < 200 or M % 2:
        raise ValueError(f"grid size must be even and >= 200: {M}")


def _modes(L: float, M: int) -> int:
    """Newton's cosine modes: the profile is analytic in the strip
    |Im t| < pi/2, so its coefficients fall like e^(-pi^2 j/(2L)) and reach
    1e-15 of the first by j = 7.0 L; 16 more modes are the margin."""
    return min(M // 2, int(np.ceil(7.5 * L)) + 16)


def solve_periodic(L: float, prm: Params, M: int = 800) -> CylSolution:
    """Solve the periodic problem at half-period L, resampled to an
    M-point grid.

    Newton runs on the m + 1 nodes of [0, L] of `_modes`, each step a
    dense LU solve until the residual is at most NEWTON_TOL; the damped
    step halves until positivity and residual decrease both hold, and
    NewtonError after 60 steps.  The profile is
    even by construction and strictly positive; its DCT-I coefficients,
    zero-padded, put it on the M-point grid.  NewtonError also when the
    last three coefficients exceed 1e-14 of the first (m too small).
    """
    _check_finite("L", L)
    if L < 1.5:
        raise ValueError(f"half-period too small: {L} < 1.5")
    _check_grid(M)
    m = _modes(L, M)
    ts = np.linspace(0.0, L, m + 1)
    eye = np.eye(m + 1)
    A = _collocation_apply(_collocation_symbol(L, m, prm), eye).T
    Jper = _periodization_order(L, prm)
    v = _tower_profile(ts, L, prm, Jper + 1)

    def jacobian(w: np.ndarray) -> np.ndarray:
        return eye - A * (prm.p * w ** (prm.p - 1.0))

    F = v - A @ v**prm.p
    norm = float(np.max(np.abs(F)))
    it = 0
    while norm > NEWTON_TOL:
        if it >= 60:
            raise NewtonError("iteration budget exhausted", norm, it)
        step = np.linalg.solve(jacobian(v), -F)
        alpha = 1.0
        for _ in range(50):
            cand = v + alpha * step
            if np.all(cand > 0.0):
                Fc = cand - A @ cand**prm.p
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
    c = dct(v, type=1)
    if np.max(np.abs(c[-3:])) > 1e-14 * abs(c[0]):
        raise NewtonError(f"profile not resolved by {m} cosine modes", norm, it)
    jac_inv_norm = float(np.linalg.norm(np.linalg.inv(jacobian(v)), np.inf))
    if m < M // 2:
        # the same cosine series on the M/2 + 1 nodes: the DCT-I scaled to
        # the new length, its last mode counted once on m nodes, twice here
        c *= (M // 2) / m
        c[m] *= 0.5
        v = idct(np.pad(c, (0, M // 2 - m)), type=1)
        ts = np.linspace(0.0, L, M // 2 + 1)

    grid = np.concatenate([-ts[:0:-1], ts])
    v_full = np.concatenate([v[:0:-1], v])
    psi_full = v_full - _tower_profile(grid, L, prm, Jper + 1)
    return CylSolution(L=float(L), grid=grid, v=v_full, psi=psi_full,
                       neck=float(v[0]), residual_norm=norm, n_iter=it,
                       jac_inv_norm=jac_inv_norm)


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


def neck_sweep(L_list: Sequence[float], prm: Params,
               M: int = 800) -> SweepResult:
    """Solve along increasing L and fit the two decay laws.

    A bad M raises ValueError before any solve; solver failures
    are kept as marked rows, and the slopes use the successful entries.
    """
    L_arr = [float(L) for L in L_list]
    if len(L_arr) < 3:
        raise ValueError("need at least three half-periods for a slope fit")
    known = [L for L in L_arr if not np.isnan(L)]  # NaN rows are marked
    if any(b <= a for a, b in zip(known, known[1:])):
        raise ValueError("half-periods must be strictly increasing")
    _check_grid(M)
    rows = []
    for L in L_arr:
        try:
            sol = solve_periodic(L, prm, M=M)
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


def bifurcation_half_period(prm: Params, tol: float = 1e-10) -> float:
    """Half-period where tower solutions split off the constant branch.

    Linearizing the fixed point at the flat profile gives the mode-1
    condition p * R^(pi/L) = R^(0), that is Theta_0(pi/L) = p * c_ns: a root
    of the closed-form symbol, bracketed in [0.01, 8] and found by `brentq`
    on ln Theta_0 to a relative tol/10 (at least 4 eps).  The normalization
    constants cancel, so the threshold depends on (n, sigma) only.  Below
    the returned L the flat profile is the only positive even periodic
    solution.  ValueError for a tol that is not finite and positive.
    """
    _check_tol(tol)
    w_star = brentq(lambda w: _log_symbol(w, prm) - np.log(prm.p * prm.c_ns),
                    1e-2, 8.0, xtol=np.finfo(float).tiny,
                    rtol=max(tol / 10.0, 4.0 * np.finfo(float).eps))
    return float(np.pi / w_star)
