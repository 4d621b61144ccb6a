"""Multi-point approximate solutions, the dual operator, residuals, and
cokernel projections.

The assembled function is sum_i [deformed half tower_i + cutoff_i * phi_i],
where phi_i is the exact periodic profile about x_i minus its full
two-sided bubble tower: the small remainder left once every bubble is
accounted for.  Near a point the function is the half tower plus that
remainder - the outward (mirror) levels of the periodic profile are gone
both in value and in mass, replaced by the other points' towers; far away
only the decaying half-tower levels survive.

Integrals run over a decomposition into unit balls (log-radial coordinates
about each center, where the center singularity turns into exponential
decay) and a smoothly-weighted far region (shells about the evaluation
point, whose 2 sigma - 1 radial weight absorbs the kernel singularity).
Angular integrals reduce exactly to two variables - polar angle and an
in-plane cosine - whenever the marked points sit on one line and the
perturbation shifts are axial; that covers every shipped diagnostic, and
the same quadrature acts as a documented low-order approximation otherwise.

The projection of the residual on a cokernel direction never touches the
inverse operator: pairing with f'(U) Z and moving the Riesz kernel onto the
kernel direction (where it reproduces Z exactly) collapses it to

    beta = int [f'(U_j) u - f(u) - (p-1) f(U_j)] Z_j dx,

whose integrand vanishes identically at u = U_j; the (p-1) f(U_j) Z_j piece
integrates to zero analytically (critical-exponent scale invariance), so
including it also cancels the dominant quadrature error near the center.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import roots_jacobi, roots_legendre

from .params import Params, gamma_fn, nonlin, nonlin_prime
from .kernels import cached_kappa, riesz_kernel_cyl
from .bubbles import TowerConfig, KernelIndex, bubble_eval, kernel_Z, tower_eval
from .balancing import BalancedConfig
from .delaunay import CylSolution, solve_periodic, delaunay_to_rn

__all__ = [
    "ApproxSolution",
    "WeightSpec",
    "ResidualReport",
    "assemble",
    "assemble_single",
    "cutoff",
    "dual_apply",
    "dual_apply_radial",
    "residual",
    "beta_projection",
    "beta_leading_form",
    "require_reduction",
    "weighted_fn_norm",
    "sample_grid",
    "mc_probe",
]


# ─────────────────────────────────────────────────────────────────────────────
# cutoff and cached kernel machinery


def cutoff(s: np.ndarray, on: float = 0.5, off: float = 1.0) -> np.ndarray:
    """Smooth monotone bump: exactly 1 on [0, on], exactly 0 on [off, inf)."""
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


@lru_cache(maxsize=8)
def _kernel_spline(prm: Params) -> CubicSpline:
    # reduced kernel table; the derivative has a t*log(t) kink at 0, so the
    # grid clusters there geometrically
    ts = np.concatenate([[0.0], np.geomspace(1e-4, 0.5, 300),
                         np.arange(0.52, 60.0, 0.02)])
    vals = riesz_kernel_cyl(ts, prm, tol=1e-11)
    return CubicSpline(ts, vals)


def _rhat(dt: np.ndarray, prm: Params) -> np.ndarray:
    sp = _kernel_spline(prm)
    a = np.abs(np.asarray(dt, dtype=float))
    out = np.zeros_like(a)
    inside = a < 60.0
    out[inside] = sp(a[inside])
    return out


@lru_cache(maxsize=8)
def _omega_ring(n: int) -> float:
    # |S^{n-3}|, the symmetry group orbit collapsed by the two-angle reduction
    return float(2.0 * np.pi ** ((n - 2) / 2.0) / gamma_fn((n - 2) / 2.0))


@lru_cache(maxsize=32)
def _angular_nodes(n: int, kind: str, K: int):
    if kind == "polar":           # integral against (1-z^2)^((n-3)/2)
        return roots_jacobi(K, (n - 3) / 2.0, (n - 3) / 2.0)
    if kind == "plane":           # integral against (1-c^2)^((n-4)/2)
        return roots_jacobi(K, (n - 4) / 2.0, (n - 4) / 2.0)
    if kind == "peak":            # Legendre nodes on [0, sqrt(2)] for w
        x, w = roots_legendre(K)
        return 0.5 * np.sqrt(2.0) * (x + 1.0), 0.5 * np.sqrt(2.0) * w
    raise ValueError(kind)


def _complete_frame(u_hat: np.ndarray, v_pref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit v orthogonal to u along v_pref's residual, plus any w beyond both."""
    n = u_hat.shape[0]
    v = v_pref - (v_pref @ u_hat) * u_hat
    nv = np.linalg.norm(v)
    v = v / nv if nv > 1e-13 else np.zeros(n)
    for k in range(n):
        w = np.zeros(n)
        w[k] = 1.0
        w -= (w @ u_hat) * u_hat
        if nv > 1e-13:
            w -= (w @ v) * v
        nw = np.linalg.norm(w)
        if nw > 0.5:
            return v, w / nw
    raise RuntimeError("degenerate frame")


# ─────────────────────────────────────────────────────────────────────────────
# assembled approximate solution


@dataclass(frozen=True)
class ApproxSolution:
    prm: Params
    centers: np.ndarray              # (N, n)
    towers: tuple[TowerConfig, ...]       # deformed
    base_towers: tuple[TowerConfig, ...]  # zero perturbation
    cyls: tuple[CylSolution, ...]
    baselines: np.ndarray            # R^i
    balanced: BalancedConfig | None
    kappa: float
    cut_on: float = 0.5
    cut_off: float = 1.0

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    @property
    def axis(self) -> np.ndarray:
        if self.size == 1:
            e = np.zeros(self.centers.shape[1])
            e[0] = 1.0
            return e
        a = self.centers[-1] - self.centers[0]
        return a / np.linalg.norm(a)

    @property
    def origin(self) -> np.ndarray:
        return self.centers.mean(axis=0)

    def collinear(self, tol: float = 1e-12) -> bool:
        if self.size <= 2:
            return True
        d = self.centers - self.centers[0]
        off = d - np.outer(d @ self.axis, self.axis)
        return bool(np.max(np.linalg.norm(off, axis=1)) <= tol)

    def axisymmetric(self, tol: float = 1e-13) -> bool:
        """All perturbation shifts along the singular line."""
        if not self.collinear():
            return False
        a = self.axis
        for cfg in self.towers:
            off = cfg.shifts - np.outer(cfg.shifts @ a, a)
            if np.max(np.abs(off)) > tol:
                return False
        return True

    @property
    def is_radial(self) -> bool:
        return (self.size == 1
                and np.max(np.abs(self.towers[0].shifts)) == 0.0
                and np.max(np.abs(self.towers[0].dilations)) == 0.0)

    def tower_sum(self, x: np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for cfg in self.towers:
            out = out + tower_eval(x, cfg, self.prm, half=True)
        return float(out) if out.ndim == 0 else out

    def correction(self, x: np.ndarray, i: int) -> float | np.ndarray:
        """phi_i: exact periodic profile about x_i minus its two-sided tower.

        The subtraction includes the outward (negative-level) bubbles, so
        phi_i is the genuinely small periodic remainder: keeping those
        levels in the subtraction is what makes the glued function lose the
        outward bubbles entirely instead of keeping their near-field values
        while the cutoff discards their mass.
        """
        x = np.asarray(x, dtype=float)
        R = self.baselines[i]
        prof = R ** (-self.prm.gamma_s) * delaunay_to_rn(
            self.cyls[i], (x - self.centers[i]) / R, self.prm)
        return prof - tower_eval(x, self.base_towers[i], self.prm, half=False)

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x.reshape(-1, x.shape[-1])
        out = np.zeros(pts.shape[0])
        for cfg in self.towers:
            out += tower_eval(pts, cfg, self.prm, half=True)
        for i in range(self.size):
            s = np.linalg.norm(pts - self.centers[i], axis=-1)
            chi = cutoff(s, self.cut_on, self.cut_off)
            live = chi > 0.0
            if np.any(live):
                out[live] += chi[live] * self.correction(pts[live], i)
        return float(out[0]) if single else out.reshape(x.shape[:-1])


def _build_towers(centers, baselines, periods, a0_hat, perturb, prm,
                  levels, tau):
    towers, base = [], []
    n = centers.shape[1]
    for i in range(centers.shape[0]):
        lam = baselines[i] * np.exp(-(1.0 + 2.0 * np.arange(levels + 1))
                                    * periods[i])
        if perturb is None:
            r = np.zeros(levels + 1)
            a_tilde = np.zeros((levels + 1, n))
        else:
            r, a_tilde = perturb[i]
            r = np.asarray(r, dtype=float)
            a_tilde = np.asarray(a_tilde, dtype=float)
            if r.shape != (levels + 1,) or a_tilde.shape != (levels + 1, n):
                raise ValueError("perturbation shape mismatch with levels")
        shifts = lam[:, None] ** 2 * (a0_hat[i][None, :] + a_tilde)
        towers.append(TowerConfig(
            index=i, center=centers[i], period=periods[i], levels=levels,
            baseline=baselines[i], dilations=r, shifts=shifts, tau=tau,
            shift_bound=max(1.0, 2.0 * float(np.linalg.norm(a0_hat[i])) + 1.0)))
        base.append(TowerConfig(
            index=i, center=centers[i], period=periods[i], levels=levels,
            baseline=baselines[i], tau=tau))
    return tuple(towers), tuple(base)


def assemble(balanced: BalancedConfig, prm: Params,
             perturb: list[tuple[np.ndarray, np.ndarray]] | None = None,
             levels: int = 6, M: int = 400, solver_tol: float = 1e-10,
             tau: float = 0.5) -> ApproxSolution:
    centers = balanced.sigma_set.points
    kappa = cached_kappa(prm)
    sols = {}
    for L in balanced.L_i:
        key = round(float(L), 12)
        if key not in sols:
            sols[key] = solve_periodic(L, prm, M=M, tol=solver_tol,
                                       kappa=kappa)
    cyls = tuple(sols[round(float(L), 12)] for L in balanced.L_i)
    towers, base = _build_towers(centers, balanced.R, balanced.L_i,
                                 balanced.a0_hat, perturb, prm, levels, tau)
    return ApproxSolution(prm=prm, centers=centers, towers=towers,
                          base_towers=base, cyls=cyls,
                          baselines=np.asarray(balanced.R, dtype=float),
                          balanced=balanced, kappa=kappa)


def assemble_single(center: np.ndarray, R: float, L: float, prm: Params,
                    levels: int = 6, M: int = 400,
                    solver_tol: float = 1e-10,
                    perturb: list[tuple[np.ndarray, np.ndarray]] | None = None,
                    tau: float = 0.5) -> ApproxSolution:
    """One-point assembly (the pipeline null test); no balancing involved."""
    center = np.asarray(center, dtype=float)
    kappa = cached_kappa(prm)
    cyl = solve_periodic(L, prm, M=M, tol=solver_tol, kappa=kappa)
    a0 = np.zeros((1, center.shape[0]))
    towers, base = _build_towers(center[None, :], np.array([float(R)]),
                                 np.array([float(L)]), a0, perturb, prm,
                                 levels, tau)
    return ApproxSolution(prm=prm, centers=center[None, :], towers=towers,
                          base_towers=base, cyls=(cyl,),
                          baselines=np.array([float(R)]), balanced=None,
                          kappa=kappa)


# ─────────────────────────────────────────────────────────────────────────────
# region quadrature: log-radial balls about the centers, shells elsewhere
#
# One ball driver and one shell driver serve the dual map and the
# projections alike.  The angular rule, the kernel factor, the radial power
# and the break points come in as data.

# integration partition, wider than the assembly cutoff: the far region then
# only sees the function at distance >= INT_ON from the marked points, where
# its p-th power has no sharp features left for the shell quadrature to miss.
# Enlarged balls may overlap; the far weight 1 - sum chi stays an exact
# partition regardless (it just goes negative on the overlap).
INT_ON, INT_OFF = 1.0, 2.0

# log-radius where the ball integrals stop unless a deeper level needs more;
# e^-36 is about the double-precision spacing of unit-size coordinates
TAU_MAX = 36.0


def _far_weight(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    W = np.ones(pts.shape[:-1])
    for c in centers:
        W = W - cutoff(np.linalg.norm(pts - c, axis=-1), INT_ON, INT_OFF)
    return W


def _dirs(axis: np.ndarray, v_pref: np.ndarray, zs: np.ndarray,
          Kc: int) -> tuple[np.ndarray, np.ndarray]:
    """Angular rule: directions (Kz, Kc, n) at polar cosines zs about axis,
    and the in-plane weights.  The in-plane cosine runs towards v_pref's part
    orthogonal to axis; Kc = 1, or no such part, collapses it to one node,
    exact for integrands symmetric about that plane."""
    n = axis.shape[0]
    v_hat, w_hat = _complete_frame(axis, v_pref)
    if Kc == 1 or np.linalg.norm(v_hat) < 0.5:
        # one node carrying int (1-c^2)^((n-4)/2) dc over [-1, 1]
        cs = np.zeros(1)
        cws = np.array([np.sqrt(np.pi) * gamma_fn((n - 2) / 2.0)
                        / gamma_fn((n - 1) / 2.0)])
    else:
        cs, cws = _angular_nodes(n, "plane", Kc)
    sin_pol = np.sqrt(np.clip(1.0 - zs ** 2, 0.0, None))
    dirs = (zs[:, None, None] * axis
            + sin_pol[:, None, None] * (cs[None, :, None] * v_hat
            + np.sqrt(1.0 - cs ** 2)[None, :, None] * w_hat))
    return dirs, cws


def _ball(u: ApproxSolution, G, i: int, dirs: np.ndarray, zw: np.ndarray,
          cw: np.ndarray, tol: float, epsabs: float, tau_hi: float = TAU_MAX,
          peak: tuple[float, np.ndarray] | None = None,
          breaks: tuple[float, ...] = ()) -> float:
    """int over the ball about x_i of G(y) chi_i(y) [times the kernel], in
    the log-radius tau = -ln|y - x_i| up to tau_hi.

    peak = (rho, w) gives the Riesz kernel |x-y|^(2s-n) for an evaluation
    point at distance rho along the polar axis of polar nodes 1 - w^2:
    ((rho - s)^2 + 2 rho s w^2)^(-gamma_s); None means kernel 1.
    """
    prm = u.prm
    n, g = prm.n, prm.gamma_s
    center = u.centers[i]
    tau_lo = -np.log(INT_OFF)

    def slice_val(tau):
        s = np.exp(-tau)
        chi = cutoff(s, INT_ON, INT_OFF)
        if chi == 0.0:
            return 0.0
        pts = center[None, None, :] + s * dirs
        vals = G(pts)
        kern = 1.0
        if peak is not None:
            rho, w = peak
            kern = (((rho - s) ** 2 + 2.0 * rho * s * w ** 2) ** (-g))[:, None]
        inner = np.sum(zw[:, None] * kern * cw[None, :] * vals)
        return float(_omega_ring(n) * chi * s ** n * inner)

    pts_arg = [b for b in breaks if tau_lo < b < tau_hi] or None
    val, _ = quad(slice_val, tau_lo, tau_hi, epsabs=epsabs, epsrel=tol,
                  limit=300, points=pts_arg)
    return val


def _shell(u: ApproxSolution, G, x0: np.ndarray, dirs: np.ndarray,
           zw: np.ndarray, cw: np.ndarray, power: float, tol: float,
           epsabs: float) -> float:
    """int over the far region of G(y) (1 - sum chi_i(y)), in shells
    |y - x0| = r with radial weight r^power, broken where a shell enters or
    leaves a cutoff annulus."""
    n = u.prm.n

    def shell(r):
        pts = x0[None, None, :] + r * dirs
        W = _far_weight(pts, u.centers)
        if np.max(np.abs(W)) == 0.0:
            return 0.0
        vals = G(pts) * W
        inner = np.sum(zw[:, None] * cw[None, :] * vals)
        return float(_omega_ring(n) * r ** power * inner)

    dists = [float(np.linalg.norm(x0 - c)) for c in u.centers]
    breaks = sorted({b for d in dists
                     for b in (d - INT_OFF, d - INT_ON, d + INT_ON,
                               d + INT_OFF) if 0.0 < b < 80.0})
    val, _ = quad(shell, 0.0, 80.0, epsabs=epsabs, epsrel=tol, limit=400,
                  points=breaks or None)
    return val


# ─────────────────────────────────────────────────────────────────────────────
# dual operator


def dual_apply_radial(u_fn, center: np.ndarray, x: np.ndarray, prm: Params,
                      tol: float = 1e-9, kappa: float | None = None) -> float:
    """Riesz image of f(u) for u radial about one center: the angular
    integral collapses onto the reduced cylindrical kernel."""
    center = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    kap = cached_kappa(prm) if kappa is None else kappa
    g = prm.gamma_s
    ray = np.zeros_like(center)
    ray[0] = 1.0

    def v_in(taus):
        taus = np.atleast_1d(taus)
        pts = center[None, :] + np.exp(-taus)[:, None] * ray[None, :]
        return np.exp(-g * taus) * np.asarray(u_fn(pts))

    rho = float(np.linalg.norm(x - center))
    if rho == 0.0:
        def f0(tau):
            return float((np.exp(g * tau) * v_in(tau) ** prm.p)[0])
        val, _ = quad(f0, -45.0, 45.0, epsabs=1e-14, epsrel=tol, limit=300)
        return float(prm.c_ns * kap * prm.omega_sphere * val)

    t = -np.log(rho)

    def f(tau):
        return float((_rhat(np.atleast_1d(t - tau), prm)
                      * v_in(tau) ** prm.p)[0])

    val, _ = quad(f, t - 45.0, t + 45.0, epsabs=1e-14, epsrel=tol,
                  limit=400, points=[t])
    return float(prm.c_ns * kap * rho ** (-g) * val)


def _require_line(u: ApproxSolution) -> None:
    if not u.collinear():
        raise NotImplementedError(
            "deterministic quadrature requires marked points on one line; "
            "rotate the configuration or use mc_probe")


def require_reduction(u: ApproxSolution) -> None:
    """Raise NotImplementedError unless the projections' deterministic
    reduction applies: marked points on one line along a coordinate axis."""
    _require_line(u)
    if u.size > 1 and np.max(np.abs(u.axis)) < 1.0 - 1e-12:
        raise NotImplementedError(
            "projection quadrature needs the singular line along a "
            "coordinate axis")


def _dual_integral(u: ApproxSolution, F, x: np.ndarray, tol: float) -> float:
    """int |x-y|^(2s-n) F(y) dy: per ball a peak-resolving polar angle about
    the direction of x, then shells about x, whose radial weight r^(2s-1)
    absorbs the kernel singularity."""
    n = u.prm.n
    ws, wws = _angular_nodes(n, "peak", 32)
    wmeas = 2.0 * wws * ws ** (n - 2) * (2.0 - ws ** 2) ** ((n - 3) / 2.0)
    total = 0.0
    for i, center in enumerate(u.centers):
        rho = float(np.linalg.norm(x - center))
        dirs, cws = _dirs((x - center) / rho, u.axis, 1.0 - ws ** 2, 12)
        total += _ball(u, F, i, dirs, wmeas, cws, tol, 1e-14,
                       peak=(rho, ws), breaks=(-np.log(rho),))
    off = u.origin - x
    D0 = float(np.linalg.norm(off))
    reach = max(float(np.linalg.norm(c - u.origin)) for c in u.centers) \
        + INT_OFF
    if D0 > reach + 2.0:
        # distant evaluation point: aim the polar axis at the configuration
        # so its annuli land in the endpoint-clustered nodes
        a, v_pref = off / D0, u.axis
    else:
        a, v_pref = u.axis, -off
    # the marked-point annuli subtend a solid angle shrinking like 1/D, so
    # the polar order grows with the distance (quantized for caching)
    D = max(float(np.linalg.norm(x - c)) for c in u.centers)
    Kz = int(min(512, 32 * max(1, int(np.ceil(8.0 * D / 32.0)))))
    zs, zws = _angular_nodes(n, "polar", Kz)
    dirs, cws = _dirs(a, v_pref, zs, 12)
    return total + _shell(u, F, x, dirs, zws, cws, 2 * u.prm.sigma - 1, tol,
                          1e-14)


def dual_apply(u: ApproxSolution, x: np.ndarray, prm: Params | None = None,
               tol: float = 1e-8) -> float:
    """(-Delta)^{-sigma} of f applied to the assembled function at x."""
    prm = u.prm if prm is None else prm
    x = np.asarray(x, dtype=float)
    if u.is_radial:
        return dual_apply_radial(u, u.centers[0], x, prm, tol=tol,
                                 kappa=u.kappa)
    _require_line(u)

    def F(pts):
        return u(pts) ** prm.p

    return float(prm.c_ns * u.kappa * _dual_integral(u, F, x, tol))


def mc_probe(u: ApproxSolution, x: np.ndarray, prm: Params, n_samples: int,
             seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the dual operator at x (quadrature guard).

    Importance mixture: per-center log-radial draws matching the local
    blow-up, plus a heavy-tailed far component.
    """
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
    dens[far] += (2 * prm.sigma * rr[far] ** (-2 * prm.sigma - n + 1)
                  / prm.omega_sphere) / (N + 1)
    good = dens > 0.0
    vals = np.zeros(n_samples)
    kern = rr[good] ** (2 * prm.sigma - n)
    vals[good] = kern * u(ys[good]) ** prm.p / dens[good]
    est = prm.c_ns * u.kappa * float(np.mean(vals))
    err = prm.c_ns * u.kappa * float(np.std(vals) / np.sqrt(n_samples))
    return est, err


# ─────────────────────────────────────────────────────────────────────────────
# cokernel projections


def _plain_integral(u: ApproxSolution, G, lam: float, tol: float) -> float:
    """int G dy over R^n, for integrands that decay like e^(-gamma_s |tau|)
    in the log-distance tau from a bubble of scale lam: polar angle about the
    line, the balls run until that tail is below tol."""
    n = u.prm.n
    a = u.axis
    tau_hi = max(TAU_MAX, -np.log(lam) - np.log(tol) / u.prm.gamma_s)
    zs, zws = _angular_nodes(n, "polar", 20)
    # centers sit on the line, so the polar angle about the axis suffices
    dirs, cws = _dirs(a, np.roll(a, 1), zs, 1)
    total = sum(_ball(u, G, k, dirs, zws, cws, tol, 1e-15, tau_hi=tau_hi)
                for k in range(u.size))
    total += _shell(u, G, u.origin, dirs, zws, cws, n - 1, tol, 1e-15)
    return float(total)


def beta_projection(u: ApproxSolution, idx: KernelIndex,
                    prm: Params | None = None, tol: float = 1e-9) -> float:
    """Projection of the residual on the (tower, level, mode) direction.

    The quadrature nodes sit at absolute coordinates x_i + s*dir, which are
    rounded to the double spacing delta = |x_i|*eps at the level's center
    x_i, so inside the level's core (s ~ lam_j) every integrand value carries
    a relative error of about delta/lam_j.  A level with delta/lam_j > tol
    cannot be resolved to tol and raises ValueError.  On the balanced pair
    3 apart (n=5, sigma=1.5) the normalised pairing int f'(U_j) Z_j^2 of the
    tower at 3*e1 was off by 3e-4 to 0.07 times delta/lam_j over levels with
    delta/lam_j from 1e-7 to 0.7 (L = 2.5..3.5), and by 13x at
    delta/lam_j = 169; a tower at the origin has delta = 0.
    """
    prm = u.prm if prm is None else prm
    require_reduction(u)
    i = idx.tower
    if not (0 <= i < u.size):
        raise ValueError(f"tower {i} out of range")
    cfg = u.towers[i]
    if idx.level > cfg.levels or idx.mode > prm.n:
        raise ValueError("index outside the truncation")
    if idx.mode >= 1:
        axis_comp = abs(float(u.axis[idx.mode - 1]))
        if axis_comp < 1e-12:
            if u.axisymmetric():
                return 0.0  # odd integrand across the symmetry plane
            raise NotImplementedError(
                "transverse modes of non-axisymmetric perturbations are "
                "outside the deterministic reduction")
    b = cfg.level_bubble(idx.level)
    spacing = float(np.linalg.norm(b.center)) * np.finfo(float).eps
    if spacing > tol * b.lam:
        raise ValueError(
            f"level {idx.level} of tower {i} cannot be resolved to "
            f"tol={tol:g}: the double spacing at its center is "
            f"{spacing / b.lam:.3g} of its scale")

    def G(pts):
        U = bubble_eval(pts, b, prm)
        uv = u(pts)
        core = (nonlin_prime(U, prm) * uv - nonlin(uv, prm)
                - (prm.p - 1.0) * nonlin(U, prm))
        return core * kernel_Z(pts, idx, cfg, prm)

    return _plain_integral(u, G, b.lam, tol)


def beta_leading_form(u: ApproxSolution, i: int) -> float:
    """Printed leading bracket of the level-0 dilation projection."""
    if u.balanced is None:
        raise ValueError("needs a balanced multi-point configuration")
    prm = u.prm
    cfg = u.balanced
    g = prm.gamma_s
    d = cfg.sigma_set.distances
    q, R = cfg.q, cfg.R
    cross = sum(q[k] * (R[i] * R[k]) ** g * d[i, k] ** (-2.0 * g)
                for k in range(u.size) if k != i)
    from .interactions import const_A2
    return float(-prm.c_ns * q[i] * (const_A2(prm) * cross - q[i])
                 * np.exp(-g * cfg.L))


# ─────────────────────────────────────────────────────────────────────────────
# weighted norms, samples, residual report


@dataclass(frozen=True)
class WeightSpec:
    tau: float
    kind: str = "starstar"
    zeta1: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("star", "starstar"):
            raise ValueError("kind must be 'star' or 'starstar'")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def resolve(self, prm: Params) -> tuple[float, float]:
        """(near exponent, far exponent) as printed; the starstar table is
        asymmetric (n+tau near, -n+2 sigma far) and kept verbatim."""
        g = prm.gamma_s
        top = min(-g + 2 * prm.sigma, 0.0)
        z1 = self.zeta1 if self.zeta1 is not None else 0.5 * (-g + top)
        if not (-g < z1 < top):
            raise ValueError(f"zeta1 {z1} outside (-gamma_s, {top})")
        if self.kind == "star":
            return min(z1, -g + self.tau), -(prm.n + 2 * prm.sigma)
        return prm.n + self.tau, -prm.n + 2 * prm.sigma


def weighted_fn_norm(points: np.ndarray, values: np.ndarray,
                     tags: list[str], weight: WeightSpec,
                     sigma_set_points: np.ndarray, prm: Params) -> float:
    """Discrete sup proxy: near samples weighted dist^{-z_near}, far samples
    |x|^{-z_far}, transition plain.  NaN over zero samples."""
    if len(tags) == 0:
        return float("nan")
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    z_near, z_far = weight.resolve(prm)
    dists = np.min(np.linalg.norm(
        points[:, None, :] - sigma_set_points[None, :, :], axis=-1), axis=1)
    radii = np.linalg.norm(points, axis=-1)
    out = 0.0
    for k, tag in enumerate(tags):
        if tag.startswith("near"):
            w = dists[k] ** (-z_near)
        elif tag == "far":
            w = radii[k] ** (-z_far)
        else:
            w = 1.0
        out = max(out, w * abs(values[k]))
    return float(out)


NEAR_RADII = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)
TRANSITION_RADII = (0.6, 0.75, 0.9, 1.2, 1.5)
FAR_RADII = (3.0, 5.0, 8.0, 12.0, 20.0, 35.0, 50.0)


def sample_grid(u: ApproxSolution) -> tuple[np.ndarray, list[str]]:
    """Deterministic graded grid; near radii are absolute so that sweeps in
    the period compare like with like."""
    a = u.axis
    v_hat, _ = _complete_frame(a, np.roll(a, 1))
    pts, tags = [], []
    for i, c in enumerate(u.centers):
        for r in NEAR_RADII:
            for direction in (a, -a, v_hat):
                pts.append(c + r * direction)
                tags.append(f"near:{i}")
    o = u.origin
    for r in TRANSITION_RADII:
        for direction in (a, -a, v_hat):
            pts.append(u.centers[0] + r * direction)
            tags.append("transition")
    for r in FAR_RADII:
        for direction in (a, v_hat):
            pts.append(o + r * direction)
            tags.append("far")
    return np.asarray(pts), tags


@dataclass(frozen=True)
class ResidualReport:
    L: float
    weight_kind: str
    tau: float
    points: np.ndarray
    tags: tuple[str, ...]
    values: np.ndarray           # N_sigma(u) at the samples
    weighted_norm: float
    region_sup: dict
    mc_seed: int
    mc_checks: tuple
    errors: tuple

    def to_json(self) -> str:
        return json.dumps({
            "L": self.L,
            "weight_kind": self.weight_kind,
            "tau": self.tau,
            "points": self.points.tolist(),
            "tags": list(self.tags),
            "values": self.values.tolist(),
            "weighted_norm": self.weighted_norm,
            "region_sup": self.region_sup,
            "mc_seed": self.mc_seed,
            "mc_checks": list(self.mc_checks),
            "errors": list(self.errors),
        }, indent=2, sort_keys=True)


def residual(u: ApproxSolution, weight: WeightSpec,
             samples: tuple[np.ndarray, list[str]] | None = None,
             tol: float = 1e-8, mc_seed: int = 20240817,
             mc_points: int = 0, mc_samples: int = 200_000) -> ResidualReport:
    """N_sigma(u) = u - dual(u) over the sample grid, reported per region."""
    prm = u.prm
    pts, tags = sample_grid(u) if samples is None else samples
    vals = np.zeros(len(pts))
    errors = []
    for k, x in enumerate(pts):
        try:
            vals[k] = float(u(x)) - dual_apply(u, x, prm, tol=tol)
        except Exception as exc:  # per-sample propagation
            vals[k] = np.nan
            errors.append(f"sample {k}: {exc}")
    region_sup: dict = {}
    for k, tag in enumerate(tags):
        if np.isnan(vals[k]):
            continue
        region_sup[tag] = max(region_sup.get(tag, 0.0), abs(float(vals[k])))
    ok = ~np.isnan(vals)
    norm = weighted_fn_norm(pts[ok], vals[ok],
                            [t for k, t in enumerate(tags) if ok[k]],
                            weight, u.centers, prm)
    checks = []
    if mc_points > 0:
        rng = np.random.default_rng(mc_seed)
        pick = rng.choice(np.flatnonzero(ok), size=min(mc_points,
                                                       int(np.sum(ok))),
                          replace=False)
        for k in pick:
            est, err = mc_probe(u, pts[k], prm, mc_samples, mc_seed + int(k))
            det = float(u(pts[k])) - vals[k]  # the deterministic dual value
            checks.append({"sample": int(k), "mc": est, "det": det,
                           "mc_stderr": err})
    L = float(u.balanced.L) if u.balanced is not None \
        else float(u.towers[0].period)
    return ResidualReport(L=L, weight_kind=weight.kind, tau=weight.tau,
                          points=pts, tags=tuple(tags), values=vals,
                          weighted_norm=float(norm), region_sup=region_sup,
                          mc_seed=mc_seed, mc_checks=tuple(checks),
                          errors=tuple(errors))
