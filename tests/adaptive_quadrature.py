"""Adaptive quadrature in R^n: the dual map and projection integrals as the
library computed them before they moved onto the meridian half-plane, kept
as oracles.

Balls about the centers run in the log-radius with scipy `quad`, and the far
region in shells about the evaluation point, whose radial weight r^(2s-1)
absorbs the kernel singularity; the angles about the line come from Gauss-
Jacobi rules.  Each sample evaluates u afresh on its own points, so this is
slow (about a second per sample at tol 1e-7) but shares nothing with the
meridian path beyond `cutoff` and the partition radii.  `dual_apply_radial`
is the one-dimensional map for functions radial about one center, on
`quad` as the library ran it before its fixed panels.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_legendre

from qcurv.assembler import (INT_OFF, INT_ON, ApproxSolution, _complete_frame,
                             cutoff)
from qcurv.bubbles import bubble_eval, kernel_Z
from qcurv.kernels import riesz_kernel_cyl
from qcurv.params import nonlin, nonlin_prime


@lru_cache(maxsize=8)
def _omega_ring(n: int) -> float:
    # |S^{n-3}|, the symmetry group orbit collapsed by the two-angle reduction
    return float(2.0 * np.pi ** ((n - 2) / 2.0) / math.gamma((n - 2) / 2.0))


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


# log-radius where the ball integrals stop unless a deeper level needs more;
# e^-36 is about the double-precision spacing of unit-size coordinates
TAU_MAX = 36.0


def _far_weight(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    W = np.ones(pts.shape[:-1])
    for c in centers:
        W = W - cutoff(np.linalg.norm(pts - c, axis=-1), INT_ON, INT_OFF)
    return W


def _frame(axis: np.ndarray,
           v_pref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit v along v_pref's part orthogonal to axis (zero when it has
    none), and `_complete_frame`'s w orthogonal to both."""
    v = v_pref - (v_pref @ axis) * axis
    nv = np.linalg.norm(v)
    return (v / nv if nv > 1e-13 else np.zeros_like(v),
            _complete_frame(axis, v_pref))


def _dirs(axis: np.ndarray, v_pref: np.ndarray, zs: np.ndarray,
          Kc: int) -> tuple[np.ndarray, np.ndarray]:
    """Angular rule: directions (Kz, Kc, n) at polar cosines zs about axis,
    and the in-plane weights.  The in-plane cosine runs towards v_pref's part
    orthogonal to axis; Kc = 1, or no such part, collapses it to one node,
    exact for integrands symmetric about that plane."""
    n = axis.shape[0]
    v_hat, w_hat = _frame(axis, v_pref)
    if Kc == 1 or np.linalg.norm(v_hat) < 0.5:
        # one node carrying int (1-c^2)^((n-4)/2) dc over [-1, 1]
        cs = np.zeros(1)
        cws = np.array([np.sqrt(np.pi) * math.gamma((n - 2) / 2.0)
                        / math.gamma((n - 1) / 2.0)])
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


def dual_integral(u: ApproxSolution, F, x: np.ndarray, tol: float) -> float:
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


def plain_integral(u: ApproxSolution, G, lam: float, tol: float) -> float:
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


def dual_apply(u, x, tol):
    """The dual map at x on the adaptive path."""
    prm = u.prm
    return float(prm.dual_const * dual_integral(
        u, lambda pts: u(pts) ** prm.p, np.asarray(x, dtype=float), tol))


def dual_apply_radial(u_fn, center, x, prm, tol):
    """The radial dual map as `assembler.dual_apply_radial` computed it
    before it moved onto fixed panels: scipy `quad` on the window +-45 about
    t = -ln|x - center| (about 0 at the center), with the closed-form
    constant."""
    center = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
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
        return float(prm.dual_const * prm.omega_sphere * val)

    t = -np.log(rho)

    def f(tau):
        return float(riesz_kernel_cyl(t - tau, prm) * v_in(tau)[0] ** prm.p)

    val, _ = quad(f, t - 45.0, t + 45.0, epsabs=1e-14, epsrel=tol,
                  limit=400, points=[t])
    return float(prm.dual_const * rho ** (-g) * val)


def beta_projection(u, idx, tol):
    """The projection integral of `assembler.beta_projection` on the
    adaptive path (no index checks)."""
    prm = u.prm
    cfg = u.towers[idx.tower]
    b = cfg.level_bubble(idx.level)

    def G(pts):
        U = bubble_eval(pts, b, prm)
        uv = u(pts)
        core = (nonlin_prime(U, prm) * uv - nonlin(uv, prm)
                - (prm.p - 1.0) * nonlin(U, prm))
        return core * kernel_Z(pts, idx, cfg, prm)

    return plain_integral(u, G, b.lam, tol)
