"""Cylindrical reduction of the Riesz kernel and its calibration.

The inverse operator acts on radial densities through a one-dimensional
convolution kernel obtained by integrating the Riesz kernel over spheres.
Two reductions appear: a bounded one (exponent ``gamma_s``) driving the
fixed-point equation, and a singular one (exponent ``gamma_dual``) used for
dual-side estimates.  Both are computed by adaptive quadrature after an
endpoint substitution ``1 - zeta = u^2`` that removes the surface-measure
and near-diagonal singularities.  The ring kernel, the Riesz kernel
integrated over the orbit of a point about a line, has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import gamma, hyp2f1

from .params import Params


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget."""


# ─────────────────────────────────────────────────────────────────────────────
# Reduced sphere integrals
# ─────────────────────────────────────────────────────────────────────────────


def _reduced_integral(ts: np.ndarray, g: float, n: int, tol: float) -> tuple[np.ndarray, float]:
    """Vectorized I(t) = int_{-1}^{1} (1-zeta^2)^{(n-3)/2} (cosh t - zeta)^{-g} dzeta.

    Split at zeta = 0 and substitute zeta = 1 - u^2 (resp. zeta = -1 + u^2)
    so both endpoint weights become the regular factor u^{n-2}.
    Returns (values, error_estimate).
    """
    ts = np.abs(np.asarray(ts, dtype=float))
    ch = np.cosh(ts)
    half = 0.5 * (n - 3)

    def upper(u: float) -> np.ndarray:
        # zeta in [0, 1]: near-diagonal factor cosh t - 1 + u^2
        w = 2.0 * u ** (n - 2) * (2.0 - u * u) ** half
        return w * (ch - 1.0 + u * u) ** (-g)

    def lower(u: float) -> np.ndarray:
        # zeta in [-1, 0]: factor cosh t + 1 - u^2 >= 1, never singular
        w = 2.0 * u ** (n - 2) * (2.0 - u * u) ** half
        return w * (ch + 1.0 - u * u) ** (-g)

    vals = np.zeros_like(ch)
    err = 0.0
    for piece in (upper, lower):
        v, e = quad_vec(piece, 0.0, 1.0, epsabs=1e-300, epsrel=tol, norm="max", limit=400)
        vals = vals + v
        err += e
    scale = float(np.max(np.abs(vals))) if vals.size else 1.0
    if not np.all(np.isfinite(vals)) or (scale > 0 and err > 50.0 * tol * scale and err > 1e-13):
        raise QuadratureError(
            f"reduced sphere integral did not converge: err={err:.3e}, tol={tol:.1e}"
        )
    return vals, err


def riesz_kernel_cyl(t, prm: Params, tol: float = 1e-10):
    """Bounded cylindrical kernel at axial offset t (scalar or array).

    2^{-gamma_s} |S^{n-2}| int (1-zeta^2)^{(n-3)/2} (cosh t - zeta)^{-gamma_s} dzeta.
    Even in t, strictly positive, decays like e^{-gamma_s |t|}.
    """
    arr = np.asarray(t, dtype=float)
    vals, _ = _reduced_integral(np.atleast_1d(arr), prm.gamma_s, prm.n, tol)
    out = 2.0 ** (-prm.gamma_s) * prm.omega_equator * vals
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def singular_kernel_cyl(t, prm: Params, tol: float = 1e-10, t_min: float = 1e-3):
    """Singular cylindrical kernel (exponent gamma_dual); blows up at t = 0.

    Offsets with |t| < t_min are rejected rather than extrapolated.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) < t_min):
        raise ValueError(f"singular kernel needs |t| >= t_min = {t_min}")
    vals, _ = _reduced_integral(np.atleast_1d(arr), prm.gamma_dual, prm.n, tol)
    out = 2.0 ** (-prm.gamma_dual) * prm.omega_equator * vals
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def ring_kernel(dz, rho, rho_p, prm: Params) -> np.ndarray:
    """Orbit integral of |x - y|^(2 sigma - n) over the S^(n-2) of points y
    at axial offset dz from x and distance rho_p from a line, for x at
    distance rho from it (arrays broadcast).

    |S^(n-2)| ((A+S)/2)^(-gamma_s) 2F1(gamma_s, gamma_s+1-m/2; m/2; w) with
    m = n-1, A = dz^2+rho^2+rho_p^2, S = sqrt(A^2 - (2 rho rho_p)^2) and
    w = (2 rho rho_p/(A+S))^2: the Gegenbauer mean over the orbit after the
    quadratic transformation A&S 15.3.19.  S is the product of the two
    difference forms dz^2+(rho -+ rho_p)^2, so 1 - w = 2S/(A+S) keeps its
    relative accuracy as y nears the orbit of x; for w > 1/2 the series runs
    in that 1 - w through the connection formula A&S 15.3.6.  When
    sigma - 3/2 is a whole number the series is a polynomial.  On the
    diagonal the kernel is finite exactly when sigma > 1.
    """
    g, c = prm.gamma_s, 0.5 * (prm.n - 1)
    b = g + 1.0 - c
    dz2 = np.asarray(dz, dtype=float) ** 2
    rho, rho_p = np.asarray(rho, dtype=float), np.asarray(rho_p, dtype=float)
    lo = dz2 + (rho - rho_p) ** 2
    hi = dz2 + (rho + rho_p) ** 2
    S = np.sqrt(lo * hi)
    AS = 0.5 * (lo + hi) + S
    w = (2.0 * rho * rho_p / AS) ** 2
    if b <= 0.0 and b == int(b):
        F = np.ones_like(w)
        for k in range(int(-b), 0, -1):   # Horner over the terminating series
            F = 1.0 + (g + k - 1) * (b + k - 1) / ((c + k - 1) * k) * w * F
    else:
        F = np.array(hyp2f1(g, b, c, w))
        e = c - g - b                     # 2 sigma - 2
        near = w > 0.5
        if e != int(e) and np.any(near):
            om = 2.0 * S[near] / AS[near]
            F[near] = (gamma(c) * gamma(e) / (gamma(c - g) * gamma(c - b))
                       * hyp2f1(g, b, 1.0 - e, om)
                       + gamma(c) * gamma(-e) / (gamma(g) * gamma(b))
                       * om ** e * hyp2f1(c - g, c - b, 1.0 + e, om))
    return prm.omega_equator * (0.5 * AS) ** (-g) * F


def riesz_kernel_rn(x, y, prm: Params):
    """Riesz kernel riesz_const * |x-y|^{2 sigma - n} on R^n (rows = points)."""
    dx = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(np.atleast_2d(dx), axis=-1)
    if np.any(r == 0.0):
        raise ValueError("Riesz kernel is singular on the diagonal x = y")
    out = prm.riesz_const * r ** (2.0 * prm.sigma - prm.n)
    return float(out[0]) if np.asarray(x).ndim == 1 and np.asarray(y).ndim == 1 else out


# ─────────────────────────────────────────────────────────────────────────────
# Periodization
# ─────────────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class PeriodizedValue:
    value: float
    tail_bound: float


def periodize(kernel: Callable[[float], float], t: float, L: float, J: int) -> PeriodizedValue:
    """Sum kernel(t - 2jL) over |j| <= J with a geometric tail bound.

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


def periodized_lattice(
    kernel_vals: Callable[[np.ndarray], np.ndarray],
    ts: np.ndarray,
    L: float,
    J: int,
) -> np.ndarray:
    """Vectorized periodization on a batch of offsets (no tail report)."""
    ts = np.asarray(ts, dtype=float)
    shifts = 2.0 * L * np.arange(-J, J + 1)
    args = ts[:, None] - shifts[None, :]
    flat, inv = np.unique(np.abs(args.ravel()), return_inverse=True)
    vals = kernel_vals(flat)
    return vals[inv].reshape(args.shape).sum(axis=1)


# ─────────────────────────────────────────────────────────────────────────────
# Calibration against the exact bubble profile
# ─────────────────────────────────────────────────────────────────────────────


def gauss_panels(edges, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on the panels between
    consecutive edges, flattened panel by panel."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx = 0.5 * (gx + 1.0)
    gw = 0.5 * gw
    edges = np.asarray(edges, dtype=float)
    h = np.diff(edges)
    return (edges[:-1, None] + h[:, None] * gx).ravel(), (h[:, None] * gw).ravel()


def check_rules(fine, coarse, tol: float, what: str,
                scale: float | None = None) -> None:
    """Raise QuadratureError when a 16-point result and the 8-point result on
    the same panels differ by more than tol times the scale, by default the
    16-point magnitude."""
    fine, coarse = np.asarray(fine, dtype=float), np.asarray(coarse, dtype=float)
    gap = float(np.max(np.abs(fine - coarse)))
    if scale is None:
        scale = float(np.max(np.abs(fine)))
    if not (gap <= tol * scale):
        raise QuadratureError(
            f"{what}: 16- and 8-point rules differ by {gap:.3e} "
            f"(> tol {tol:.1e} x {scale:.3e})")


def _profile_convolution(t_grid: np.ndarray, prm: Params, tol: float, halfwidth: float = 45.0,
                         nodes_per_unit: int = 12) -> np.ndarray:
    """int R_cyl(t - tau) cosh(tau)^{-gamma_dual} dtau on a batch of t values.

    Composite Gauss-Legendre panels split at tau = t (the kernel has a weak
    kink on the diagonal).  The integrand decays like e^{-gamma_dual |tau|},
    so a fixed halfwidth suffices for ~1e-12 absolute truncation error.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    out = np.empty_like(t_grid)
    # at least 8 panels per side, about nodes_per_unit nodes per unit length
    n_panels = max(8, int(halfwidth * nodes_per_unit / 16) + 1)
    for i, t in enumerate(t_grid):
        edges = np.concatenate([np.linspace(t - halfwidth, t, n_panels + 1),
                                np.linspace(t, t + halfwidth, n_panels + 1)[1:]])
        taus, wts = gauss_panels(edges)
        kern = riesz_kernel_cyl(taus - t, prm, tol=tol)
        out[i] = np.sum(wts * kern * np.cosh(taus) ** (-prm.gamma_dual))
    return out


@dataclass(frozen=True)
class Calibration:
    """Multiplier kappa making the reduced kernel exactly the one the
    fixed-point equation uses: the exact single-bubble cylinder profile
    cosh^{-gamma_s} must be a fixed point of v -> kappa * K_cyl * (f o v)."""

    kappa: float
    fixed_point_err: float  # max relative error at the check offsets
    check_offsets: tuple[float, ...]


def calibrate_cyl_kernel(prm: Params, tol: float = 1e-9,
                         check_offsets: Sequence[float] = (1.0, 2.0, 4.0)) -> Calibration:
    """Fit kappa at t = 0 and verify the fixed point at the check offsets.

    cosh(t)^{-gamma_s p} = cosh(t)^{-gamma_dual}, so the convolution needs no
    knowledge of the bubble beyond its profile.  The nonlinearity constant is
    tuned to the flat cylinder profile |x|^{-gamma_s}, while the bubble family
    solves the equation with the curvature constant q_ns, so the fitted kappa
    equals riesz_const * q_ns / c_ns rather than riesz_const alone.  Hitting
    that product to quadrature accuracy cross-checks both constants at once.
    """
    ts = np.concatenate([[0.0], np.asarray(check_offsets, dtype=float)])
    conv = _profile_convolution(ts, prm, tol)
    v_exact = np.cosh(ts) ** (-prm.gamma_s)
    kappa = float(v_exact[0] / (prm.c_ns * conv[0]))
    resid = np.abs(kappa * prm.c_ns * conv[1:] - v_exact[1:]) / v_exact[1:]
    return Calibration(
        kappa=kappa,
        fixed_point_err=float(resid.max()),
        check_offsets=tuple(float(t) for t in check_offsets),
    )


@lru_cache(maxsize=8)
def cached_kappa(prm: Params) -> float:
    """kappa of calibrate_cyl_kernel at its defaults, once per (n, sigma)."""
    return calibrate_cyl_kernel(prm).kappa


# ─────────────────────────────────────────────────────────────────────────────
# Tables and decay diagnostics
# ─────────────────────────────────────────────────────────────────────────────


@dataclass
class CylKernelTable:
    kind: str  # "riesz" | "singular"
    t: np.ndarray
    value: np.ndarray
    est_error: np.ndarray

    def rows(self):
        for ti, vi, ei in zip(self.t, self.value, self.est_error):
            yield float(ti), float(vi), float(ei)


def build_kernel_table(prm: Params, kind: str, t_grid, tol: float = 1e-10,
                       t_min: float = 1e-3) -> CylKernelTable:
    t_grid = np.asarray(t_grid, dtype=float)
    if kind == "riesz":
        vals, err = _reduced_integral(t_grid, prm.gamma_s, prm.n, tol)
        vals = 2.0 ** (-prm.gamma_s) * prm.omega_equator * vals
    elif kind == "singular":
        if np.any(np.abs(t_grid) < t_min):
            raise ValueError("singular kernel table needs |t| >= t_min")
        vals, err = _reduced_integral(t_grid, prm.gamma_dual, prm.n, tol)
        vals = 2.0 ** (-prm.gamma_dual) * prm.omega_equator * vals
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    est = np.full_like(vals, err)
    return CylKernelTable(kind=kind, t=t_grid, value=vals, est_error=est)


def decay_slope(ts, values) -> float:
    """Least-squares slope of ln|values| against ts."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values != 0.0
    if mask.sum() < 2:
        raise ValueError("need at least two nonzero samples to fit a slope")
    coef = np.polyfit(ts[mask], np.log(np.abs(values[mask])), 1)
    return float(coef[0])
