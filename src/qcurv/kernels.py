"""Cylindrical reduction of the Riesz kernel and its calibration.

The inverse operator acts on radial densities through a one-dimensional
convolution kernel obtained by integrating the Riesz kernel over spheres.
Two reductions appear: a bounded one (exponent ``gamma_s``) driving the
fixed-point equation, and a singular one (exponent ``gamma_dual``) used for
dual-side estimates.  Both have a closed form in the Gauss hypergeometric
function of e^(-2|t|), as has the ring kernel, the Riesz kernel integrated
over the orbit of a point about a line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import gamma, hyp2f1

from .params import Params


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget."""


# ─────────────────────────────────────────────────────────────────────────────
# Reduced sphere integrals
# ─────────────────────────────────────────────────────────────────────────────

# relative error bound of the reduced kernels where their values are normal
# doubles: rounding g|t| in e^(-g|t|) costs up to (g|t| <= 708) x eps/2, and
# the hypergeometric factor about 1e-14 (tests/test_kernels.py enforces it)
KERNEL_REL_ERR = 1e-13


def _hyp2f1(a: float, b: float, c: float, w: np.ndarray,
            om: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; w) for arrays w, given om = 1 - w to full relative
    accuracy.  When b is a whole number <= 0 the series is a polynomial,
    summed by Horner; otherwise, for w > 1/2 and c - a - b not a whole
    number, it runs in om through the connection formula A&S 15.3.6."""
    if b <= 0.0 and b == int(b):
        F = np.ones_like(w)
        for k in range(int(-b), 0, -1):   # Horner over the terminating series
            F = 1.0 + (a + k - 1) * (b + k - 1) / ((c + k - 1) * k) * w * F
        return F
    F = np.array(hyp2f1(a, b, c, w))
    e = c - a - b
    near = w > 0.5
    if e != int(e) and np.any(near):
        o = om[near]
        F[near] = (gamma(c) * gamma(e) / (gamma(c - a) * gamma(c - b))
                   * hyp2f1(a, b, 1.0 - e, o)
                   + gamma(c) * gamma(-e) / (gamma(a) * gamma(b))
                   * o ** e * hyp2f1(c - a, c - b, 1.0 + e, o))
    return F


def _reduced_kernel(t, g: float, prm: Params):
    """2^(-g) |S^(n-2)| int (1-zeta^2)^((n-3)/2) (cosh t - zeta)^(-g) dzeta
    at offsets t (scalar or array), in closed form.

    The integral is |S^(n-1)| times the Gegenbauer mean of (A - zeta)^(-g)
    at A = cosh t; with A + sinh|t| = e^|t| the quadratic transformation
    A&S 15.3.19 (as in ring_kernel, with m = n) gives
    |S^(n-1)| e^(-g|t|) 2F1(g, g+1-n/2; n/2; w), w = e^(-2|t|).  When
    n - 1 - 2g < 0 the series diverges at w = 1 and Euler's transformation
    takes out the factor (1-w)^(n-1-2g).  1 - w = -expm1(-2|t|) keeps its
    relative accuracy as t -> 0, and no cosh is formed.
    """
    arr = np.asarray(t, dtype=float)
    a = np.abs(np.atleast_1d(arr))
    w, om = np.exp(-2.0 * a), -np.expm1(-2.0 * a)
    n, c = prm.n, 0.5 * prm.n
    e = n - 1.0 - 2.0 * g
    if e >= 0.0:
        F = _hyp2f1(g, g + 1.0 - c, c, w, om)
    else:
        F = om ** e * _hyp2f1(c - g, n - 1.0 - g, c, w, om)
    out = prm.omega_sphere * np.exp(-g * a) * F
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def riesz_kernel_cyl(t, prm: Params):
    """Bounded cylindrical kernel at axial offset t (scalar or array).

    2^{-gamma_s} |S^{n-2}| int (1-zeta^2)^{(n-3)/2} (cosh t - zeta)^{-gamma_s} dzeta.
    Even in t, strictly positive, decays like e^{-gamma_s |t|}.
    """
    return _reduced_kernel(t, prm.gamma_s, prm)


def singular_kernel_cyl(t, prm: Params, t_min: float = 1e-3):
    """Singular cylindrical kernel (exponent gamma_dual); blows up at t = 0.

    Offsets with |t| < t_min are rejected rather than extrapolated.
    """
    if np.any(np.abs(np.asarray(t, dtype=float)) < t_min):
        raise ValueError(f"singular kernel needs |t| >= t_min = {t_min}")
    return _reduced_kernel(t, prm.gamma_dual, prm)


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
    dz2 = np.asarray(dz, dtype=float) ** 2
    rho, rho_p = np.asarray(rho, dtype=float), np.asarray(rho_p, dtype=float)
    lo = dz2 + (rho - rho_p) ** 2
    hi = dz2 + (rho + rho_p) ** 2
    S = np.sqrt(lo * hi)
    AS = 0.5 * (lo + hi) + S
    F = _hyp2f1(g, g + 1.0 - c, c, (2.0 * rho * rho_p / AS) ** 2, 2.0 * S / AS)
    return prm.omega_equator * (0.5 * AS) ** (-g) * F


# ─────────────────────────────────────────────────────────────────────────────
# Periodization
# ─────────────────────────────────────────────────────────────────────────────


def periodized_lattice(
    kernel_vals: Callable[[np.ndarray], np.ndarray],
    ts: np.ndarray,
    L: float,
    J: int,
) -> np.ndarray:
    """Sum of kernel_vals(t - 2jL) over |j| <= J for each offset t in ts."""
    ts = np.asarray(ts, dtype=float)
    shifts = 2.0 * L * np.arange(-J, J + 1)
    return kernel_vals(ts[:, None] - shifts[None, :]).sum(axis=1)


# ─────────────────────────────────────────────────────────────────────────────
# Calibration against the exact bubble profile
# ─────────────────────────────────────────────────────────────────────────────


@lru_cache(maxsize=None)
def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], read-only (shared)."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def gauss_panels(edges, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on the panels between
    consecutive edges, flattened panel by panel."""
    gx, gw = _unit_rule(order)
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


def _profile_convolution(t_grid: np.ndarray, prm: Params, halfwidth: float = 45.0,
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
        kern = riesz_kernel_cyl(taus - t, prm)
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


def calibrate_cyl_kernel(prm: Params,
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
    conv = _profile_convolution(ts, prm)
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


def build_kernel_table(prm: Params, kind: str, t_grid,
                       t_min: float = 1e-3) -> CylKernelTable:
    """Kernel values on t_grid; est_error is KERNEL_REL_ERR times |value|."""
    t_grid = np.asarray(t_grid, dtype=float)
    if kind == "riesz":
        vals = riesz_kernel_cyl(t_grid, prm)
    elif kind == "singular":
        vals = singular_kernel_cyl(t_grid, prm, t_min=t_min)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return CylKernelTable(kind=kind, t=t_grid, value=vals,
                          est_error=KERNEL_REL_ERR * np.abs(vals))


def decay_slope(ts, values) -> float:
    """Least-squares slope of ln|values| against ts."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values != 0.0
    if mask.sum() < 2:
        raise ValueError("need at least two nonzero samples to fit a slope")
    coef = np.polyfit(ts[mask], np.log(np.abs(values[mask])), 1)
    return float(coef[0])
