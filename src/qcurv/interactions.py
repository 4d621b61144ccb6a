"""Interaction constants, the two-scale interaction function, and Gram matrices.

The three constants parametrize how neighboring bubbles talk to each other:
A1 weighs same-center translation coupling, A2 the dilation coupling between
far-apart centers, A3 the translation coupling between far-apart centers.
The printed integrals for A2/A3 diverge at infinity for sigma >= 1/2; the
convergent variant replaces the weight exponent -(gamma_s+1) by
-(gamma_dual+1), whose radial integrals are Beta functions, and the result
is checked against a direct quadrature of the two-bubble interaction
integrals the constants are meant to summarize (oracle_fit_constants).

Rescaling that interaction integral to unit bubble scale shows the
constants carry fixed conversion factors relative to the corrected bare
integrals: c_ns * 2^n for the dilation mode (a p-factor cancels against
2*gamma_s/(n+2*sigma)) and c_ns * p * 2^n for the translation mode.  The
returned A2/A3 include those factors, so they are exactly the coefficients
of the asymptotic laws

    int f'(U_1) U_3 d_lam U_1 = A2 |x_2|^(2s-n) (lam_1 lam_3)^g / lam_1,
    int f'(U_1) U_3 d_xl  U_1 = A3 x_l |x_2|^(2s-n-2) (lam_1 lam_3)^g,

for the bubbles and nonlinearity this package uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Params, _check_finite, _check_tol, nonlin_prime
from .bubbles import (KernelIndex, TowerConfig, dlam_bubble,
                      translation_factor)
from .kernels import QuadratureError, check_rules, gauss_panels

__all__ = [
    "InteractionConstants",
    "const_A2",
    "interaction_constants",
    "oracle_fit_constants",
    "psi",
    "gram_cokernels",
    "gram_indices",
]


# relative tolerances of the radial rules (A1, psi) and of the fit's 16/8 check
_RADIAL_TOL, _FIT_TOL = 1e-10, 1e-8


@dataclass(frozen=True)
class InteractionConstants:
    A1: float
    A2: float
    A3: float
    method: str  # "closed_integral" | "oracle_fit"
    est_error: float

    def __post_init__(self) -> None:
        if not (self.A1 > 0 and self.A2 > 0 and self.A3 < 0):
            raise ValueError(
                f"interaction constants must satisfy A1>0, A2>0, A3<0; "
                f"got ({self.A1}, {self.A2}, {self.A3})")


def _one_signed_integral(f, lo: float, hi: float, prm: Params,
                         what: str) -> float:
    """int_lo^hi f dt for an f of one sign, whose features are 1/n wide, on
    16-point panels of width min(1/2, 2.5/n); the 8-point rule must agree to
    _RADIAL_TOL times the value, here the absolute mass, or QuadratureError."""
    h = min(0.5, 2.5 / prm.n)
    edges = np.linspace(lo, hi, int(np.ceil((hi - lo) / h)) + 1)
    fine, coarse = (w @ f(t) for t, w in (gauss_panels(edges, order)
                                          for order in (16, 8)))
    check_rules(fine, coarse, _RADIAL_TOL, what)
    return float(fine)


def const_A1(prm: Params) -> float:
    """((n+2s)(n-2s)/n) * int (|x|^(2g)(1+|x|^2)^(g')+1)^(-1) dx, convergent
    as printed.  In t = ln r the radial integrand is below e^(-n|t|) and
    integrates to at least e^(-n)/(2^g' + 1) over [-1, 0], so the window
    |t| <= X leaves tails under _RADIAL_TOL times the value."""
    n, g, gd = prm.n, prm.gamma_s, prm.gamma_dual
    X = 1.0 + np.log(2.0 * (2.0 ** gd + 1.0) / (n * _RADIAL_TOL)) / n

    def f(t: np.ndarray) -> np.ndarray:
        r = np.exp(t)
        return r ** n / (r ** (2 * g) * (1 + r * r) ** gd + 1.0)

    pref = (n + 2 * prm.sigma) * (n - 2 * prm.sigma) / n
    return pref * prm.omega_sphere * _one_signed_integral(f, -X, X, prm, "A1")


def _radial_moment(a: float, prm: Params) -> float:
    """int_0^inf r^(a-1) (1+r^2)^(-(gamma_dual+1)) dr
    = B(a/2, gamma_dual+1-a/2)/2, a Beta function."""
    gd = prm.gamma_dual + 1.0
    return 0.5 * math.gamma(0.5 * a) * math.gamma(gd - 0.5 * a) / math.gamma(gd)


def const_A2(prm: Params) -> float:
    # corrected weight: (1+r^2)^(-(gamma_dual+1)); the printed gamma_s variant
    # has a divergent r^(2*sigma-1) tail.  The radial integral of (r^2 - 1)
    # is I(n+2) - I(n) = (gamma_s/sigma) I(n) by Gamma(x+1) = x Gamma(x),
    # taken without the cancellation
    bare = (0.5 * (prm.n + 2 * prm.sigma) * prm.omega_sphere
            * prm.gamma_s / prm.sigma * _radial_moment(prm.n, prm))
    return float(prm.c_ns * 2.0 ** prm.n * bare)


def const_A3(prm: Params) -> float:
    bare = (-((prm.n - 2 * prm.sigma) ** 2 / prm.n) * prm.omega_sphere
            * _radial_moment(prm.n + 2, prm))
    return float(prm.c_ns * prm.p * 2.0 ** prm.n * bare)


def interaction_constants(prm: Params) -> InteractionConstants:
    """A1 by a fixed radial rule, A2 and A3 in closed form."""
    return InteractionConstants(
        A1=const_A1(prm),
        A2=const_A2(prm),
        A3=const_A3(prm),
        method="closed_integral",
        est_error=_RADIAL_TOL,
    )


# ─────────────────────────────────────────────────────────────────────────────
# two-bubble interaction integrals (direct quadrature)


def _graded_edges(lo: float, hi: float, centers) -> np.ndarray:
    """Panel edges on [lo, hi]: about each (center, scale) pair the edges sit
    at the center and at distances h/4 * sqrt(2)^k, so every panel's width
    is at most 0.42 times its distance from the center (or h/4).  That keeps
    the 8-point rule within ~1e-13 of the 16-point one on bubble products."""
    edges = [np.array([lo, hi])]
    for c, h in centers:
        steps = h * 2.0 ** np.arange(-2.0, np.log2(2.0 * (hi - lo) / h), 0.5)
        edges += [np.array([c]), c - steps, c + steps]
    return np.unique(np.clip(np.concatenate(edges), lo, hi))


def _faraway_rules(pairs, d: float, prm: Params) -> np.ndarray:
    """int f'(U_1) U_3 dU_1 dx, bubbles of scales l1 and l3 at 0 and d e1,
    per (l1, l3) pair and mode: 0 differentiates U_1 in its scale, 1 along
    the axis (modes across it vanish by the angular average).  Rescaled to
    unit bubble-1 scale, on a fixed graded tensor rule over the box |y_1|,
    |y'| <= 120, by the 16- and 8-point rules: an array [pair, mode, order].

    Each pair's tensor rule is graded about bubble 1 and, inside the box,
    bubble 3; the s panels are graded toward the axis at the finer of the
    two scales.  Pairs with equal edges share one grid: per s panel the
    factors of bubble 1 are evaluated once, per pair only those of bubble 3,
    and per mode the derivative and the panel sum.
    """
    B = 120.0    # the box's half-width; oracle_fit_constants gives its tail
    g = prm.gamma_s
    grids: dict = {}
    for k, (l1, l3) in enumerate(pairs):
        c3, h3 = d / l1, l3 / l1     # bubble 3's center and scale, rescaled
        centers = [(0.0, 1.0)] + ([(c3, h3)] if abs(c3) < B else [])
        y_edges = _graded_edges(-B, B, centers)
        s_edges = _graded_edges(0.0, B, [(0.0, min(h for _, h in centers))])
        grids.setdefault((y_edges.tobytes(), s_edges.tobytes()),
                         (y_edges, s_edges, []))[2].append(k)
    out = np.empty((len(pairs), 2, 2))
    for y_edges, s_edges, members in grids.values():
        scales = [pairs[k] for k in members]
        for j, order in enumerate((16, 8)):
            y1, wy = gauss_panels(y_edges, order)
            y1 = y1[:, None]
            s_nodes, ws = gauss_panels(s_edges, order)
            # the factors of each pair that do not depend on s
            per_pair = [(l1 ** (-2.0 * prm.sigma), (l1 * y1 - d) ** 2,
                         l1 ** (-g - 1.0) * g,
                         -2.0 * g * l1 ** (-g - 1.0) * y1)
                        for l1, _ in scales]
            totals = np.zeros((len(members), 2))
            for s_panel, w_panel in zip(s_nodes.reshape(-1, order),
                                        ws.reshape(-1, order)):
                s = s_panel[None, :]
                y2 = y1 * y1 + s * s
                u1 = (2.0 / (1.0 + y2)) ** g
                f1 = nonlin_prime(u1, prm)
                y2m, y2p = y2 - 1.0, 1.0 + y2
                s_pow = s ** (prm.n - 2)
                for i, ((l1, l3), (lf, xd2, a0, a1y)) in enumerate(
                        zip(scales, per_pair)):
                    rho2 = xd2 + (l1 * s) ** 2
                    u3 = (2.0 * l3 / (l3 * l3 + rho2)) ** g
                    fu3 = f1 * lf * u3
                    dU = (a0 * u1 * y2m / y2p,     # mode 0: in U_1's scale
                          a1y * u1 / y2p)          # mode 1: along the axis
                    for mode in (0, 1):
                        F = fu3 * dU[mode] * s_pow
                        totals[i, mode] += wy @ F @ w_panel
            for i, (l1, _) in enumerate(scales):
                out[members[i], :, j] = (prm.omega_equator * l1 ** prm.n
                                         * totals[i])
    return out


def oracle_fit_constants(prm: Params) -> InteractionConstants:
    """Fit A2/A3 from the asymptotic laws of the direct integrals, with the
    centers d = 2 apart.

    Two scales per constant; the returned estimate is the smaller-scale one
    and est_error the relative spread (expected O(lam^2)).  A1 has no
    printed two-bubble law, so the closed integral fills that slot.  The
    four integrals of _faraway_rules share one grid at d = 2; each 8-point
    value must agree with its 16-point one to _FIT_TOL, or QuadratureError.
    That check covers the box only.  Its tail falls off like 120^(-2 sigma):
    against a box of 1000 it is up to 6.1e-6 of the integrals at (n, sigma)
    = (5, 1.5), 6.9e-5 at (6, 1.2), 1.1e-4 at (3, 1.2), 1.9e-9 at (7, 2.5).
    At (5, 1.5) it is most of the fits' gap to the closed forms, 7.1e-6 for
    A2 and 2.9e-6 for A3, and est_error does not see it.
    """
    lams, d = (1e-2, 1e-3), 2.0
    vals = _faraway_rules([(l, l) for l in lams], d, prm)
    for mode in (0, 1):
        for fine, coarse in vals[:, mode]:
            check_rules(fine, coarse, _FIT_TOL, "oracle_fit_constants")
    a2 = [float(v) * d ** (prm.n - 2 * prm.sigma) * l / l ** (2 * prm.gamma_s)
          for l, v in zip(lams, vals[:, 0, 0])]
    a3 = [float(v) * d ** (2 * prm.gamma_s + 1) / l ** (2 * prm.gamma_s)
          for l, v in zip(lams, vals[:, 1, 0])]
    err = max(abs(a2[1] - a2[0]) / abs(a2[1]), abs(a3[1] - a3[0]) / abs(a3[1]))
    return InteractionConstants(
        A1=const_A1(prm),
        A2=float(a2[1]),
        A3=float(a3[1]),
        method="oracle_fit",
        est_error=float(err),
    )


# ─────────────────────────────────────────────────────────────────────────────
# two-scale interaction function


def psi(ell: float, prm: Params) -> float:
    """int f'(v(t)) v(t+ell) v'(t) dt for the even profile v = cosh^(-g).

    Written over t >= 0 with the antisymmetrized integrand, so psi(0)
    vanishes identically; that integrand has one sign, so psi > 0.  Its
    factor e^(-g ell) is taken out in closed form.  The rest is below
    2^n e^(-2 sigma t), and past t = ell below 2^n e^(2 g ell - n t)
    min(1, 2 g ell): the window ends where the nearer bound leaves a tail
    of _RADIAL_TOL times a small factor; QuadratureError when that tail is
    not below _RADIAL_TOL times the value or the 8-point rule disagrees.
    """
    _check_finite("ell", ell)
    if ell < 0:
        raise ValueError("the offset must be nonnegative")
    g, n, two_s = prm.gamma_s, prm.n, 2.0 * prm.sigma
    budget = np.log(2.0 ** n / _RADIAL_TOL)
    near, far = ell + 2.0 + budget / n, 2.0 + budget / two_s
    # the nearer end, with its tail bound over _RADIAL_TOL
    T, tail = ((near, np.exp(-two_s * ell - 2.0 * n)
                * min(1.0, 2.0 * g * ell) / n)
               if near < far else (far, np.exp(-2.0 * two_s) / two_s))

    def f(t: np.ndarray) -> np.ndarray:
        # e^(g ell) 2^(-g) (cosh(t-ell)^(-g) - cosh(t+ell)^(-g))
        bracket = ((np.exp(-t) + np.exp(t - 2.0 * ell)) ** (-g)
                   - (np.exp(t) + np.exp(-t - 2.0 * ell)) ** (-g))
        return np.tanh(t) * np.cosh(t) ** (-prm.gamma_dual) * bracket

    val = _one_signed_integral(f, 0.0, T, prm, "psi")
    if not tail <= val:
        raise QuadratureError(f"psi({ell}): the tail beyond t = {T:.3g} may "
                              f"exceed tol {_RADIAL_TOL:.1e} x the value")
    return float(prm.c_ns * prm.p * g * 2.0 ** g * np.exp(-g * ell) * val)


# ─────────────────────────────────────────────────────────────────────────────
# orthogonality Gram matrix


def gram_indices(cfg: TowerConfig) -> list[KernelIndex]:
    """Row/column order: level-major, mode 0..n inside each level."""
    return [KernelIndex(cfg.index, j, ell)
            for j in range(cfg.levels + 1)
            for ell in range(cfg.dim + 1)]


def gram_cokernels(cfg: TowerConfig, prm: Params, tol: float = 1e-9) -> np.ndarray:
    """Pairings of the variation modes of one tower, as printed: modes >= 1
    pair cokernel with cokernel, mode 0 pairs cokernel with kernel.
    Requires the standard common-center configuration.

    Cross-mode blocks vanish by the angular average and are exactly 0; the
    translation block (with the 1/n moment of |x|^2) repeats on each mode's
    diagonal.  Each block is one matrix product of the levels' profiles on
    Gauss-Legendre panels of width 1/2 in t = -ln|x| over [t_0 - 30,
    t_J + 30].  tol bounds every entry's error relative to its absolute mass
    (the integral of |integrand|): the 8-point rule on the same panels must
    agree that well, otherwise QuadratureError is raised.
    """
    _check_tol(tol)
    if cfg.levels > 6:
        raise ValueError("Gram truncation limited to 6 levels")
    if np.any(cfg.shifts != 0.0):
        raise ValueError("Gram matrix is defined at the common-center configuration")
    n = prm.n
    heights = cfg.level_heights()
    lams = cfg.level_scales[:, None]
    slopes = cfg.base_scales[0][cfg.levels:, None]
    lo, hi = heights[0] - 30.0, heights[-1] + 30.0
    edges = np.linspace(lo, hi, int(np.ceil(2.0 * (hi - lo))) + 1)
    vals, mass = [], None
    for order in (16, 8):
        t, w = gauss_panels(edges, order)
        r2 = np.exp(-2.0 * t)
        wj = w * np.exp(-n * t)
        fp = nonlin_prime((2.0 * lams / (lams * lams + r2)) ** prm.gamma_s, prm)
        z0 = slopes * dlam_bubble(r2, lams, prm)
        zt = fp * translation_factor(r2, lams, prm)
        # (weighted left profiles, right profiles, factor) per block
        blocks = ((fp * z0 * wj, z0, prm.omega_sphere),
                  (zt * r2 * wj, zt, prm.omega_sphere / n))
        vals.append(np.stack([c * (a @ b.T) for a, b, c in blocks]))
        if mass is None:
            mass = np.stack([c * (np.abs(a) @ np.abs(b).T) for a, b, c in blocks])
    check_rules(vals[0] / mass, vals[1] / mass, tol, "gram_cokernels", scale=1.0)
    m = cfg.dim + 1  # row a = level * m + mode, as in gram_indices
    G = np.zeros((m * (cfg.levels + 1),) * 2)
    G[0::m, 0::m] = vals[0][0]
    for mode in range(1, m):
        G[mode::m, mode::m] = vals[0][1]
    return G
