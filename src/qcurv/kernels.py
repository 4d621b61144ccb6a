"""Cylindrical reduction of the Riesz kernel and the convolution with it.

The inverse operator acts on radial densities through a one-dimensional
convolution kernel obtained by integrating the Riesz kernel over spheres.
Two reductions appear: a bounded one (exponent ``gamma_s``) driving the
fixed-point equation, and a singular one (exponent ``gamma_dual``), which
only the CLI's ``kernel`` table and the acceptance check of its decay rate
read.  Both have a closed form in the Gauss hypergeometric function of
e^(-2|t|), as has the ring kernel, the Riesz kernel integrated over the
orbit of a point about a line.

The convolution's multiplier is the closed form ``Params.dual_const`` =
riesz_const q_ns, and no fit: ``assembler.dual_apply_radial`` runs this
convolution, and on the unit bubble it gives the bubble back.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gamma, hyp2f1

from .params import Params, _check_finite, _check_tol


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

    Offsets with |t| < t_min are rejected rather than extrapolated, and so
    is a t_min <= 0, which would let t = 0 through to an infinite value.
    """
    if not t_min > 0:
        raise ValueError(f"singular kernel needs t_min > 0, got {t_min}")
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
    dz = np.asarray(dz, dtype=float)
    rho, rho_p = np.asarray(rho, dtype=float), np.asarray(rho_p, dtype=float)
    # the expression's own temporaries, of the broadcast shape, in place
    shape = np.broadcast(dz, rho, rho_p).shape
    lo, hi, S = np.empty(shape), np.empty(shape), np.empty(shape)
    dz2 = np.square(dz, out=S)
    np.subtract(rho, rho_p, out=lo)
    np.add(rho, rho_p, out=hi)
    for d in (lo, hi):      # dz^2 + (rho -+ rho_p)^2
        np.square(d, out=d)
        d += dz2
    np.multiply(lo, hi, out=S)
    np.sqrt(S, out=S)
    AS = lo                 # 0.5 (lo + hi) + S
    AS += hi
    AS *= 0.5
    AS += S
    # [()] makes a 0-d result a scalar: scalar calls take numpy's scalar
    # power (libm), whose last bit can differ from the array loop's
    out = np.multiply(AS, 0.5, out=hi)[()]
    out **= -g
    out *= prm.omega_equator
    if g + 1.0 - c != 0.0:  # else the series is the constant 1
        w = np.multiply(2.0 * rho, rho_p, out=np.empty(shape))
        w /= AS
        np.square(w, out=w)
        S *= 2.0            # 1 - w = 2 S / (A + S)
        S /= AS
        out *= _hyp2f1(g, g + 1.0 - c, c, w, S)
    return out


# ─────────────────────────────────────────────────────────────────────────────
# Fixed-panel quadrature and the log-radial convolution
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


def log_radial_convolution(kernel: Callable, g: Callable, t: float,
                           rate: float, tol: float, what: str) -> float:
    """int kernel(t - tau) g(tau) dtau, the integrand decaying like
    e^(-rate |t - tau|): 16-point rule on t -+ W, W = (ln(1/tol) + 5)/rate
    (ValueError over 700), on panels 0.25 wide (at 0.5 the 8-point rule
    misses a glued u's cutoffs by 1.5e-9) that halve 24 times toward the
    kink at tau = t.
    QuadratureError when the 8-point rule's gap or the tail, the integrand
    at the window ends over rate (a g growing outward), exceeds tol times
    the value."""
    _check_tol(tol)
    _check_finite("t", t)
    if not 0 < rate < np.inf:
        raise ValueError(f"{what}: rate must be positive and finite: {rate}")
    W = (np.log(1.0 / tol) + 5.0) / rate
    if W > 700.0:
        raise ValueError(f"{what}: window {W:.0f} exceeds 700")
    half = np.concatenate([[0.0], 0.25 * 2.0 ** np.arange(-24.0, 0.0),
                           np.linspace(0.25, W, int(np.ceil(W / 0.25)))])
    edges = np.concatenate([t - half[:0:-1], t + half])
    (x16, w16), (x8, w8) = (gauss_panels(edges, order) for order in (16, 8))
    taus = np.concatenate([x16, x8, [t - W, t + W]])
    h = kernel(t - taus) * g(taus)
    fine = float(w16 @ h[:len(x16)])
    check_rules(fine, float(w8 @ h[len(x16):-2]), tol, what)
    tail = float(np.sum(np.abs(h[-2:]))) / rate
    if not (tail <= tol * abs(fine)):
        raise QuadratureError(f"{what}: tail {tail:.3e} beyond t -+ {W:.3g} "
                              f"(> tol {tol:.1e} x {abs(fine):.3e})")
    return fine


# ─────────────────────────────────────────────────────────────────────────────
# Decay diagnostics
# ─────────────────────────────────────────────────────────────────────────────


def decay_slope(ts, values) -> float:
    """Least-squares slope of ln|values| against ts."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values != 0.0
    if mask.sum() < 2:
        raise ValueError("need at least two nonzero samples to fit a slope")
    coef = np.polyfit(ts[mask], np.log(np.abs(values[mask])), 1)
    return float(coef[0])
