"""Derived exponents and normalizing constants for the critical dual equation.

Everything downstream is parametrized by the dimension ``n`` and the order
``sigma`` of the inverse operator.  The standing range is ``sigma > 1`` with
``n > 2 sigma``; the range ``0 < sigma <= 1`` is accepted behind a flag for
cross-checks against classical second-order results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# ─────────────────────────────────────────────────────────────────────────────
# Parameter bundle
# ─────────────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Params:
    """Derived quantities attached to a pair (n, sigma).

    gamma_s      (n - 2 sigma)/2, decay rate of the singular profile
    gamma_dual   (n + 2 sigma)/2, decay rate of the dual-side density
    p            critical power (n + 2 sigma)/(n - 2 sigma)
    c_ns         normalizing constant of the nonlinearity,
                 2^{2 sigma} Gamma((n+2 sigma)/4)^2 / Gamma((n-2 sigma)/4)^2
    q_ns         curvature normalization Gamma((n+2 sigma)/2)/Gamma((n-2 sigma)/2)
    riesz_const  constant of the inverse-operator kernel,
                 Gamma(gamma_s) / (4^sigma pi^{n/2} Gamma(sigma))
    """

    n: int
    sigma: float
    gamma_s: float
    gamma_dual: float
    p: float
    c_ns: float
    q_ns: float
    riesz_const: float

    # cached_property stores into the instance __dict__, which the frozen
    # dataclass allows; ==, hash and replace see only the fields
    @cached_property
    def omega_sphere(self) -> float:
        """Surface measure of the unit sphere S^{n-1} in R^n."""
        return 2.0 * math.pi ** (self.n / 2.0) / math.gamma(self.n / 2.0)

    @cached_property
    def omega_equator(self) -> float:
        """Surface measure of S^{n-2} (the sphere in R^{n-1})."""
        return 2.0 * math.pi ** ((self.n - 1) / 2.0) / math.gamma((self.n - 1) / 2.0)

    @cached_property
    def dual_const(self) -> float:
        """c_ns kappa = riesz_const q_ns, the factor of the dual map: the
        bubbles solve the equation with q_ns where f carries c_ns."""
        return self.riesz_const * self.q_ns


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite: {value}")


def _check_tol(tol: float) -> None:
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite: {tol}")


def derive_params(n: int, sigma: float, allow_low_order: bool = False) -> Params:
    """Validate (n, sigma) and derive the attached constants.

    Rejects sigma <= 0 or NaN, n <= 2 sigma and constants that overflow a
    double (n above about 340).  sigma <= 1 is outside the standing range
    and requires ``allow_low_order=True`` (for cross-checks).
    """
    _check_finite("n", n)
    if int(n) != n or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")
    n = int(n)
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n <= 2.0 * sigma:
        raise ValueError(f"need n > 2 sigma, got n={n}, sigma={sigma}")
    if sigma <= 1.0 and not allow_low_order:
        raise ValueError(
            f"sigma={sigma} is outside the standing range sigma > 1; "
            "pass allow_low_order=True for cross-check use"
        )

    gamma_s = 0.5 * (n - 2.0 * sigma)
    gamma_dual = 0.5 * (n + 2.0 * sigma)
    p = (n + 2.0 * sigma) / (n - 2.0 * sigma)
    try:
        c_ns = 4.0**sigma * (math.gamma(0.25 * (n + 2.0 * sigma)) / math.gamma(0.25 * (n - 2.0 * sigma))) ** 2
        q_ns = math.gamma(gamma_dual) / math.gamma(gamma_s)
        riesz_const = math.gamma(gamma_s) / (4.0**sigma * math.pi ** (n / 2.0) * math.gamma(sigma))
    except OverflowError as exc:
        raise ValueError(f"the constants of (n, sigma) = ({n}, {sigma}) overflow a double") from exc

    return Params(
        n=n,
        sigma=sigma,
        gamma_s=gamma_s,
        gamma_dual=gamma_dual,
        p=p,
        c_ns=c_ns,
        q_ns=q_ns,
        riesz_const=riesz_const,
    )


# ─────────────────────────────────────────────────────────────────────────────
# Critical nonlinearity
# ─────────────────────────────────────────────────────────────────────────────


def nonlin(xi, prm: Params):
    """f(xi) = c_ns * xi^p, the critical nonlinearity (xi >= 0)."""
    return prm.c_ns * np.asarray(xi, dtype=float) ** prm.p


def nonlin_prime(xi, prm: Params):
    """f'(xi) = c_ns * p * xi^(p-1)."""
    return prm.c_ns * prm.p * np.asarray(xi, dtype=float) ** (prm.p - 1.0)
