"""Balancing of multiplicities and dilation baselines over a singular set.

A configuration assigns each marked point a relative multiplicity q_i and a
dilation baseline R^i.  The first balancing condition ties them through the
pairwise interaction weights,

    F_i(q, R) = A2 R_i^g sum_{i' != i} q_{i'} R_{i'}^g |x_i - x_{i'}|^{-2g}
                - q_i = 0,

a map evaluated in one place here (`_balance_map`, with its ln R
derivative).  `solve_B1` starts at the equal scale min |x_i - x_{i'}|
A2^(-1/2g), which solves it exactly for a pair of equal q, and otherwise
hands it to scipy's Levenberg-Marquardt in ln R; the second condition
defines the leading center offsets explicitly.  The q-Jacobian of the first
system at a balanced point is singular along q itself, which is what
downstream gluing relies on; the report produced here verifies that
structure numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import root

from .params import Params, _check_finite
from .interactions import InteractionConstants

__all__ = [
    "SingularSet",
    "BalancedConfig",
    "BalanceError",
    "balance_jacobian",
    "periods_from_q",
    "balance",
]


class BalanceError(RuntimeError):
    pass


@dataclass(frozen=True)
class SingularSet:
    points: np.ndarray  # (N, n)

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("a singular set needs at least two points")
        object.__setattr__(self, "points", pts)
        with np.errstate(over="ignore", invalid="ignore"):
            off = self.distances[~np.eye(len(pts), dtype=bool)]
        if not np.all(np.isfinite(off)):
            raise ValueError("singular points and their distances must be "
                             "finite")
        if np.min(off) < 2.0:
            raise ValueError(
                f"pairwise distances must be >= 2 after normalization "
                f"(min {np.min(off):.4g}); rescale the configuration")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @cached_property
    def distances(self) -> np.ndarray:
        return np.linalg.norm(self.points[:, None, :] - self.points[None, :, :],
                              axis=-1)


def _check_q(q: np.ndarray, N: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (N,) or not np.all((q > 0) & (q < np.inf)):
        raise ValueError("q must be a positive finite vector matching the "
                         "point count")
    return q


def _pair_powers(sigma_set: SingularSet, power: float) -> np.ndarray:
    """|x_i - x_{i'}|^power with zero diagonal."""
    d = sigma_set.distances.copy()
    np.fill_diagonal(d, 1.0)
    w = d ** power
    np.fill_diagonal(w, 0.0)
    return w


def _balance_map(sigma_set: SingularSet, q: np.ndarray, R: np.ndarray,
                 A2: float, g: float) -> tuple[np.ndarray, np.ndarray]:
    """F(q, R) of the first condition and its derivative in ln R: g A2
    R_i^g w_ii' q_i' R_i'^g, plus g (F_i + q_i) on the diagonal from R_i^g."""
    w = _pair_powers(sigma_set, -2.0 * g)
    rg = np.asarray(R, dtype=float) ** g
    F = A2 * rg * (w @ (q * rg)) - q
    dF = g * A2 * rg[:, None] * w * (q * rg)[None, :]
    dF[np.diag_indices(len(q))] += g * (F + q)
    return F, dF


def residual_B1(sigma_set: SingularSet, q: np.ndarray, R: np.ndarray,
                constants: InteractionConstants, prm: Params) -> np.ndarray:
    q = _check_q(q, sigma_set.size)
    return _balance_map(sigma_set, q, R, constants.A2, prm.gamma_s)[0]


B1_TOL = 1e-12


def solve_B1(sigma_set: SingularSet, q: np.ndarray,
             constants: InteractionConstants, prm: Params) -> np.ndarray:
    """R with max |F| at most B1_TOL: the equal-scale start as it is when it
    meets that, else Levenberg-Marquardt in y = ln R from it (the exponential
    keeps R positive).  The system need not be solvable for every q (one
    multiplicity dominating the rest); that is reported, not papered over."""
    N = sigma_set.size
    q = _check_q(q, N)
    A2, g = constants.A2, prm.gamma_s
    off = sigma_set.distances[~np.eye(N, dtype=bool)]
    y = np.full(N, np.log(np.min(off) * A2 ** (-1.0 / (2 * g))))

    def F(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            return _balance_map(sigma_set, q, np.exp(y), A2, g)

    if not np.max(np.abs(F(y)[0])) <= B1_TOL:
        sol = root(F, y, jac=True, method="lm")
        y, norm = sol.x, np.max(np.abs(F(sol.x)[0]))
        if not norm <= B1_TOL:
            raise BalanceError(
                f"{' '.join(sol.message.split())} (residual {norm:.3e}); "
                f"the first balancing system may have no solution for this "
                f"q (multiplicities too lopsided for the geometry)")
    return np.exp(y)


def residual_B2(sigma_set: SingularSet, q: np.ndarray, R: np.ndarray,
                a0: np.ndarray, constants: InteractionConstants,
                prm: Params) -> np.ndarray:
    """The second condition in implicit form, one n-vector per point:
    A1 q_i a0_i + A3 sum_{i'} q_{i'} (R^i R^{i'})^g |x_{i'} - x_i|^(-2g-2)
    (x_{i'} - x_i)."""
    q = _check_q(q, sigma_set.size)
    pts = sigma_set.points
    coef = _pair_powers(sigma_set, -2.0 * prm.gamma_s - 2.0)
    rg = np.asarray(R, dtype=float) ** prm.gamma_s
    pull = np.einsum("ij,ijk->ik", coef * rg[:, None] * (q * rg)[None, :],
                     pts[None, :, :] - pts[:, None, :])
    return constants.A1 * q[:, None] * np.asarray(a0) + constants.A3 * pull


def solve_B2(sigma_set: SingularSet, q: np.ndarray, R: np.ndarray,
             constants: InteractionConstants, prm: Params) -> np.ndarray:
    """Explicit leading center offsets, one n-vector per marked point."""
    q = _check_q(q, sigma_set.size)
    pts = sigma_set.points
    coef = _pair_powers(sigma_set, -2.0 * prm.gamma_s - 2.0)
    rg = np.asarray(R, dtype=float) ** prm.gamma_s
    weights = coef * (q[None, :] / q[:, None]) * (rg[:, None] * rg[None, :])
    return -(constants.A3 / constants.A1) * np.einsum(
        "ij,ijk->ik", weights, pts[None, :, :] - pts[:, None, :])


@dataclass(frozen=True)
class JacobianReport:
    dFq: np.ndarray
    dFR: np.ndarray
    q_kernel: np.ndarray
    q_kernel_dim: int
    q_kernel_angle: float        # radians between the kernel vector and q
    dilation_clock: np.ndarray   # d/dt F(q, sqrt(1+t) R) at t = 0
    full_clock: np.ndarray       # dF_R applied to R itself (twice the above)
    smallest_singular_value: float
    ill_conditioned: bool


def balance_jacobian(sigma_set: SingularSet, q: np.ndarray, R: np.ndarray,
                     constants: InteractionConstants,
                     prm: Params) -> JacobianReport:
    """Assembles dF over (q, R) at a balanced point and verifies its shape.

    F + q is homogeneous of degree 2g in R, so dF_R(R) = 2g(F + q); at a
    balanced point that is 2g*q, and the square-root dilation clock gives
    g*q.  The q-block has q itself in its kernel because F(q, R) = 0 is
    linear in q; its kernel dimension counts the singular values below
    1e-8 times the largest.
    """
    N = sigma_set.size
    q = _check_q(q, N)
    R = np.asarray(R, dtype=float)
    rg = R ** prm.gamma_s
    w = _pair_powers(sigma_set, -2.0 * prm.gamma_s)
    dFq = constants.A2 * rg[:, None] * w * rg[None, :] - np.eye(N)
    dFR = _balance_map(sigma_set, q, R, constants.A2, prm.gamma_s)[1] / R

    full_clock = dFR @ R
    dilation_clock = 0.5 * full_clock

    u, s, vt = np.linalg.svd(dFq)
    dim = int(np.sum(s < 1e-8 * s[0]))
    kern = vt[-1]
    if kern @ q < 0:
        kern = -kern
    # angle through the rejection norm; arccos of the cosine cannot resolve
    # angles below ~1e-8
    qh = q / np.linalg.norm(q)
    angle = float(np.arcsin(min(1.0, np.linalg.norm(kern - (kern @ qh) * qh))))

    s_full = np.linalg.svd(np.hstack([dFq, dFR]), compute_uv=False)
    return JacobianReport(
        dFq=dFq, dFR=dFR,
        q_kernel=kern, q_kernel_dim=dim, q_kernel_angle=angle,
        dilation_clock=dilation_clock, full_clock=full_clock,
        smallest_singular_value=float(s_full[-1]),
        ill_conditioned=bool(s_full[-1] < 1e-10),
    )


def periods_from_q(q: np.ndarray, L: float, prm: Params) -> np.ndarray:
    """Per-point periods: q_i e^{-g L} = e^{-g L_i}."""
    _check_finite("L", L)
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0) & (q < np.inf)) or L <= 0:
        raise ValueError("q must be positive and finite, and L positive")
    L_i = L - np.log(q) / prm.gamma_s
    if np.any(L_i <= 1.0):
        bad = np.argmin(L_i)
        raise ValueError(
            f"period {L_i[bad]:.4g} at point {bad} is below the validity "
            f"floor 1; increase L or flatten q")
    return L_i


@dataclass(frozen=True)
class BalancedConfig:
    sigma_set: SingularSet
    q: np.ndarray
    R: np.ndarray
    a0_hat: np.ndarray
    L: float
    L_i: np.ndarray
    resid_B1: float
    resid_B2: float


def balance(sigma_set: SingularSet, q: np.ndarray, L: float,
            constants: InteractionConstants, prm: Params) -> BalancedConfig:
    q = _check_q(q, sigma_set.size)
    R = solve_B1(sigma_set, q, constants, prm)
    a0 = solve_B2(sigma_set, q, R, constants, prm)
    L_i = periods_from_q(q, L, prm)
    r1 = float(np.max(np.abs(residual_B1(sigma_set, q, R, constants, prm))))
    r2 = float(np.max(np.abs(
        residual_B2(sigma_set, q, R, a0, constants, prm))))
    return BalancedConfig(sigma_set=sigma_set, q=q, R=R, a0_hat=a0,
                          L=float(L), L_i=L_i, resid_B1=r1, resid_B2=r2)

