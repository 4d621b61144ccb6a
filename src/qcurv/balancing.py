"""Balancing of multiplicities and dilation baselines over a singular set.

A configuration assigns each marked point a relative multiplicity q_i and a
dilation baseline R^i.  The first balancing condition ties them through the
pairwise interaction weights,

    q_i = A2 * sum_{i' != i} q_{i'} (R^i R^{i'})^g |x_i - x_{i'}|^{-2g},

solved here by Newton in ln R; the second defines the leading center offsets
explicitly.  The q-Jacobian of the first system at a balanced point is
singular along q itself, which is what downstream gluing relies on; the
report produced here verifies that structure numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        off = d[~np.eye(len(pts), dtype=bool)]
        if np.min(off) < 2.0:
            raise ValueError(
                f"pairwise distances must be >= 2 after normalization "
                f"(min {np.min(off):.4g}); rescale the configuration")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @cached_property
    def distances(self) -> np.ndarray:
        return np.linalg.norm(self.points[:, None, :] - self.points[None, :, :],
                              axis=-1)


def _check_q(q: np.ndarray, N: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (N,) or np.any(q <= 0):
        raise ValueError("q must be a positive vector matching the point count")
    return q


def _weights(sigma_set: SingularSet, prm: Params) -> np.ndarray:
    # d_{ii'}^{-2g} with zero diagonal
    d = sigma_set.distances.copy()
    np.fill_diagonal(d, 1.0)
    w = d ** (-2.0 * prm.gamma_s)
    np.fill_diagonal(w, 0.0)
    return w


def residual_B1(sigma_set: SingularSet, q: np.ndarray, R: np.ndarray,
                constants: InteractionConstants, prm: Params) -> np.ndarray:
    q = _check_q(q, sigma_set.size)
    R = np.asarray(R, dtype=float)
    w = _weights(sigma_set, prm)
    rg = R ** prm.gamma_s
    return constants.A2 * rg * (w @ (q * rg)) - q


B1_TOL = 1e-12


def solve_B1(sigma_set: SingularSet, q: np.ndarray,
             constants: InteractionConstants, prm: Params) -> np.ndarray:
    """Newton in y = ln R until the max norm of the first condition is at
    most B1_TOL, at most 60 steps; the exponential map keeps every iterate
    positive."""
    N = sigma_set.size
    q = _check_q(q, N)
    w = _weights(sigma_set, prm)
    g = prm.gamma_s

    off = sigma_set.distances[~np.eye(N, dtype=bool)]
    y = np.full(N, np.log(np.min(off) * constants.A2 ** (-1.0 / (2 * g))))

    def F(y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            rg = np.exp(g * y)
            return constants.A2 * rg * (w @ (q * rg)) - q

    # the system need not be solvable for every q (e.g. one multiplicity
    # dominating the rest); divergence is reported, not papered over
    stall = ("the first balancing system may have no solution for this q "
             "(multiplicities too lopsided for the geometry)")

    f = F(y)
    norm = np.max(np.abs(f))
    for it in range(60):
        if norm <= B1_TOL:
            return np.exp(y)
        rg = np.exp(g * y)
        cross = constants.A2 * rg[:, None] * w * (q * rg)[None, :]
        J = g * cross
        J[np.diag_indices(N)] += g * (f + q)
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError as exc:
            raise BalanceError(f"singular Jacobian at iteration {it}; "
                               + stall) from exc
        alpha = 1.0
        for _ in range(40):
            cand = y + alpha * step
            fc = F(cand)
            nc = np.max(np.abs(fc))
            if np.isfinite(nc) and nc < norm:
                y, f, norm = cand, fc, nc
                break
            alpha *= 0.5
        else:
            raise BalanceError(f"line search stalled at residual {norm:.3e} "
                               f"(iteration {it}); " + stall)
    raise BalanceError(f"no convergence in 60 iterations "
                       f"(residual {norm:.3e}); " + stall)


def _offset_terms(sigma_set: SingularSet,
                  prm: Params) -> tuple[np.ndarray, np.ndarray]:
    """|x_{i'} - x_i|^(-2g-2) with zero diagonal, and diff[i, i'] =
    x_{i'} - x_i."""
    pts = sigma_set.points
    d = sigma_set.distances.copy()
    np.fill_diagonal(d, 1.0)
    coef = d ** (-2.0 * prm.gamma_s - 2.0)
    np.fill_diagonal(coef, 0.0)
    return coef, pts[None, :, :] - pts[:, None, :]


def residual_B2(sigma_set: SingularSet, q: np.ndarray, R: np.ndarray,
                a0: np.ndarray, constants: InteractionConstants,
                prm: Params) -> np.ndarray:
    """The second condition in implicit form, one n-vector per point:
    A1 q_i a0_i + A3 sum_{i'} q_{i'} (R^i R^{i'})^g |x_{i'} - x_i|^(-2g-2)
    (x_{i'} - x_i)."""
    q = _check_q(q, sigma_set.size)
    coef, diff = _offset_terms(sigma_set, prm)
    rg = np.asarray(R, dtype=float) ** prm.gamma_s
    pull = np.einsum("ij,ijk->ik", coef * rg[:, None] * (q * rg)[None, :],
                     diff)
    return constants.A1 * q[:, None] * np.asarray(a0) + constants.A3 * pull


def solve_B2(sigma_set: SingularSet, q: np.ndarray, R: np.ndarray,
             constants: InteractionConstants, prm: Params) -> np.ndarray:
    """Explicit leading center offsets, one n-vector per marked point."""
    q = _check_q(q, sigma_set.size)
    R = np.asarray(R, dtype=float)
    coef, diff = _offset_terms(sigma_set, prm)
    rg = R ** prm.gamma_s
    weights = coef * (q[None, :] / q[:, None]) * (rg[:, None] * rg[None, :])
    return -(constants.A3 / constants.A1) * np.einsum("ij,ijk->ik",
                                                      weights, diff)


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
    g = prm.gamma_s
    w = _weights(sigma_set, prm)
    rg = R ** g

    cross = constants.A2 * rg[:, None] * w * rg[None, :]
    dFq = cross - np.eye(N)

    f = constants.A2 * rg * (w @ (q * rg)) - q
    dFR = constants.A2 * g * (rg / R)[None, :] * rg[:, None] * w * q[None, :]
    dFR[np.diag_indices(N)] += g * (f + q) / R

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
    if np.any(q <= 0) or L <= 0:
        raise ValueError("q and L must be positive")
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

