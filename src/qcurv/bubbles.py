"""Bubbles, bubble towers, and their variation kernels.

The building blocks are the radial profiles (2*lam / (lam^2 + |x-x0|^2))^gamma_s.
In log coordinates t = -ln|x - x0|, where e^(-gamma_s t) u(e^(-t)) turns the
unit bubble into cosh(t)^(-gamma_s), dilation acts as translation.  A tower
stacks geometrically shrinking copies at a common center; the variation
kernels are the analytic derivatives of one tower level with respect to its
dilation perturbation and its center.

Everything here is pure evaluation over frozen configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .params import Params

__all__ = [
    "Bubble",
    "TowerConfig",
    "KernelIndex",
    "bubble_eval",
    "tower_eval",
    "kernel_Z",
    "dlam_bubble",
    "translation_factor",
    "cyl_coefficient",
]


@dataclass(frozen=True)
class Bubble:
    """One profile (2*lam / (lam^2 + |x - center|^2))^gamma_s."""

    lam: float
    center: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.lam < np.inf:
            raise ValueError(f"bubble scale must be positive and finite, "
                             f"got {self.lam}")
        object.__setattr__(self, "center",
                           np.array(self.center, dtype=float, copy=True))
        if self.center.ndim != 1 or not np.all(np.isfinite(self.center)):
            raise ValueError("bubble center must be a single point with "
                             "finite coordinates")


def _sq_dist(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|x - c|^2 over the last axis of x, one point (n,) or a batch (..., n):
    the squared differences added in coordinate order.  Below dimension 8
    the sums have the bits of np.sum(..., axis=-1) and of the sums under
    np.linalg.norm's root; from dimension 8 those add pairwise.  Column by
    column it builds no (..., n) temporaries, and reads each column of a
    batch stored by column contiguously."""
    d = x[..., 0] - c[0]
    out = d * d
    for k in range(1, x.shape[-1]):
        d = x[..., k] - c[k]
        out += d * d
    return out


def bubble_eval(x: np.ndarray, b: Bubble, prm: Params) -> float | np.ndarray:
    """Evaluate the bubble at one point (n,) or a batch (..., n)."""
    x = np.asarray(x, dtype=float)
    rho2 = _sq_dist(x, b.center)
    val = (2.0 * b.lam / (b.lam**2 + rho2)) ** prm.gamma_s
    return float(val) if np.ndim(val) == 0 else val


def cyl_coefficient(prm: Params) -> float:
    """Height of the exact flat profile a*|x|^(-gamma_s).

    Plugging the flat profile into the dual equation forces
    a^(p-1) = c_ns / q_ns: the power law |x|^(-gamma_s) carries the constant
    c_ns under the operator, while the inverse operator is normalized so the
    bubble family (constant q_ns) is exactly reproduced.  Tests cross-check
    this closed form against the kernel-mass route in log coordinates.
    """
    return float((prm.c_ns / prm.q_ns) ** (1.0 / (prm.p - 1.0)))


# ─────────────────────────────────────────────────────────────────────────────
# towers


# decay rate of the admissible dilation envelope of a tower's levels
_DILATION_RATE = 0.5


@dataclass(frozen=True)
class TowerConfig:
    """Deformed half tower at one singular point, the one owner of the
    level layout: level j = 0..levels sits at log height t_j = (1+2j)*period
    with scale lam_j = (baseline*(1+dilations[j]))*exp(-t_j) and center
    center + shifts[j].  Admissibility keeps the deformations subordinate:
    |dilations[j]| <= exp(-_DILATION_RATE*t_j) and
    |shifts[j]| <= shift_bound*lam_j^2.

    The scales and centers of the levels are computed once, in row j of
    `level_scales` and `level_centers`; every level evaluation reads them
    there.  `level_scales_sq` holds each scale squared by the scalar power
    a single `Bubble` uses, which can differ from the array square by an
    ulp.  `level_shared` marks the coordinates on which all the level
    centers agree.  `base_scales` holds the undeformed two-sided levels
    j = -levels..levels that the periodic profile's remainder subtracts.
    """

    index: int
    center: np.ndarray
    period: float
    levels: int
    baseline: float = 1.0
    dilations: np.ndarray | None = None
    shifts: np.ndarray | None = None
    shift_bound: float = 1.0
    level_scales: np.ndarray = field(init=False, repr=False, compare=False)
    level_scales_sq: np.ndarray = field(init=False, repr=False, compare=False)
    level_centers: np.ndarray = field(init=False, repr=False, compare=False)
    level_shared: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "center",
                           np.array(self.center, dtype=float, copy=True))
        if self.center.ndim != 1 or not np.all(np.isfinite(self.center)):
            raise ValueError("tower center must be a single point with "
                             "finite coordinates")
        n = self.center.shape[0]
        if not 0 < self.period < np.inf:
            raise ValueError(f"period must be positive and finite, got "
                             f"{self.period}")
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if not 0 < self.baseline < np.inf:
            raise ValueError("baseline scale must be positive and finite")
        if not 0 <= self.shift_bound < np.inf:
            raise ValueError("shift_bound must be finite and >= 0")
        m = self.levels + 1
        dil = (np.zeros(m) if self.dilations is None
               else np.array(self.dilations, dtype=float, copy=True))
        shf = (np.zeros((m, n)) if self.shifts is None
               else np.array(self.shifts, dtype=float, copy=True))
        if dil.shape != (m,):
            raise ValueError(f"dilations must have shape ({m},)")
        if shf.shape != (m, n):
            raise ValueError(f"shifts must have shape ({m}, {n})")
        object.__setattr__(self, "dilations", dil)
        object.__setattr__(self, "shifts", shf)
        tj = self.level_heights()
        if not np.all(np.abs(dil) <= np.exp(-_DILATION_RATE * tj)):
            raise ValueError("dilation perturbations exceed the admissible envelope")
        lam = self.baseline * (1.0 + dil) * np.exp(-tj)
        object.__setattr__(self, "level_scales", lam)
        object.__setattr__(self, "level_scales_sq",
                           np.array([x**2 for x in lam]))
        object.__setattr__(self, "level_centers", self.center + shf)
        object.__setattr__(self, "level_shared", np.all(
            self.level_centers == self.level_centers[0], axis=0))
        if not np.all(lam > 0):
            raise ValueError("deformed scales must stay positive")
        if not np.all(np.diff(lam) < 0):
            raise ValueError("scales must decrease strictly level by level")
        if not np.all(np.linalg.norm(shf, axis=1)
                      <= self.shift_bound * lam**2):
            raise ValueError("translation perturbations exceed the admissible envelope")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @cached_property
    def base_scales(self) -> tuple[np.ndarray, np.ndarray]:
        """(baseline*exp(-(1+2j)*period) in row j + levels, j = -levels..
        levels, and their scalar squares): the undeformed two-sided tower."""
        J = self.levels
        lam = self.baseline * np.exp(-(1.0 + 2.0 * np.arange(-J, J + 1))
                                     * self.period)
        return lam, np.array([x**2 for x in lam])

    def level_heights(self) -> np.ndarray:
        """t_j = (1+2j)*period for j = 0..levels."""
        return (1.0 + 2.0 * np.arange(self.levels + 1)) * self.period

    def level(self, j: int) -> tuple[float, np.ndarray]:
        """(lam_j, center_j) of level j = 0..levels."""
        if not 0 <= j <= self.levels:
            raise ValueError(f"level {j} outside 0..{self.levels}")
        return self.level_scales[j], self.level_centers[j]

    def level_bubble(self, j: int) -> Bubble:
        """Bubble of level j = 0..levels."""
        return Bubble(*self.level(j))


# points per block: the (levels, block) work arrays stay in cache
_BLOCK = 4096


def tower_eval(x: np.ndarray, cfg: TowerConfig,
               prm: Params) -> float | np.ndarray:
    """Sum the half tower's bubbles, levels 0..J, at x.

    Per block of points, |x - center|^2 of every level is built in place in
    a (levels, block) slice of the output, one coordinate at a time, in
    coordinate order, as `bubble_eval` builds it: in every dimension the
    squared distances are those of one `bubble_eval` per level.  The points
    are read by column, so a batch stored by column, as the meridian node
    sets store theirs, is used without a copy.  At gamma_s = 1 the power is
    skipped: x**1 is x.  A coordinate on which all the tower's level centers
    agree (`level_shared`: rho on the meridian half-plane, where every
    center sits at rho = 0; e2..en of n-D points when the shifts lie along
    e1) has its square taken once per block and added to every level row,
    in the same order, so the bits do not change.  The levels are summed
    once, over the whole (levels, points) array: numpy sums a (levels, 1)
    array pairwise and a wider one level by level, so summing per block
    would make the bits depend on the block size.
    """
    x = np.asarray(x, dtype=float)
    lam2 = 2.0 * cfg.level_scales[:, None]
    lam_sq = cfg.level_scales_sq[:, None]
    ctr = [c[:1] if shared else c for c, shared in
           zip(cfg.level_centers.T[:, :, None], cfg.level_shared)]
    pts = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)
    vals = np.empty((lam2.shape[0], pts.shape[1]))
    diff = np.empty((lam2.shape[0], min(_BLOCK, pts.shape[1])))
    for s in range(0, pts.shape[1], _BLOCK):
        v = vals[:, s:s + _BLOCK]
        np.subtract(pts[0, s:s + _BLOCK], ctr[0], out=v)
        v *= v
        for xk, ck in zip(pts[1:, s:s + _BLOCK], ctr[1:]):
            d = diff[:ck.shape[0], :v.shape[1]]
            np.subtract(xk, ck, out=d)
            d *= d
            v += d
        v += lam_sq
        np.divide(lam2, v, out=v)
        if prm.gamma_s != 1.0:
            v **= prm.gamma_s
    out = vals.sum(axis=0).reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


# ─────────────────────────────────────────────────────────────────────────────
# variation kernels


@dataclass(frozen=True)
class KernelIndex:
    """(tower, level, mode): mode 0 is dilation, modes 1..n are translations."""

    tower: int
    level: int
    mode: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("kernel level must be >= 0")
        if self.mode < 0:
            raise ValueError("kernel mode must be >= 0")


def dlam_bubble(r2, lam, prm: Params, u=None):
    """dU/dlam = gamma_s U (r2 - lam^2)/(lam (lam^2 + r2)) at |x - x0|^2 = r2
    (u, when given, is U there)."""
    u = (2.0 * lam / (lam**2 + r2)) ** prm.gamma_s if u is None else u
    return prm.gamma_s * u * (r2 - lam**2) / (lam * (lam**2 + r2))


def translation_factor(r2, lam, prm: Params, u=None):
    """2 gamma_s lam U/(lam^2 + r2) = -lam dU/dx_l / (x - x0)_l (u, when
    given, is U there)."""
    u = (2.0 * lam / (lam**2 + r2)) ** prm.gamma_s if u is None else u
    return 2.0 * prm.gamma_s * lam * u / (lam**2 + r2)


def _level_at(x: np.ndarray, cfg: TowerConfig, j: int, prm: Params):
    """(|x - center_j|^2, U_j) at x, which `kernel_Z` and U_j share."""
    lam, ctr = cfg.level(j)
    rho2 = _sq_dist(np.asarray(x, dtype=float), ctr)
    return rho2, (2.0 * lam / (lam**2 + rho2)) ** prm.gamma_s


def kernel_Z(x: np.ndarray, idx: KernelIndex, cfg: TowerConfig,
             prm: Params, at=None) -> float | np.ndarray:
    """Analytic derivative of one tower level at the current configuration.

    Mode 0 differentiates in the dilation perturbation: lam_j depends on it
    linearly with slope baseline*exp(-t_j), so the value is
    (`dlam_bubble`*baseline)*exp(-t_j).  Modes ell >= 1 return
    -lam_j * dU/dx_ell = (x-x0)_ell * `translation_factor`.  at, when
    given, is the level's `_level_at(x, cfg, idx.level, prm)`.
    """
    if idx.tower != cfg.index:
        raise ValueError(f"index targets tower {idx.tower}, config is {cfg.index}")
    if idx.mode > cfg.dim:
        raise ValueError(f"mode {idx.mode} out of range for dimension {cfg.dim}")
    lam, ctr = cfg.level(idx.level)
    x = np.asarray(x, dtype=float)
    rho2, u = _level_at(x, cfg, idx.level, prm) if at is None else at
    if idx.mode == 0:
        val = (dlam_bubble(rho2, lam, prm, u) * cfg.baseline
               * np.exp(-cfg.level_heights()[idx.level]))
    else:
        val = ((x[..., idx.mode - 1] - ctr[idx.mode - 1])
               * translation_factor(rho2, lam, prm, u))
    return float(val) if np.ndim(val) == 0 else val
