"""Multi-point approximate solutions, the dual operator, residuals, and
cokernel projections.

The assembled function is sum_i [deformed half tower_i + cutoff_i * phi_i],
where phi_i is the exact periodic profile about x_i minus its full
two-sided bubble tower: the small remainder left once every bubble is
accounted for.  Near a point the function is the half tower plus that
remainder - the outward (mirror) levels of the periodic profile are gone
both in value and in mass, replaced by the other points' towers; far away
only the decaying half-tower levels survive.

Integrals run on the meridian half-plane of the singular line.  With the
marked points on one line and every perturbation shift along it, u depends
only on the axial coordinate z and the distance rho from the line, so the
S^(n-2) orbit of each point integrates out: against the Riesz kernel in
closed form (kernels.ring_kernel), otherwise as |S^(n-2)| rho^(n-2).
Composite Gauss-Legendre panels cover the half-plane: log-polar about each
center, weighted by the partition cutoff chi_i, and polar about the origin,
weighted by 1 - sum chi_i.  The depth of the balls, the far radius and the
panel sizes follow from the levels, the samples, gamma_s and tol.  The
node set evaluates u at the half-plane's points (z, rho) as
`ApproxSolution.meridian()`, the same function with its centers projected
onto the line, so no n-D point is built and the values do not depend on
where the line sits; the integrands take the points and u's values there.
In the ball about x_i the partition weight and chi_i phi_i are radial:
they are evaluated once per radius of the rule, at the exact radius.

The dual map evaluates u^p once per call on that node set.  A sample's
value is the node set's sum against its ring kernel, with the panels next
to the sample taken out and integrated again on triangles from it, where u
is evaluated afresh and the kernel's kink at the sample falls into the
radial factor of the triangle.  For assemblies on the same marked points,
panels of the same geometry take the kernel and the triangles once per
sample (`residuals`), each chunk for a group of samples at once; the
projections evaluate u once per distinct panel (`beta_projections`).
Every value is also computed with the 8-point rule on the same panels,
and QuadratureError is raised when the two differ by more than tol times
the value (for a projection, tol times the integrand's absolute mass).
Configurations outside the reduction, and sigma <= 1, where the ring
kernel is unbounded on the diagonal, raise NotImplementedError.

The projection of the residual on a cokernel direction never touches the
inverse operator: pairing with f'(U) Z and moving the Riesz kernel onto the
kernel direction (where it reproduces Z exactly) collapses it to

    beta = int [f'(U_j) u - f(u) - (p-1) f(U_j)] Z_j dx,

whose integrand vanishes identically at u = U_j; the (p-1) f(U_j) Z_j piece
integrates to zero analytically (critical-exponent scale invariance), so
including it also cancels the dominant quadrature error near the center.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .params import Params, _check_tol, nonlin, nonlin_prime
from .kernels import (QuadratureError, check_rules, gauss_panels,
                      log_radial_convolution, ring_kernel, riesz_kernel_cyl)
from .bubbles import (TowerConfig, KernelIndex, _level_at, _sq_dist,
                      kernel_Z, tower_eval)
from .balancing import BalancedConfig, _balance_map, periods_from_q
from .delaunay import CylSolution, radial_profile, solve_periodic
from .interactions import const_A2

__all__ = [
    "ApproxSolution",
    "WeightSpec",
    "assemble",
    "dual_apply",
    "dual_apply_radial",
    "residual",
    "residuals",
    "beta_projection",
    "beta_projections",
    "beta_leading_form",
    "weighted_fn_norm",
    "sample_grid",
    "mc_probe",
]


# ─────────────────────────────────────────────────────────────────────────────
# cutoff and frames

# assembly cutoff: chi_i phi_i is glued in on [0, CUT_OFF) about x_i
CUT_ON, CUT_OFF = 0.5, 1.0
# integration partition, wider than the assembly cutoff: the far region then
# only sees the function at distance >= INT_ON from the marked points, where
# its p-th power has no sharp features left.  Enlarged balls may overlap; the
# far weight 1 - sum chi stays an exact partition regardless (it just goes
# negative on the overlap).
INT_ON, INT_OFF = 1.0, 2.0

# tower levels 0..LEVELS of each assembled point, and the grid of its
# periodic profile
LEVELS, PROFILE_M = 6, 400


def cutoff(s: np.ndarray, on: float = CUT_ON,
           off: float = CUT_OFF) -> np.ndarray:
    """Smooth monotone bump: exactly 1 on [0, on], exactly 0 on [off, inf)."""
    s = np.asarray(s, dtype=float)
    z = (s - on) / (off - on)
    lo = z <= 0.0
    out = np.asarray(lo, dtype=float)
    mid = ~(lo | (z >= 1.0))        # 0 < z < 1, and NaN stays NaN
    zm = z[mid]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / zm)
        b = np.exp(-1.0 / (1.0 - zm))
    out[mid] = b / (a + b)
    return out if out.ndim else float(out)


def _complete_frame(u_hat: np.ndarray, v_pref: np.ndarray) -> np.ndarray:
    """Unit w orthogonal to the unit u_hat and to v_pref's part orthogonal
    to it: the first coordinate axis whose residual has norm above 1/2."""
    v = v_pref - (v_pref @ u_hat) * u_hat
    nv = np.linalg.norm(v)
    v = v / nv if nv > 1e-13 else np.zeros_like(v)
    for w in np.eye(u_hat.shape[0]):
        w -= (w @ u_hat) * u_hat
        w -= (w @ v) * v
        nw = np.linalg.norm(w)
        if nw > 0.5:
            return w / nw
    raise RuntimeError("degenerate frame")


# ─────────────────────────────────────────────────────────────────────────────
# assembled approximate solution


@dataclass(frozen=True)
class ApproxSolution:
    """The glued function: per marked point a deformed `TowerConfig`, which
    holds its center, period, baseline and levels, and a periodic profile."""

    prm: Params
    towers: tuple[TowerConfig, ...]
    cyls: tuple[CylSolution, ...]
    balanced: BalancedConfig | None

    @cached_property
    def centers(self) -> np.ndarray:  # (N, n)
        return np.array([cfg.center for cfg in self.towers])

    @property
    def size(self) -> int:
        return len(self.towers)

    @property
    def axis(self) -> np.ndarray:
        if self.size == 1:
            return np.eye(self.centers.shape[1])[0]
        a = self.centers[-1] - self.centers[0]
        return a / np.linalg.norm(a)

    @property
    def origin(self) -> np.ndarray:
        return self.centers.mean(axis=0)

    def collinear(self) -> bool:
        if self.size <= 2:
            return True
        d = self.centers - self.centers[0]
        off = d - np.outer(d @ self.axis, self.axis)
        return bool(np.max(np.linalg.norm(off, axis=1)) <= 1e-12)

    def axisymmetric(self) -> bool:
        """All perturbation shifts along the singular line."""
        if not self.collinear():
            return False
        a = self.axis
        for cfg in self.towers:
            off = cfg.shifts - np.outer(cfg.shifts @ a, a)
            if np.max(np.abs(off)) > 1e-13:
                return False
        return True

    def _term(self, i: int, s: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """chi_i phi_i at distances s < CUT_OFF from x_i (s2 their squares);
        the callers select those points.  phi_i is the periodic profile
        about x_i minus its undeformed two-sided tower (outward levels
        included), both radial about x_i.  The levels -J..J, from the
        tower's `base_scales` and their scalar squares, are summed once over
        the (levels, points) array, as `tower_eval` sums its half tower; the
        power is skipped at gamma_s = 1.  The cutoff multiplies only the
        annulus s > CUT_ON, where it is not exactly 1, and a rounded s = 1.0
        gets the term 0.  ValueError at s = 0."""
        g, R = self.prm.gamma_s, self.towers[i].baseline
        lam, lam_sq = self.towers[i].base_scales
        tower = s2 + lam_sq[:, None]
        np.divide(2.0 * lam[:, None], tower, out=tower)
        if g != 1.0:
            tower **= g
        phi = R ** (-g) * radial_profile(self.cyls[i], s / R, self.prm)
        phi -= tower.sum(axis=0)
        ring = np.flatnonzero(s > CUT_ON)
        phi[ring] *= cutoff(s[ring], CUT_ON, CUT_OFF)
        return phi

    def meridian(self) -> "ApproxSolution":
        """The same function on the meridian half-plane, called on points
        (k, 2) of (z, rho): z along the singular line from its foot, rho the
        distance from the line.  Every center and level center sits at
        rho = 0 exactly; the scales, profiles and cutoffs are unchanged.
        Outside the reduction, where shifts leave the line, this would be a
        different function: NotImplementedError."""
        if not self.axisymmetric():
            raise NotImplementedError(
                "the meridian quadrature needs the marked points on one line "
                "and every perturbation shift along it; use mc_probe")
        line = _Line.of(self)

        def axial(z):
            return np.column_stack((z, np.zeros_like(z)))

        centers = axial((self.centers - line.p0) @ line.a)
        return dataclasses.replace(self, towers=tuple(
            dataclasses.replace(t, center=c, shifts=axial(t.shifts @ line.a))
            for t, c in zip(self.towers, centers)))

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        """u at one point (d,) or a batch (..., d); ValueError at a marked
        point."""
        x = np.asarray(x, dtype=float)
        out = self._glued(x.reshape(-1, x.shape[-1]))
        return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])

    def _glued(self, pts: np.ndarray, own=None, sq=None) -> np.ndarray:
        """u at the points (k, d): the half towers, then center by center
        chi_i phi_i, taken only at points inside CUT_OFF.  own = (i, values)
        puts the given values in place of center i's term; sq, when given,
        holds each center's squared distances _sq_dist(pts, x_i)."""
        out = np.zeros(pts.shape[0])
        for cfg in self.towers:
            out += tower_eval(pts, cfg, self.prm)
        for i, c in enumerate(self.centers):
            if own is not None and own[0] == i:
                out += own[1]
                continue
            s2 = _sq_dist(pts, c) if sq is None else sq[i]
            live = np.flatnonzero(s2 < CUT_OFF ** 2)
            if live.size:
                s2 = s2[live]
                out[live] += self._term(i, np.sqrt(s2), s2)
        return out


def _build_towers(centers, baselines, periods, a0_hat, perturb):
    towers = []
    n = centers.shape[1]
    if perturb is not None and len(perturb) != centers.shape[0]:
        raise ValueError(f"perturb has {len(perturb)} entries for "
                         f"{centers.shape[0]} towers")
    for i in range(centers.shape[0]):
        base = TowerConfig(index=i, center=centers[i], period=periods[i],
                           levels=LEVELS, baseline=baselines[i])
        lam = base.base_scales[0][LEVELS:]
        r, a_tilde = ((None, np.zeros((LEVELS + 1, n))) if perturb is None
                      else perturb[i])
        a_tilde = np.asarray(a_tilde, dtype=float)
        if a_tilde.shape != (LEVELS + 1, n):
            raise ValueError("perturbation shape mismatch with levels")
        shifts = lam[:, None] ** 2 * (a0_hat[i][None, :] + a_tilde)
        towers.append(dataclasses.replace(
            base, dilations=r, shifts=shifts,
            shift_bound=max(1.0, 2.0 * float(np.linalg.norm(a0_hat[i])) + 1.0)))
    return tuple(towers)


def assemble(balanced: BalancedConfig, prm: Params,
             perturb: list[tuple[np.ndarray, np.ndarray]] | None = None
             ) -> ApproxSolution:
    """The glued function of a balanced configuration: towers of levels
    0..LEVELS, and one periodic profile per distinct period, solved at
    solve_periodic's tolerance and put on PROFILE_M points.  perturb gives
    each tower's per-level (dilations, shifts).  ValueError when the points
    are not prm.n-dimensional, or L_i is not periods_from_q(q, L) to
    1e-12."""
    centers = balanced.sigma_set.points
    if centers.shape[1] != prm.n:
        raise ValueError(f"points have {centers.shape[1]} coordinates, "
                         f"need n = {prm.n}")
    L_i = periods_from_q(balanced.q, balanced.L, prm)
    if not np.allclose(balanced.L_i, L_i, rtol=1e-12, atol=0.0):
        raise ValueError(f"L_i {balanced.L_i} are not the periods of q at "
                         f"L = {balanced.L}")
    sols = {}
    for L in balanced.L_i:
        key = round(float(L), 12)
        if key not in sols:
            sols[key] = solve_periodic(L, prm, M=PROFILE_M)
    cyls = tuple(sols[round(float(L), 12)] for L in balanced.L_i)
    towers = _build_towers(centers, balanced.R, balanced.L_i,
                           balanced.a0_hat, perturb)
    return ApproxSolution(prm=prm, towers=towers, cyls=cyls,
                          balanced=balanced)


# ─────────────────────────────────────────────────────────────────────────────
# meridian half-plane quadrature
#
# Within the reduction every integrand depends on y only through its axial
# coordinate z and its distance rho from the singular line.  An integral over
# R^n is then one over the half-plane rho > 0 against |S^(n-2)| rho^(n-2)
# dz drho, and under the Riesz kernel the orbit factor |S^(n-2)| becomes
# kernels.ring_kernel.  Tensor panels cover the half-plane: log-polar about
# each center weighted by chi_i, polar about the origin weighted by
# 1 - sum chi_i.  Every panel carries the 16-point Gauss-Legendre rule and,
# for the self-check, the 8-point rule.

# points per evaluation block of an integrand or of the kernel, measured on
# the gate fixture's residuals and projections: 8192 runs about a fifth
# faster than 2048 and near unbounded blocks, for under 1 MB of peak memory
# where unbounded blocks take about 5.5 MB
_BLOCK = 8192
# Monte Carlo probe: draws per block, per residual's sample, and replicates
_MC_BLOCK = 16_384
_MC_SAMPLES = 50_000
_MC_REPLICATES = 16
_ORDERS = (16, 8)
# panel sizes at tol 1e-7: log-radius across the cutoff annuli, above and
# below the deepest sample, radius near the origin, log-radius beyond; the
# number of angular panels where samples sit (or the other centers are
# near), and deeper.  A tighter tol shrinks each size by (tol/1e-7)^(1/16),
# the 8-point rule's order.
_H_CUT, _H_BALL, _H_DEEP, _H_FAR, _H_LOG_FAR = 0.25, 0.5, 1.0, 0.25, 0.4
_ANGLES_FINE, _ANGLES_COARSE = 6, 2


@dataclass(frozen=True)
class _Line:
    """The singular line: foot p0 nearest the origin, direction a and a unit
    normal e; (z, rho) is the point p0 + z a + rho e.  e is a coordinate
    axis where a and p0 vanish when there is one, so rho lands in its own
    coordinate without rounding."""

    p0: np.ndarray
    a: np.ndarray
    e: np.ndarray

    @classmethod
    def of(cls, u: ApproxSolution) -> "_Line":
        a = u.axis
        p0 = u.centers[0] - (u.centers[0] @ a) * a
        free = np.flatnonzero((a == 0.0) & (p0 == 0.0))
        e = (np.eye(a.size)[free[0]] if free.size
             else _complete_frame(a, p0))
        return cls(p0, a, e)

    def coords(self, x: np.ndarray):
        """(z, rho) of points (..., n)."""
        rel = np.asarray(x, dtype=float) - self.p0
        z = rel @ self.a
        return z, np.linalg.norm(rel - z[..., None] * self.a, axis=-1)


def _patch_sum(sets, w: np.ndarray, z: np.ndarray, rho: np.ndarray,
               zx: float, rx: float) -> list[float]:
    """Per node set of `sets` (one prm), the sum of w * fn(zr, u) *
    ring_kernel(x; z, rho) over the points (z, rho), u = um there, block by
    block; the kernel once per block for all sets."""
    totals = [0.0] * len(sets)
    for s in range(0, z.size, _BLOCK):
        b = slice(s, s + _BLOCK)
        zr = np.stack((z[b], rho[b])).T
        kern = ring_kernel(zx - z[b], rx, rho[b], sets[0].um.prm)
        for m, ns in enumerate(sets):
            totals[m] += float((w[b] * ns.fn(zr, ns.um(zr))) @ kern)
    return totals


def _split(breaks, h: float) -> np.ndarray:
    """Edges cutting each interval between consecutive breaks into equal
    panels of at most h."""
    out = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        out.extend(np.linspace(a, b, max(1, int(np.ceil((b - a) / h))) + 1)[1:])
    return np.array(out)


class _Panels:
    """Tensor panels in polar coordinates (q1, q2) about the point (zc, 0):
    q1 = -ln s in the ball about center `own`, q1 = s in the far region
    (own None), q2 the angle from the line.  The partition weight is
    chi(s) = cutoff(s, INT_ON, INT_OFF) in a ball and part(z, rho) in the
    far region, where it is exactly 1 at radii beyond `reach`.  Per rule
    (16 and 8 points) it keeps the radii s and the angles' cosines and
    sines, which give the nodes, and one weight array wf: quadrature weight
    x Jacobian x rho^(n-2) x partition weight x integrand, the last two
    multiplied in by `fill`."""

    def __init__(self, zc: float, e1: np.ndarray, e2: np.ndarray, n: int,
                 own: int | None = None, part=None, reach: float = np.inf):
        self.log, self.zc, self.e1, self.e2 = own is not None, zc, e1, e2
        self.own, self.part, self.n, self.reach = own, part, n, reach
        # on node sets of one prm and one set of marked points, panels with
        # equal keys have the same nodes, partition weight and patches
        self.key = (own, zc, reach, e1.tobytes(), e2.tobytes())
        self.rules = []
        for order in _ORDERS:
            q1, w1 = gauss_panels(e1, order)
            q2, w2 = gauss_panels(e2, order)
            s = np.exp(-q1) if self.log else q1
            sin = np.sin(q2)
            # Jacobian x rho^(n-2) = (s^2 in a ball, else s) s^(n-2) sin^(n-2)
            rows = w1 * (s * s if self.log else s) * s ** (n - 2)
            self.rules.append((s, np.cos(q2), sin,
                               np.outer(rows, w2 * sin ** (n - 2))))

    def nodes(self, k: int, rows: slice, cols: slice = slice(None)):
        """(z, rho) of rule k on a block of its rows and columns."""
        s, cos, sin, _ = self.rules[k]
        return (self.zc + s[rows, None] * cos[cols],
                s[rows, None] * sin[cols])

    def chunks(self, k: int) -> list[slice]:
        """Row blocks of rule k of at most _BLOCK nodes each."""
        s, cos = self.rules[k][:2]
        step = max(1, _BLOCK // cos.size)
        return [slice(a, a + step) for a in range(0, s.size, step)]

    def map(self, q1, q2):
        """(z, rho, Jacobian x rho^(n-2) x partition weight) at (q1, q2)."""
        s = np.exp(-q1) if self.log else q1
        z, rho = self.zc + s * np.cos(q2), s * np.sin(q2)
        jac = s * s if self.log else s
        part = cutoff(s, INT_ON, INT_OFF) if self.log else self.part(z, rho)
        return z, rho, jac * rho ** (self.n - 2) * part

    def fill(self, um: ApproxSolution, fn, memo: dict | None = None) -> int:
        """Multiply the weights by the partition weight and by fn(zr, u),
        evaluated once at each node (z, rho) where the weight is not 0, with
        u = um there; the number of those nodes.  In a ball the partition
        weight and the own center's term chi_i phi_i depend on the radius
        alone: both are taken once per radius of the rule, at its exact s,
        and only the half towers and the other centers' terms are evaluated
        node by node.  The far region evaluates u pointwise, and its
        partition weight only on the rows (radii, ascending) within reach.
        A chunk with no zero weight (in a ball, or beyond reach) is taken
        whole, with no gather and scatter.  memo, when given, holds u's
        values per chunk and panel key, read by later panels of that key."""
        count = 0
        for k, (s, _, _, wf) in enumerate(self.rules):
            if self.log:
                wf *= cutoff(s, INT_ON, INT_OFF)[:, None]
                own = np.zeros(s.size)
                cut = s < CUT_OFF
                sc = s[cut]
                own[cut] = um._term(self.own, sc, sc * sc)
                own = np.broadcast_to(own[:, None], wf.shape)
            for r in self.chunks(k):
                z, rho = self.nodes(k, r)
                w = wf[r]
                if not self.log:
                    m = int(np.searchsorted(s[r], self.reach, side="right"))
                    if m:
                        w[:m] *= self.part(z[:m], rho[:m])
                live = (w != 0.0).ravel()
                if live.all():
                    live = slice(None)
                zr = np.stack((z.ravel()[live], rho.ravel()[live])).T
                uv = None if memo is None else memo.get((self.key, k, r.start))
                if uv is None:
                    uv = (um._glued(zr, (self.own, own[r].ravel()[live]))
                          if self.log else um(zr))
                    if memo is not None:
                        memo[self.key, k, r.start] = uv
                w.reshape(-1)[live] *= fn(zr, uv)
                count += zr.shape[0]
        return count

    def near(self, z: float, rho: float):
        """(q, panel ranges) about the point (z, rho): its own panel (both,
        on an edge) and one more each way, all angles where the range reaches
        the polar origin; None when the point lies outside."""
        s = float(np.hypot(z - self.zc, rho))
        if self.log and s == 0.0:
            return None
        q = (-np.log(s) if self.log else s, float(np.arctan2(rho, z - self.zc)))
        rng = []
        for edges, qk in zip((self.e1, self.e2), q):
            if not edges[0] <= qk <= edges[-1]:
                return None
            i = min(int(np.searchsorted(edges, qk, side="right")) - 1,
                    len(edges) - 2)
            rng.append((max(i - 1, 0), min(i + 1, len(edges) - 2)))
        if not self.log and rng[0][0] == 0:
            rng[1] = (0, len(self.e2) - 2)
        return q, rng

    def patch(self, q, rng, order: int, t_edges: np.ndarray):
        """Nodes (q1, q2) and weights over the panels in rng, by triangles
        from q to each side (Duffy): the weights carry the radial factor t,
        which takes up the kernel's kink at q."""
        (i0, i1), (j0, j1) = rng
        e1, e2 = self.e1[i0:i1 + 2], self.e2[j0:j1 + 2]
        a1, b1, a2, b2 = (float(v) for v in (e1[0], e1[-1], e2[0], e2[-1]))
        corners = ((a1, a2), (b1, a2), (b1, b2), (a1, b2))
        t, tw = gauss_panels(t_edges, order)
        tcol = t[:, None]
        x0, y0 = (float(v) for v in q)
        q1s, q2s, ws = [], [], []
        for k in range(4):
            (px, py), (nx, ny) = corners[k], corners[(k + 1) % 4]
            sx, sy = nx - px, ny - py
            det = abs((px - x0) * sy - (py - y0) * sx)
            if det == 0.0:          # q lies on this side
                continue
            along, p, side = (e1, px, sx) if k % 2 == 0 else (e2, py, sy)
            s, sw = gauss_panels(np.sort(np.abs(along - p) / abs(side)),
                                 order)
            # the triangle's nodes q + t (P + s side - q), by coordinate
            q1s.append((x0 + tcol * ((px + s * sx) - x0)).ravel())
            q2s.append((y0 + tcol * ((py + s * sy) - y0)).ravel())
            ws.append((det * (t * tw)[:, None] * sw[None, :]).ravel())
        return np.concatenate(q1s), np.concatenate(q2s), np.concatenate(ws)


@dataclass(frozen=True)
class _Nodes:
    um: ApproxSolution                       # u on (z, rho): u.meridian()
    # the integrand at points (k, 2) of (z, rho), given u's values there
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    panels: tuple[_Panels, ...]
    evals: int                               # nodes fn was evaluated on


def _node_set(um: ApproxSolution, fn, tol: float, tau_ref: float,
              zx: np.ndarray, rx: np.ndarray, memo: dict | None = None
              ) -> _Nodes:
    """Panels over the half-plane, with fn(zr, u) evaluated on their nodes
    once, u from um = u.meridian() or memo: see `_Panels.fill`.  (zx, rx)
    are the samples' points in the half-plane, none for a projection.

    Below the log-depth tau_ref the integrand's share falls like
    e^(-gamma_s tau), so each ball runs in log-radius from -ln INT_OFF to
    tau_hi = tau_ref + 2 ln(1/tol)/gamma_s, where the cut tail is near tol^2
    of the whole: far below the rule error the check allows, also for the
    projections, which are small differences of their integrand's mass.
    The log-radius has breaks at the partition and assembly cutoff radii;
    the angle takes the fine panels down to 2 below the deepest sample
    inside it (where a sample's kernel needs them) and the coarse ones
    deeper.  The far region runs in radius to 0.5 past the balls, then in
    log-radius steps to r_far = 2 R tol^(-1/n), R the larger of the balls'
    reach and the farthest sample: past r_far the integrand and
    u^p K r^(n-1), which decay like r^(-n-1), leave less than tol of either.
    fn takes points (k, 2) of (z, rho), z measured from the line's foot,
    and u's values there; the centers sit at (um.centers[:, 0], 0).  A
    ball's radial part is evaluated in the frame of its center, at the
    exact radius; the towers, and so u's other terms, are evaluated at the
    absolute z.
    """
    prm, zc = um.prm, um.centers[:, 0]
    h = min(1.0, (tol / 1e-7) ** (1.0 / 16.0))
    tau_hi = tau_ref + 2.0 * np.log(1.0 / tol) / prm.gamma_s
    fine, coarse = (np.linspace(0.0, np.pi, int(np.ceil(k / h)) + 1)
                    for k in (_ANGLES_FINE, _ANGLES_COARSE))
    cuts = sorted({-np.log(INT_OFF), -np.log(INT_ON), -np.log(CUT_OFF),
                   -np.log(CUT_ON)})
    panels = []
    for i, z0 in enumerate(zc):
        d = np.hypot(zx - z0, rx)
        inside = d[(d > 0) & (d < INT_OFF)]
        tau_f = max([cuts[-1]] + list(2.0 - np.log(inside)))
        e_near = np.concatenate([_split(cuts, h * _H_CUT)[:-1],
                                 _split([cuts[-1], tau_f], h * _H_BALL)])
        deep = max(tau_hi, tau_f + h * _H_DEEP)
        panels.append(_Panels(z0, e_near, fine, prm.n, own=i))
        panels.append(_Panels(z0, _split([tau_f, deep], h * _H_DEEP), coarse,
                              prm.n, own=i))

    def far(z, rho):
        return 1.0 - sum(cutoff(np.hypot(z - c, rho), INT_ON, INT_OFF)
                         for c in zc)

    zo = float(np.mean(zc))
    reach = float(np.max(np.abs(zc - zo))) + INT_OFF
    # a node beyond reach is INT_OFF or more from every center, where the far
    # weight is exactly 1; the margin covers the rounding of its coordinates
    edge = reach + 16.0 * np.finfo(float).eps * (abs(zo) + reach)
    r1 = reach + 0.5
    r_far = 2.0 * max([reach] + list(np.hypot(zx - zo, rx))) \
        * tol ** (-1.0 / prm.n)
    e_far = np.concatenate([_split([0.0, r1], h * _H_FAR)[:-1],
                            np.exp(_split([np.log(r1), np.log(r_far)],
                                          h * _H_LOG_FAR))])
    panels.append(_Panels(zo, e_far, fine, prm.n, part=far, reach=edge))
    evals = sum(p.fill(um, fn, memo) for p in panels)
    return _Nodes(um=um, fn=fn, panels=tuple(panels), evals=evals)


def _t_edges(prm: Params) -> np.ndarray:
    """Radial panels of the patch triangles.  When its series terminates the
    ring kernel is analytic in polar coordinates about its own point;
    otherwise it carries d^(2 sigma - 2) there and the panels are graded."""
    terminating = prm.sigma >= 1.5 and float(prm.sigma - 1.5).is_integer()
    grade = [] if terminating else list(0.2 ** np.arange(6, 0, -1))
    return np.array([0.0] + grade + [0.5, 1.0])


def _dual_nodes(um: ApproxSolution, F, zx: np.ndarray, rx: np.ndarray,
                tol: float) -> _Nodes:
    """Node set of the dual map at the samples (zx, rx).  u^p s^n falls like
    e^(-gamma_s tau) below the first level (the periodic profile keeps
    adding levels under the tower's last one), and a sample at depth tau_x
    sees that tail amplified by e^(gamma_s tau_x), so the depth reference
    is the deeper of the two."""
    d = np.min(np.hypot(zx[:, None] - um.centers[:, 0], rx[:, None]), axis=1)
    tau_ref = max([-np.log(cfg.level_scales[0]) for cfg in um.towers]
                  + list(-np.log(d[d > 0])))
    return _node_set(um, F, tol, tau_ref, zx, rx)


def _require_unmarked(centers: np.ndarray, x: np.ndarray) -> None:
    """At a marked point u^p is not integrable against the kernel."""
    at = np.flatnonzero(np.all(centers == x, axis=1))
    if at.size:
        raise ValueError(f"the dual map is infinite at marked point "
                         f"{int(at[0])}")


def _dual_at(sets, zx: np.ndarray,
             rx: np.ndarray) -> list[list[tuple[float, float, int]]]:
    """Per sample x = (zx[s], rx[s]) of the half-plane and per node set of
    `sets` (one prm and one set of marked points), the (16-point, 8-point)
    value of int |x-y|^(2s-n) F(y) dy: the set's kernel sums with the
    panels about x taken out, plus those panels again on triangles from x,
    where F is evaluated afresh; and the number of those patch nodes.
    Panels in one place of the sets' lists with equal keys take the kernel
    and the patch once; each chunk's nodes are formed once, and its kernel
    for groups of samples of at most 2 _BLOCK values.  Each sample and set
    adds its terms in the order of a call on it alone, so its sums are
    those of that call bit for bit.  No x is a marked point: there u^p is
    not integrable against the kernel, and the callers refuse it."""
    prm = sets[0].um.prm
    t_edges = _t_edges(prm)
    xs = list(zip(zx.tolist(), rx.tolist()))
    zc, rc = zx[:, None, None], rx[:, None, None]
    out = [[[0.0, 0.0] for _ in sets] for _ in xs]
    evals = [[0] * len(sets) for _ in xs]
    for row in zip(*(ns.panels for ns in sets)):
        groups: dict = {}
        for m, p in enumerate(row):
            groups.setdefault(p.key, []).append(m)
        for members in groups.values():
            p = row[members[0]]
            hits = [p.near(*x) for x in xs]
            for k, order in enumerate(_ORDERS):
                for r in p.chunks(k):
                    z, rho = p.nodes(k, r)
                    step = max(1, 2 * _BLOCK // z.size)
                    for g in range(0, len(xs), step):
                        kern = ring_kernel(zc[g:g + step] - z,
                                           rc[g:g + step], rho, prm)
                        for s, ks in enumerate(kern, g):
                            for m in members:
                                out[s][m][k] += float(np.sum(
                                    row[m].rules[k][3][r] * ks))
                for s, (x, hit) in enumerate(zip(xs, hits)):
                    if hit is None:
                        continue
                    (i0, i1), (j0, j1) = hit[1]
                    r = slice(i0 * order, (i1 + 1) * order)
                    c = slice(j0 * order, (j1 + 1) * order)
                    z, rho = p.nodes(k, r, c)
                    kern = ring_kernel(x[0] - z, x[1], rho, prm)
                    for m in members:
                        out[s][m][k] -= float(np.sum(row[m].rules[k][3][r, c]
                                                     * kern))
                    q1, q2, wq = p.patch(*hit, order, t_edges)
                    pz, prho, pw = p.map(q1, q2)
                    pw = pw * wq
                    live = pw != 0.0
                    sums = _patch_sum([sets[m] for m in members], pw[live],
                                      pz[live], prho[live], *x)
                    for m, total in zip(members, sums):
                        out[s][m][k] += total
                        evals[s][m] += int(np.count_nonzero(live))
    return [[(fine, coarse, e) for (fine, coarse), e in zip(o, ev)]
            for o, ev in zip(out, evals)]


# ─────────────────────────────────────────────────────────────────────────────
# dual operator


def dual_apply_radial(u_fn, center: np.ndarray, x: np.ndarray, prm: Params,
                      tol: float = 1e-9) -> float:
    """Riesz image of f(u) for u radial about one center: the angular
    integral collapses onto the reduced cylindrical kernel, convolved in
    tau = -ln|y - center| by kernels.log_radial_convolution (at x = center
    with its far form |S^(n-1)| e^(gamma_s tau)), times the closed-form
    Params.dual_const.  ValueError at a marked point of an ApproxSolution."""
    center = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    if isinstance(u_fn, ApproxSolution):
        _require_unmarked(u_fn.centers, x)
    c = prm.dual_const
    g = prm.gamma_s
    ray = np.eye(center.size)[0]

    def up(taus):
        pts = center + np.exp(-taus)[:, None] * ray
        return (np.exp(-g * taus) * np.asarray(u_fn(pts))) ** prm.p

    rho = float(np.linalg.norm(x - center))
    if rho == 0.0:
        # a u bounded at the center leaves e^(-2 sigma tau) inward
        val = log_radial_convolution(
            lambda s: prm.omega_sphere * np.exp(-g * s), up, 0.0,
            min(g, 2.0 * prm.sigma), tol, "radial dual map")
        return float(c * val)
    val = log_radial_convolution(lambda s: riesz_kernel_cyl(s, prm), up,
                                 -np.log(rho), g, tol, "radial dual map")
    return float(c * rho ** (-g) * val)


def _meridian(u: ApproxSolution) -> tuple[ApproxSolution, _Line]:
    """(u.meridian(), the line's frame): the quadrature runs on the meridian
    half-plane, where u must depend on (z, rho) alone and the ring kernel
    must stay bounded on the diagonal."""
    um = u.meridian()
    if u.prm.sigma <= 1.0:
        raise NotImplementedError(
            f"the ring kernel is unbounded on the diagonal at sigma = "
            f"{u.prm.sigma} <= 1")
    return um, _Line.of(u)


def dual_apply(u: ApproxSolution, x: np.ndarray, tol: float = 1e-8) -> float:
    """(-Delta)^{-sigma} of f applied to the assembled function at x, by
    the meridian quadrature on x's own node set, checked against the
    8-point rule; ValueError at a marked point or for a tol that is not
    finite and positive."""
    _check_tol(tol)
    x = np.asarray(x, dtype=float)
    um, line = _meridian(u)
    _require_unmarked(u.centers, x)
    zx, rx = (np.atleast_1d(v) for v in line.coords(x))
    nodes = _dual_nodes(um, lambda zr, uv: uv ** u.prm.p, zx, rx, tol)
    fine, coarse, _ = _dual_at((nodes,), zx, rx)[0][0]
    check_rules(fine, coarse, tol, "dual map")
    return float(u.prm.dual_const * fine)


def mc_flagged(check: dict) -> bool:
    """A `residuals` Monte Carlo check fails the guard: its estimate is
    NaN or lies more than 6 stderr from the quadrature's value, which with
    16 replicates (t(15) tails) happens to 2.4e-5 of checks on correct code."""
    return not abs(check["mc"] - check["det"]) <= 6.0 * check["mc_stderr"]


def _mc_draws(n_samples: int, parts: int) -> int:
    """n_samples rounded up to equal strata per component and replicate."""
    return _MC_REPLICATES * parts * -(-n_samples // (_MC_REPLICATES * parts))


def mc_probe(u: ApproxSolution, x: np.ndarray, n_samples: int,
             seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the dual operator at x (quadrature guard):
    (estimate, standard error) from n_samples >= 2 draws, rounded up to
    whole strata by `_mc_draws`, on n-D points.

    Importance mixture of equal weights: about each center a radius
    (1 - U)^(1/gamma_s) in (0, 1], of density gamma_s s^(gamma_s - n) /
    |S^(n-1)|, matching the local blow-up; about x a heavy tail, radius
    (1 - U)^(-1/(2 sigma)) >= 1, of density 2 sigma r^(-2 sigma - n) /
    |S^(n-1)|.  Stratified: each of _MC_REPLICATES = 16 replicates gives
    each component m draws, the j-th at U = (j + V)/m, with 1 - U formed as
    (m - j - V)/m > 0; the estimate is the mean of the replicate means, the
    standard error their spread over 4.  The generator gives one V per draw,
    then the directions' normals block by block: blocks drawn in sequence
    are one batch, so the result does not depend on _MC_BLOCK.  Per draw
    only its component label (one byte below 255 marked points), radius and
    value are kept.  The points, stored by coordinate, each center's squared
    distances, which the density and u's cutoffs share, the kernel and u are
    built one block of about _MC_BLOCK draws at a time.  The blocks are
    near-equal, never a short tail: u's last bit depends on the batch size
    below about 12 points.  A draw that rounds outside every component's
    support has density 0 and value 0.  ValueError for an x that is not a
    finite point of R^n, and at a marked point, where the dual map is
    infinite, as in `dual_apply`.

    The mixture does not cover the region within 1 of x but outside every
    center's unit ball: its density is 0 there, and the estimate omits that
    share of the integral.  There u is the half towers alone, and on the
    balanced d = 3.1, L = 3.3 pair the share is 1.3e-7 to 7.8e-7 of the
    dual value at the transition samples and at most 3.1e-7 at the far
    ones, far below the probe's standard error there, about 2e-3 to 4e-3
    of the value at 50k draws.
    """
    if n_samples < 2:
        raise ValueError(f"mc_probe needs n_samples >= 2, got {n_samples}")
    prm, N = u.prm, u.size
    n, g, two_s = prm.n, prm.gamma_s, 2.0 * prm.sigma
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"mc_probe needs a finite point of R^{n}, got {x}")
    _require_unmarked(u.centers, x)
    rng = np.random.default_rng(seed)
    draws = _mc_draws(n_samples, N + 1)
    radius = rng.random(draws)
    cells = radius.reshape(_MC_REPLICATES, N + 1, -1)   # V to radius, in place
    m = cells.shape[-1]
    np.divide(np.arange(m, 0, -1) - cells, m, out=cells)
    cells **= np.append(np.full(N, 1.0 / g), -1.0 / two_s)[:, None]
    comp = np.repeat(np.tile(np.arange(N + 1, dtype=np.min_scalar_type(N + 1)),
                             _MC_REPLICATES), m)
    anchors = np.vstack((u.centers, x)).T
    w_in = g / prm.omega_sphere / (N + 1)
    w_far = two_s / prm.omega_sphere / (N + 1)
    vals = np.zeros(draws)
    nb = -(-draws // _MC_BLOCK)
    edges = [k * draws // nb for k in range(nb + 1)]
    for lo, hi in zip(edges, edges[1:]):
        c, r = comp[lo:hi], radius[lo:hi]
        dirs = rng.standard_normal((hi - lo, n))
        t = r / np.sqrt(_sq_dist(dirs, np.zeros(n)))
        ys = np.empty((n, hi - lo))     # the points, by coordinate
        for k, y in enumerate(ys):
            np.multiply(dirs[:, k], t, out=y)
            y += anchors[k, c]
        pts = ys.T
        sq = [_sq_dist(pts, ci) for ci in u.centers]
        dens = np.zeros(hi - lo)
        for s2 in sq:
            np.add(dens, w_in * s2 ** (0.5 * (g - n)), out=dens,
                   where=s2 <= 1.0)
        rr2 = _sq_dist(pts, x)
        np.add(dens, w_far * rr2 ** (-0.5 * (two_s + n)), out=dens,
               where=rr2 >= 1.0)
        val = rr2 ** (0.5 * (two_s - n)) * u._glued(pts, sq=sq) ** prm.p
        np.divide(val, dens, out=vals[lo:hi], where=dens > 0.0)
    means = np.mean(vals.reshape(_MC_REPLICATES, -1), axis=1)
    return (prm.dual_const * float(np.mean(means)),
            prm.dual_const * float(np.std(means, ddof=1)
                                   / np.sqrt(_MC_REPLICATES)))


# ─────────────────────────────────────────────────────────────────────────────
# cokernel projections


class Estimate(float):
    """A quadrature value that carries its error estimate `err_est`, the
    gap between the 16- and 8-point rules, and `mass`, the integral of its
    integrand's absolute value."""

    def __new__(cls, value: float, err_est: float, mass: float):
        out = super().__new__(cls, value)
        out.err_est, out.mass = err_est, mass
        return out


def _plain_integral(um: ApproxSolution, G, lam: float, tol: float,
                    memo: dict | None = None) -> Estimate:
    """int G dy over R^n on the meridian panels, for integrands G(zr, u)
    that decay like e^(-gamma_s |tau|) in the log-distance tau from a bubble
    of scale lam (memo: see `_Panels.fill`).  A projection is a small
    difference of that integrand's mass int |G|, so the 8-point rule must
    agree to tol times the mass."""
    nodes = _node_set(um, G, tol, -np.log(lam), np.empty(0), np.empty(0),
                      memo)
    fine, coarse, mass = (um.prm.omega_equator * sum(
        float(np.sum(op(p.rules[k][3]))) for p in nodes.panels)
        for k, op in ((0, np.asarray), (1, np.asarray), (0, np.abs)))
    check_rules(fine, coarse, tol, "projection", scale=mass)
    return Estimate(fine, abs(fine - coarse), mass)


def beta_projections(u: ApproxSolution, idxs, tol: float = 1e-9
                     ) -> list[Estimate]:
    """Projections of the residual on the (tower, level, mode) directions
    idxs, as `Estimate`s: floats with their err_est and integrand's mass.
    u is evaluated once per distinct panel (`_Panels.key`) across the
    indices, and only its values are kept, within the call; each value is
    that of `beta_projection` on its index alone, bit for bit.  The indices
    are checked in order; the first refused one raises.

    The integrand runs on the meridian half-plane, with the level's bubble
    and kernel taken from the meridian tower, their squared distances and
    bubble values formed once for both.  Translation mode l is a_l times
    the axial mode, a the line's unit direction: the part of the kernel
    direction across the line is odd on each S^(n-2) orbit and integrates
    to 0.  A zero component a_l gives 0 exactly, with err_est and mass 0:
    nothing is integrated.  The
    quadrature nodes sit at the axial coordinate z_c + s cos(theta) in the
    line's frame, which is rounded to the double spacing delta = |z_c|*eps
    at the level center's axial coordinate z_c, so inside the level's core
    (s ~ lam_j) every integrand value carries a relative error of about
    delta/lam_j.  A level with delta/lam_j > tol cannot be resolved to tol
    and raises ValueError.  On the balanced pair 3 apart (n=5, sigma=1.5)
    the normalised pairing int f'(U_j) Z_j^2 of the tower at z_c = 3 was
    off by 3e-4 to 0.07 times delta/lam_j over levels with delta/lam_j from
    1e-7 to 0.7 (L = 2.5..3.5), and by 13x at delta/lam_j = 169; a tower at
    the line's foot has delta = 0.  Each value passes the 16- vs 8-point
    check at tol or raises QuadratureError.  ValueError for a tol that is
    not finite and positive.
    """
    _check_tol(tol)
    prm = u.prm
    um, _ = _meridian(u)
    memo: dict = {}
    out = []
    for idx in idxs:
        i = idx.tower
        if not (0 <= i < u.size):
            raise ValueError(f"tower {i} out of range")
        if idx.level > u.towers[i].levels or idx.mode > prm.n:
            raise ValueError("index outside the truncation")
        a_l = float(u.axis[idx.mode - 1]) if idx.mode else 1.0
        if a_l == 0.0:
            out.append(Estimate(0.0, 0.0, 0.0))  # odd across the line
            continue
        cfg = um.towers[i]
        b = cfg.level_bubble(idx.level)
        spacing = abs(float(b.center[0])) * np.finfo(float).eps
        if spacing > tol * b.lam:
            raise ValueError(
                f"level {idx.level} of tower {i} cannot be resolved to "
                f"tol={tol:g}: the double spacing at its center is "
                f"{spacing / b.lam:.3g} of its scale")
        axial = dataclasses.replace(idx, mode=min(idx.mode, 1))

        def G(zr, uv):      # filled within this iteration
            at = _level_at(zr, cfg, idx.level, prm)
            core = (nonlin_prime(at[1], prm) * uv - nonlin(uv, prm)
                    - (prm.p - 1.0) * nonlin(at[1], prm))
            return core * (a_l * kernel_Z(zr, axial, cfg, prm, at))

        out.append(_plain_integral(um, G, b.lam, tol, memo))
    return out


def beta_projection(u: ApproxSolution, idx: KernelIndex,
                    tol: float = 1e-9) -> Estimate:
    """The projection of `beta_projections` on the one index idx."""
    return beta_projections(u, (idx,), tol)[0]


def beta_leading_form(u: ApproxSolution, i: int) -> float:
    """Printed leading bracket of the level-0 dilation projection,
    -c_ns q_i e^(-g L) F_i(q, R): the first balancing map, zero at
    balance."""
    if u.balanced is None:
        raise ValueError("needs a balanced multi-point configuration")
    prm, cfg, g = u.prm, u.balanced, u.prm.gamma_s
    F = _balance_map(cfg.sigma_set, cfg.q, cfg.R, const_A2(prm), g)[0]
    return float(-prm.c_ns * cfg.q[i] * F[i] * np.exp(-g * cfg.L))


# ─────────────────────────────────────────────────────────────────────────────
# weighted norms, samples, residual report


@dataclass(frozen=True)
class WeightSpec:
    tau: float
    kind: str = "starstar"

    def __post_init__(self) -> None:
        if self.kind not in ("star", "starstar"):
            raise ValueError("kind must be 'star' or 'starstar'")
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite: {self.tau}")

    def resolve(self, prm: Params) -> tuple[float, float]:
        """(near exponent, far exponent) as printed; the starstar table is
        asymmetric (n+tau near, -n+2 sigma far) and kept verbatim.  The star
        kind's zeta1 is the midpoint of its window (-gamma_s, min(-gamma_s +
        2 sigma, 0))."""
        g = prm.gamma_s
        z1 = 0.5 * (-g + min(-g + 2 * prm.sigma, 0.0))
        if self.kind == "star":
            return min(z1, -g + self.tau), -(prm.n + 2 * prm.sigma)
        return prm.n + self.tau, -prm.n + 2 * prm.sigma


def weighted_fn_norm(points: np.ndarray, values: np.ndarray,
                     tags: list[str], weight: WeightSpec,
                     sigma_set_points: np.ndarray, prm: Params) -> float:
    """Discrete sup proxy: near samples weighted dist^{-z_near}, far samples
    |x - c|^{-z_far} about the centroid c of the marked points (where
    `sample_grid` places them), transition plain.  NaN over zero samples,
    and when any value is NaN."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(tags) == 0 or np.any(np.isnan(values)):
        return float("nan")
    z_near, z_far = weight.resolve(prm)
    dists = np.min(np.linalg.norm(
        points[:, None, :] - sigma_set_points[None, :, :], axis=-1), axis=1)
    radii = np.linalg.norm(points - sigma_set_points.mean(axis=0), axis=-1)
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
    """Deterministic graded grid: near radii about each marked point and
    transition radii about the first, along the line both ways and along its
    normal `_Line.of(u).e`, then far radii from the centroid, along the line
    and the normal.  Near radii are absolute so that sweeps in the period
    compare like with like."""
    line = _Line.of(u)
    a, e = line.a, line.e
    rings = [(c, NEAR_RADII, (a, -a, e), f"near:{i}")
             for i, c in enumerate(u.centers)]
    rings += [(u.centers[0], TRANSITION_RADII, (a, -a, e), "transition"),
              (u.origin, FAR_RADII, (a, e), "far")]
    pts, tags = [], []
    for c, radii, directions, tag in rings:
        pts += [c + r * d for r in radii for d in directions]
        tags += [tag] * (len(radii) * len(directions))
    return np.asarray(pts), tags


@dataclass(frozen=True)
class ResidualReport:
    L: float
    weight_kind: str
    tau: float
    points: np.ndarray
    tags: tuple[str, ...]
    values: np.ndarray           # N_sigma(u) at the samples
    err_est: np.ndarray          # 16- vs 8-point gap of each value, NaN if failed
    nodes: int                   # integrand evaluations of the call
    weighted_norm: float
    region_sup: dict
    mc_seed: int
    mc_checks: tuple
    errors: tuple


def residuals(us, weight: WeightSpec,
              samples: tuple[np.ndarray, list[str]] | None = None,
              tol: float = 1e-8, mc_seed: int = 20240817,
              mc_points: int = 0) -> list[ResidualReport]:
    """N_sigma(u) = u - dual(u) over the sample grid, reported per region,
    for each assembly u of `us`; they share prm and the marked points
    (ValueError otherwise), and so the samples.

    Each assembly has its own node set, with u^p evaluated on it once; one
    `_dual_at` call adds every unmarked sample's kernel sums and patch,
    shared panels once for all, so each report is bit for bit that of a
    call on its assembly, and on each sample, alone.  `nodes` counts the
    evaluations of u^p: the node set's and every patch's.  A sample whose
    16- and 8-point dual values differ by more than tol times the value is
    NaN, with the QuadratureError message in `errors`, and so is a sample
    at a marked point or one that raises alone (the samples run one by one
    when the joint call raises), with its exception's; `err_est` holds the
    gap of every other sample.  ValueError for a tol that is not finite and
    positive.

    mc_points > 0 adds to the first report `mc_probe` checks at that many of
    its finite samples, each of _MC_SAMPLES = 50k draws in 16 replicates,
    after the node sets are released: about 0.3-0.45 us per draw and a
    3.7 MB allocation peak, so 0.02 s per point, on top of the quadrature
    (2-core Intel Xeon, numpy 2.4).  Each check reports both counts; one
    that fails the guard (`mc_flagged`) adds to the first report's `errors`
    a line naming the sample, the gap in standard errors and both values.
    """
    _check_tol(tol)
    u0, prm = us[0], us[0].prm
    if any(u.prm != prm or not np.array_equal(u.centers, u0.centers)
           for u in us):
        raise ValueError("residuals needs assemblies of one prm on the same "
                         "marked points")
    merids = [_meridian(u) for u in us]
    pts, tags = sample_grid(u0) if samples is None else samples
    zx, rx = merids[0][1].coords(pts)
    c = prm.dual_const
    sets = [_dual_nodes(um, lambda zr, uv: uv ** prm.p, zx, rx, tol)
            for um, _ in merids]
    evals = [ns.evals for ns in sets]
    # u once on the unmarked samples; a marked one fails below
    free = ~np.any(np.all(pts[:, None, :] == u0.centers, axis=-1), axis=1)
    shape = (len(us), len(pts))
    uv, vals, err_est = (np.full(shape, np.nan) for _ in range(3))
    for m, u in enumerate(us):
        uv[m, free] = u(pts[free])
    errors = [[] for _ in us]
    try:    # all unmarked samples at once; on an error, sample by sample
        ats = dict(zip(np.flatnonzero(free).tolist(),
                       _dual_at(sets, zx[free], rx[free])))
    except Exception:
        ats = {}
    for k, x in enumerate(pts):
        try:
            _require_unmarked(u0.centers, x)
            at = ats.pop(k, None) or _dual_at(sets, zx[k:k + 1],
                                              rx[k:k + 1])[0]
        except Exception as exc:  # per-sample propagation
            for e in errors:
                e.append(f"sample {k}: {exc}")
            continue
        for m, (fine, coarse, patch) in enumerate(at):
            evals[m] += patch
            try:
                check_rules(c * fine, c * coarse, tol, "dual map")
            except QuadratureError as exc:
                errors[m].append(f"sample {k}: {exc}")
                continue
            vals[m, k] = uv[m, k] - c * fine
            err_est[m, k] = c * abs(fine - coarse)
    del sets, merids
    checks = []
    ok = ~np.isnan(vals[0])
    if mc_points > 0:
        rng = np.random.default_rng(mc_seed)
        pick = rng.choice(np.flatnonzero(ok), size=min(mc_points,
                                                       int(np.sum(ok))),
                          replace=False)
        for k in pick:
            est, err = mc_probe(u0, pts[k], _MC_SAMPLES, mc_seed + int(k))
            det = float(uv[0, k] - vals[0, k])  # the deterministic dual value
            checks.append({"sample": int(k), "mc": est, "det": det,
                           "mc_stderr": err, "replicates": _MC_REPLICATES,
                           "draws": _mc_draws(_MC_SAMPLES, u0.size + 1)})
            if mc_flagged(checks[-1]):
                gap = abs(est - det) / err if err > 0.0 else np.inf
                errors[0].append(f"sample {k}: Monte Carlo guard: the "
                                 f"probe's {est!r} lies {gap:.3g} stderr "
                                 f"from the quadrature's {det!r}")
    reports = []
    for m, u in enumerate(us):
        ok = ~np.isnan(vals[m])
        good = [t for k, t in enumerate(tags) if ok[k]]
        region_sup: dict = {}
        for tag, v in zip(good, vals[m, ok]):
            region_sup[tag] = max(region_sup.get(tag, 0.0), abs(float(v)))
        norm = weighted_fn_norm(pts[ok], vals[m, ok], good, weight,
                                u.centers, prm)
        L = float(u.balanced.L) if u.balanced is not None \
            else float(u.towers[0].period)
        reports.append(ResidualReport(
            L=L, weight_kind=weight.kind, tau=weight.tau, points=pts,
            tags=tuple(tags), values=vals[m], err_est=err_est[m],
            nodes=evals[m], weighted_norm=float(norm), region_sup=region_sup,
            mc_seed=mc_seed, mc_checks=tuple(checks) if m == 0 else (),
            errors=tuple(errors[m])))
    return reports


def residual(u: ApproxSolution, weight: WeightSpec,
             samples: tuple[np.ndarray, list[str]] | None = None,
             tol: float = 1e-8, mc_seed: int = 20240817,
             mc_points: int = 0) -> ResidualReport:
    """The report of `residuals` on u alone."""
    return residuals((u,), weight, samples, tol, mc_seed, mc_points)[0]
