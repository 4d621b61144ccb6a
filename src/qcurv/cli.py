"""Batch front end: tables, sweeps, balancing, assembly diagnostics.

Every command reads one JSON config, writes CSV/JSON artifacts plus a
manifest into --out (the library returns data; their formats are decided
here alone), and exits 0 on success, 2 on a config problem or a
geometry outside the deterministic reduction, 3 when a solver or quadrature
gives up.  Reruns of the same config are bit-identical:
no timestamps, fixed seeds, deterministic aggregation.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .params import derive_params
from .kernels import (KERNEL_REL_ERR, QuadratureError, decay_slope,
                      riesz_kernel_cyl, singular_kernel_cyl)
from .delaunay import NewtonError, neck_sweep
from .interactions import interaction_constants, oracle_fit_constants, psi
from .balancing import (BalanceError, BalancedConfig, SingularSet, balance,
                        periods_from_q)
from .assembler import (WeightSpec, assemble, beta_leading_form,
                        beta_projection, residual, sample_grid)
from .bubbles import KernelIndex
from . import toda as toda_mod


class ConfigError(ValueError):
    """Anything wrong with the run configuration."""


# ─────────────────────────────────────────────────────────────────────────────
# config plumbing


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _require(doc: dict, key: str, typ, where: str = "config"):
    if key not in doc:
        raise ConfigError(f"{where} is missing required key {key!r}")
    val = doc[key]
    if not isinstance(val, typ) or isinstance(val, bool):
        names = (typ.__name__ if isinstance(typ, type)
                 else "/".join(t.__name__ for t in typ))
        raise ConfigError(f"{where}[{key!r}] must be {names}")
    if isinstance(val, float) and not np.isfinite(val):
        raise ConfigError(f"{where}[{key!r}] must be finite, got {val}")
    return val


def _get(blk: dict, key: str, typ, default, where: str):
    """An optional key of a command block: its default when absent, or null
    where the default is null; otherwise checked like _require, so a bool,
    a string, a fraction, NaN or an infinity is never taken for a number or
    a count."""
    if key not in blk or (default is None and blk[key] is None):
        return default
    return _require(blk, key, typ, where)


def _number_list(vals, what: str) -> list[float]:
    """vals as floats if it is a list of finite numbers (no bools),
    otherwise a ConfigError that names it as `what`."""
    if not (isinstance(vals, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and np.isfinite(float(v)) for v in vals)):
        raise ConfigError(f"{what} must be a list of finite numbers")
    return [float(v) for v in vals]


def _numbers(blk: dict, key: str, default, where: str) -> list[float] | None:
    """An optional list of numbers (no bools) from a command block."""
    vals = _get(blk, key, list, default, where)
    return None if vals is None else _number_list(vals, f"{where}[{key!r}]")


def _params(doc: dict):
    n = _require(doc, "n", int)
    sigma = float(_require(doc, "sigma", (int, float)))
    try:
        return derive_params(n, sigma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _block(doc: dict, name: str) -> dict:
    blk = doc.get(name, {})
    if not isinstance(blk, dict):
        raise ConfigError(f"config[{name!r}] must be an object")
    return blk


def _seed(doc: dict) -> int:
    return _get(doc, "seed", int, 20240817, "config")


# ─────────────────────────────────────────────────────────────────────────────
# output plumbing


def _write_atomic(path: str, data: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


class OutDir:
    """The output directory, the files written to it, and the deterministic
    facts a command leaves for the manifest.  Every JSON file is written by
    `json`: indented, keys sorted, arrays as lists."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.files: list[str] = []
        self.facts: dict = {}

    def write(self, name: str, data: str) -> None:
        _write_atomic(os.path.join(self.root, name), data)
        self.files.append(name)

    def json(self, name: str, doc: dict) -> None:
        self.write(name, json.dumps(doc, indent=2, sort_keys=True,
                                    default=np.ndarray.tolist))


def _manifest(out: OutDir, command: str, config_doc: dict, prm,
              seed: int, tol: float) -> None:
    ic = interaction_constants(prm)
    blob = json.dumps(config_doc, sort_keys=True).encode()
    doc = {
        "command": command,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "n": prm.n,
        "sigma": prm.sigma,
        "seed": seed,
        "tol": tol,
        "constants": {"A1": ic.A1, "A2": ic.A2, "A3": ic.A3,
                      "method": ic.method,
                      "kappa": prm.dual_const / prm.c_ns},
        "outputs": sorted(out.files),
        **out.facts,
    }
    out.json("manifest.json", doc)


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                           for v in row) + "\n")
    return buf.getvalue()


# ─────────────────────────────────────────────────────────────────────────────
# commands


def cmd_kernel(doc: dict, out: OutDir, tol: float) -> None:
    prm = _params(doc)
    blk = _block(doc, "kernel")
    t_max = float(_get(blk, "t_max", (int, float), 16.0, "kernel"))
    t_points = _get(blk, "t_points", int, 33, "kernel")
    t_min = float(_get(blk, "t_min", (int, float), 1e-3, "kernel"))
    if not 0 < t_min < t_max or t_points < 4:
        raise ConfigError("kernel block needs 0 < t_min < t_max and >= 4 "
                          "points")
    grid = np.linspace(t_min, t_max, t_points)
    tail = grid >= t_max / 2
    tables = {"riesz": riesz_kernel_cyl(grid, prm),
              "singular": singular_kernel_cyl(grid, prm, t_min)}
    # both slopes before any file: a tail that underflows to 0 fails here
    slopes = {k: decay_slope(grid[tail], v[tail]) for k, v in tables.items()}
    for kind, vals in tables.items():
        rows = np.column_stack([grid, vals, KERNEL_REL_ERR * np.abs(vals)])
        out.write(f"kernel_{kind}.csv",
                  _csv(["t", "value", "est_error"], rows.tolist()))
    out.json("kernel_slopes.json", {"gamma_s": prm.gamma_s,
                                    "gamma_dual": prm.gamma_dual, **slopes})


def cmd_delaunay(doc: dict, out: OutDir, tol: float) -> None:
    prm = _params(doc)
    blk = _block(doc, "delaunay")
    L_list = _numbers(blk, "L_list", [2.5, 3.0, 3.5, 4.0], "delaunay")
    if len(L_list) < 3:
        raise ConfigError("delaunay.L_list must be a list of >= 3 numbers")
    M = _get(blk, "M", int, 800, "delaunay")
    sweep = neck_sweep(L_list, prm, M=M, tol=min(tol, 1e-8))
    ok = [r for r in sweep.rows if r.error is None]
    if len(ok) < 2:
        bad = "; ".join(f"L={r.L}: {r.error}" for r in sweep.rows if r.error)
        raise NewtonError(f"sweep has {len(ok)} usable rows, need 2+ ({bad})",
                          residual=float("nan"), iterations=0)
    # failed rows keep their nan markers
    out.write("delaunay_sweep.csv", "L,eps,psi_sup,resid,iters\n" + "".join(
        f"{r.L:.6g},{r.eps:.12g},{r.psi_sup:.12g},{r.resid:.6g},{r.iters}\n"
        for r in sweep.rows))
    out.json("delaunay_slopes.json", {"slope_eps": sweep.slope_eps,
                                      "slope_psi": sweep.slope_psi,
                                      "gamma_s": prm.gamma_s})


def cmd_constants(doc: dict, out: OutDir, tol: float) -> None:
    prm = _params(doc)
    blk = _block(doc, "constants")
    ells = _numbers(blk, "psi_ells", [0.0, 0.5, 1.0, 2.0, 4.0, 6.0],
                    "constants")
    if not all(v >= 0 for v in ells):
        raise ConfigError("constants.psi_ells must be nonnegative numbers")
    ic = interaction_constants(prm)
    fitted = oracle_fit_constants(prm)
    out.json("constants.json", {"n": prm.n, "sigma": prm.sigma, **asdict(ic),
                                "oracle_A2": fitted.A2, "oracle_A3": fitted.A3,
                                "oracle_method": fitted.method})
    rows = [[ell, psi(ell, prm)] for ell in ells]
    out.write("psi.csv", _csv(["ell", "psi"], rows))


def _config_geometry(doc: dict, n: int) -> tuple[SingularSet, np.ndarray,
                                                  float]:
    """The top-level points (rows of n numbers), q (numbers) and L (a
    number), typed like block values: no bools, no strings."""
    pts = [_number_list(row, "each row of config['points']")
           for row in _require(doc, "points", list)]
    if any(len(row) != n for row in pts):
        raise ConfigError(f"each row of config['points'] must have n = {n} "
                          "coordinates")
    qv = np.asarray(_number_list(_require(doc, "q", list), "config['q']"))
    L = float(_require(doc, "L", (int, float)))
    try:
        ss = SingularSet(points=np.asarray(pts, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"bad geometry block: {exc}") from exc
    if qv.shape != (ss.size,) or np.any(qv <= 0):
        raise ConfigError("q must be positive, one entry per point")
    return ss, qv, L


def cmd_balance(doc: dict, out: OutDir, tol: float) -> None:
    prm = _params(doc)
    ss, q, L = _config_geometry(doc, prm.n)
    ic = interaction_constants(prm)
    cfg = balance(ss, q, L, ic, prm, tol=min(tol, 1e-10))
    fields = asdict(cfg)
    fields["points"] = fields.pop("sigma_set")["points"]
    out.json("balanced.json", {"n": prm.n, "sigma": prm.sigma, **fields})
    rows = [[i, float(cfg.q[i]), float(cfg.R[i]), float(cfg.L_i[i])]
            + [float(v) for v in cfg.a0_hat[i]]
            for i in range(ss.size)]
    head = ["i", "q", "R", "L_i"] + [f"a0_{k}" for k in range(prm.n)]
    out.write("balance.csv", _csv(head, rows))


def _samples(u, regions: list[str] | None):
    pts, tags = sample_grid(u)
    if regions is None:
        return pts, tags
    keep = [k for k, t in enumerate(tags) if t.split(":", 1)[0] in regions]
    if not keep:
        raise ConfigError(f"regions {regions} select no samples")
    return pts[keep], [tags[k] for k in keep]


def _write_report(out: OutDir, name: str, rep) -> None:
    """Write the report, then fail if no sample produced a value."""
    out.json(name, asdict(rep))
    if not np.any(np.isfinite(rep.values)):
        raise QuadratureError(f"{name}: no residual sample succeeded "
                              f"({'; '.join(rep.errors[:1])})")


def _solver_facts(u) -> dict:
    """Newton and GMRES iterations and the residual of each periodic
    profile u solved, one per period, and the balancing residuals B1/B2
    where they are finite (a configuration built with given multiplicities
    carries NaN)."""
    facts = {"profiles": [{"L": c.L, "n_iter": c.n_iter,
                           "krylov_iters": c.krylov_iters,
                           "residual_norm": c.residual_norm}
                          for c in {c.L: c for c in u.cyls}.values()]}
    for key in ("resid_B1", "resid_B2"):
        val = getattr(u.balanced, key)
        if np.isfinite(val):
            facts[key] = val
    return facts


def cmd_assemble_residual(doc: dict, out: OutDir, tol: float) -> None:
    prm = _params(doc)
    ss, q, L = _config_geometry(doc, prm.n)
    blk = _block(doc, "residual")
    tau = float(_get(blk, "tau", (int, float), 0.5, "residual"))
    kind = _get(blk, "weight_kind", str, "starstar", "residual")
    mc_points = _get(blk, "mc_points", int, 0, "residual")
    if mc_points < 0:
        raise ConfigError("residual.mc_points must be >= 0")
    regions = _get(blk, "regions", list, None, "residual")
    if regions is not None and not all(
            r in ("near", "transition", "far") for r in regions):
        raise ConfigError("residual.regions must list near/transition/far")
    compare_q = _numbers(blk, "compare_q", None, "residual")
    if compare_q is not None:
        qc = np.asarray(compare_q, dtype=float)
        if qc.shape != (ss.size,) or np.any(qc <= 0):
            raise ConfigError("residual.compare_q must match the point count")
    seed = _seed(doc)
    ic = interaction_constants(prm)
    cfg = balance(ss, q, L, ic, prm)
    weight = WeightSpec(tau=tau, kind=kind)
    qtol = max(tol, 1e-7)

    def level0_betas(v, **tag):
        out = []
        for i in range(ss.size):
            beta = beta_projection(v, KernelIndex(i, 0, 0), tol=qtol)
            out.append({"tower": i, "level": 0, "mode": 0, "beta": beta,
                        "err_est": beta.err_est, "mass": beta.mass,
                        "leading_form": beta_leading_form(v, i), **tag})
        return out

    u = assemble(cfg, prm)
    out.facts["solver"] = solver = {"balanced": _solver_facts(u)}
    rep = residual(u, weight, samples=_samples(u, regions), tol=qtol,
                   mc_seed=seed, mc_points=mc_points)
    _write_report(out, "residual_report.json", rep)
    betas = level0_betas(u)
    summary_rows = [["balanced", rep.weighted_norm]]

    if compare_q is not None:
        unb = BalancedConfig(sigma_set=ss, q=qc, R=cfg.R, a0_hat=cfg.a0_hat,
                             L=cfg.L, L_i=periods_from_q(qc, cfg.L, prm),
                             resid_B1=float("nan"), resid_B2=float("nan"))
        u2 = assemble(unb, prm)
        solver["compare"] = _solver_facts(u2)
        rep2 = residual(u2, weight, samples=_samples(u2, regions), tol=qtol,
                        mc_seed=seed)
        _write_report(out, "residual_report_compare.json", rep2)
        summary_rows.append(["compare", rep2.weighted_norm])
        summary_rows.append(["ratio", rep2.weighted_norm
                             / rep.weighted_norm])
        betas += level0_betas(u2, config="compare")

    out.json("beta.json", {"L": cfg.L, "entries": betas})
    out.write("residual_summary.csv",
              _csv(["run", "weighted_norm"], summary_rows))


def cmd_toda(doc: dict, out: OutDir, tol: float) -> None:
    _params(doc)  # validates n, sigma even though the operator is scale-free
    blk = _block(doc, "toda")
    kind = _get(blk, "kind", str, "dilation", "toda")
    K = _get(blk, "K", int, 50, "toda")
    tau = float(_get(blk, "tau", (int, float), 0.5, "toda"))
    if not tau > 0:
        raise ConfigError("toda.tau must be positive")
    period = _get(blk, "period", (int, float), None, "toda")
    try:
        op = toda_mod.TodaOperator(kind=kind, K=K,
                                   period=None if period is None
                                   else float(period))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rng = np.random.default_rng(_seed(doc))
    b = rng.standard_normal(K) * np.exp(-2 * tau * np.arange(K))
    x = toda_mod.invert(op, b)
    back = toda_mod.apply(op, x)
    rows = [[j, float(b[j]), float(x[j]), float(back[j])] for j in range(K)]
    out.write("toda.csv", _csv(["j", "b", "x", "apply_invert_b"], rows))
    out.json("toda_check.json", {
        "kind": kind, "K": K, "tau": tau,
        "apply_invert_err": float(np.max(np.abs(back - b))),
        "amplification": toda_mod.amplification(op, tau),
    })


COMMANDS = {
    "kernel": cmd_kernel,
    "delaunay": cmd_delaunay,
    "constants": cmd_constants,
    "balance": cmd_balance,
    "assemble_residual": cmd_assemble_residual,
    "toda": cmd_toda,
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcurv",
        description="Singular-solution toolbox: batch tables and diagnostics")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default="qcurv-out", help="output directory")
    ap.add_argument("--tol", type=float, default=1e-8,
                    help="quadrature/solver budget")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
        prm = _params(doc)
        if not 0 < args.tol < np.inf:
            raise ConfigError(f"--tol must be positive and finite: {args.tol}")
        out = OutDir(args.out)
        COMMANDS[args.command](doc, out, args.tol)
        _manifest(out, args.command, doc, prm, _seed(doc), args.tol)
    except (NewtonError, QuadratureError, BalanceError) as exc:
        print(json.dumps({"error": "solver", "detail": str(exc)}),
              file=sys.stderr)
        return 3
    except (ConfigError, NotImplementedError, ValueError, TypeError,
            KeyError) as exc:
        # library validation of config-derived values lands here too, and so
        # does geometry outside the deterministic quadrature's reduction
        print(json.dumps({"error": "config", "detail": str(exc)}),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
