"""Batch front end: tables, sweeps, balancing, assembly diagnostics.

Every command reads one JSON config through SCHEMA, the config contract,
writes CSV/JSON artifacts plus a manifest into --out (the library returns
data; their formats are decided here alone), and exits 0 on success, 2 on
a config problem or a geometry outside the deterministic reduction, 3 when
a solver or quadrature gives up or the Monte Carlo guard fails.  Reruns of
the same config are bit-identical: no timestamps, fixed seeds,
deterministic aggregation.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
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
                        beta_projections, mc_flagged, residuals,
                        sample_grid)
from .bubbles import KernelIndex
from . import toda as toda_mod


class ConfigError(ValueError):
    """Anything wrong with the run configuration."""


# ─────────────────────────────────────────────────────────────────────────────
# the config contract


def _finite(v) -> bool:
    """v is a JSON number that is a finite double: not a bool, NaN, an
    infinity or an integer beyond the double range."""
    try:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v))
    except OverflowError:
        return False


# a value kind: (what a value must be, test of the JSON value, typed value)
_KINDS = {
    "int": ("an integer within double range",
            lambda v: isinstance(v, int) and _finite(v), int),
    "number": ("a finite number", _finite, float),
    "string": ("a string", lambda v: isinstance(v, str), str),
    "numbers": ("a list of finite numbers",
                lambda v: isinstance(v, list) and all(map(_finite, v)),
                lambda v: [float(x) for x in v]),
    "list": ("a list", lambda v: isinstance(v, list), list),
    "rows": ("a list of rows of finite numbers",
             lambda v: isinstance(v, list) and all(
                 isinstance(r, list) and all(map(_finite, r)) for r in v),
             lambda v: [[float(x) for x in r] for r in v]),
}

REQUIRED = object()
_POSITIVE = (lambda v, _: v > 0, "must be positive")
_ALL_POSITIVE = (lambda v, _: all(x > 0 for x in v), "must be positive")
_NONNEGATIVE = (lambda v, _: v >= 0, "must be >= 0")

# Every config key, top level and blocks: key -> (kind, default, rule).  A
# REQUIRED key must be given; a default of None lets it be absent or null.
# A rule is (test of the typed value and the typed values beside it, what
# it demands), checked when the value is not null.  Checks that need n or
# the point count, and the library's own refusals, stay with the commands.
SCHEMA = {
    "n": ("int", REQUIRED, None),
    "sigma": ("number", REQUIRED, None),
    "seed": ("int", 20240817, _NONNEGATIVE),
    "points": ("rows", None, None),
    "q": ("numbers", None, _ALL_POSITIVE),
    "L": ("number", None, None),
    "kernel": {
        "t_max": ("number", 16.0, None),
        # counts up to 100,000: a larger one could exhaust the memory
        "t_points": ("int", 33, (lambda v, _: 4 <= v <= 100_000,
                                 "must be in [4, 100000]")),
        "t_min": ("number", 1e-3, (lambda v, k: 0 < v < k["t_max"],
                                   "must satisfy 0 < t_min < t_max")),
    },
    "delaunay": {
        "L_list": ("numbers", [2.5, 3.0, 3.5, 4.0], None),
        "M": ("int", 800, None),
    },
    "constants": {
        "psi_ells": ("numbers", [0.0, 0.5, 1.0, 2.0, 4.0, 6.0],
                     (lambda v, _: all(x >= 0 for x in v),
                      "must be nonnegative")),
    },
    "toda": {
        "kind": ("string", "dilation", None),
        "K": ("int", 50, (lambda v, _: v <= 100_000, "must be <= 100000")),
        "tau": ("number", 0.5, _POSITIVE),
        "period": ("number", None, None),
    },
    "residual": {
        "tau": ("number", 0.5, _POSITIVE),
        "weight_kind": ("string", "starstar", None),
        "mc_points": ("int", 0, _NONNEGATIVE),
        "regions": ("list", None, (lambda v, _: bool(v) and all(
            r in ("near", "transition", "far") for r in v),
            "must list one or more of near/transition/far")),
        "compare_q": ("numbers", None, _ALL_POSITIVE),
    },
}
# the top-level keys a command requires beyond n and sigma
NEEDS = dict.fromkeys(("balance", "assemble_residual"), ("points", "q", "L"))
# balanced.json holds these beside n, sigma, points, q and L; they are
# ignored, so that a balance output reads back as a config
_BALANCE_OUTPUTS = ("R", "a0_hat", "L_i", "resid_B1", "resid_B2")


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _typed(raw, keys: dict, where: str, ignored=()) -> dict:
    """raw read through `keys` (SCHEMA or one of its blocks): every key
    with its typed value or its default.  A rule sees the keys above its
    own."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in raw:
        if key not in keys and key not in ignored:
            raise ConfigError(f"{where}[{key!r}] is not a config key; "
                              f"{where} keys: {', '.join(keys)}")
    out = {}
    for key, spec in keys.items():
        val = raw.get(key)
        if isinstance(spec, dict):
            out[key] = _typed(raw.get(key, {}), spec, key)
            continue
        kind, default, rule = spec
        what, ok, typed = _KINDS[kind]
        if val is None and (key not in raw or default is None):
            if default is REQUIRED:
                raise ConfigError(f"{where} is missing required key {key!r}")
        elif not ok(val):
            raise ConfigError(f"{where}[{key!r}] must be {what}")
        out[key] = default if val is None else typed(val)
        if rule and out[key] is not None and not rule[0](out[key], out):
            raise ConfigError(f"{where}.{key} {rule[1]}")
    return out


def _read(doc: dict, command: str) -> dict:
    """The document read through SCHEMA, every block, used or not."""
    conf = _typed(doc, SCHEMA, "config", _BALANCE_OUTPUTS)
    for key in NEEDS.get(command, ()):
        if conf[key] is None:
            raise ConfigError(f"config is missing required key {key!r}")
    return conf


# ─────────────────────────────────────────────────────────────────────────────
# output plumbing


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
        """Write one file atomically: a temporary file, then a rename."""
        path = os.path.join(self.root, name)
        with open(f"{path}.tmp-{os.getpid()}", "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(fh.name, path)
        self.files.append(name)

    def json(self, name: str, doc: dict) -> None:
        self.write(name, json.dumps(doc, indent=2, sort_keys=True,
                                    default=np.ndarray.tolist))


def _manifest(out: OutDir, command: str, config_doc: dict, prm,
              seed: int) -> None:
    ic = interaction_constants(prm)
    blob = json.dumps(config_doc, sort_keys=True).encode()
    doc = {
        "command": command,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "n": prm.n, "sigma": prm.sigma, "seed": seed,
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


def cmd_kernel(conf: dict, prm, out: OutDir) -> None:
    k = conf["kernel"]
    grid = np.linspace(k["t_min"], k["t_max"], k["t_points"])
    tail = grid >= k["t_max"] / 2
    tables = {"riesz": riesz_kernel_cyl(grid, prm),
              "singular": singular_kernel_cyl(grid, prm, k["t_min"])}
    # both slopes before any file: a tail that underflows to 0 fails here
    slopes = {k: decay_slope(grid[tail], v[tail]) for k, v in tables.items()}
    for kind, vals in tables.items():
        rows = np.column_stack([grid, vals, KERNEL_REL_ERR * np.abs(vals)])
        out.write(f"kernel_{kind}.csv",
                  _csv(["t", "value", "est_error"], rows.tolist()))
    out.json("kernel_slopes.json", {"gamma_s": prm.gamma_s,
                                    "gamma_dual": prm.gamma_dual, **slopes})


def cmd_delaunay(conf: dict, prm, out: OutDir) -> None:
    d = conf["delaunay"]
    sweep = neck_sweep(d["L_list"], prm, M=d["M"])
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


def cmd_constants(conf: dict, prm, out: OutDir) -> None:
    ic = interaction_constants(prm)
    fitted = oracle_fit_constants(prm)
    out.json("constants.json", {"n": prm.n, "sigma": prm.sigma, **asdict(ic),
                                "oracle_A2": fitted.A2, "oracle_A3": fitted.A3,
                                "oracle_method": fitted.method})
    rows = [[ell, psi(ell, prm)] for ell in conf["constants"]["psi_ells"]]
    out.write("psi.csv", _csv(["ell", "psi"], rows))


def _geometry(conf: dict, n: int) -> tuple[SingularSet, np.ndarray]:
    """The marked points, rows of n coordinates, and one q per point."""
    if any(len(row) != n for row in conf["points"]):
        raise ConfigError(f"each row of config['points'] must have n = {n} "
                          "coordinates")
    ss = SingularSet(points=np.asarray(conf["points"], dtype=float))
    if len(conf["q"]) != ss.size:
        raise ConfigError("config['q'] must have one entry per point")
    return ss, np.asarray(conf["q"])


def cmd_balance(conf: dict, prm, out: OutDir) -> None:
    ss, q = _geometry(conf, prm.n)
    ic = interaction_constants(prm)
    cfg = balance(ss, q, conf["L"], ic, prm)
    fields = asdict(cfg)
    fields["points"] = fields.pop("sigma_set")["points"]
    out.json("balanced.json", {"n": prm.n, "sigma": prm.sigma, **fields})
    rows = [[i, float(cfg.q[i]), float(cfg.R[i]), float(cfg.L_i[i])]
            + [float(v) for v in cfg.a0_hat[i]]
            for i in range(ss.size)]
    head = ["i", "q", "R", "L_i"] + [f"a0_{k}" for k in range(prm.n)]
    out.write("balance.csv", _csv(head, rows))


RESIDUAL_TOL = 1e-7


def _samples(u, regions: list[str] | None):
    pts, tags = sample_grid(u)
    if regions is None:
        return pts, tags
    keep = [k for k, t in enumerate(tags) if t.split(":", 1)[0] in regions]
    return pts[keep], [tags[k] for k in keep]


def _write_report(out: OutDir, name: str, rep) -> None:
    """Write the report, then fail if no sample produced a value."""
    out.json(name, asdict(rep))
    if not np.any(np.isfinite(rep.values)):
        raise QuadratureError(f"{name}: no residual sample succeeded "
                              f"({'; '.join(rep.errors[:1])})")


def _solver_facts(u) -> dict:
    """Newton iterations, inverse Jacobian norm and residual of each
    periodic profile u solved, one per period, and the balancing residuals
    B1/B2 where they are finite (a configuration built with given
    multiplicities carries NaN)."""
    facts = {"profiles": [{"L": c.L, "n_iter": c.n_iter,
                           "jac_inv_norm": c.jac_inv_norm,
                           "residual_norm": c.residual_norm}
                          for c in {c.L: c for c in u.cyls}.values()]}
    for key in ("resid_B1", "resid_B2"):
        val = getattr(u.balanced, key)
        if np.isfinite(val):
            facts[key] = val
    return facts


def cmd_assemble_residual(conf: dict, prm, out: OutDir) -> None:
    ss, q = _geometry(conf, prm.n)
    r = conf["residual"]
    regions, compare_q, seed = r["regions"], r["compare_q"], conf["seed"]
    if compare_q is not None and len(compare_q) != ss.size:
        raise ConfigError("residual.compare_q must match the point count")
    ic = interaction_constants(prm)
    cfg = balance(ss, q, conf["L"], ic, prm)
    weight = WeightSpec(tau=r["tau"], kind=r["weight_kind"])

    def level0_betas(v, **tag):
        betas = beta_projections(v, [KernelIndex(i, 0, 0)
                                     for i in range(ss.size)],
                                 tol=RESIDUAL_TOL)
        return [{"tower": i, "level": 0, "mode": 0, "beta": beta,
                 "err_est": beta.err_est, "mass": beta.mass,
                 "leading_form": beta_leading_form(v, i), **tag}
                for i, beta in enumerate(betas)]

    us = [assemble(cfg, prm)]
    out.facts["solver"] = solver = {"balanced": _solver_facts(us[0])}
    if compare_q is not None:
        qc = np.asarray(compare_q)
        unb = BalancedConfig(sigma_set=ss, q=qc, R=cfg.R, a0_hat=cfg.a0_hat,
                             L=cfg.L, L_i=periods_from_q(qc, cfg.L, prm),
                             resid_B1=float("nan"), resid_B2=float("nan"))
        us.append(assemble(unb, prm))
        solver["compare"] = _solver_facts(us[1])
    # the control's panels are the balanced run's: one call takes them once
    reps = residuals(us, weight, samples=_samples(us[0], regions),
                     tol=RESIDUAL_TOL, mc_seed=seed, mc_points=r["mc_points"])
    _write_report(out, "residual_report.json", reps[0])
    betas = level0_betas(us[0])
    summary_rows = [["balanced", reps[0].weighted_norm]]

    if compare_q is not None:
        _write_report(out, "residual_report_compare.json", reps[1])
        summary_rows.append(["compare", reps[1].weighted_norm])
        summary_rows.append(["ratio", reps[1].weighted_norm
                             / reps[0].weighted_norm])
        betas += level0_betas(us[1], config="compare")

    out.json("beta.json", {"L": cfg.L, "entries": betas})
    out.write("residual_summary.csv",
              _csv(["run", "weighted_norm"], summary_rows))
    flagged = [c["sample"] for c in reps[0].mc_checks if mc_flagged(c)]
    if flagged:
        raise QuadratureError(f"Monte Carlo guard failed at samples "
                              f"{flagged}: see residual_report.json errors")


def cmd_toda(conf: dict, prm, out: OutDir) -> None:
    t = conf["toda"]
    kind, K, tau = t["kind"], t["K"], t["tau"]
    op = toda_mod.TodaOperator(kind=kind, K=K, period=t["period"])
    rng = np.random.default_rng(conf["seed"])
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


COMMANDS = {f.__name__[len("cmd_"):]: f for f in (
    cmd_kernel, cmd_delaunay, cmd_constants, cmd_balance,
    cmd_assemble_residual, cmd_toda)}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcurv",
        description="Singular-solution toolbox: batch tables and diagnostics")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default="qcurv-out", help="output directory")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # made before the config is read: a refused config leaves it empty
        out = OutDir(args.out)
        doc = _load_config(args.config)
        conf = _read(doc, args.command)
        prm = derive_params(conf["n"], conf["sigma"])
        COMMANDS[args.command](conf, prm, out)
        _manifest(out, args.command, doc, prm, conf["seed"])
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
