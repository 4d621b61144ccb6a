"""The three workloads: inputs from a seed, set-up, one pass, checks.

Every library call goes through a module attribute (``asm.residual``, not a
name imported at load time), so the tracer's wrappers see it.

A pass is the unit of measured work; `run.py` repeats passes until the
run's seconds are used up.  `check` turns a pass's outputs into operations,
each with its own verdict and the numbers that back it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

import qcurv.cli as cli
from qcurv import assembler as asm
from qcurv import balancing as bal
from qcurv import bubbles
from qcurv import delaunay
from qcurv import interactions as it
from qcurv import params

GATE_TOL = 1e-7          # tolerance of every residual and projection call
CLI_TOL = 1e-8           # the CLI's default --tol


def clear_caches() -> None:
    """Empty every functools cache in qcurv, as a fresh process has them."""
    import pkgutil
    import importlib
    import qcurv
    for m in pkgutil.iter_modules(qcurv.__path__):
        mod = importlib.import_module(f"qcurv.{m.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def op(kind: str, name: str, ok: bool = True, why: str | None = None,
       numbers: dict | None = None, hashes: dict | None = None,
       nbytes: int = 0) -> dict:
    return {"kind": kind, "name": name, "ok": ok, "why": why,
            "numbers": numbers or {}, "hashes": hashes or {},
            "bytes": nbytes}


def allowed(tol: float, scale: float) -> float:
    """Absolute tolerance of a number computed at relative tolerance `tol`
    whose quadrature error scales with `scale`: 100 times the budget."""
    return 100.0 * tol * abs(scale) + 1e-12


def finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


# ─────────────────────────────────────────────────────────────────────────────
# gate_slice: the gate 8/9 fixture through the library


class GateSlice:
    """Four two-tower assemblies (n=5, sigma=1.5, points 3 apart on e1):
    balanced at L = 2.5, 3.0, 3.5 and the q = (1.2, 1.0) control at 3.5.
    A pass sends three seed-chosen grid samples per assembly to `residual`
    and takes the level-0 dilation projection of tower 0."""

    name = "gate_slice"
    REFERENCE_KEYS = r"/(value/\d+|beta)$"
    KEYS = ("L2.5", "L3.0", "L3.5", "control")
    REGIONS = ("near", "transition", "far")

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        prm = params.derive_params(5, 1.5)
        ic = it.interaction_constants(prm)
        ss = bal.SingularSet(points=np.vstack([np.zeros(5), 3.0 * np.eye(5)[0]]))
        self.u = {}
        for L in (2.5, 3.0, 3.5):
            self.u[f"L{L}"] = asm.assemble(
                bal.balance(ss, np.ones(2), L, ic, prm), prm)
        ref = self.u["L3.5"].balanced
        qq = np.array([1.2, 1.0])
        unb = bal.BalancedConfig(
            sigma_set=ref.sigma_set, q=qq, R=ref.R, a0_hat=ref.a0_hat,
            L=ref.L, L_i=bal.periods_from_q(qq, ref.L, prm),
            resid_B1=float("nan"), resid_B2=float("nan"))
        self.u["control"] = asm.assemble(unb, prm)
        self.prm = prm
        self.weight = asm.WeightSpec(tau=0.5, kind="starstar")
        self.samples = self._pick()

    def _pick(self) -> dict:
        """Stratified pick: each (region, direction) stratum is used by two
        assemblies, which take antithetic members of the stratum sorted by
        radius, so every seed's pass holds the same mix of cheap axial and
        dearer off-axis samples."""
        grids = {k: asm.sample_grid(u) for k, u in self.u.items()}
        u = self.u["L2.5"]
        pts, tags = grids["L2.5"]
        o, a = u.origin, u.axis
        strata: dict = {}
        for k, (x, tag) in enumerate(zip(pts, tags)):
            region = tag.split(":", 1)[0]
            rel = x - o
            axial = np.linalg.norm(rel - (rel @ a) * a) < 1e-9
            if region == "near":
                radius = min(np.linalg.norm(x - c) for c in u.centers)
            elif region == "transition":
                radius = np.linalg.norm(x - u.centers[0])
            else:
                radius = np.linalg.norm(rel)
            strata.setdefault((region, axial), []).append((round(radius, 9),
                                                           k))
        picks = {key: [] for key in self.KEYS}
        for r, region in enumerate(self.REGIONS):
            for axial in (True, False):
                members = [k for _, k in sorted(strata[(region, axial)])]
                i = int(self.rng.integers(len(members)))
                users = [key for j, key in enumerate(self.KEYS)
                         if ((j + r) % 2 == 0) == axial]
                for user, m in zip(users, (i, len(members) - 1 - i)):
                    picks[user].append(members[m])
        out = {}
        for key in self.KEYS:
            gp, gt = grids[key]
            idx = sorted(picks[key])
            out[key] = (idx, gp[idx], [gt[k] for k in idx])
        return out

    def before_pass(self) -> None:
        pass

    def run_pass(self) -> dict:
        out = {}
        for key in self.KEYS:
            _, pts, tags = self.samples[key]
            rep = asm.residual(self.u[key], self.weight, samples=(pts, tags),
                               tol=GATE_TOL)
            beta = asm.beta_projection(self.u[key],
                                       bubbles.KernelIndex(0, 0, 0),
                                       tol=GATE_TOL)
            out[key] = (rep, beta)
        return out

    def check(self, out: dict) -> list[dict]:
        ops = []
        for key in self.KEYS:
            rep, beta = out[key]
            idx, pts, tags = self.samples[key]
            vals = np.asarray(rep.values, dtype=float)
            # a residual u - dual(u) carries the dual map's error, ~ tol |u|
            scale = np.maximum(np.abs(self.u[key](pts)), np.abs(vals))
            for j, k in enumerate(idx):
                ok = math.isfinite(vals[j])
                ops.append(op("sample", f"{key}/sample{k}", ok,
                              None if ok else "NaN residual",
                              {f"{key}/value/{k}": (
                                  float(vals[j]),
                                  allowed(GATE_TOL, scale[j]))}))
            good = np.isfinite(vals)
            norm = asm.weighted_fn_norm(
                pts[good], vals[good], [t for t, g in zip(tags, good) if g],
                self.weight, self.u[key].centers, self.prm)
            why = None
            if rep.errors:
                why = f"{len(rep.errors)} errors: {rep.errors[0]}"
            elif not same(norm, rep.weighted_norm):
                why = f"norm {rep.weighted_norm!r} != recomputed {norm!r}"
            ops.append(op("report", f"{key}/report", why is None, why))
            ok = math.isfinite(beta)
            ops.append(op("beta", f"{key}/beta", ok,
                          None if ok else "non-finite beta",
                          {f"{key}/beta": (float(beta),
                                           allowed(GATE_TOL, beta))}))
        return ops


# ─────────────────────────────────────────────────────────────────────────────
# CLI plumbing shared by the two command-line workloads


def flatten(name: str, data: bytes) -> dict:
    """Numbers of one output file, keyed by file and position."""
    out = {}
    if name.endswith(".json"):
        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(f"{prefix}/{k}", v)
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    walk(f"{prefix}/{i}", v)
            elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
                out[prefix] = float(obj)
        walk(name, json.loads(data))
    elif name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        for r, row in enumerate(rows[1:]):
            for c, cell in enumerate(row):
                try:
                    out[f"{name}/{r}/{rows[0][c]}"] = float(cell)
                except ValueError:
                    pass
    return out


class CliCall:
    """One `cli.main` invocation with its own config file and output dir."""

    def __init__(self, workdir: str, label: str, command: str, doc: dict):
        self.label, self.command, self.doc = label, command, doc
        self.cfg = os.path.join(workdir, f"{label}.json")
        self.out = os.path.join(workdir, f"out-{label}")
        # output hashes are keyed by the inputs that produced them
        self.key = f"{label}/" + hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]

    def write_config(self) -> None:
        with open(self.cfg, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=1, sort_keys=True)

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self) -> int:
        return cli.main([self.command, "--config", self.cfg,
                         "--out", self.out])

    def files(self) -> dict:
        if not os.path.isdir(self.out):
            return {}
        got = {}
        for name in sorted(os.listdir(self.out)):
            with open(os.path.join(self.out, name), "rb") as fh:
                got[name] = fh.read()
        return got

    def check(self, rc: int, files: dict, tol_of) -> dict:
        numbers, hashes = {}, {}
        for name, data in files.items():
            hashes[f"{self.key}/{name}"] = hashlib.sha256(data).hexdigest()
            for k, v in flatten(name, data).items():
                numbers[f"{self.label}/{k}"] = (v, allowed(tol_of(name), v))
        why = None
        if rc != 0:
            why = f"exit code {rc}"
        elif "manifest.json" not in files:
            why = "no manifest written"
        elif not all(math.isfinite(v) for v, _ in numbers.values()):
            why = "non-finite number in the outputs"
        return op("cli", self.label, why is None, why, numbers, hashes,
                  sum(len(d) for d in files.values()))


def _default_tol(name: str) -> float:
    return CLI_TOL


# ─────────────────────────────────────────────────────────────────────────────
# tables: the table commands plus the two library-only computations


class Tables:
    """For both gate pairs (n, sigma) = (5, 1.5) and (7, 2.5): the CLI
    commands kernel, delaunay, constants, balance and toda, then
    `bifurcation_half_period` and `gram_cokernels`.  Both pairs run in every
    pass because the branch-point search costs about a quarter more on one
    pair than on the other; a seed-chosen pair would split the seeds into two
    cost groups.  The seed draws every command's inputs."""

    name = "tables"
    # A1-A3 and the oracle fit, neck values, L* and the Gram off-diagonals
    REFERENCE_KEYS = (r"constants\.json/(A1|A2|A3|oracle_A2|oracle_A3)$"
                      r"|delaunay_sweep\.csv/\d+/eps$|/Lstar$|/gram/")
    PAIRS = ((5, 1.5), (7, 2.5))
    COMMANDS = ("kernel", "delaunay", "constants", "balance", "toda")
    BIF_TOL = CLI_TOL    # the table commands' tolerance, for all of them
    GRAM_TOL = 1e-9      # gram_cokernels' default

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.calls, self.extra = [], []
        for n, sigma in self.PAIRS:
            d = float(rng.uniform(2.5, 4.0))
            toda_kind = ("dilation", "translation")[int(rng.integers(2))]
            lows = np.sort(rng.uniform(2.4, 4.6, size=8))
            doc = {
                "n": n, "sigma": sigma, "seed": int(rng.integers(1, 2**31)),
                "points": [[0.0] * n, [d] + [0.0] * (n - 1)],
                # two points balance only with equal multiplicities
                "q": [float(rng.uniform(0.8, 1.25))] * 2,
                "L": float(rng.uniform(2.5, 4.0)),
                "kernel": {"t_max": float(rng.uniform(12.0, 16.0)),
                           "t_points": int(rng.integers(25, 42)),
                           "t_min": 1e-3},
                "delaunay": {"L_list": [float(v) for v in lows[::2]],
                             "M": 800},
                "constants": {"psi_ells": [0.0] + sorted(
                    float(v) for v in rng.uniform(0.25, 6.0, size=5))},
                "toda": {"kind": toda_kind, "K": int(rng.integers(40, 201)),
                         "tau": float(rng.uniform(0.3, 0.7)),
                         "period": (float(rng.uniform(2.0, 4.0))
                                    if toda_kind == "translation" else None)},
            }
            tag = f"n{n}"
            for cmd in self.COMMANDS:
                self.calls.append(CliCall(workdir, f"{tag}-{cmd}", cmd, doc))
            self.extra.append((tag, n, sigma, float(rng.uniform(1.75, 2.5))))

    def setup(self) -> None:
        for call in self.calls:
            call.write_config()

    def before_pass(self) -> None:
        clear_caches()
        for call in self.calls:
            call.reset()

    def run_pass(self) -> dict:
        out = {"cli": [], "lib": []}
        for call in self.calls:
            out["cli"].append(call.run())
        for tag, n, sigma, period in self.extra:
            prm = params.derive_params(n, sigma)
            Lstar = delaunay.bifurcation_half_period(prm, tol=self.BIF_TOL)
            cfg = bubbles.TowerConfig(index=0, center=np.zeros(n),
                                      period=period, levels=4)
            G = it.gram_cokernels(cfg, prm, tol=self.GRAM_TOL)
            out["lib"].append((tag, Lstar, G))
        return out

    def check(self, out: dict) -> list[dict]:
        ops = []
        for call, rc in zip(self.calls, out["cli"]):
            ops.append(call.check(rc, call.files(), _default_tol))
        for tag, Lstar, G in out["lib"]:
            ok = math.isfinite(Lstar) and Lstar > 0
            ops.append(op("lib", f"{tag}/bifurcation_half_period", ok,
                          None if ok else f"L* = {Lstar!r}",
                          {f"{tag}/Lstar": (Lstar,
                                            allowed(self.BIF_TOL, Lstar))}))
            off = ~np.eye(G.shape[0], dtype=bool) & (G != 0.0)
            ok = finite(G)
            ops.append(op("lib", f"{tag}/gram_cokernels", ok,
                          None if ok else "non-finite Gram entry",
                          {f"{tag}/gram/{a}/{b}": (
                              float(G[a, b]), allowed(self.GRAM_TOL, G[a, b]))
                           for a, b in zip(*np.nonzero(off))}))
        return ops


# ─────────────────────────────────────────────────────────────────────────────
# cli_residual: one assemble_residual run through the command line


class CliResidual:
    """`qcurv assemble_residual` on a seed-drawn two-point config along e1,
    transition samples only, with the unbalanced control (compare_q) and two
    Monte Carlo cross-checks, at the default thread count."""

    name = "cli_residual"
    REFERENCE_KEYS = (r"residual_report(_compare)?\.json/values/"
                      r"|beta\.json/entries/\d+/beta$")
    RESIDUAL_TOL = 1e-7      # the CLI runs residuals at max(--tol, 1e-7)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.doc = {
            "n": 5, "sigma": 1.5, "seed": int(rng.integers(1, 2**31)),
            # narrow ranges: across d in [2.75, 3.5] and L in [2.75, 3.5]
            # the u() callbacks per sample vary by 8% either way
            "points": [[0.0] * 5, [float(rng.uniform(2.9, 3.3))] + [0.0] * 4],
            "q": [1.0, 1.0], "L": float(rng.uniform(3.1, 3.5)),
            "residual": {"tau": 0.5, "weight_kind": "starstar",
                         "regions": ["transition"], "mc_points": 2,
                         "compare_q": [float(rng.uniform(1.1, 1.3)), 1.0]},
        }
        self.call = CliCall(workdir, "residual", "assemble_residual",
                            self.doc)
        self._u = None

    def scale_u(self):
        """The balanced assembly, rebuilt through the library.  Its u() sets
        the scale of the residual values' tolerance; the control differs
        only in its multiplicities."""
        if self._u is None:
            prm = params.derive_params(self.doc["n"], self.doc["sigma"])
            ss = bal.SingularSet(points=np.asarray(self.doc["points"]))
            self._u = asm.assemble(
                bal.balance(ss, np.asarray(self.doc["q"]), self.doc["L"],
                            it.interaction_constants(prm), prm), prm)
        return self._u

    def setup(self) -> None:
        self.call.write_config()

    def before_pass(self) -> None:
        clear_caches()
        self.call.reset()

    def run_pass(self) -> dict:
        return {"rc": self.call.run()}

    def _tol(self, name: str) -> float:
        if name.startswith(("residual_report", "beta")):
            return self.RESIDUAL_TOL
        return CLI_TOL

    def check(self, out: dict) -> list[dict]:
        files = self.call.files()
        main = self.call.check(out["rc"], files, self._tol)
        # weighted norms and their ratio are checked by recomputation below,
        # not against recorded numbers
        main["numbers"] = {k: v for k, v in main["numbers"].items()
                           if "weighted_norm" not in k
                           and "residual_summary" not in k}
        ops = [main]
        prm = params.derive_params(self.doc["n"], self.doc["sigma"])
        centers = np.asarray(self.doc["points"], dtype=float)
        weight = asm.WeightSpec(tau=self.doc["residual"]["tau"],
                                kind=self.doc["residual"]["weight_kind"])
        for name in ("residual_report.json", "residual_report_compare.json"):
            if name not in files:
                ops.append(op("report", name, False, "missing"))
                continue
            rep = json.loads(files[name])
            vals = np.array([np.nan if v is None else v
                             for v in rep["values"]], dtype=float)
            pts = np.asarray(rep["points"], dtype=float)
            scale = np.maximum(np.abs(self.scale_u()(pts)), np.abs(vals))
            for k, v in enumerate(vals):
                # each value backs its own sample, so a reference mismatch
                # fails that sample
                key = f"{self.call.label}/{name}/values/{k}"
                main["numbers"].pop(key)
                ok = math.isfinite(v)
                ops.append(op("sample", f"{name}/sample{k}", ok,
                              None if ok else "NaN residual",
                              {key: (float(v), allowed(self.RESIDUAL_TOL,
                                                       scale[k]))}))
            good = np.isfinite(vals)
            norm = asm.weighted_fn_norm(
                pts[good], vals[good],
                [t for t, g in zip(rep["tags"], good) if g],
                weight, centers, prm)
            why = None
            if rep["errors"]:
                why = f"{len(rep['errors'])} errors: {rep['errors'][0]}"
            elif not same(norm, rep["weighted_norm"]):
                why = f"norm {rep['weighted_norm']!r} != recomputed {norm!r}"
            ops.append(op("report", name, why is None, why))
        if "beta.json" in files:
            for e, entry in enumerate(json.loads(files["beta.json"])
                                      ["entries"]):
                ok = finite([entry["beta"], entry["leading_form"]])
                ops.append(op("beta", f"beta/{e}", ok,
                              None if ok else "non-finite beta"))
        return ops


WORKLOADS = {w.name: w for w in (GateSlice, Tables, CliResidual)}


def src_facts(src: str) -> dict:
    """Line count and content hash of the package sources."""
    h = hashlib.sha256()
    lines = 0
    pkg = os.path.join(src, "qcurv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            h.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": h.hexdigest()}
