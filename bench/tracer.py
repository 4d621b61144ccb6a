"""Spans and counters around the calls into each qcurv module.

The tracer lives entirely in the benchmark: it replaces module attributes
with wrappers and restores them on `uninstall`, so the library itself carries
no instrumentation.  Every public function is wrapped once and the wrapper is
bound in every qcurv namespace that binds the function (``tower_eval`` in
both ``bubbles`` and ``assembler``), so calls made through a module's globals
are caught as well as calls from outside.  Module-level dicts holding wrapped
functions (``cli.COMMANDS``) are patched the same way.

A span is (parent, name, run id, start, end, attribute).  Spans stay in
memory; `dump` writes them out once the run is over.  The finest boundaries
(``TowerConfig.level_bubble``, ``bubble_eval`` and the pointwise
nonlinearities called inside quadrature integrands) only count calls, which
keeps the overhead and the span count small.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import types
from collections import Counter

import numpy as np

# attribute recorded with a span, computed from (args, kwargs, return value)
_POINTS_ARG = {
    "assembler.u": 1,                 # ApproxSolution.__call__(self, x)
    "bubbles.tower_eval": 0,
    "delaunay.delaunay_to_rn": 1,
}
_ATTR_NAME = {"kernels.riesz_kernel_cyl": "offsets",
              "delaunay.solve_periodic": "newton_iters"}
_U_CALLERS = ("assembler.dual_apply", "assembler.beta_projection",
              "assembler.mc_probe")
COUNTED = ("bubbles.level_bubble", "bubbles.bubble_eval", "params.nonlin",
           "params.nonlin_prime")


def _n_points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


PACKAGE = "qcurv"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.run_id = ""
        self.region_of: dict[bytes, str] = {}
        self._patches: list = []
        self._wrappers: dict[int, object] = {}

    # ── span recording ────────────────────────────────────────────────────

    def _span(self, name: str, fn, attr=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            ret = None
            try:
                ret = fn(*args, **kwargs)
                return ret
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, name, self.run_id, t0, t1,
                              attr(args, kwargs, ret) if attr else None)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _count(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def region_attr(self, args, kwargs, ret):
        x = args[1] if len(args) > 1 else kwargs["x"]
        return self.region_of.get(np.asarray(x, dtype=float).tobytes(), "?")

    def grid_attr(self, args, kwargs, ret):
        # remember which region each sample point belongs to, so dual_apply
        # spans can be split by region without the library's help
        for x, tag in zip(*(ret or ((), ()))):
            self.region_of[np.asarray(x, dtype=float).tobytes()] = \
                tag.split(":", 1)[0]
        return None

    def _attr_for(self, name: str):
        if name in _POINTS_ARG:
            k = _POINTS_ARG[name]
            return lambda a, kw, r: _n_points(a[k] if len(a) > k
                                              else next(iter(kw.values())))
        if name == "kernels.riesz_kernel_cyl":
            return lambda a, kw, r: int(np.size(a[0] if a else kw["t"]))
        if name == "delaunay.solve_periodic":
            return lambda a, kw, r: int(r.n_iter) if r is not None else 0
        if name == "assembler.dual_apply":
            return self.region_attr
        if name == "assembler.sample_grid":
            return self.grid_attr
        return None

    @contextlib.contextmanager
    def block(self, name: str):
        """Span around the benchmark's own code (a root for self times)."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (parent, name, self.run_id, t0, t1, None)

    # ── installing and removing the wrappers ──────────────────────────────

    def _modules(self):
        import importlib
        import pkgutil
        pkg = importlib.import_module(PACKAGE)
        mods = [importlib.import_module(f"{PACKAGE}.{m.name}")
                for m in pkgutil.iter_modules(pkg.__path__)]
        return [pkg] + mods

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        mods = self._modules()
        short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in mods}
        for mod in mods:
            for key, obj in list(vars(mod).items()):
                if (not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in short
                        or obj.__name__.startswith("_")):
                    continue
                wrapped = self._wrappers.get(id(obj))
                if wrapped is None:
                    name = f"{short[obj.__module__]}.{obj.__name__}"
                    wrapped = (self._count(name, obj) if name in COUNTED
                               else self._span(name, obj,
                                               self._attr_for(name)))
                    self._wrappers[id(obj)] = wrapped
                self._set(mod, key, wrapped)
        for mod in mods:
            for key, obj in list(vars(mod).items()):
                if isinstance(obj, dict) and not key.startswith("__"):
                    for k, v in list(obj.items()):
                        if isinstance(v, types.FunctionType) \
                                and id(v) in self._wrappers:
                            self._set(obj, k, self._wrappers[id(v)])
        from qcurv.assembler import ApproxSolution
        from qcurv.bubbles import TowerConfig
        self._set(ApproxSolution, "__call__",
                  self._span("assembler.u", ApproxSolution.__call__,
                             self._attr_for("assembler.u")))
        self._set(TowerConfig, "level_bubble",
                  self._count("bubbles.level_bubble",
                              TowerConfig.level_bubble))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()
        self._wrappers.clear()

    # ── analysis ──────────────────────────────────────────────────────────

    def metrics(self, run_id: str, counts: dict) -> dict:
        """Numbers of the spans of one run id: per name the calls, the
        inclusive and self seconds and the attribute sum; self seconds per
        module; dual_apply medians per region; and the u() calls made under
        dual_apply, beta_projection and mc_probe."""
        out = Counter({f"{k}.calls": float(v) for k, v in counts.items()})
        idx = [i for i, s in enumerate(self.spans)
               if s is not None and s[2] == run_id]
        pos = {i: j for j, i in enumerate(idx)}
        parent = [pos.get(self.spans[i][0], -1) for i in idx]
        names = [self.spans[i][1] for i in idx]
        attrs = [self.spans[i][5] for i in idx]
        dur = np.array([self.spans[i][4] - self.spans[i][3] for i in idx])
        par = np.array(parent, dtype=int)
        kids = np.zeros(len(idx))
        np.add.at(kids, par[par >= 0], dur[par >= 0])
        self_s = dur - kids
        regions: dict = {}
        for j, name in enumerate(names):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s[j]
            out[f"{name.split('.', 1)[0]}.self_s"] += self_s[j]
            nested, caller, p = False, None, parent[j]
            while p >= 0:
                nested = nested or names[p] == name
                if caller is None and names[p] in _U_CALLERS:
                    caller = names[p]
                p = parent[p]
            if not nested:      # inclusive time of the outermost span only
                out[f"{name}.s"] += dur[j]
            if isinstance(attrs[j], int):
                out[f"{name}.{_ATTR_NAME.get(name, 'points')}"] += attrs[j]
            if name == "assembler.dual_apply":
                regions.setdefault(attrs[j], []).append(dur[j])
            if name == "assembler.u" and caller is not None:
                out[f"{caller}.u_calls"] += 1
                out[f"{caller}.u_points"] += attrs[j]
        for region, ds in regions.items():
            out[f"assembler.dual_apply.{region}.p50_s"] = float(np.median(ds))
        samples = out["assembler.dual_apply.calls"]
        if samples:
            out["assembler.u.calls_per_sample"] = \
                out.pop("assembler.dual_apply.u_calls", 0) / samples
            out["assembler.u.points_per_sample"] = \
                out.pop("assembler.dual_apply.u_points", 0) / samples
        for caller in ("assembler.beta_projection", "assembler.mc_probe"):
            out[f"{caller}.points"] = out.pop(f"{caller}.u_points", 0)
            out.pop(f"{caller}.u_calls", None)
        out["trace.spans"] = len(idx)
        out["trace.self_sum_s"] = float(self_s.sum())
        out["trace.roots"] = int((par < 0).sum())
        out["trace.min_self_s"] = float(self_s.min()) if len(idx) else 0.0
        return {k: float(v) for k, v in out.items()}

    def dump(self, path: str) -> None:
        names = sorted({s[1] for s in self.spans if s is not None})
        runs = sorted({s[2] for s in self.spans if s is not None})
        ni = {n: i for i, n in enumerate(names)}
        ri = {r: i for i, r in enumerate(runs)}
        rows = [[s[0], ni[s[1]], ri[s[2]], s[3], s[4],
                 s[5] if isinstance(s[5], (int, str)) else None]
                for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["parent", "name", "run", "start", "end",
                                   "attr"],
                       "names": names, "runs": runs, "spans": rows}, fh)
