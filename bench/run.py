"""qcurv benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload gate_slice --seed 3 --seconds 10 --trace 0

The program under test is the package in ./src, imported from source.  The
run sets up its workload, then repeats identical passes until --seconds have
passed (at least one pass), checks every pass, and prints a table followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the first pass
runs untraced, later passes run with the tracer's wrappers installed, and the
metrics are the per-layer ones.  Full results go to .bench_work/.

Every time is scaled to a host of fixed speed: the host-speed probe
(probe.py, no qcurv code) runs before and after every pass and every
probe.PERIOD_S seconds during an untraced pass, and a time is multiplied by
probe.REF_S over the mean probe time of the pass.  The probe's own time is
taken out of the pass; set-up times take the speed of the run's untraced
passes.  The raw times are kept in the result file and the table.
"""

import os
import sys
import time

T0 = time.perf_counter()
# pinned before numpy loads, so the run process starts no BLAS threads
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _k in BLAS_ENV:
    os.environ[_k] = "1"
# the CLI workloads measure the default thread count
USER_QCURV_THREADS = os.environ.pop("QCURV_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".bench_work"
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 2     # extra cold set-ups per run; setup_s is the median

# the metric names and units come from BENCHMARK.json
SPEC = "BENCHMARK.json"


class ProgramMissing(RuntimeError):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("gate_slice", "tables", "cli_residual"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's numbers as the seed's reference")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qcurv", "__init__.py")):
        raise ProgramMissing(f"no qcurv package under {src}; run from the "
                             "repository root")
    sys.path.insert(0, src)
    import qcurv
    import probe
    import workloads
    if not os.path.abspath(qcurv.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"qcurv imported from {qcurv.__file__}, "
                             f"not from {src}")
    return workloads, probe


# ─────────────────────────────────────────────────────────────────────────────
# facts, references, hashes


def facts(args, workloads, root: str) -> dict:
    import numpy
    import scipy
    cfg = getattr(numpy.__config__, "CONFIG", {})
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "QCURV_THREADS_ignored": USER_QCURV_THREADS,
        **workloads.src_facts(os.path.join(root, "src")),
    }


def close(a: float, b: float, abs_tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= abs_tol


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def write_json(path: str, doc: dict) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def apply_reference(passes: list, ref: dict) -> list:
    """Mark ops whose numbers differ from the recorded reference; return
    the reference keys no op reported."""
    seen = set()
    for p in passes:
        for o in p["ops"]:
            for key, (val, abs_tol) in o["numbers"].items():
                if key not in ref["numbers"]:
                    continue
                seen.add(key)
                if not close(val, ref["numbers"][key], abs_tol) and o["ok"]:
                    o["ok"] = False
                    o["why"] = (f"{key} = {val!r}, reference "
                                f"{ref['numbers'][key]!r}")
    return sorted(set(ref["numbers"]) - seen)


def apply_hashes(passes: list, store_path: str, prefix: str) -> None:
    """Byte identity: every pass of every run of one source tree must write
    the same bytes for the same inputs."""
    store = load_json(store_path)
    for p in passes:
        for o in p["ops"]:
            for name, h in o["hashes"].items():
                key = f"{prefix}/{name}"
                old = store.setdefault(key, h)
                if old != h and o["ok"]:
                    o["ok"] = False
                    o["why"] = f"{name}: bytes differ from an earlier run"
    write_json(store_path, store)


def digest(ops: list) -> str:
    h = hashlib.sha256()
    for o in ops:
        for key in sorted(o["numbers"]):
            h.update(f"{key}={o['numbers'][key][0]!r};".encode())
        for key in sorted(o["hashes"]):
            h.update(f"{key}={o['hashes'][key]};".encode())
    return h.hexdigest()


# ─────────────────────────────────────────────────────────────────────────────
# per-layer metrics from the traced spans


def scaled(m: dict, speed: float) -> dict:
    """Times (names ending in .s or _s) scaled to the reference host."""
    return {k: v * speed if k.endswith((".s", "_s")) else v
            for k, v in m.items()}


def layer_metrics(tracer, traced: list, setup_counts: dict,
                  setup_speed: float) -> dict:
    """Each metric is its traced set-up value plus its median over the
    traced passes; per-sample ratios, region medians and the trace's own
    numbers come from the passes alone.  Times are scaled by the host speed
    of the set-up or pass they were measured in."""
    base = scaled(tracer.metrics("setup", setup_counts), setup_speed)
    per_pass = []
    for p in traced:
        m = scaled(tracer.metrics(p["run_id"], p["counts"]), p["speed"])
        m["cli.bytes_written"] = float(sum(o["bytes"] for o in p["ops"]))
        per_pass.append(m)
    out = {}
    for name in sorted(set(base).union(*per_pass)):
        med = statistics.median(p.get(name, 0.0) for p in per_pass)
        alone = (name.endswith(("_per_sample", ".p50_s"))
                 or name.startswith("trace."))
        out[name] = med if alone else base.get(name, 0.0) + med
    return out


def trace_check(tracer, rec: dict, workloads) -> dict:
    """The spans of a traced pass must form one tree under its bench.pass
    span, no span's children may cover more than the span itself, and the
    self times must add up to the pass's wall time as run.py measured it
    around the block."""
    m = tracer.metrics(rec["run_id"], {})
    total, wall = m["trace.self_sum_s"], rec["work_raw_s"]
    why = None
    if m["trace.roots"] != 1:
        why = f"{m['trace.roots']:.0f} root spans, expected 1"
    elif m["trace.min_self_s"] < -1e-6:
        why = f"children cover more than a span: {m['trace.min_self_s']!r}"
    elif abs(total - wall) > 1e-3 * wall:
        why = f"self times add up to {total!r} s, the pass took {wall!r} s"
    return workloads.op("trace", f"{rec['run_id']}: self times add up to "
                        "the pass", why is None, why)


# ─────────────────────────────────────────────────────────────────────────────
# the run


def setup_probes(args) -> list:
    """Cold set-ups in fresh interpreters; each prints its own set-up time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def run(args, workloads, probe, root: str, spec: dict) -> int:
    workdir = os.path.join(root, WORKDIR, f"{args.workload}-s{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.run_id = "setup"
        with tracer.block("bench.setup"):
            wl.setup()
        tracer.uninstall()
        setup_counts = dict(tracer.counters)
    else:
        wl.setup()
    setups = [time.perf_counter() - T0]
    if args.setup_probe:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    probe_times = [probe.probe()]

    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(passes) > 0
        wl.before_pass()
        if traced:
            tracer.run_id = f"pass{len(passes)}"
            before = dict(tracer.counters)
            tracer.install()
        # no probe ticks inside a traced pass: the spans would absorb them
        ticks = (contextlib.nullcontext(probe.Sampler()) if traced
                 else probe.Sampler())
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        with ticks as sampler:
            if traced:
                with tracer.block("bench.pass"):
                    out = wl.run_pass()
            else:
                out = wl.run_pass()
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        # host speed over the pass: the probes just before, during and
        # just after it; a traced pass, which has no ticks, takes the speed
        # of the untraced first pass right before it
        times = probe_times[-1:] + sampler.times
        probe_times = [probe.probe()]
        times += probe_times
        speed = (passes[0]["speed"] if traced
                 else probe.REF_S / statistics.fmean(times))
        rec = {"traced": traced, "work_raw_s": t1 - t0 - sampler.wall_s,
               "cpu_raw_s": (r1.ru_utime - r0.ru_utime)
               + (r1.ru_stime - r0.ru_stime) - sampler.cpu_s,
               "speed": speed, "probes": len(times)}
        rec["work_s"] = rec["work_raw_s"] * speed
        rec["cpu_s"] = rec["cpu_raw_s"] * speed
        if traced:
            tracer.uninstall()
            rec["run_id"] = tracer.run_id
            rec["counts"] = {k: v - before.get(k, 0)
                             for k, v in tracer.counters.items()}
        rec["ops"] = wl.check(out)
        passes.append(rec)
        if time.perf_counter() >= deadline and (
                tracer is None or any(p["traced"] for p in passes)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # repeated passes of one seed must agree bit for bit; in a traced run
    # this is the tracer's self-check against the untraced first pass
    first = digest(passes[0]["ops"])
    for k, p in enumerate(passes[1:], start=1):
        same = digest(p["ops"]) == first
        p["ops"].append(workloads.op(
            "repeat", f"pass{k} equals pass0", same,
            None if same else "outputs differ from the first pass"))
    src = workloads.src_facts(os.path.join(root, "src"))
    apply_hashes(passes, os.path.join(root, WORKDIR, "hashes.json"),
                 f"{src['src_sha256']}/{args.workload}/{args.seed}")
    ref = load_json(REFERENCE).get(args.workload, {}).get(str(args.seed))
    notes = []
    if ref and not args.record:
        missing = apply_reference(passes, ref)
        passes[0]["ops"].append(workloads.op(
            "reference", "reference keys present", not missing,
            f"{len(missing)} missing, e.g. {missing[0]}" if missing else None))
        same = sum(ref["hashes"].get(k) == v for o in passes[0]["ops"]
                   for k, v in o["hashes"].items())
        notes.append(f"reference checked for seed {args.seed}"
                     + (f"; {same}/{len(ref['hashes'])} output files "
                        "byte-equal to the recording" if ref["hashes"]
                        else ""))

    if not args.trace:
        try:
            setups += setup_probes(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            passes[0]["ops"].append(workloads.op("setup", "set-up probe",
                                                 False, str(exc)))

    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, [p for p in passes if p["traced"]],
                               setup_counts, passes[0]["speed"])
        for p in passes:
            if p["traced"]:
                p["ops"].append(trace_check(tracer, p, workloads))
        tracer.dump(os.path.join(root, WORKDIR,
                                 f"trace-{args.workload}-s{args.seed}.json"))

    ops = [o for p in passes for o in p["ops"]]
    attempted, failed = len(ops), sum(not o["ok"] for o in ops)
    untraced = [p for p in passes if not p["traced"]]
    work = statistics.median(p["work_s"] for p in untraced)
    good = statistics.median(sum(o["kind"] == "sample" and o["ok"]
                                 for o in p["ops"]) for p in untraced)
    # set-up is too short to time the host over it; the passes of the same
    # run, a minute at most away, give its speed
    speed = statistics.median(p["speed"] for p in untraced)
    e2e = {
        "setup_s": statistics.median(setups) * speed,
        "work_s": work,
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"samples_per_s": good / work, "fail_frac": failed / attempted,
             "passes": len(untraced), "samples_per_pass": good,
             "setup_runs": len(setups),
             "setup_own_s": setups[0] * speed,
             "setup_raw_s": statistics.median(setups),
             "work_raw_s": statistics.median(p["work_raw_s"]
                                             for p in untraced),
             "cpu_raw_s": statistics.median(p["cpu_raw_s"] for p in untraced),
             "speed": speed}

    result = {"facts": facts(args, workloads, root), "end_to_end": e2e,
              "extra": extra, "setups": setups,
              "passes": [{k: v for k, v in p.items() if k != "ops"}
                         for p in passes],
              "failures": [{"name": o["name"], "why": o["why"]}
                           for o in ops if not o["ok"]],
              "output_sha256": {k: v for o in passes[0]["ops"]
                                for k, v in o["hashes"].items()},
              "notes": notes}
    metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    if layers is not None:
        tw = statistics.median(p["work_s"] for p in passes if p["traced"])
        layers["trace.overhead_ratio"] = tw / work
        layers["trace.traced_work_s"] = tw
        layers["trace.untraced_work_s"] = work
        result["per_layer"] = layers
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}

    if args.record and failed == 0:
        doc = load_json(REFERENCE)
        keep = re.compile(wl.REFERENCE_KEYS)
        doc.setdefault(args.workload, {})[str(args.seed)] = {
            "numbers": {k: v for o in passes[0]["ops"]
                        for k, (v, _) in o["numbers"].items()
                        if keep.search(k)},
            "hashes": {k: v for o in passes[0]["ops"]
                       for k, v in o["hashes"].items()},
        }
        write_json(REFERENCE, doc)
        notes.append(f"recorded reference for seed {args.seed}")

    write_json(os.path.join(
        root, WORKDIR,
        f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), result)
    report(result, metrics, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(result: dict, metrics: dict, attempted: int, failed: int) -> None:
    f = result["facts"]
    print(f"# {f['workload']} seed={f['seed']} trace={f['trace']} "
          f"nproc={f['nproc']} cpu={f['cpu_model']!r} python={f['python']} "
          f"numpy={f['numpy']} scipy={f['scipy']} blas={f['blas']} "
          f"blas_env={f['blas_env']} src_lines={f['src_lines']}")
    e, x = result["end_to_end"], result["extra"]
    print(f"host speed     {x['speed']:.4f}   (probe.REF_S over the probe "
          "time; times below are raw times times the speed)")
    print(f"setup_s        {e['setup_s']:.4f} s   (median of "
          f"{x['setup_runs']} cold set-ups; raw {x['setup_raw_s']:.4f} s)")
    print(f"work_s         {e['work_s']:.4f} s   (median of {x['passes']} "
          f"passes; raw {x['work_raw_s']:.4f} s)")
    print(f"cpu_s          {e['cpu_s']:.4f} s   (raw {x['cpu_raw_s']:.4f} s)")
    if x["samples_per_pass"]:
        print(f"samples_per_s  {x['samples_per_s']:.4f} 1/s "
              f"({x['samples_per_pass']} checked samples per pass)")
    print(f"peak_rss_mb    {e['peak_rss_mb']:.1f} MB")
    print(f"fail_frac      {failed / attempted:.4f}   ({failed}/{attempted} "
          "operations failed)")
    for line in result["notes"]:
        print(f"note: {line}")
    for fail in result["failures"][:20]:
        print(f"FAILED {fail['name']}: {fail['why']}")
    if "per_layer" in result:
        for name, val in sorted(result["per_layer"].items()):
            if val:
                print(f"layer {name:48s} {val:.6g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        spec = load_json(os.path.join(root, SPEC))
        if not spec:
            raise ProgramMissing(f"no {SPEC} in {root}")
        workloads, probe = load_program(root)
    except (ProgramMissing, ImportError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    return run(args, workloads, probe, root, spec)


if __name__ == "__main__":
    sys.exit(main())
