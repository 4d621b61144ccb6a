"""Repeat the benchmark over seeds and summarise each metric.

Run from the repository root:

    python3 bench/prove.py --seeds 0-9
    python3 bench/prove.py --seeds 0-4 --workloads tables --trace-seed 0 \
        --out bench/baseline.json

For every workload and seed it runs bench/run.py as BENCHMARK.json says,
checks the shape of the result line, and prints per metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, the quartile
distance as a share of the median, next to the metric's bound.  With --out
the summary is written as a baseline file.  With --against an earlier
summary it also prints each median's shift from that summary's median next
to the bound: two sets of runs of the same code must agree within it.

Beside the metrics of the result line it summarises, from each run's result
file, the raw (unscaled) times, the host speed, and the run's own set-up time
without the extra cold set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# numbers from the result files' "extra", summarised beside the metrics
EXTRA = ("setup_own_s", "setup_raw_s", "work_raw_s", "cpu_raw_s", "speed")


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    want = spec["per_layer" if trace else "end_to_end"]
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"bad result keys {sorted(line)}")
    if set(line["metrics"]) != {m["name"] for m in want}:
        raise RuntimeError(f"metrics {sorted(line['metrics'])} differ from "
                           "BENCHMARK.json")
    for m in want:
        got = line["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"],
                                                      (int, float)):
            raise RuntimeError(f"bad metric {m['name']}: {got}")
    line["wall_s"] = wall
    return line


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all)")
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="also make one traced run per workload")
    ap.add_argument("--out", default=None, help="write the summary here")
    ap.add_argument("--against", default=None,
                    help="an earlier summary to compare the medians with")
    args = ap.parse_args(argv)
    before = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)["workloads"]
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"],
                     "seeds": args.seeds, "workloads": {}}
    worst = (0.0, "", "")
    for name in names:
        lines, extras = [], []
        for seed in args.seeds:
            line = run_once(spec, name, seed, 0)
            lines.append(line)
            with open(os.path.join(".bench_work",
                                   f"result-{name}-s{seed}-t0.json"),
                      encoding="utf-8") as fh:
                result = json.load(fh)
            extras.append(result["extra"])
            if "facts" not in summary:
                facts = result["facts"]
                summary["facts"] = {k: v for k, v in facts.items()
                                    if k not in ("workload", "seed", "trace")}
            print(f"{name} seed={seed} correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} "
                  f"wall={line['wall_s']:.1f}s " + " ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in line["metrics"].items()), flush=True)
        entry = {"runs": len(lines),
                 "failed": sum(ln["failed"] for ln in lines),
                 "attempted": sum(ln["attempted"] for ln in lines),
                 "wall_s": summarise([ln["wall_s"] for ln in lines]),
                 "metrics": {}, "extra": {}}
        for metric in bounds:
            s = summarise([ln["metrics"][metric]["value"] for ln in lines])
            s["unit"] = lines[0]["metrics"][metric]["unit"]
            entry["metrics"][metric] = s
            flag = "ok" if s["spread"] <= bounds[metric] / 3 else (
                "within bound" if s["spread"] <= bounds[metric] else "WIDE")
            worst = max(worst, (s["spread"] / bounds[metric], name, metric))
            shift = ""
            if metric in before.get(name, {}).get("metrics", {}):
                old = before[name]["metrics"][metric]["median"]
                s["shift"] = (s["median"] - old) / old
                shift = f" shift {s['shift']:+.3f} " + (
                    "WORSE" if s["shift"] > bounds[metric] else "agrees")
            print(f"  {name:13s} {metric:12s} median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread "
                  f"{s['spread']:.3f} bound {bounds[metric]} {flag}{shift}",
                  flush=True)
        for key in EXTRA:
            s = summarise([x[key] for x in extras])
            entry["extra"][key] = s
            print(f"  {name:13s} {key:12s} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f}", flush=True)
        if args.trace_seed is not None:
            line = run_once(spec, name, args.trace_seed, 1)
            entry["traced"] = {"seed": args.trace_seed,
                               "correct": line["correct"],
                               "metrics": {k: v["value"] for k, v in
                                           line["metrics"].items()}}
            print(f"  {name} traced seed={args.trace_seed} "
                  f"correct={line['correct']} overhead="
                  f"{line['metrics']['trace.overhead_ratio']['value']:.3f}",
                  flush=True)
        summary["workloads"][name] = entry
    print(f"largest spread / bound: {worst[0]:.3f} ({worst[1]} {worst[2]}; "
          "setup_s's spread is held to no bound, its median's shift is)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
