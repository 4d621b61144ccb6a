"""One seed-0 pass of each benchmark workload, checked as the benchmark
checks it.

Each workload of bench/workloads.py is set up in a temporary directory and
runs one pass; its own `check` must pass every operation, and every number
the pass reports must match bench/reference.json's seed-0 entry by the rule
of bench/run.py's `apply_reference`: within the operation's absolute band,
NaN matching only NaN, and no reference key left unreported.  A change
under src/ that breaks a constructor call or an attribute the benchmark
uses fails here.  Nothing under bench/ is written.
"""

import importlib.util
import json
import math
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def close(a: float, b: float, band: float) -> bool:
    """bench/run.py's `close`."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= band


@pytest.mark.parametrize("name", ["gate_slice", "tables", "cli_residual"])
def test_seed0_pass_matches_reference(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    wl.setup()
    wl.before_pass()
    ops = wl.check(wl.run_pass())
    assert [(o["name"], o["why"]) for o in ops if not o["ok"]] == []
    ref = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))[name]["0"]["numbers"]
    seen, off = set(), []
    for o in ops:
        for key, (val, band) in o["numbers"].items():
            if key in ref:
                seen.add(key)
                if not close(val, ref[key], band):
                    off.append((key, val, ref[key]))
    assert off == []
    assert sorted(set(ref) - seen) == []
