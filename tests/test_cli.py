"""End-to-end checks for the batch front end."""

import dataclasses
import filecmp
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qcurv
from qcurv import assembler, balancing, cli
from qcurv.interactions import interaction_constants
from qcurv.kernels import KERNEL_REL_ERR


def run_cli(args):
    # the child imports the qcurv this process imported, however it was found
    src = os.path.dirname(os.path.dirname(qcurv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "qcurv.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {"n": 5, "sigma": 1.5, "seed": 11,
        "points": [[0, 0, 0, 0, 0], [3, 0, 0, 0, 0]],
        "q": [1.0, 1.0], "L": 2.5}
DROP = object()  # a key left out of BASE


def manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def assert_same_tree(a, b):
    cmp = filecmp.dircmp(str(a), str(b))
    assert not cmp.left_only and not cmp.right_only
    match, mismatch, errors = filecmp.cmpfiles(str(a), str(b),
                                               cmp.common_files,
                                               shallow=False)
    assert not mismatch and not errors


class TestTodaCommand:
    def test_outputs_and_identity(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {**BASE, "toda": {"kind": "dilation", "K": 20}})
        out = tmp_path / "out"
        assert cli.main(["toda", "--config", cfg, "--out", str(out)]) == 0
        check = json.loads((out / "toda_check.json").read_text())
        assert check["apply_invert_err"] < 1e-9
        assert check["amplification"] > 0
        rows = (out / "toda.csv").read_text().strip().splitlines()
        assert rows[0] == "j,b,x,apply_invert_b"
        assert len(rows) == 21

    def test_translation_needs_period(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {**BASE, "toda": {"kind": "translation", "K": 8}})
        code = cli.main(["toda", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == 2


class TestManifest:
    def test_fields_and_no_timestamps(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", BASE)
        out = tmp_path / "out"
        assert cli.main(["toda", "--config", cfg, "--out", str(out)]) == 0
        man = manifest(out)
        assert man["command"] == "toda"
        assert len(man["config_sha256"]) == 64
        assert man["seed"] == 11
        assert {"A1", "A2", "A3", "method", "kappa"} <= set(man["constants"])
        assert sorted(man["outputs"]) == ["toda.csv", "toda_check.json"]
        assert "tol" not in man
        flat = json.dumps(man).lower()
        assert "time" not in flat and "date" not in flat

    def test_rerun_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", BASE)
        for out in ("o1", "o2"):
            assert cli.main(["balance", "--config", cfg,
                             "--out", str(tmp_path / out)]) == 0
        assert_same_tree(tmp_path / "o1", tmp_path / "o2")


class TestExitCodes:
    def test_unreadable_config(self, tmp_path):
        assert cli.main(["toda", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_not_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("not json {")
        assert cli.main(["toda", "--config", str(p),
                         "--out", str(tmp_path / "o")]) == 2

    def test_bad_sigma_type(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"n": 5, "sigma": "wide"})
        assert cli.main(["toda", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_sigma(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"n": 5, "sigma": 2.5})
        assert cli.main(["toda", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    def test_overlapping_points(self, tmp_path):
        doc = {**BASE, "points": [[0, 0, 0, 0, 0], [1.6, 0, 0, 0, 0]]}
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["balance", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["balance", "assemble_residual"])
    def test_points_of_wrong_dimension(self, tmp_path, capsys, command):
        # 3-D points with n = 5 would balance and assemble a configuration
        # other than the one the header and the report describe
        doc = {**BASE, "points": [[0, 0, 0], [3, 0, 0]]}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "n = 5" in err["detail"]
        assert list(out.iterdir()) == []

    def test_solver_failure_is_3(self, tmp_path):
        doc = {**BASE, "delaunay": {"L_list": [1.0, 1.2, 1.4], "M": 200}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["delaunay", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 3

    def test_stderr_is_structured(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{bad")
        res = run_cli(["toda", "--config", str(p),
                       "--out", str(tmp_path / "o")])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"] == "config"

    def test_unknown_command_rejected(self, tmp_path):
        res = run_cli(["frobnicate", "--config", "x.json"])
        assert res.returncode == 2

    def test_only_config_and_out(self, tmp_path, capsys):
        # every command runs at its own fixed tolerance: there is no --tol,
        # and argparse refuses one like any unknown flag
        flags = {f for a in cli._parser()._actions for f in a.option_strings}
        assert flags == {"-h", "--help", "--config", "--out"}
        cfg = write_config(tmp_path / "c.json", BASE)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main(["delaunay", "--config", cfg, "--out", str(out),
                      "--tol", "1e-8"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()


NAN, INF = float("nan"), float("inf")


class TestRefusedBeforeWriting:
    # a config error exits 2 before any output file is written
    @pytest.mark.parametrize("command,change", [
        ("balance", {"L": NAN}),
        ("toda", {"sigma": NAN}),
        ("balance", {"q": [1.0, INF]}),
        ("balance", {"points": [[0, 0, 0, 0, 0], [3, NAN, 0, 0, 0]]}),
        ("delaunay", {"delaunay": {"L_list": [2.5, NAN, 3.5]}}),
        ("toda", {"toda": {"kind": "translation", "period": NAN}}),
        ("kernel", {"kernel": {"t_max": INF}}),
        ("constants", {"constants": {"psi_ells": [0.0, -INF]}}),
        ("assemble_residual", {"residual": {"tau": NAN}}),
    ], ids=["L", "sigma", "q", "points", "L_list", "period", "t_max",
            "psi_ells", "tau"])
    def test_non_finite_number_is_2(self, tmp_path, capsys, command, change):
        # Python's json reads NaN and Infinity
        cfg = write_config(tmp_path / "c.json", {**BASE, **change})
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "finite" in err["detail"]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command,change,detail", [
        # a misspelt key is refused, never ignored for its default; one
        # document serves every command, so every block is checked
        ("kernel", {"kernel": {"tmax": 5.0}}, "kernel['tmax']"),
        ("toda", {"sede": 3}, "config['sede']"),
        ("assemble_residual", {"residual": {"region": ["far"]}},
         "residual['region']"),
        ("balance", {"toda": {"periode": 2.0}}, "toda['periode']"),
        # an integer too large for a double is a config error, not an
        # OverflowError traceback with exit 1
        ("balance", {"L": 10**400}, "config['L']"),
        ("toda", {"n": 10**400}, "config['n']"),
        ("balance", {"q": [10**400, 1.0]}, "config['q']"),
        ("delaunay", {"delaunay": {"M": -10**400}}, "delaunay['M']"),
        # within double range, but Gamma((n + 2 sigma)/2) overflows
        ("toda", {"n": 400}, "overflow"),
        # selects no sample
        ("assemble_residual", {"residual": {"regions": []}}, "regions"),
        # numpy refuses it as a seed, so no command takes it
        ("kernel", {"seed": -1}, "seed must be >= 0"),
        # counts numpy could not allocate: a MemoryError traceback, exit 1
        ("kernel", {"kernel": {"t_points": 10**12}},
         "t_points must be in [4, 100000]"),
        ("toda", {"toda": {"K": 10**12}}, "K must be <= 100000"),
        # a block that is not an object, a required key absent, a key the
        # command needs left null, a q of the wrong length
        ("kernel", {"kernel": [8.0]}, "kernel must be a JSON object"),
        ("toda", {"n": DROP}, "missing required key 'n'"),
        ("balance", {"points": None}, "missing required key 'points'"),
        ("balance", {"q": [1.0, 1.0, 1.0]}, "one entry per point"),
    ], ids=["tmax", "sede", "region", "other-block", "L-huge", "n-huge",
            "q-huge", "M-huge", "n-400", "no-regions", "seed",
            "t_points-huge", "K-huge", "block-list", "no-n", "no-points",
            "q-length"])
    def test_refused_config_is_2(self, tmp_path, capsys, monkeypatch,
                                 command, change, detail):
        monkeypatch.setattr(cli, "assemble", None)  # refused before it
        doc = {k: v for k, v in {**BASE, **change}.items() if v is not DROP}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and detail in err["detail"]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command,block,detail", [
        ("toda", {"toda": {"tau": 0.0}}, "tau must be positive"),
        ("toda", {"toda": {"tau": -1.0}}, "tau must be positive"),
        # every tail value underflows to 0: no slope to fit
        ("kernel", {"kernel": {"t_max": 2000.0}}, "nonzero samples"),
        ("assemble_residual", {"residual": {"mc_points": -4}},
         "mc_points must be >= 0"),
    ], ids=["tau-0", "tau-neg", "t_max-2000", "mc_points"])
    def test_late_config_error_writes_nothing(self, tmp_path, capsys, command,
                                              block, detail):
        cfg = write_config(tmp_path / "c.json", {**BASE, **block})
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert detail in json.loads(capsys.readouterr().err)["detail"]
        assert list(out.iterdir()) == []


class TestKernelCommand:
    def test_tables_and_slopes(self, tmp_path):
        doc = {**BASE, "kernel": {"t_max": 8.0, "t_points": 9}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        slopes = json.loads((out / "kernel_slopes.json").read_text())
        assert abs(slopes["riesz"] + slopes["gamma_s"]) < 0.15
        assert abs(slopes["singular"] + slopes["gamma_dual"]) < 0.6
        for kind in ("riesz", "singular"):
            rows = (out / f"kernel_{kind}.csv").read_text().splitlines()
            assert rows[0] == "t,value,est_error"
            table = [[float(v) for v in r.split(",")] for r in rows[1:]]
            vals = [abs(v) for _, v, _ in table]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            for _, val, err in table:
                assert err == pytest.approx(KERNEL_REL_ERR * abs(val),
                                            rel=1e-11)

    @pytest.mark.parametrize("t_min", [0.0, -0.5])
    def test_nonpositive_t_min_is_2(self, tmp_path, capsys, t_min):
        # at t = 0 the singular kernel is infinite: no row 0,inf,inf
        doc = {**BASE, "kernel": {"t_min": t_min, "t_max": 8.0}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 2
        assert "0 < t_min" in json.loads(capsys.readouterr().err)["detail"]
        assert list(out.iterdir()) == []


class TestConstantsCommand:
    def test_payload_and_psi(self, tmp_path):
        doc = {**BASE, "constants": {"psi_ells": [0.0, 1.0, 3.0]}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert cli.main(["constants", "--config", cfg,
                         "--out", str(out)]) == 0
        pay = json.loads((out / "constants.json").read_text())
        assert set(pay) == {"n", "sigma", "A1", "A2", "A3", "method",
                            "est_error", "oracle_A2", "oracle_A3",
                            "oracle_method"}
        assert pay["n"] == 5 and pay["sigma"] == 1.5
        assert pay["method"] == "closed_integral"
        assert pay["oracle_method"] == "oracle_fit"
        assert 0 < pay["est_error"] < 1e-6
        assert pay["A1"] > 0 and pay["A2"] > 0 and pay["A3"] < 0
        assert pay["A3"] == pytest.approx(-2 * pay["A2"], rel=1e-9)
        assert pay["oracle_A2"] == pytest.approx(pay["A2"], rel=0.02)
        rows = (out / "psi.csv").read_text().strip().splitlines()[1:]
        table = {float(r.split(",")[0]): float(r.split(",")[1])
                 for r in rows}
        assert table[0.0] == 0.0
        assert table[1.0] > table[3.0] > 0


class TestBalanceCommand:
    def test_symmetric_pair_closed_form(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", BASE)
        out = tmp_path / "out"
        assert cli.main(["balance", "--config", cfg, "--out", str(out)]) == 0
        bal = json.loads((out / "balanced.json").read_text())
        man = manifest(out)
        want = 3.0 / math.sqrt(man["constants"]["A2"])
        assert bal["R"][0] == pytest.approx(want, rel=1e-8)
        assert bal["R"][0] == pytest.approx(bal["R"][1], rel=1e-12)
        rows = (out / "balance.csv").read_text().strip().splitlines()
        assert rows[0].startswith("i,q,R,L_i")
        assert len(rows) == 3

    def test_balances_as_the_library(self, tmp_path):
        # balance and assemble_residual balance one config alike: both at
        # balancing.B1_TOL, where the balance command once stopped at 1e-10
        doc = {**BASE, "points": [[0, 0, 0, 0, 0], [3, 0, 0, 0, 0],
                                  [6, 0, 0, 0, 0]], "q": [1.0, 1.3, 1.0]}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert cli.main(["balance", "--config", cfg, "--out", str(out)]) == 0
        got = json.loads((out / "balanced.json").read_text())
        prm = qcurv.derive_params(5, 1.5)
        want = balancing.balance(
            balancing.SingularSet(points=np.array(doc["points"], float)),
            np.array(doc["q"]), doc["L"], interaction_constants(prm), prm)
        assert got["R"] == want.R.tolist()
        assert got["resid_B1"] == want.resid_B1 <= balancing.B1_TOL


class TestAssembleResidualCommand:
    def test_full_run_with_comparison(self, tmp_path):
        doc = {**BASE,
               "residual": {"tau": 0.5, "regions": ["transition"],
                            "compare_q": [1.2, 1.0]}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert cli.main(["assemble_residual", "--config", cfg,
                         "--out", str(out)]) == 0
        summary = (out / "residual_summary.csv").read_text().splitlines()
        runs = {r.split(",")[0]: float(r.split(",")[1])
                for r in summary[1:]}
        assert set(runs) == {"balanced", "compare", "ratio"}
        assert runs["ratio"] == pytest.approx(
            runs["compare"] / runs["balanced"], rel=1e-9)
        betas = json.loads((out / "beta.json").read_text())
        assert len(betas["entries"]) == 4
        balanced_betas = [e["beta"] for e in betas["entries"]
                          if "config" not in e]
        assert balanced_betas[0] == pytest.approx(balanced_betas[1],
                                                  rel=1e-3)
        rep = json.loads((out / "residual_report.json").read_text())
        assert set(rep) == {f.name for f in
                            dataclasses.fields(assembler.ResidualReport)}
        assert rep["weight_kind"] == "starstar" and rep["tau"] == 0.5
        assert rep["errors"] == [] and rep["nodes"] > 0
        assert rep["weighted_norm"] == pytest.approx(runs["balanced"],
                                                     rel=1e-11)
        assert len(rep["values"]) == len(rep["points"]) == len(rep["tags"])
        # each projection carries its 16/8 gap within tol (1e-7) x its mass
        for e in betas["entries"]:
            assert 0.0 < e["err_est"] <= 1e-7 * e["mass"]
        # solver facts: finite ones only, so the control has no B1/B2
        solver = manifest(out)["solver"]
        assert set(solver["balanced"]) == {"profiles", "resid_B1",
                                           "resid_B2"}
        assert set(solver["compare"]) == {"profiles"}
        assert [p["L"] for p in solver["balanced"]["profiles"]] == [2.5]
        assert len(solver["compare"]["profiles"]) == 2
        for facts in solver.values():
            for p in facts["profiles"]:
                assert p["n_iter"] >= 1 and p["residual_norm"] <= 1e-10
                # about 3 on the branch, larger toward L* = 2.014 (4.2 at
                # the control's L_i = 2.32)
                assert 2.0 <= p["jac_inv_norm"] <= 10.0
        again = tmp_path / "again"
        assert cli.main(["assemble_residual", "--config", cfg,
                         "--out", str(again)]) == 0
        assert_same_tree(out, again)

    def test_rerun_with_mc_check_bit_identical(self, tmp_path):
        doc = {**BASE, "residual": {"regions": ["transition"],
                                    "mc_points": 1}}
        cfg = write_config(tmp_path / "c.json", doc)
        for name in ("o1", "o2"):
            assert cli.main(["assemble_residual", "--config", cfg,
                             "--out", str(tmp_path / name)]) == 0
        assert_same_tree(tmp_path / "o1", tmp_path / "o2")
        rep = json.loads((tmp_path / "o1" / "residual_report.json")
                         .read_text())
        assert len(rep["mc_checks"]) == 1
        # 50k draws, rounded up to 16 replicates of 3 components' strata
        assert rep["mc_checks"][0]["draws"] == 50_016
        assert rep["mc_checks"][0]["replicates"] == 16

    def test_failed_mc_guard_is_3_after_writing(self, tmp_path,
                                                monkeypatch):
        # a probe 100 stderr off the quadrature fails the guard: every file
        # is written, the report names the sample, and the exit code is 3
        probe = assembler.mc_probe

        def shifted(*args):
            est, err = probe(*args)
            return est + 100.0 * err, err

        monkeypatch.setattr(assembler, "mc_probe", shifted)
        doc = {**BASE, "residual": {"regions": ["transition"],
                                    "mc_points": 2, "compare_q": [1.2, 1.0]}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert cli.main(["assemble_residual", "--config", cfg,
                         "--out", str(out)]) == 3
        for name in ("residual_report.json", "residual_report_compare.json",
                     "beta.json", "residual_summary.csv"):
            assert (out / name).exists()
        rep = json.loads((out / "residual_report.json").read_text())
        assert all(math.isfinite(v) for v in rep["values"])
        assert [e.split(":")[0] for e in rep["errors"]] == [
            f"sample {c['sample']}" for c in rep["mc_checks"]]
        assert all("Monte Carlo guard" in e for e in rep["errors"])

    def test_no_good_sample_is_3_with_nan_norm(self, tmp_path,
                                               monkeypatch):
        def fail(*args, **kwargs):
            raise FloatingPointError("quadrature blew up")

        monkeypatch.setattr(assembler, "_dual_at", fail)
        cfg = write_config(tmp_path / "c.json", BASE)
        out = tmp_path / "o"
        assert cli.main(["assemble_residual", "--config", cfg,
                         "--out", str(out)]) == 3
        rep = json.loads((out / "residual_report.json").read_text())
        assert math.isnan(rep["weighted_norm"])
        assert len(rep["errors"]) == len(rep["values"])

    def test_non_collinear_points_are_2(self, tmp_path):
        doc = {**BASE, "points": [[0, 0, 0, 0, 0], [3, 0, 0, 0, 0],
                                  [1.5, 2.8, 0, 0, 0]],
               "q": [1.0, 1.0, 1.0]}
        cfg = write_config(tmp_path / "c.json", doc)
        res = run_cli(["assemble_residual", "--config", cfg,
                       "--out", str(tmp_path / "o")])
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "config"
        assert not (tmp_path / "o" / "residual_report.json").exists()

    def test_rotated_line_writes_finite_betas(self, tmp_path):
        # the projections take any line direction, not only coordinate axes
        a = 3.0 / math.sqrt(2.0)
        doc = {**BASE, "points": [[0, 0, 0, 0, 0], [a, a, 0, 0, 0]],
               "residual": {"regions": ["transition"]}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert cli.main(["assemble_residual", "--config", cfg,
                         "--out", str(out)]) == 0
        entries = json.loads((out / "beta.json").read_text())["entries"]
        assert len(entries) == 2
        assert all(math.isfinite(e["beta"]) for e in entries)

    def test_bad_regions_rejected(self, tmp_path):
        doc = {**BASE, "residual": {"regions": ["everywhere"]}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["assemble_residual", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    def test_bad_compare_q_rejected(self, tmp_path):
        doc = {**BASE, "residual": {"regions": ["transition"],
                                    "compare_q": [1.0]}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["assemble_residual", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2


class TestDelaunayCommand:
    def test_sweep_csv_and_slopes(self, tmp_path):
        # L = 2 is below the branch point: a failed row with nan markers
        doc = {**BASE, "delaunay": {"L_list": [2.0, 2.5, 3.0, 3.5],
                                    "M": 400}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert cli.main(["delaunay", "--config", cfg,
                         "--out", str(out)]) == 0
        rows = (out / "delaunay_sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "L,eps,psi_sup,resid,iters"
        assert rows[1] == "2,nan,nan,nan,0"
        cols = [r.split(",") for r in rows[2:]]
        assert [c[0] for c in cols] == ["2.5", "3", "3.5"]
        assert all(int(c[4]) >= 1 and float(c[3]) <= 1e-8 for c in cols)
        eps = [float(c[1]) for c in cols]
        assert eps[0] > eps[1] > eps[2] > 0
        slopes = json.loads((out / "delaunay_slopes.json").read_text())
        assert slopes["slope_eps"] == pytest.approx(-slopes["gamma_s"],
                                                    rel=0.08)

    def test_odd_grid_fails_every_row(self, tmp_path, capsys):
        # a bad grid is a configuration error, refused before any row
        doc = {**BASE, "delaunay": {"L_list": [2.5, 3.0, 3.5], "M": 401}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["delaunay", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        assert "must be even" in capsys.readouterr().err

    def test_small_grid_is_config_error(self, tmp_path, capsys):
        doc = {**BASE, "delaunay": {"L_list": [2.5, 3.0, 3.5], "M": 198}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["delaunay", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        assert ">= 200" in capsys.readouterr().err


class TestBlockTypes:
    # block values of the wrong type exit 2 instead of being coerced: a
    # bool, string or fraction is never read as a number or a count
    @pytest.mark.parametrize("command,block,value", [
        ("delaunay", "delaunay", {"M": 400.7}),
        ("kernel", "kernel", {"t_points": "30"}),
        ("assemble_residual", "residual", {"mc_points": 1.9}),
        ("constants", "constants", {"psi_ells": [True]}),
        ("delaunay", "delaunay", {"L_list": [True, 3.0, 3.5]}),
        ("kernel", "kernel", {"t_max": True}),
        ("toda", "toda", {"K": 50.0}),
        ("toda", "toda", {"tau": "0.5"}),
        ("toda", "toda", {"kind": "translation", "period": False}),
        ("assemble_residual", "residual", {"weight_kind": 1}),
        ("assemble_residual", "residual", {"compare_q": [True, 1.0]}),
        ("assemble_residual", "residual", {"regions": "far"}),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(v))
    def test_wrong_type_is_2(self, tmp_path, capsys, command, block, value):
        doc = {**BASE, block: value}
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main([command, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert f"{block}[{list(value)[-1]!r}] must be" in err["detail"]


def test_readme_example_names_every_schema_key():
    # the README's config example shows exactly the keys cli.SCHEMA reads,
    # and passes it
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md")
    text = readme.read_text(encoding="utf-8").split("### Config schema")[1]
    doc = json.loads(text.split("```jsonc")[1].split("```")[0])
    assert set(doc) == set(cli.SCHEMA)
    for name, keys in cli.SCHEMA.items():
        if isinstance(keys, dict):
            assert set(doc[name]) == set(keys), name
    cli._read(doc, "assemble_residual")


class TestTopLevelTypes:
    # the top-level geometry and seed are read as typed too: a string, a
    # bool or a fraction exits 2 instead of being coerced
    @pytest.mark.parametrize("key,value", [
        ("L", "3.0"),
        ("seed", True),
        ("q", [True, True]),
        ("points", [[0, 0, 0, 0, 0], [3, False, False, False, False]]),
    ], ids=["L", "seed", "q", "points"])
    def test_wrong_type_is_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.json", {**BASE, key: value})
        assert cli.main(["balance", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert f"config['{key}']" in err["detail"]
