import json

import numpy as np
import pytest

from qcurv.params import derive_params
from qcurv.interactions import interaction_constants
from qcurv import balancing as bal, cli

PRM = derive_params(5, 1.5)
IC = interaction_constants(PRM)


def two_points(d=3.0):
    pts = np.zeros((2, 5))
    pts[1, 0] = d
    return bal.SingularSet(points=pts)


def equilateral(d=3.0):
    pts = np.zeros((3, 5))
    pts[1, 0] = d
    pts[2, 0] = d / 2
    pts[2, 1] = d * np.sqrt(3) / 2
    return bal.SingularSet(points=pts)


class TestSingularSet:
    def test_distances(self):
        ss = equilateral(3.0)
        off = ss.distances[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 3.0)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="two points"):
            bal.SingularSet(points=np.zeros((1, 5)))

    def test_rejects_close_points(self):
        pts = np.zeros((2, 5))
        pts[1, 0] = 1.5
        with pytest.raises(ValueError, match="rescale"):
            bal.SingularSet(points=pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_rejects_non_finite_points(self, bad):
        # a NaN distance passed the spacing check, and so did an infinite
        # one, also between finite points whose distance overflows
        pts = np.zeros((2, 5))
        pts[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            bal.SingularSet(points=pts)


class TestSolveB1:
    def test_two_point_closed_form(self):
        d = 3.0
        R = bal.solve_B1(two_points(d), np.ones(2), IC, PRM)
        closed = d * IC.A2 ** (-1.0 / (2 * PRM.gamma_s))
        assert R == pytest.approx([closed, closed], rel=1e-12)

    def test_residual_contract(self):
        ss = equilateral()
        q = np.array([1.0, 1.1, 0.9])
        R = bal.solve_B1(ss, q, IC, PRM)
        assert np.max(np.abs(bal.residual_B1(ss, q, R, IC, PRM))) <= 1e-12

    def test_equilateral_symmetry(self):
        R = bal.solve_B1(equilateral(), np.ones(3), IC, PRM)
        assert np.ptp(R) <= 1e-13 * R[0]

    def test_permutation_equivariance(self):
        pts = np.zeros((3, 5))
        pts[1, 0] = 3.0
        pts[2, :2] = (2.0, 4.0)
        q = np.array([1.0, 1.05, 0.95])
        ss = bal.SingularSet(points=pts)
        R = bal.solve_B1(ss, q, IC, PRM)
        perm = [2, 0, 1]
        ss_p = bal.SingularSet(points=pts[perm])
        R_p = bal.solve_B1(ss_p, q[perm], IC, PRM)
        assert R_p == pytest.approx(R[perm], rel=1e-10)

    def test_distance_scaling(self):
        # distances scale by s => R scales by s (degree balance of B1)
        q = np.array([1.0, 1.1, 0.9])
        ss = equilateral(3.0)
        R = bal.solve_B1(ss, q, IC, PRM)
        R2 = bal.solve_B1(bal.SingularSet(points=2.0 * ss.points), q, IC, PRM)
        assert R2 == pytest.approx(2.0 * R, rel=1e-12)

    def test_lopsided_q_has_no_solution(self):
        # on the equilateral triangle the system is solvable only while no
        # q_i^2 dominates the sum of the others; (1, 1.3, 0.8) crosses that
        # fold (1.69 > 1.64) and the solver must say so
        with pytest.raises(bal.BalanceError, match="lopsided"):
            bal.solve_B1(equilateral(), np.array([1.0, 1.3, 0.8]), IC, PRM)

    @pytest.mark.parametrize("n,sigma", [(5, 1.5), (7, 2.5)])
    def test_seeded_sweep_meets_tol(self, monkeypatch, n, sigma):
        # three to five points in a box, q within 5 % of 1: the equal-scale
        # start is off balance, and the solver brings max |F| to B1_TOL
        prm = derive_params(n, sigma)
        ic = interaction_constants(prm)
        calls, solver = [], bal.root

        def counted(*args, **kwargs):
            calls.append(args)
            return solver(*args, **kwargs)
        monkeypatch.setattr(bal, "root", counted)
        rng = np.random.default_rng(1)
        while len(calls) < 20:
            N = int(rng.integers(3, 6))
            try:
                ss = bal.SingularSet(points=rng.uniform(-4, 4, size=(N, n)))
            except ValueError:      # two points closer than 2
                continue
            q = rng.uniform(0.95, 1.05, size=N)
            R = bal.solve_B1(ss, q, ic, prm)
            F = bal.residual_B1(ss, q, R, ic, prm)
            assert np.max(np.abs(F)) <= bal.B1_TOL

    def test_symmetric_pair_never_calls_the_solver(self, monkeypatch):
        # a pair of equal q balances at the equal-scale start exactly
        def refuse(*args, **kwargs):
            raise AssertionError("solver called")
        monkeypatch.setattr(bal, "root", refuse)
        cfg = bal.balance(two_points(3.0), np.ones(2), 3.5, IC, PRM)
        assert cfg.resid_B1 <= bal.B1_TOL

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError, match="positive"):
            bal.solve_B1(two_points(), np.array([1.0, -1.0]), IC, PRM)


class TestSolveB2:
    def test_two_point_closed_form(self):
        d = 3.0
        ss = two_points(d)
        q = np.ones(2)
        R = bal.solve_B1(ss, q, IC, PRM)
        a0 = bal.solve_B2(ss, q, R, IC, PRM)
        direction = (ss.points[1] - ss.points[0]) / d ** 2
        assert a0[0] == pytest.approx(
            -(IC.A3 / (IC.A1 * IC.A2)) * direction, rel=1e-12)

    def test_points_toward_partner(self):
        ss = two_points(3.0)
        q = np.ones(2)
        R = bal.solve_B1(ss, q, IC, PRM)
        a0 = bal.solve_B2(ss, q, R, IC, PRM)
        assert a0[0, 0] > 0  # A3 < 0 flips the sign toward x_2

    def test_exchange_antisymmetry(self):
        ss = two_points(3.0)
        q = np.ones(2)
        R = bal.solve_B1(ss, q, IC, PRM)
        a0 = bal.solve_B2(ss, q, R, IC, PRM)
        assert a0[1] == pytest.approx(-a0[0], abs=1e-15)

    def test_dilation_scaling(self):
        # x -> s x gives R -> s R and a0_hat -> a0_hat / s; checked by re-solve
        q = np.array([1.0, 1.1, 0.9])
        ss = equilateral(3.0)
        R = bal.solve_B1(ss, q, IC, PRM)
        a0 = bal.solve_B2(ss, q, R, IC, PRM)
        ss2 = bal.SingularSet(points=2.0 * ss.points)
        R2 = bal.solve_B1(ss2, q, IC, PRM)
        a02 = bal.solve_B2(ss2, q, R2, IC, PRM)
        assert a02 == pytest.approx(a0 / 2.0, rel=1e-10)

    def test_implicit_residual(self):
        # the implicit form is at rounding level at the explicit offsets and
        # reads A1 q_k |delta| once a0_k moves by delta
        q = np.array([1.0, 1.1, 0.9])
        ss = equilateral(3.0)
        R = bal.solve_B1(ss, q, IC, PRM)
        a0 = bal.solve_B2(ss, q, R, IC, PRM)
        scale = IC.A1 * np.max(np.abs(q[:, None] * a0))
        res = bal.residual_B2(ss, q, R, a0, IC, PRM)
        assert np.max(np.abs(res)) <= 16 * np.finfo(float).eps * scale
        delta = np.array([0.0, 1e-3, -2e-3, 0.0, 0.0])
        moved = a0.copy()
        moved[1] += delta
        res = bal.residual_B2(ss, q, R, moved, IC, PRM)
        assert np.abs(res[1]) == pytest.approx(IC.A1 * q[1] * np.abs(delta),
                                               rel=1e-9, abs=1e-15)
        assert np.max(np.abs(res[[0, 2]])) <= 16 * np.finfo(float).eps * scale


class TestJacobian:
    def test_two_point_eigenvalues(self):
        ss = two_points(3.0)
        q = np.ones(2)
        R = bal.solve_B1(ss, q, IC, PRM)
        rep = bal.balance_jacobian(ss, q, R, IC, PRM)
        assert np.linalg.eigvalsh(rep.dFq) == pytest.approx([-2.0, 0.0],
                                                            abs=1e-12)

    def test_kernel_is_q(self):
        ss = equilateral()
        q = np.array([1.0, 1.1, 0.9])
        R = bal.solve_B1(ss, q, IC, PRM)
        rep = bal.balance_jacobian(ss, q, R, IC, PRM)
        assert rep.q_kernel_dim == 1
        assert rep.q_kernel_angle <= 1e-8

    def test_dilation_clock(self):
        ss = equilateral()
        q = np.array([1.0, 1.1, 0.9])
        R = bal.solve_B1(ss, q, IC, PRM)
        rep = bal.balance_jacobian(ss, q, R, IC, PRM)
        assert rep.dilation_clock == pytest.approx(PRM.gamma_s * q, abs=1e-8)
        assert rep.full_clock == pytest.approx(2 * PRM.gamma_s * q, abs=1e-8)

    def test_blocks_match_finite_differences(self):
        ss = equilateral()
        q = np.array([1.0, 1.1, 0.9])
        R = bal.solve_B1(ss, q, IC, PRM)
        rep = bal.balance_jacobian(ss, q, R, IC, PRM)
        eps = 1e-6
        for k in range(3):
            Rp, Rm = R.copy(), R.copy()
            Rp[k] += eps
            Rm[k] -= eps
            col = (bal.residual_B1(ss, q, Rp, IC, PRM)
                   - bal.residual_B1(ss, q, Rm, IC, PRM)) / (2 * eps)
            assert col == pytest.approx(rep.dFR[:, k], abs=1e-7)
            qp, qm = q.copy(), q.copy()
            qp[k] += eps
            qm[k] -= eps
            col = (bal.residual_B1(ss, qp, R, IC, PRM)
                   - bal.residual_B1(ss, qm, R, IC, PRM)) / (2 * eps)
            assert col == pytest.approx(rep.dFq[:, k], abs=1e-7)

    def test_full_map_not_degenerate(self):
        ss = equilateral()
        q = np.array([1.0, 1.1, 0.9])
        R = bal.solve_B1(ss, q, IC, PRM)
        rep = bal.balance_jacobian(ss, q, R, IC, PRM)
        assert rep.smallest_singular_value > 1e-3
        assert not rep.ill_conditioned


class TestPeriods:
    def test_identity_and_shift(self):
        L = bal.periods_from_q(np.ones(3), 4.0, PRM)
        assert L == pytest.approx([4.0, 4.0, 4.0])
        L = bal.periods_from_q(np.array([np.exp(PRM.gamma_s)]), 4.0, PRM)
        assert L == pytest.approx([3.0], rel=1e-14)

    def test_monotone(self):
        q = np.array([0.5, 1.0, 2.0])
        L = bal.periods_from_q(q, 4.0, PRM)
        assert L[0] > L[1] > L[2]

    def test_roundtrip(self):
        q = np.array([0.7, 1.0, 1.4])
        L_i = bal.periods_from_q(q, 4.0, PRM)
        back = np.exp(PRM.gamma_s * (4.0 - L_i))
        assert back == pytest.approx(q, rel=1e-12)

    def test_rejects_floor(self):
        with pytest.raises(ValueError, match="floor"):
            bal.periods_from_q(np.array([np.exp(4.0 * PRM.gamma_s)]), 4.0, PRM)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_q_is_refused(bad):
    # q = [nan, 1] at L = 3 came back "balanced": the equal-scale R, L_i
    # [nan, 3.0] and NaN residuals, with no error
    q = np.array([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        bal.balance(two_points(), q, 3.0, IC, PRM)
    with pytest.raises(ValueError, match="finite"):
        bal.solve_B1(two_points(), q, IC, PRM)
    with pytest.raises(ValueError, match="finite"):
        bal.periods_from_q(q, 3.0, PRM)


class TestConfigIO:
    def test_balance_and_roundtrip(self, tmp_path):
        ss = equilateral()
        q = np.array([1.0, 1.1, 0.9])
        cfg = bal.balance(ss, q, 4.0, IC, PRM)
        assert cfg.resid_B1 <= 1e-12
        # rounding level of the implicit second condition
        scale = IC.A1 * np.max(np.abs(q[:, None] * cfg.a0_hat))
        assert cfg.resid_B2 <= 16 * np.finfo(float).eps * scale
        # the CLI's balanced.json reads back as a run configuration, and
        # balancing that configuration writes the same file again
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 5, "sigma": 1.5, "L": 4.0,
                                    "points": ss.points.tolist(),
                                    "q": q.tolist()}))
        for out in (tmp_path / "o1", tmp_path / "o2"):
            assert cli.main(["balance", "--config", str(path),
                             "--out", str(out)]) == 0
            path = out / "balanced.json"
        first = (tmp_path / "o1" / "balanced.json").read_text()
        assert path.read_text() == first
        doc = json.loads(first)
        assert doc["n"] == 5 and doc["sigma"] == 1.5 and doc["L"] == 4.0
        assert doc["points"] == ss.points.tolist() and doc["q"] == q.tolist()
        assert doc["R"] == pytest.approx(cfg.R.tolist(), rel=1e-9)
        assert set(doc) == {"n", "sigma", "points", "q", "R", "a0_hat", "L",
                            "L_i", "resid_B1", "resid_B2"}
