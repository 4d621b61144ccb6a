import mpmath
import numpy as np
import pytest

from qcurv import toda


def weighted_norm(entries, tau):
    """max_j e^{(2j+1) tau} |b_j|, with the sup norm inside vector levels:
    the norm whose unit ball amplification bounds."""
    e = np.asarray(entries, dtype=float)
    mags = np.abs(e) if e.ndim == 1 else np.max(np.abs(e), axis=-1)
    j = np.arange(e.shape[0])
    return float(np.max(np.exp((2 * j + 1) * tau) * mags))


def dense_matrix(op):
    """The truncated operator as a dense matrix: the oracle of invert."""
    T = -np.eye(op.K)
    c = op.c
    idx = np.arange(op.K - 1)
    T[idx, idx + 1] = 1.0 + c
    idx = np.arange(op.K - 2)
    T[idx, idx + 2] = -c
    return T


def back_substitution(op, b, dps=50):
    """x_j = (1+c) x_{j+1} - c x_{j+2} - b_j from the bottom row up, in
    dps-digit arithmetic on the operator's own c."""
    with mpmath.workdps(dps):
        c = mpmath.mpf(op.c)
        x = [mpmath.mpf(0)] * (op.K + 2)
        for j in range(op.K - 1, -1, -1):
            x[j] = (1 + c) * x[j + 1] - c * x[j + 2] - mpmath.mpf(float(b[j]))
        return np.array([float(v) for v in x[:op.K]])


def op_pair(K=50):
    return (toda.TodaOperator(kind="translation", K=K, period=2.5),
            toda.TodaOperator(kind="dilation", K=K))


class TestTypes:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            toda.TodaOperator(kind="rotation", K=10)
        with pytest.raises(ValueError, match="three levels"):
            toda.TodaOperator(kind="dilation", K=2)
        for period in (None, 0.0, float("nan")):
            with pytest.raises(ValueError, match="period"):
                toda.TodaOperator(kind="translation", K=10, period=period)
        with pytest.raises(ValueError, match="no period"):
            toda.TodaOperator(kind="dilation", K=10, period=2.0)

    def test_band_values(self):
        tr, di = op_pair(6)
        T = dense_matrix(tr)
        c = np.exp(-5.0)
        assert T[0, 0] == -1.0
        assert T[0, 1] == pytest.approx(1.0 + c)
        assert T[0, 2] == pytest.approx(-c)
        D = dense_matrix(di)
        assert (D[1, 1], D[1, 2], D[1, 3]) == (-1.0, 2.0, -1.0)

    def test_rows_sum_to_zero(self):
        for op in op_pair(12):
            T = dense_matrix(op)
            assert np.max(np.abs(T[:-2].sum(axis=1))) < 1e-15


class TestApply:
    def test_constant_killed_where_band_fits(self):
        for op in op_pair(20):
            out = toda.apply(op, np.ones(20))
            assert np.max(np.abs(out[:-2])) < 1e-15
            assert out[-1] == -1.0  # truncated rows keep their deficit

    def test_zero_parameter_degenerates_to_bidiagonal(self):
        op = toda.TodaOperator(kind="translation", K=8, period=400.0)
        T = dense_matrix(op)
        expect = -np.eye(8)
        expect[np.arange(7), np.arange(7) + 1] = 1.0
        assert T == pytest.approx(expect, abs=1e-300)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for op in op_pair(40):
            x, y = rng.standard_normal((2, 40))
            lhs = toda.apply(op, 2.0 * x - 3.0 * y)
            rhs = 2.0 * toda.apply(op, x) - 3.0 * toda.apply(op, y)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_dimension_mismatch(self):
        op = toda.TodaOperator(kind="dilation", K=10)
        with pytest.raises(ValueError, match="levels"):
            toda.apply(op, np.ones(9))


class TestInvert:
    @pytest.mark.parametrize("K", [50, 200])
    def test_apply_invert_identity(self, K):
        rng = np.random.default_rng(11)
        for op in op_pair(K):
            b = rng.standard_normal(K)
            b /= weighted_norm(b, 0.3)
            back = toda.apply(op, toda.invert(op, b))
            assert np.max(np.abs(back - b)) <= 1e-10

    def test_against_dense_solve(self):
        rng = np.random.default_rng(12)
        for op in op_pair(120):
            b = rng.standard_normal(120)
            x = toda.invert(op, b)
            dense = np.linalg.solve(dense_matrix(op), b)
            assert np.max(np.abs(x - dense)) <= 1e-10

    def test_dilation_unit_mass_pattern(self):
        # mass at level k spreads linearly below it: x_j = -(k-j+1) for
        # j <= k, zero above; certified by the dense oracle above
        op = toda.TodaOperator(kind="dilation", K=12)
        b = np.zeros(12)
        b[5] = 1.0
        x = toda.invert(op, b)
        expect = np.where(np.arange(12) <= 5, -(5 - np.arange(12) + 1.0), 0.0)
        assert x == pytest.approx(expect, abs=1e-14)

    def test_vector_levels(self):
        rng = np.random.default_rng(13)
        op = toda.TodaOperator(kind="translation", K=40, period=2.0)
        b = rng.standard_normal((40, 5))
        x = toda.invert(op, b)
        assert np.max(np.abs(toda.apply(op, x) - b)) <= 1e-12

    @pytest.mark.parametrize("period", [1e-6, 1e-9])
    def test_small_period_against_mpmath(self, period):
        # 1 - c is 2e-6 and 2e-9 here: a form that divides by it loses
        # about eps/(1 - c) relative
        rng = np.random.default_rng(14)
        b = rng.standard_normal(200) * np.exp(-np.arange(200))
        for op in (toda.TodaOperator(kind="translation", K=200,
                                     period=period),
                   toda.TodaOperator(kind="dilation", K=200)):
            ref = back_substitution(op, b)
            x = toda.invert(op, b)
            assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestNorms:
    def test_single_term(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert weighted_norm(e0, 0.5) == pytest.approx(np.exp(0.5))

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal(20)
        assert weighted_norm(-2.5 * b, 0.4) == pytest.approx(
            2.5 * weighted_norm(b, 0.4))

    def test_monotone_in_tau(self):
        b = np.abs(np.random.default_rng(6).standard_normal(20))
        assert weighted_norm(b, 0.6) > weighted_norm(b, 0.2)

    def test_vector_levels_use_sup(self):
        b = np.zeros((3, 4))
        b[1] = (0.0, -2.0, 1.0, 0.0)
        assert weighted_norm(b, 0.5) == pytest.approx(2.0 * np.exp(1.5))


class TestAmplification:
    def test_sharp_on_aligned_sequence(self):
        tau = 0.3
        op = toda.TodaOperator(kind="translation", K=60, period=2.0)
        b = -np.exp(-(2 * np.arange(60) + 1) * tau)
        x = toda.invert(op, b)
        assert np.exp(tau) * abs(x[0]) == pytest.approx(
            toda.amplification(op, tau), rel=1e-13)

    def test_bounds_random_sequences(self):
        rng = np.random.default_rng(21)
        for op in op_pair(80):
            for tau in (0.1, 0.5):
                amp = toda.amplification(op, tau)
                for _ in range(20):
                    b = rng.standard_normal(80)
                    b /= weighted_norm(b, tau)
                    assert weighted_norm(toda.invert(op, b), tau) <= amp + 1e-12

    @pytest.mark.parametrize("period", [1e-6, 1e-9])
    def test_small_period_against_mpmath(self, period):
        # (1 - c^m)/(1 - c) with c = e^{-2L} rounded is off by about
        # eps/(2L) relative
        op = toda.TodaOperator(kind="translation", K=200, period=period)
        tau = 0.5
        with mpmath.workdps(50):
            L = mpmath.mpf(period)
            ref = mpmath.fsum(
                mpmath.expm1(-2 * m * L) / mpmath.expm1(-2 * L)
                * mpmath.exp(-2 * (m - 1) * mpmath.mpf(tau))
                for m in range(1, op.K + 1))
        assert toda.amplification(op, tau) == pytest.approx(float(ref),
                                                            rel=1e-14)

    @pytest.mark.parametrize("tau", [0.0, -0.5, float("nan")])
    def test_rejects_nonpositive_tau(self, tau):
        op = toda.TodaOperator(kind="dilation", K=10)
        with pytest.raises(ValueError, match="tau must be positive"):
            toda.amplification(op, tau)

    def test_gain_over_decay_shrinks_with_tau(self):
        # normalized by the e^{-2 tau} decay law, the worst-case gain at
        # tau = 0.5 sits below the tau = 0.1 one for both kinds
        for op in op_pair(200):
            r01 = toda.amplification(op, 0.1) / np.exp(-0.2)
            r05 = toda.amplification(op, 0.5) / np.exp(-1.0)
            assert r05 < r01
