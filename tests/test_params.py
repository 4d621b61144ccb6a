import dataclasses
import math
import pickle

import mpmath
import numpy as np
import pytest

from qcurv import balancing, delaunay, interactions, params, toda
from qcurv.params import derive_params, nonlin, nonlin_prime


def test_gamma_against_mpmath():
    # the Gamma-function constants, against mpmath at 30 digits
    mpmath.mp.dps = 30
    G, pi = mpmath.gamma, mpmath.pi
    for n, s in [(5, 1.5), (6, 1.2), (3, 1.4), (7, 2.5), (9, 3.5), (4, 0.3)]:
        prm = derive_params(n, s, allow_low_order=True)
        m, s = mpmath.mpf(n), mpmath.mpf(s)
        refs = {"c_ns": 4 ** s * (G((m + 2 * s) / 4) / G((m - 2 * s) / 4)) ** 2,
                "q_ns": G((m + 2 * s) / 2) / G((m - 2 * s) / 2),
                "riesz_const": G((m - 2 * s) / 2) / (4 ** s * pi ** (m / 2)
                                                     * G(s)),
                "omega_sphere": 2 * pi ** (m / 2) / G(m / 2)}
        for name, ref in refs.items():
            assert getattr(prm, name) == pytest.approx(float(ref), rel=1e-13)


def test_gamma_rejects_nonpositive():
    # derive_params keeps every Gamma argument positive: sigma <= 0 and a
    # NaN sigma are refused before any Gamma is taken
    for sigma in (0.0, -1.3, float("nan")):
        with pytest.raises(ValueError, match="sigma must be positive"):
            derive_params(5, sigma, allow_low_order=True)


def test_derived_values_at_5_15():
    prm = derive_params(5, 1.5)
    assert prm.gamma_s == pytest.approx(1.0, abs=0)
    assert prm.gamma_dual == pytest.approx(4.0, abs=0)
    assert prm.p == pytest.approx(4.0)
    # 2^3 Gamma(2)^2 / Gamma(1/2)^2 = 8 / pi
    assert prm.c_ns == pytest.approx(8.0 / math.pi, rel=1e-13)
    # Riesz constant: Gamma(1) / (4^1.5 pi^2.5 Gamma(1.5)) = 1/(4 pi^3)
    assert prm.riesz_const == pytest.approx(1.0 / (4.0 * math.pi**3), rel=1e-13)


def test_curvature_normalization_low_order_crosscheck():
    # at sigma = 1 the constant must reduce to n(n-2)/4
    prm = derive_params(5, 1.0, allow_low_order=True)
    assert prm.q_ns == pytest.approx(5.0 * 3.0 / 4.0, rel=1e-13)


def test_q_ns_against_mpmath():
    mpmath.mp.dps = 30
    for n, sigma in [(5, 1.5), (7, 2.5), (9, 1.2)]:
        prm = derive_params(n, sigma)
        ref = float(mpmath.gamma((n + 2 * sigma) / 2) / mpmath.gamma((n - 2 * sigma) / 2))
        assert prm.q_ns == pytest.approx(ref, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        derive_params(5, 2.5)  # n = 2 sigma
    with pytest.raises(ValueError):
        derive_params(5, -1.0)
    with pytest.raises(ValueError):
        derive_params(5, 1.0)  # needs the flag
    with pytest.raises(ValueError):
        derive_params(4.5, 1.5)


def test_overflowing_constants_are_refused():
    # Gamma((n + 2 sigma)/2) overflows a double: a ValueError, not an
    # OverflowError the CLI would report as a crash
    with pytest.raises(ValueError, match="overflow"):
        derive_params(400, 1.5)


def test_nonlinearity_consistency():
    prm = derive_params(5, 1.5)
    xi = np.linspace(0.1, 2.0, 17)
    # finite-difference check of f' against f
    h = 1e-6
    fd = (nonlin(xi + h, prm) - nonlin(xi - h, prm)) / (2 * h)
    assert np.allclose(fd, nonlin_prime(xi, prm), rtol=1e-8)


def test_sphere_measures():
    prm = derive_params(5, 1.5)
    # |S^4| = 8 pi^2 / 3, |S^3| = 2 pi^2
    assert prm.omega_sphere == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-13)
    assert prm.omega_equator == pytest.approx(2.0 * math.pi**2, rel=1e-13)


def test_sphere_measures_cached_once(monkeypatch):
    # each measure is one math.gamma call per instance, bit-equal to the
    # formula
    calls = []
    gamma = math.gamma

    def counted(z):
        calls.append(z)
        return gamma(z)

    prm, fresh = derive_params(6, 1.2), derive_params(6, 1.2)
    monkeypatch.setattr(params.math, "gamma", counted)
    for _ in range(3):
        assert prm.omega_sphere == 2.0 * math.pi ** 3.0 / gamma(3.0)
        assert prm.omega_equator == 2.0 * math.pi ** 2.5 / gamma(2.5)
    assert calls == [3.0, 2.5]
    # the cache is no field: ==, hash, replace and pickle see the same Params
    assert fresh == prm and hash(fresh) == hash(prm)
    assert dataclasses.replace(prm) == prm
    back = pickle.loads(pickle.dumps(prm))
    assert back == prm and back.omega_sphere == prm.omega_sphere
    assert len(calls) == 2


PRM = derive_params(5, 1.5)
TWO = balancing.SingularSet(points=np.array([[0.0] * 5, [3.0] + [0.0] * 4]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,call", [
    ("ell", lambda v: interactions.psi(v, PRM)),
    ("L", lambda v: delaunay.solve_periodic(v, PRM)),
    ("L", lambda v: balancing.periods_from_q(np.ones(2), v, PRM)),
    ("L", lambda v: balancing.balance(
        TWO, np.ones(2), v, interactions.interaction_constants(PRM), PRM)),
    ("n", lambda v: derive_params(v, 1.5)),
    ("tau", lambda v: toda.amplification(toda.TodaOperator("dilation", 10),
                                         v)),
], ids=["psi", "solve_periodic", "periods_from_q", "balance",
        "derive_params", "amplification"])
def test_non_finite_argument_is_named(name, call, value):
    # psi(inf) was a "perfect" 0 and amplification(inf) NaN; solve_periodic
    # at inf returned a NaN neck, periods_from_q and balance at NaN or inf
    # NaN or inf periods; NaN failed deep inside, in words that named no
    # argument, and derive_params(inf) raised an OverflowError
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)
