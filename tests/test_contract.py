"""One input contract for every public float parameter.

The walk of the orphan scan (`test_imports.public_names`: each module's
__all__, then its other public top-level functions and classes) lists the
package's callables; `inspect` reads their parameters, and a parameter
annotated with float or defaulting to a float is a float parameter.  Each
one has a row in CASES, or its owner is in RECORDS, or the walk fails.

A row calls the owner with the parameter set to each of NaN, +inf, -inf, 0
and -1, the other arguments valid.  Every value must raise ValueError,
unless the row documents what it does instead: an exception of its own, or
a check on the returned value (NaN propagation, a limit, a valid value).
Parameters that take arrays of points (the kernels, u) are out of this
walk: they propagate NaN pointwise.
"""

import importlib
import inspect

import numpy as np
import pytest

from qcurv.assembler import (WeightSpec, beta_projection, beta_projections,
                             cutoff, dual_apply, dual_apply_radial, residual,
                             residuals)
from qcurv.balancing import SingularSet, balance, periods_from_q
from qcurv.bubbles import Bubble, TowerConfig
from qcurv.delaunay import bifurcation_half_period, neck_sweep, solve_periodic
from qcurv.interactions import gram_cokernels, interaction_constants, psi
from qcurv.kernels import (QuadratureError, check_rules,
                           log_radial_convolution, singular_kernel_cyl)
from qcurv.params import derive_params
from qcurv.toda import TodaOperator, amplification
from test_imports import SRC, public_names

PRM = derive_params(5, 1.5)
NAN, INF = float("nan"), float("inf")
BAD = (NAN, INF, -INF, 0.0, -1.0)
ORIGIN = np.zeros(5)


def finite(r) -> bool:
    return bool(np.all(np.isfinite(r)))


def in_unit_or_nan(r) -> bool:
    r = np.asarray(r)
    return bool(np.all(np.isnan(r) | ((0.0 <= r) & (r <= 1.0))))


def kern(s):
    return np.exp(-np.abs(s))


# owners whose float fields are results the package fills in
RECORDS = {
    ("assembler", "Estimate"), ("assembler", "ResidualReport"),
    ("balancing", "BalancedConfig"), ("balancing", "JacobianReport"),
    ("delaunay", "CylSolution"), ("delaunay", "NewtonError"),
    ("delaunay", "SweepRow"), ("delaunay", "SweepResult"),
    ("interactions", "InteractionConstants"), ("params", "Params"),
}

# a checker's tol or scale: NaN, 0 and below fail every check, inf passes
# any finite gap; its callers pass constants or a tol they have checked
CHECKER = {NAN: QuadratureError, INF: lambda r: r is None,
           -INF: QuadratureError, 0.0: QuadratureError,
           -1.0: QuadratureError}

# (module, owner, parameter) -> (call with the value, {value: outcome});
# the tol checks run before the solution or configuration is read, so
# those rows pass None for it
CASES = {
    # a smooth bump of its arguments: NaN stays NaN, and an on or off at
    # an infinity or off <= on leaves a plateau value
    ("assembler", "cutoff", "on"): (
        lambda v: cutoff(np.array([0.7]), on=v),
        dict.fromkeys(BAD, in_unit_or_nan)),
    ("assembler", "cutoff", "off"): (
        lambda v: cutoff(np.array([0.7]), off=v),
        dict.fromkeys(BAD, in_unit_or_nan)),
    ("assembler", "dual_apply_radial", "tol"): (
        lambda v: dual_apply_radial(np.ones_like, ORIGIN, ORIGIN + 0.5, PRM,
                                    tol=v), {}),
    ("assembler", "dual_apply", "tol"): (
        lambda v: dual_apply(None, ORIGIN, tol=v), {}),
    ("assembler", "beta_projection", "tol"): (
        lambda v: beta_projection(None, None, tol=v), {}),
    ("assembler", "beta_projections", "tol"): (
        lambda v: beta_projections(None, None, tol=v), {}),
    ("assembler", "residuals", "tol"): (
        lambda v: residuals([None], None, tol=v), {}),
    ("assembler", "residual", "tol"): (
        lambda v: residual(None, None, tol=v), {}),
    ("assembler", "WeightSpec", "tau"): (lambda v: WeightSpec(tau=v), {}),
    ("balancing", "periods_from_q", "L"): (
        lambda v: periods_from_q(np.ones(2), v, PRM), {}),
    ("balancing", "balance", "L"): (
        lambda v: balance(SingularSet(points=[ORIGIN, ORIGIN + 3.0]),
                          np.ones(2), v, interaction_constants(PRM), PRM),
        {}),
    ("bubbles", "Bubble", "lam"): (
        lambda v: Bubble(lam=v, center=ORIGIN), {}),
    ("bubbles", "TowerConfig", "period"): (
        lambda v: TowerConfig(index=0, center=ORIGIN, period=v, levels=2),
        {}),
    ("bubbles", "TowerConfig", "baseline"): (
        lambda v: TowerConfig(index=0, center=ORIGIN, period=2.0, levels=2,
                              baseline=v), {}),
    # 0 admits unshifted levels only
    ("bubbles", "TowerConfig", "shift_bound"): (
        lambda v: TowerConfig(index=0, center=ORIGIN, period=2.0, levels=2,
                              shift_bound=v),
        {0.0: lambda r: isinstance(r, TowerConfig)}),
    ("delaunay", "solve_periodic", "L"): (
        lambda v: solve_periodic(v, PRM, M=200), {}),
    # a NaN half-period is kept as a marked row between the rows it does
    # not order; +inf orders after 2.5 and 3.0 only if 3.0 comes first
    ("delaunay", "neck_sweep", "L_list"): (
        lambda v: neck_sweep([2.5, v, 3.0], PRM, M=200),
        {NAN: lambda r: [row.error for row in r.rows] == [
            None, "L must be finite: nan", None]}),
    ("delaunay", "bifurcation_half_period", "tol"): (
        lambda v: bifurcation_half_period(PRM, tol=v), {}),
    # psi(0) vanishes identically
    ("interactions", "psi", "ell"): (
        lambda v: psi(v, PRM), {0.0: lambda r: r == 0.0}),
    ("interactions", "gram_cokernels", "tol"): (
        lambda v: gram_cokernels(None, PRM, tol=v), {}),
    ("kernels", "singular_kernel_cyl", "t_min"): (
        lambda v: singular_kernel_cyl(1.0, PRM, t_min=v), {}),
    ("kernels", "check_rules", "tol"): (
        lambda v: check_rules(1.0, 1.0 + 1e-12, v, "case"), CHECKER),
    ("kernels", "check_rules", "scale"): (
        lambda v: check_rules(1.0, 1.0 + 1e-12, 1e-9, "case", scale=v),
        CHECKER),
    # t is a log-radial coordinate: 0 and -1 are points like any other
    ("kernels", "log_radial_convolution", "t"): (
        lambda v: log_radial_convolution(kern, np.ones_like, v, 1.0, 1e-9,
                                         "case"),
        {0.0: finite, -1.0: finite}),
    ("kernels", "log_radial_convolution", "rate"): (
        lambda v: log_radial_convolution(kern, np.ones_like, 0.0, v, 1e-9,
                                         "case"), {}),
    ("kernels", "log_radial_convolution", "tol"): (
        lambda v: log_radial_convolution(kern, np.ones_like, 0.0, 1.0, v,
                                         "case"), {}),
    ("params", "derive_params", "sigma"): (
        lambda v: derive_params(5, v), {}),
    ("toda", "TodaOperator", "period"): (
        lambda v: TodaOperator("translation", 4, v), {}),
    ("toda", "amplification", "tau"): (
        lambda v: amplification(TodaOperator("dilation", 4), v), {}),
}


def float_parameters() -> set[tuple[str, str, str]]:
    """(module, owner, parameter) for each float parameter of a public
    callable of the package."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"qcurv.{path.stem}")
        for name in public_names(path.read_text(encoding="utf-8")):
            obj = getattr(module, name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except ValueError:      # an exception class without fields
                continue
            for p in params:
                if "float" in str(p.annotation) or isinstance(p.default,
                                                              float):
                    out.add((path.stem, name, p.name))
    return out


def test_every_float_parameter_has_a_case():
    found = {k for k in float_parameters() if k[:2] not in RECORDS}
    assert sorted(found - set(CASES)) == []
    assert sorted(set(CASES) - found) == []


def test_walk_sees_the_records():
    # a record left in RECORDS after its owner is gone hides nothing
    owners = {k[:2] for k in float_parameters()}
    assert sorted(RECORDS - owners) == []


@pytest.mark.parametrize("key", sorted(CASES), ids="/".join)
@pytest.mark.parametrize("value", BAD, ids=repr)
def test_bad_float_is_refused_or_documented(key, value):
    call, documented = CASES[key]
    outcome = documented.get(value, ValueError)
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call(value)
    else:
        assert outcome(call(value))
