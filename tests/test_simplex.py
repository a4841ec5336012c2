"""The test suite's Nelder-Mead (:mod:`tests.simplex`) against scipy's:
the same ``x``, ``fun``, ``nfev`` and ``success``, compared exactly, on
the objectives of the Gaussian and two-qubit test oracles and on cases
that reach each branch of the method."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from qcorr import CovarianceMatrix, DensityMatrix, random_covariance, random_density_matrix
from qcorr.discord import _bloch

from . import discord_oracle, gaussian_oracle
from .conftest import bell_density, werner_state
from .simplex import minimize


def assert_same_as_scipy(fun, x0, **options):
    ours = minimize(fun, x0, **options)
    theirs = scipy_minimize(fun, np.array(x0, dtype=float), method="Nelder-Mead", options=options)
    assert ours.x == tuple(theirs.x)
    if math.isnan(theirs.fun):
        assert math.isnan(ours.fun)
    else:
        assert ours.fun == theirs.fun
        assert math.copysign(1.0, ours.fun) == math.copysign(1.0, theirs.fun)
    assert ours.nfev == theirs.nfev
    assert ours.success == theirs.success
    return ours


def oracle_calls(monkeypatch, module, run):
    """(objective, x0, options) of every refinement ``run`` makes through
    the ``minimize`` bound in ``module``."""
    calls = []
    refine = module.minimize

    def recording(fun, x0, **options):
        calls.append((fun, x0, options))
        return refine(fun, x0, **options)

    with monkeypatch.context() as patch:
        patch.setattr(module, "minimize", recording)
        run()
    assert calls
    return calls


def rosenbrock(z):
    return sum(100.0 * (z[i + 1] - z[i] ** 2) ** 2 + (1.0 - z[i]) ** 2 for i in range(len(z) - 1))


def test_discord_objective_on_seeded_states(monkeypatch):
    """The two-qubit oracle's refinement, the Nelder-Mead that the search
    used before Newton on the sphere, in both measurement directions."""
    states = [random_density_matrix((2, 2), 1 + seed % 4, seed=seed) for seed in range(24)]
    product = np.kron(np.diag([0.7, 0.3]), np.array([[0.6, 0.2], [0.2, 0.4]]))
    states += [bell_density(), werner_state(0.3), DensityMatrix(product, (2, 2)), DensityMatrix(np.eye(4) / 4, (2, 2))]

    def run():
        for rho in states:
            a, b, t = _bloch(rho)
            discord_oracle._maximize_classical_correlations((a, b, t))
            discord_oracle._maximize_classical_correlations((b, a, t.T))

    calls = oracle_calls(monkeypatch, discord_oracle, run)
    assert len(calls) == 2 * len(states)
    for fun, x0, options in calls:
        assert options == {"xatol": 1e-7, "fatol": 1e-12, "maxiter": 600, "maxfev": 600}
        assert_same_as_scipy(fun, x0, **options)


def test_gaussian_oracle_objectives(monkeypatch):
    """The Gaussian test oracle's refinements, the Nelder-Mead that the
    measurement search used before Newton."""
    c, s = math.cosh(3.0) / 2, math.sinh(3.0) / 2  # two-mode squeezed vacuum, r = 1.5
    tmsv = CovarianceMatrix(np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]]))
    states = [random_covariance(seed) for seed in range(6)] + [tmsv]

    def run():
        for sigma in states:
            for mode in (1, 2):
                gaussian_oracle.minimize_gaussian_measurement(sigma, mode)

    calls = oracle_calls(monkeypatch, gaussian_oracle, run)
    finite = [call for call in calls if len(call[1]) == 2]
    homodyne = [call for call in calls if len(call[1]) == 1]
    assert len(finite) == 3 * len(homodyne) == 3 * 2 * len(states)
    for fun, x0, options in finite:
        assert options == {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000, "maxfev": 4000}
        assert_same_as_scipy(fun, x0, **options)
    for fun, x0, options in homodyne:
        assert options == {"xatol": 1e-12, "fatol": 1e-15, "maxiter": 2000}
        assert_same_as_scipy(fun, x0, **options)


@pytest.mark.parametrize("x0", [(0.0, 0.0), (-1.2, 0.0), (0.0, 2.0), (0.0, 0.0, 0.0)])
def test_rosenbrock_from_a_zero_coordinate(x0):
    result = assert_same_as_scipy(rosenbrock, x0, xatol=1e-10, fatol=1e-14, maxiter=4000, maxfev=4000)
    assert result.success
    assert result.x == pytest.approx((1.0,) * len(x0), abs=1e-6)


@pytest.mark.parametrize("maxfev", [1, 2, 3, 4, 5, 7, 11, 17, 40, 97])
def test_maxfev_exhausted(maxfev):
    # the budgets land on refused evaluations in each kind of step
    result = assert_same_as_scipy(rosenbrock, (-1.2, 1.0), xatol=1e-10, fatol=1e-14, maxiter=600, maxfev=maxfev)
    assert result.nfev == maxfev
    assert not result.success


@pytest.mark.parametrize("dims", [1, 2])
def test_maxiter_exhausted(dims):
    result = assert_same_as_scipy(
        lambda z: rosenbrock(z) if dims == 2 else (z[0] - 3.0) ** 2, (-1.2, 1.0)[:dims], xatol=1e-12, fatol=1e-15, maxiter=12
    )
    assert not result.success


@pytest.mark.parametrize(
    "fun",
    [
        lambda z: 0.0,
        lambda z: float(math.floor(2.0 * z[0]) + math.floor(3.0 * z[1])),
        lambda z: -0.0 if z[0] < 0.52 else 0.0,
        lambda z: 0.0 if z[0] < 0.52 else -0.0,
    ],
    ids=["constant", "steps", "signed-zero", "zero-signed"],
)
def test_tied_values_keep_their_order(fun):
    for x0 in [(0.5, 0.5), (0.0, 1.0), (-0.3, 0.0)]:
        assert_same_as_scipy(fun, x0, xatol=1e-9, fatol=1e-14, maxiter=300, maxfev=300)


@pytest.mark.parametrize("x0", [(1.0, 0.5), (1.1, 0.0), (0.2, -0.4), (3.0, 1.0)])
def test_nan_on_part_of_the_domain(x0):
    def fun(z):
        return math.nan if z[0] > 1.15 else (z[0] - 1.0) ** 2 + (z[1] - 0.5) ** 2

    assert_same_as_scipy(fun, x0, xatol=1e-10, fatol=1e-14, maxiter=500, maxfev=500)
    assert_same_as_scipy(lambda z: fun((z[0], 0.5)), x0[:1], xatol=1e-12, fatol=1e-15, maxiter=500)


@pytest.mark.parametrize(
    "fun, x0, expected",
    [
        (lambda z: -0.0 if z[0] < 0.52 else 0.0, (0.5, 0.5), "0.0"),
        (lambda z: 0.0 if z[0] < 0.52 else -0.0, (0.5, 0.5), "-0.0"),
        (lambda z: math.nan if z[0] > 1.15 else (z[0] - 1.0) ** 2 + (z[1] - 0.5) ** 2, (1.1, 0.0), "nan"),
    ],
    ids=["ties-take-the-last", "ties-take-the-last-negative", "nan-propagates"],
)
def test_fun_is_numpy_min_of_the_final_values(fun, x0, expected):
    # two evaluations leave the third vertex at inf and the run ends there
    result = assert_same_as_scipy(fun, x0, xatol=1e-9, fatol=1e-14, maxiter=10, maxfev=2)
    assert repr(result.fun) == expected
    assert result.x == x0


def test_nan_everywhere():
    result = assert_same_as_scipy(lambda z: math.nan, (0.3, 0.7), xatol=1e-10, fatol=1e-14, maxiter=50)
    assert math.isnan(result.fun)
    assert not result.success
