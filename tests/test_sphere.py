"""Riemannian Newton on the sphere (the points and retraction of
:mod:`qcorr.discord` in the loop of :mod:`qcorr._newton`) on quadratic
forms n^T A n, whose minimum over unit vectors is the smallest
eigenvalue of A, attained along its eigenvector. Their Riemannian
gradient and Hessian in the tangent basis (e1, e2) at n are 2 e_i^T A n
and 2 e_i^T A e_j - (n . 2An) delta_ij."""

import importlib
import math

import numpy as np
import pytest

from qcorr import _newton
from qcorr.discord import _point, _retract

sphere = importlib.import_module("qcorr.discord")  # the package binds the name discord to the function


def minimize(fun, starts):
    """Newton runs from the directions ``starts``, as the discord search runs them, each point built
    only when its run starts; ``x`` is the unit vector found."""
    x, value, nfev, success = _newton.minimize(fun, map(_point, starts), _retract)
    return _newton.Result(x[0], value, nfev, success)


def quadratic(matrix):
    a = np.asarray(matrix, dtype=float)

    def fun(x):
        n, e1, e2 = (np.asarray(v) for v in x)
        value = float(n @ a @ n)
        normal = 2.0 * value  # n . 2An
        grad = (2.0 * e1 @ a @ n, 2.0 * e2 @ a @ n)
        return value, grad, (2.0 * e1 @ a @ e1 - normal, 2.0 * e1 @ a @ e2, 2.0 * e2 @ a @ e2 - normal)

    return fun


def random_symmetric(rng):
    m = rng.standard_normal((3, 3))
    return (m + m.T) / 2.0


def test_minimum_is_the_smallest_eigenvalue_from_any_start():
    rng = np.random.default_rng(2008)
    for _ in range(50):
        a = random_symmetric(rng)
        vals, vecs = np.linalg.eigh(a)
        # the poles, the largest eigenvector (where the Hessian is negative definite) and a random point
        starts = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), tuple(vecs[:, 2] + 1e-3), tuple(rng.standard_normal(3))]
        for start in starts:
            result = minimize(quadratic(a), [start])
            assert result.success
            assert result.fun == pytest.approx(vals[0], abs=1e-13)
            assert abs(np.dot(result.x, vecs[:, 0])) == pytest.approx(1.0, abs=1e-7)
            assert math.isclose(np.linalg.norm(result.x), 1.0, abs_tol=1e-15)


def test_best_of_several_starts_and_total_evaluations():
    """On diag(1, -2, 3) the first start, the x axis, is a saddle where the
    run evaluates its start alone, so the second runs, down to the minimum
    along y; that run moves, so the third start, the z axis, never runs.
    The evaluations are those of both runs."""
    a = np.diag([1.0, -2.0, 3.0])
    calls = []

    def counted(n):
        calls.append(n)
        return quadratic(a)(n)

    result = minimize(counted, [(1.0, 0.0, 0.0), (0.1, 0.99, 0.1), (0.0, 0.0, 1.0)])
    assert result.fun == pytest.approx(-2.0, abs=1e-14)
    assert result.nfev == len(calls) > 2
    assert calls[0][0] == (1.0, 0.0, 0.0)
    assert all(n != (0.0, 0.0, 1.0) for n, _, _ in calls)


def test_a_tangent_basis_only_for_evaluated_points(monkeypatch):
    """Each tangent basis built belongs to a point the objective is
    evaluated at: the loop declines a step that predicts no decrease
    before the retraction maps it to a point, and builds a start's point only
    when its run starts. From the middle eigenvector, a saddle, the first
    run evaluates its start alone and the second runs; the third start
    follows a run that moved and is never built."""
    built = []
    basis = sphere._tangent_basis

    def counted(n):
        built.append(n)
        return basis(n)

    monkeypatch.setattr(sphere, "_tangent_basis", counted)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_symmetric(rng)
        saddle = tuple(np.linalg.eigh(a)[1][:, 1].tolist())
        built.clear()
        second, third = rng.standard_normal((2, 3)).tolist()
        result = minimize(quadratic(a), [saddle, second, third])
        assert result.success
        assert len(built) == result.nfev > 2
        assert built[1] == pytest.approx(tuple(np.asarray(second) / np.linalg.norm(second)), abs=1e-15)
        assert result.fun == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-13)


def test_a_further_start_exactly_when_every_run_stopped_at_its_start():
    """:func:`qcorr._newton.minimize` on f = (x^2 - 1)^2 + y^2 in the
    plane, whose retraction adds the step: from the saddle (0, 0) a run evaluates its start alone and the
    next start runs; from any other start the run moves and the iterable of
    starts is not read again. On a constant objective every start runs, and
    the earliest keeps the tie."""
    def fun(z):
        x, y = z
        return (x * x - 1.0) ** 2 + y * y, (4.0 * x * (x * x - 1.0), 2.0 * y), (12.0 * x * x - 4.0, 0.0, 2.0)

    def flat(z, d1, d2):
        return z[0] + d1, z[1] + d2

    def lazy(points, taken):
        for point in points:
            taken.append(point)
            yield point

    rng = np.random.default_rng(11)
    for first in [(0.0, 0.0), *rng.uniform(-2.0, 2.0, (10, 2)).tolist()]:
        taken, evaluated = [], []

        def counted(z):
            evaluated.append(z)
            return fun(z)

        result = _newton.minimize(counted, lazy([tuple(first), (0.5, 0.5), (-0.5, 0.5)], taken), flat)
        first_nfev = evaluated.index(taken[1]) if len(taken) > 1 else len(evaluated)
        assert len(taken) == (2 if first_nfev == 1 else 1)
        assert result.nfev == len(evaluated)
        assert result.success and result.fun == pytest.approx(0.0, abs=1e-15)
    taken = []
    result = _newton.minimize(lambda z: (0.5, (0.0, 0.0), (0.0, 0.0, 0.0)), lazy([(1.0, 0.0), (0.0, 1.0)], taken), flat)
    assert taken == [(1.0, 0.0), (0.0, 1.0)]
    assert result == ((1.0, 0.0), 0.5, 2, True)


def test_constant_objective_stops_at_its_start():
    result = minimize(lambda x: (0.5, (0.0, 0.0), (0.0, 0.0, 0.0)), [(0.0, 0.0, 2.0)])
    assert result == ((0.0, 0.0, 1.0), 0.5, 1, True)


def test_maxiter_ends_a_run_unconverged(monkeypatch):
    monkeypatch.setattr(_newton, "MAXITER", 1)
    a = random_symmetric(np.random.default_rng(1))
    result = minimize(quadratic(a), [(1.0, 1.0, 1.0)])
    assert not result.success


def test_point_carries_an_orthonormal_tangent_basis():
    """At the poles, on the coordinate planes and at random directions,
    the point is normalized and (e1, e2, n) is a right-handed orthonormal
    basis."""
    rng = np.random.default_rng(4)
    for v in [(0.0, 0.0, -1.0), (0.0, 0.0, 2.0), (1.0, 1.0, 0.0), (0.0, 3.0, 4.0), *rng.standard_normal((20, 3))]:
        n, e1, e2 = _point(v)
        assert n == pytest.approx(tuple(np.asarray(v) / np.linalg.norm(v)), abs=1e-15)
        basis = np.array([e1, e2, n])
        assert basis @ basis.T == pytest.approx(np.eye(3), abs=1e-15)
        assert np.cross(e1, e2) == pytest.approx(n, abs=1e-15)
