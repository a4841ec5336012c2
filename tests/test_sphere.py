"""Riemannian Newton on the sphere (:mod:`qcorr._sphere`) on quadratic
forms n^T A n, whose minimum over unit vectors is the smallest
eigenvalue of A, attained along its eigenvector. Their Riemannian
gradient and Hessian in the tangent basis (e1, e2) at n are 2 e_i^T A n
and 2 e_i^T A e_j - (n . 2An) delta_ij."""

import math

import numpy as np
import pytest

from qcorr import _newton, _sphere
from qcorr._sphere import minimize, point


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
    a = np.diag([1.0, -2.0, 3.0])
    calls = []

    def counted(n):
        calls.append(n)
        return quadratic(a)(n)

    result = minimize(counted, [(0.6, 0.0, 0.8), (0.1, 0.99, 0.1)])
    assert result.fun == pytest.approx(-2.0, abs=1e-14)
    assert result.nfev == len(calls)


def test_a_tangent_basis_only_for_evaluated_points(monkeypatch):
    """Each tangent basis built belongs to a point the objective is
    evaluated at: the loop declines a step that predicts no decrease
    before the chart maps it to a point."""
    built = []
    basis = _sphere._tangent_basis

    def counted(n):
        built.append(n)
        return basis(n)

    monkeypatch.setattr(_sphere, "_tangent_basis", counted)
    rng = np.random.default_rng(7)
    for _ in range(20):
        built.clear()
        result = minimize(quadratic(random_symmetric(rng)), rng.standard_normal((2, 3)).tolist())
        assert result.success
        assert len(built) == result.nfev


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
        n, e1, e2 = point(v)
        assert n == pytest.approx(tuple(np.asarray(v) / np.linalg.norm(v)), abs=1e-15)
        basis = np.array([e1, e2, n])
        assert basis @ basis.T == pytest.approx(np.eye(3), abs=1e-15)
        assert np.cross(e1, e2) == pytest.approx(n, abs=1e-15)
