"""Riemannian Newton on the sphere (:mod:`qcorr._sphere`) on quadratic
forms n^T A n, whose minimum over unit vectors is the smallest
eigenvalue of A, attained along its eigenvector."""

import math

import numpy as np
import pytest

from qcorr import _sphere
from qcorr._sphere import minimize, tangent_derivatives


def quadratic(matrix):
    a = np.asarray(matrix, dtype=float)

    def fun(n):
        an = a @ np.asarray(n)
        return float(np.asarray(n) @ an), (2.0 * an).tolist(), (2.0 * a).tolist()

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


def test_constant_objective_stops_at_its_start():
    result = minimize(lambda n: (0.5, [0.0, 0.0, 0.0], [[0.0] * 3] * 3), [(0.0, 0.0, 2.0)])
    assert result == ((0.0, 0.0, 1.0), 0.5, 1, True)


def test_maxiter_ends_a_run_unconverged(monkeypatch):
    monkeypatch.setattr(_sphere, "MAXITER", 1)
    a = random_symmetric(np.random.default_rng(1))
    result = minimize(quadratic(a), [(1.0, 1.0, 1.0)])
    assert not result.success


def test_tangent_derivatives_at_a_pole():
    """The tangent basis is orthonormal and orthogonal to n, and the
    Riemannian Hessian of n^T A n is P (2A) P - (n . 2An) P."""
    a = random_symmetric(np.random.default_rng(4))
    n = (0.0, 0.0, -1.0)
    _, g, h = quadratic(a)(n)
    e1, e2, grad, hess = tangent_derivatives(n, g, h)
    basis = np.array([e1, e2, n])
    assert basis @ basis.T == pytest.approx(np.eye(3), abs=1e-15)
    tangent = np.array([e1, e2])
    assert grad == pytest.approx(tuple(tangent @ (2 * a @ n)), abs=1e-14)
    expected = 2 * tangent @ a @ tangent.T - 2 * a[2, 2] * np.eye(2)
    assert hess == pytest.approx((expected[0, 0], expected[0, 1], expected[1, 1]), abs=1e-14)
