"""Riemannian Newton minimization on the unit sphere S^2, on plain floats.

A point of the search is a unit 3-vector n together with an orthonormal
basis (e1, e2) of the tangent plane at n, built once per point. The
objective takes that triple and returns its value with the Riemannian
gradient (g1, g2) and Hessian (h11, h12, h22) in the basis (e1, e2). For
an extension off the sphere with Euclidean gradient g and Hessian H
these are g.e_i and e_i^T H e_j - (n.g) delta_ij (Absil, Mahony and
Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008), so an
objective needs its derivatives only along e1 and e2 and along n. Each
step (d1, d2) is retracted onto the sphere by normalizing
n + d1 e1 + d2 e2, so the poles of (theta, phi) are ordinary points.
Points, bases and retractions are tuples of floats: no numpy call.

Steps are those of the shared Newton loop of :mod:`qcorr._newton`, whose
``MAX_STEP`` is here a length in radians along the tangent plane.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from . import _newton


def _tangent_basis(n) -> tuple:
    """Orthonormal e1, e2 with e1 x e2 = n: e1 is the unit n x axis, for
    the coordinate axis least aligned with n."""
    x, y, z = n
    if abs(x) <= abs(y) and abs(x) <= abs(z):
        norm = math.sqrt(z * z + y * y)  # n x (1, 0, 0) = (0, z, -y)
        e10, e11, e12 = 0.0, z / norm, -y / norm
    elif abs(y) <= abs(z):
        norm = math.sqrt(z * z + x * x)  # n x (0, 1, 0) = (-z, 0, x)
        e10, e11, e12 = -z / norm, 0.0, x / norm
    else:
        norm = math.sqrt(y * y + x * x)  # n x (0, 0, 1) = (y, -x, 0)
        e10, e11, e12 = y / norm, -x / norm, 0.0
    return (e10, e11, e12), (y * e12 - z * e11, z * e10 - x * e12, x * e11 - y * e10)


def point(v) -> tuple:
    """The search point ``(n, e1, e2)`` of the direction of ``v``."""
    x, y, z = v
    norm = math.sqrt(x * x + y * y + z * z)
    n = (x / norm, y / norm, z / norm)
    return (n, *_tangent_basis(n))


def _tangent_chart(x, grad, hess) -> tuple:
    """The tangent plane at x = (n, e1, e2) as the chart of
    :func:`qcorr._newton.minimize`: a step (d1, d2) reaches the point of
    n + d1 e1 + d2 e2."""
    (n0, n1, n2), (a0, a1, a2), (b0, b1, b2) = x
    return grad, hess, lambda d1, d2: (
        point((n0 + d1 * a0 + d2 * b0, n1 + d1 * a1 + d2 * b1, n2 + d1 * a2 + d2 * b2)), d1, d2
    )


def minimize(fun: Callable[[tuple], tuple], starts: Sequence[Sequence[float]]) -> _newton.Result:
    """Minimize ``fun`` over unit 3-vectors by Newton runs from each of
    ``starts`` (normalized); ``fun((n, e1, e2))`` returns ``(value, (g1,
    g2), (h11, h12, h22))``, the value with its Riemannian gradient and
    Hessian in the tangent basis (e1, e2) at n.

    ``x`` is the unit vector of the lowest value found, ``nfev`` counts the
    evaluations of every run, and ``success`` is false when any run
    stopped at ``_newton.MAXITER`` steps.
    """
    x, value, nfev, success = _newton.minimize(fun, [point(start) for start in starts], _tangent_chart)
    return _newton.Result(x[0], value, nfev, success)
