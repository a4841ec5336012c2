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

Steps are those of the shared Newton loop of :mod:`qcorr._newton`, whose
``MAX_STEP`` is here a length in radians along the tangent plane.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from . import _newton


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _unit(v) -> tuple:
    norm = math.sqrt(_dot(v, v))
    return (v[0] / norm, v[1] / norm, v[2] / norm)


def _tangent_basis(n) -> tuple:
    """Orthonormal e1, e2 with e1 x e2 = n, built from the coordinate axis
    least aligned with n."""
    x, y, z = n
    if abs(x) <= abs(y) and abs(x) <= abs(z):
        e1 = _unit((0.0, z, -y))  # n x (1, 0, 0)
    elif abs(y) <= abs(z):
        e1 = _unit((-z, 0.0, x))  # n x (0, 1, 0)
    else:
        e1 = _unit((y, -x, 0.0))  # n x (0, 0, 1)
    e2 = (y * e1[2] - z * e1[1], z * e1[0] - x * e1[2], x * e1[1] - y * e1[0])
    return e1, e2


def point(v) -> tuple:
    """The search point ``(n, e1, e2)`` of the direction of ``v``."""
    n = _unit(v)
    return (n, *_tangent_basis(n))


def _tangent_chart(x, grad, hess) -> tuple:
    """The tangent plane at x = (n, e1, e2) as the chart of
    :func:`qcorr._newton.minimize`: a step (d1, d2) reaches the point of
    n + d1 e1 + d2 e2."""
    n, e1, e2 = x
    return grad, hess, lambda d1, d2: (point([c + d1 * u + d2 * v for c, u, v in zip(n, e1, e2)]), d1, d2)


def minimize(fun: Callable[[tuple], tuple], starts: Sequence[Sequence[float]]) -> _newton.Result:
    """Minimize ``fun`` over unit 3-vectors by Newton runs from each of
    ``starts`` (normalized); ``fun((n, e1, e2))`` returns ``(value, (g1,
    g2), (h11, h12, h22))``, the value with its Riemannian gradient and
    Hessian in the tangent basis (e1, e2) at n.

    ``x`` is the unit vector of the lowest value found, ``nfev`` counts the
    evaluations of every run, and ``success`` is false when any run
    stopped at ``_newton.MAXITER`` steps.
    """
    result = _newton.minimize(fun, [point(start) for start in starts], _tangent_chart)
    return result._replace(x=result.x[0])
