"""Riemannian Newton minimization on the unit sphere S^2, on plain floats.

The objective returns its value at a unit 3-vector n together with the
Euclidean gradient g and Hessian H of an extension off the sphere. On
the sphere the gradient is P g and the Hessian P H P - (n.g) P, with
P = 1 - n n^T the projector onto the tangent plane (Absil, Mahony and
Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008), so H
is read only on that plane and any matrix with the same P H P serves.
Each step is taken in an orthonormal basis (e1, e2) of that plane and
retracted onto the sphere by normalizing n + d1 e1 + d2 e2, so the
poles of (theta, phi) are ordinary points.

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


def _form(h, u, v) -> float:
    """u^T h v for a 3x3 nested sequence h."""
    return _dot(u, (_dot(h[0], v), _dot(h[1], v), _dot(h[2], v)))


def tangent_derivatives(n, g, h) -> tuple:
    """Tangent basis (e1, e2) at n with the Riemannian gradient (g1, g2)
    and Hessian (h11, h12, h22) in it, from the Euclidean g and h."""
    e1, e2 = _tangent_basis(n)
    normal = _dot(n, g)
    hessian = (_form(h, e1, e1) - normal, _form(h, e1, e2), _form(h, e2, e2) - normal)
    return e1, e2, (_dot(e1, g), _dot(e2, g)), hessian


def _tangent_chart(n, g, h) -> tuple:
    """The tangent plane at n as the chart of :func:`qcorr._newton.minimize`:
    a step (d1, d2) reaches n + d1 e1 + d2 e2, normalized."""
    e1, e2, grad, hess = tangent_derivatives(n, g, h)
    return grad, hess, lambda d1, d2: (_unit([c + d1 * u + d2 * v for c, u, v in zip(n, e1, e2)]), d1, d2)


def minimize(fun: Callable[[tuple], tuple], starts: Sequence[Sequence[float]]) -> _newton.Result:
    """Minimize ``fun`` over unit 3-vectors by Newton runs from each of
    ``starts``; ``fun(n)`` returns ``(value, gradient, hessian)`` as a
    float, a 3-sequence and a 3x3 nested sequence.

    ``x`` is the unit vector of the lowest value found, ``nfev`` counts the
    evaluations of every run, and ``success`` is false when any run
    stopped at ``_newton.MAXITER`` steps.
    """
    return _newton.minimize(fun, [_unit(start) for start in starts], _tangent_chart)
