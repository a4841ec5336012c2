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

Where the 2x2 Hessian is not positive definite, its eigenvalues are
replaced by their absolute values (floored at ``CURVATURE_FLOOR``), which
keeps the step a descent direction; a step that does not lower the value
is halved until it does. A run stops, converged, when the decrease that
the step predicts, -(g.d), is at most ``FTOL``, or when halving brings
it there without a lower value, which is rounding; it returns the lowest
value it evaluated. It stops unconverged after ``MAXITER`` steps.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ._simplex import Result

CURVATURE_FLOOR = 1e-12
MAX_STEP = 1.0  # radians along the tangent plane
FTOL = 1e-15  # a step predicting a smaller decrease is rounding
MAXITER = 50


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


def _newton_step(n, g, h) -> tuple:
    """Tangent step (d1, d2) of the |H|-modified Newton iteration and the
    decrease it predicts to first order."""
    e1, e2, (g1, g2), (h11, h12, h22) = tangent_derivatives(n, g, h)
    mean, half = (h11 + h22) / 2.0, (h11 - h22) / 2.0
    radius = math.hypot(half, h12)
    if radius == 0.0:
        vectors = ((1.0, 0.0), (0.0, 1.0))
    else:
        # unit eigenvector of the larger eigenvalue; the other is its rotation
        c, s = (half + radius, h12) if half >= 0.0 else (h12, radius - half)
        norm = math.hypot(c, s)
        vectors = ((c / norm, s / norm), (-s / norm, c / norm))
    d1 = d2 = 0.0
    for (v1, v2), mu in zip(vectors, (mean + radius, mean - radius)):
        coef = -(v1 * g1 + v2 * g2) / max(abs(mu), CURVATURE_FLOOR)
        d1 += coef * v1
        d2 += coef * v2
    length = math.hypot(d1, d2)
    if length > MAX_STEP:
        d1, d2 = d1 * MAX_STEP / length, d2 * MAX_STEP / length
    return e1, e2, d1, d2, -(g1 * d1 + g2 * d2)


def _descend(fun, n) -> tuple:
    """One Newton run from the unit vector n: (n, value, nfev, converged)."""
    value, g, h = fun(n)
    nfev = 1
    for _ in range(MAXITER):
        e1, e2, d1, d2, predicted = _newton_step(n, g, h)
        while predicted > FTOL:
            trial = _unit([c + d1 * u + d2 * v for c, u, v in zip(n, e1, e2)])
            trial_value, trial_g, trial_h = fun(trial)
            nfev += 1
            if trial_value < value:
                n, value, g, h = trial, trial_value, trial_g, trial_h
                break
            d1, d2, predicted = d1 / 2.0, d2 / 2.0, predicted / 2.0
        else:
            return n, value, nfev, True
    return n, value, nfev, False


def minimize(fun: Callable[[tuple], tuple], starts: Sequence[Sequence[float]]) -> Result:
    """Minimize ``fun`` over unit 3-vectors by Newton runs from each of
    ``starts``; ``fun(n)`` returns ``(value, gradient, hessian)`` as a
    float, a 3-sequence and a 3x3 nested sequence.

    ``x`` is the unit vector of the lowest value found, ``nfev`` counts the
    evaluations of every run, and ``success`` is false when any run
    stopped at ``MAXITER`` steps.
    """
    best, nfev, success = None, 0, True
    for start in starts:
        n, value, count, converged = _descend(fun, _unit(start))
        nfev += count
        success = success and converged
        if best is None or value < best[1]:
            best = (n, value)
    return Result(best[0], best[1], nfev, success)
