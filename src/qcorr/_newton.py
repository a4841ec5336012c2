"""Newton minimization in two dimensions, on plain floats: the loop that
Riemannian Newton on the sphere (:mod:`qcorr._sphere`) and the Gaussian
measurement search on the Poincare disk (:mod:`qcorr.gaussian`) share.

A chart turns the objective's derivatives at a point into a gradient
(g1, g2) and Hessian (h11, h12, h22) in two local coordinates, and maps
a step (d1, d2) in them to the point it reaches and the step it took,
which differs from the one asked for only where the chart has an edge.
Where the 2x2 Hessian is not positive definite, its eigenvalues are
replaced by their absolute values (floored at ``CURVATURE_FLOOR``),
which keeps the step a descent direction; steps longer than
``MAX_STEP`` are shortened to it, and a step that does not lower the
value is halved until it does. A run stops, converged, when the decrease
that the step taken predicts, -(g.d), is at most ``FTOL``, or when
halving brings it there without a lower value, which is rounding; it
returns the lowest value it evaluated. It stops unconverged after
``MAXITER`` steps.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

CURVATURE_FLOOR = 1e-12
MAX_STEP = 1.0  # in the chart's coordinates
FTOL = 1e-15  # a step predicting a smaller decrease is rounding
MAXITER = 50


class Result(NamedTuple):
    x: tuple
    fun: float
    nfev: int
    success: bool


def _newton_step(grad, hess) -> tuple:
    """Step (d1, d2) of the |H|-modified Newton iteration."""
    g1, g2 = grad
    h11, h12, h22 = hess
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
    return d1, d2


def _descend(fun, x, chart) -> tuple:
    """One Newton run from x: (x, value, nfev, converged)."""
    value, g, h = fun(x)
    nfev = 1
    for _ in range(MAXITER):
        (g1, g2), hess, move = chart(x, g, h)
        d1, d2 = _newton_step((g1, g2), hess)
        while True:
            if not -(g1 * d1 + g2 * d2) > FTOL:  # the step taken is t (d1, d2), t in (0, 1]: it would stop too
                return x, value, nfev, True
            trial, d1, d2 = move(d1, d2)
            if not -(g1 * d1 + g2 * d2) > FTOL:  # the decrease the step taken predicts
                return x, value, nfev, True
            trial_value, trial_g, trial_h = fun(trial)
            nfev += 1
            if trial_value < value:
                x, value, g, h = trial, trial_value, trial_g, trial_h
                break
            d1, d2 = d1 / 2.0, d2 / 2.0
    return x, value, nfev, False


def minimize(fun: Callable[[tuple], tuple], starts: Sequence[tuple], chart: Callable) -> Result:
    """Minimize ``fun`` by Newton runs in ``chart`` from each of ``starts``.

    ``fun(x)`` returns ``(value, gradient, hessian)``, and
    ``chart(x, gradient, hessian)`` returns ``((g1, g2), (h11, h12, h22),
    move)`` with ``move(d1, d2)`` returning ``(point, d1, d2)``: the point
    reached and the step that reached it. ``x`` is the point of the lowest
    value found, ``nfev`` counts the evaluations of every run, and
    ``success`` is false when any run stopped at ``MAXITER`` steps.
    """
    best, nfev, success = None, 0, True
    for start in starts:
        x, value, count, converged = _descend(fun, start, chart)
        nfev += count
        success = success and converged
        if best is None or value < best[1]:
            best = (x, value)
    return Result(best[0], best[1], nfev, success)
