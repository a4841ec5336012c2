"""Newton minimization in two dimensions, on plain floats: the loop that
Riemannian Newton on the sphere (:mod:`qcorr.discord`) and the Gaussian
measurement search on the Poincare disk (:mod:`qcorr.gaussian`) share,
each passing its own chart.

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
``MAXITER`` steps. Both searches start from their best grid cells under
one rule, that of :func:`minimize`: a further run only where every run so
far stopped at its start. The loop, the step and both charts' points,
derivatives and moves are floats and tuples of floats: no numpy call.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

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
    """Step (d1, d2) of the |H|-modified Newton iteration, in the
    eigenbasis (v, w) of the Hessian, on floats."""
    g1, g2 = grad
    h11, h12, h22 = hess
    mean, half = (h11 + h22) / 2.0, (h11 - h22) / 2.0
    radius = math.hypot(half, h12)
    if radius == 0.0:
        (v1, v2), (w1, w2) = (1.0, 0.0), (0.0, 1.0)
    else:
        # unit eigenvector v of the larger eigenvalue; w is its rotation
        c, s = (half + radius, h12) if half >= 0.0 else (h12, radius - half)
        norm = math.hypot(c, s)
        (v1, v2), (w1, w2) = (c / norm, s / norm), (-s / norm, c / norm)
    along_v = -(v1 * g1 + v2 * g2) / max(abs(mean + radius), CURVATURE_FLOOR)
    along_w = -(w1 * g1 + w2 * g2) / max(abs(mean - radius), CURVATURE_FLOOR)
    d1, d2 = 0.0 + along_v * v1 + along_w * w1, 0.0 + along_v * v2 + along_w * w2
    length = math.hypot(d1, d2)
    if length > MAX_STEP:
        d1, d2 = d1 * MAX_STEP / length, d2 * MAX_STEP / length
    return d1, d2


def _descend(fun, x, chart) -> tuple:
    """One Newton run from x: (x, value, nfev, converged)."""
    value, g, h = fun(x)
    nfev = 1
    for _ in range(MAXITER):
        grad, hess, move = chart(x, g, h)
        (g1, g2), (d1, d2) = grad, _newton_step(grad, hess)
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


def minimize(fun: Callable[[tuple], tuple], starts: Iterable[tuple], chart: Callable) -> Result:
    """Minimize ``fun`` by Newton runs in ``chart``: from the first of
    ``starts``, then from each next one only while every run so far has
    evaluated its start alone (``nfev == 1``), at a critical point such as
    a saddle or on a constant objective. A run that moves is the search's
    last, so ``starts`` may be a lazy iterable whose later points are never
    built.

    ``fun(x)`` returns ``(value, gradient, hessian)``, and
    ``chart(x, gradient, hessian)`` returns ``((g1, g2), (h11, h12, h22),
    move)`` with ``move(d1, d2)`` returning ``(point, d1, d2)``: the point
    reached and the step that reached it. ``x`` is the point of the lowest
    value found, the earliest run's on a tie, ``nfev`` counts the
    evaluations of every run, and ``success`` is false when any run stopped
    at ``MAXITER`` steps.
    """
    best, nfev, success = None, 0, True
    for start in starts:
        x, value, count, converged = _descend(fun, start, chart)
        nfev += count
        success = success and converged
        if best is None or value < best[1]:
            best = (x, value)
        if count > 1:  # the run moved: its end is where the search ends
            break
    return Result(best[0], best[1], nfev, success)
