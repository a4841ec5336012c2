"""Minimization in two dimensions, on plain floats: the Newton loop of
the Riemannian search on the sphere (:mod:`qcorr.discord`), and
Dinkelbach's iteration for the Gaussian measurement search on the unit
disk (:mod:`qcorr.gaussian`).

:func:`minimize` takes a chart, which turns the objective's derivatives
at a point into a gradient (g1, g2) and Hessian (h11, h12, h22) in two
local coordinates, and maps a step (d1, d2) in them to the point it
reaches and the step it took. Where the 2x2 Hessian is not positive
definite, its eigenvalues are replaced by their absolute values (floored
at ``CURVATURE_FLOOR``), which keeps the step a descent direction; steps
longer than ``MAX_STEP`` are shortened to it, and a step that does not
lower the value is halved until it does. A run stops, converged, when the
decrease that the step taken predicts, -(g.d), is at most ``FTOL``, or
when halving brings it there without a lower value, which is rounding; it
returns the lowest value it evaluated. It stops unconverged after
``MAXITER`` steps. The sphere search starts from its best grid cells
under the rule of :func:`minimize`: a further run only where every run so
far stopped at its start.

:func:`minimize_ratio` minimizes N / D over the closed unit disk, for
quadratics N and D > 0 with isotropic Hessians (Dinkelbach, Management
Science 13, 492, 1967). At a level f, N - f D is again such a quadratic,
so its minimum over the whole disk has a closed form
(:func:`_disk_minimum`), and the next level is N / D there. N - f D is
0 at the current point, so at most 0 at the next, and the levels never
rise; a step is Newton's method on the concave F(f) = min (N - f D),
whose slope at f is -D at the minimizing point, so they fall
superlinearly to the root of F, the global minimum of N / D. Both loops,
their steps and the sphere chart's points, derivatives and moves are
floats and tuples of floats: no numpy call.
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


def _disk_minimum(curv: float, g1: float, g2: float) -> tuple:
    """The point of the closed unit disk where (curv / 2) |z|^2 + (g1, g2).z
    is least: the stationary point -g / curv where curv > |g| puts a
    minimum inside, else the circle point -g / |g|, and (1, 0) where g = 0
    leaves every circle point least (curv <= 0)."""
    norm = math.hypot(g1, g2)
    if curv > norm:
        return -g1 / curv, -g2 / curv
    if norm == 0.0:
        return 1.0, 0.0
    return -g1 / norm, -g2 / norm


def minimize_ratio(ratio: Callable[[float, float], float], numerator: tuple, denominator: tuple) -> Result:
    """Minimize ``ratio(x, y)`` = N / D over the closed unit disk by
    Dinkelbach's iteration from z = x + iy = 0.

    N and D > 0 are quadratics (curv / 2) |z|^2 + (g1, g2).z + const,
    given as ``(curv, g1, g2)``; ``ratio`` evaluates N / D in a form that
    keeps its digits. From the level f at the current point, the next point
    minimizes N - f D over the disk (:func:`_disk_minimum`), and the run
    stops, converged, at the first level that does not fall, NaN included.
    ``x`` is the point of the lowest level, ``nfev`` counts the
    evaluations of ``ratio``, and ``success`` is false when the run stops
    after ``MAXITER`` steps.
    """
    (n_curv, n1, n2), (d_curv, d1, d2) = numerator, denominator
    x, level = (0.0, 0.0), ratio(0.0, 0.0)
    for step in range(1, MAXITER + 1):
        trial = _disk_minimum(n_curv - level * d_curv, n1 - level * d1, n2 - level * d2)
        value = ratio(*trial)
        if not value < level:
            return Result(x, level, step + 1, True)
        x, level = trial, value
    return Result(x, level, MAXITER + 1, False)
