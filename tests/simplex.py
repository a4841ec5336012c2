"""Nelder-Mead simplex minimization on plain floats.

A step-for-step port of the non-adaptive Nelder-Mead of
``scipy.optimize.minimize(method="Nelder-Mead")`` (scipy 1.17), without
bounds, callbacks or a user-supplied initial simplex. It takes the same
steps in the same floating-point order, so on the same objective it
returns the same ``x``, ``fun`` and ``nfev``, bit for bit:

- the initial simplex moves each coordinate of ``x0`` by 5 %, or to
  0.00025 where it is 0;
- reflection, expansion, contraction and shrink use rho, chi, psi,
  sigma = 1, 2, 1/2, 1/2;
- after every step the vertices are sorted stably by value, NaN last,
  which is the order numpy's ``argsort`` gives for up to three values
  (one or two variables; on more, some numpy builds order ties
  differently);
- the run stops when every vertex is within ``xatol`` of the best one,
  coordinate by coordinate, and every value within ``fatol`` of the
  best value; an evaluation that would exceed ``maxfev`` is refused and
  ends the run without counting an iteration;
- ``fun`` is the minimum of the final values as ``numpy.min`` takes it:
  NaN if any value is NaN, and of equal values the last.

The library refined with this port before it moved here, so the test
oracles that keep those searches give the library's old numbers: the
two-qubit grid plus Nelder-Mead search that Newton on the sphere
replaced in :mod:`qcorr.discord` (:mod:`tests.discord_oracle`), and the
Gaussian measurement search that Newton replaced in
:mod:`qcorr.gaussian` (:mod:`tests.gaussian_oracle`).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from qcorr._newton import Result

RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
NONZERO_DELTA = 0.05
ZERO_DELTA = 0.00025


class _Exhausted(Exception):
    """Raised instead of an evaluation beyond ``maxfev``."""


def _sort(fsim: list, sim: list):
    """Stable insertion sort of the vertices by value, NaN last, in place."""
    for i in range(1, len(fsim)):
        value, vertex = fsim[i], sim[i]
        j = i
        while j:
            ahead = fsim[j - 1]
            if not (value < ahead or (ahead != ahead and value == value)):
                break
            fsim[j], sim[j] = ahead, sim[j - 1]
            j -= 1
        fsim[j], sim[j] = value, vertex


def _converged(sim: list, fsim: list, xatol: float, fatol: float) -> bool:
    """Every vertex within ``xatol`` of the best, coordinate by coordinate,
    and every value within ``fatol`` of the best value; a NaN difference
    fails the test, as it fails scipy's ``max(...) <= tol``."""
    best = sim[0]
    for vertex in sim[1:]:
        for v, b in zip(vertex, best):
            if not abs(v - b) <= xatol:
                return False
    fbest = fsim[0]
    for f in fsim[1:]:
        if not abs(fbest - f) <= fatol:
            return False
    return True


def _numpy_min(values: list) -> float:
    """``numpy.min`` of a short list: NaN propagates, ties take the last."""
    best = values[0]
    for value in values:
        if value != value:
            return value
        if value <= best:
            best = value
    return best


def minimize(
    fun: Callable[[tuple], float],
    x0: Sequence[float],
    *,
    xatol: float,
    fatol: float,
    maxiter: float,
    maxfev: float = math.inf,
) -> Result:
    """Minimize ``fun`` from ``x0`` by Nelder-Mead; ``fun`` takes a tuple
    of floats and returns a float.

    ``success`` is false when the run stopped at ``maxfev`` evaluations or
    ``maxiter`` iterations rather than on the ``xatol``/``fatol`` test.
    """
    x0 = tuple([float(v) for v in x0])
    n = len(x0)
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return fun(x)

    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + NONZERO_DELTA) * y[k] if y[k] != 0 else ZERO_DELTA
        sim.append(tuple(y))
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _Exhausted:
        pass
    _sort(fsim, sim)

    # (coefficient of xbar, coefficient of the worst vertex), each product formed first as in scipy
    reflect, expand, contract = (1 + RHO, RHO), (1 + RHO * CHI, RHO * CHI), (1 + PSI * RHO, PSI * RHO)
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if _converged(sim, fsim, xatol, fatol):
                break
            xbar = sim[0]
            for vertex in sim[1:-1]:
                xbar = [c + v for c, v in zip(xbar, vertex)]
            xbar = [c / n for c in xbar]
            worst = sim[-1]
            xr = tuple([reflect[0] * c - reflect[1] * w for c, w in zip(xbar, worst)])
            fxr = evaluate(xr)
            doshrink = False

            if fxr < fsim[0]:
                xe = tuple([expand[0] * c - expand[1] * w for c, w in zip(xbar, worst)])
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = tuple([contract[0] * c - contract[1] * w for c, w in zip(xbar, worst)])
                    fxc = evaluate(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        doshrink = True
                else:
                    xcc = tuple([(1 - PSI) * c + PSI * w for c, w in zip(xbar, worst)])
                    fxcc = evaluate(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        doshrink = True
                if doshrink:
                    for j in range(1, n + 1):
                        # the vertex moves before its evaluation, as in scipy:
                        # a refused evaluation leaves it moved with its old value
                        sim[j] = tuple([b + SIGMA * (v - b) for v, b in zip(sim[j], sim[0])])
                        fsim[j] = evaluate(sim[j])
            iterations += 1
        except _Exhausted:
            pass
        _sort(fsim, sim)

    exhausted = nfev >= maxfev or iterations >= maxiter
    return Result(sim[0], float(_numpy_min(fsim)), nfev, not exhausted)
