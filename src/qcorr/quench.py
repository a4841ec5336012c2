"""Sudden-quench thermodynamics of two coupled harmonic oscillators.

Two oscillators of equal mass and frequency, initially uncoupled and
thermalized at inverse temperature beta, have their harmonic coupling
switched instantaneously from 0 to lambda0. This module provides the
closed-form classical and quantum partition functions, average work,
free-energy changes and irreversible work for that protocol, the excess
quantum dissipated work (quantum minus classical irreversible work),
the Gaussian discord generated by the quench, and a temperature sweep
collecting everything.

Units are hbar = k_B = 1: ``qcorr.cli`` converts once, at the boundary.
The closed forms are finite for 1e-100 <= beta omega <= 1e100 and
lambda0 <= 1e50 omega. Further out only the two partition functions are
guarded, naming beta omega or beta w / 2 in a ValidationError; the others
may raise ZeroDivisionError or a numpy RuntimeWarning, or return inf or NaN.

Each closed form is one numpy expression over beta; its ln sinh(x) is one
branch, np.log(np.sinh(x)), while every x = beta w / 2 is at most 20, and
two beyond. The temperature sweep evaluates them over the whole array of
inverse temperatures in one pass. Its discord column is the Adesso-Datta
closed form written out for this state, in the thermal occupation
n = 1 / (exp(beta omega) - 1) and the post-quench squeeze kappa, as the
entropies of three mode occupations (:func:`_thermal_quench_discord`), with
no invariants, propagator or covariance matrix; :func:`report_at` is the
same code at one temperature. The excess-work floor and the two-route
check run once over each column, before any row is built. Each
temperature's outputs are one :class:`QuenchReport`, a ``NamedTuple``
whose field names are the CSV columns of :func:`reports_to_csv`.

Each quantity has one path here. Its independent check (exact-Gaussian
Monte-Carlo sampling, tensor-product Gaussian quadrature, truncated
Fock-basis traces, and the discord of the thermal state evolved with
``expm``) lives in the test suite, ``tests/quench_oracle.py``.

The work-operator route is only meaningful for a sudden quench, so no
time-dependent protocol API is exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import IDENTITY_TOL, OMEGA_FLOOR, ConsistencyError, ValidationError, require_finite, require_integer, require_real
from .errors import _integer_text, _require_array_size
from .gaussian import _require_coupling, normal_mode_frequencies

_TINY = np.finfo(float).tiny


@dataclass(frozen=True, kw_only=True)
class QuenchParams:
    """Physical parameters of the quench protocol, keyword-only.

    There is no mass: in the dimensionless quadratures it cancels in
    every quantity.

    Domain: finite real fields, omega > 0, lambda0 >= 0 and beta > 0, with omega^2, 2 lambda0^2 / omega^2 and omega^2 + 2 lambda0^2 nonzero and finite; anything else raises ValidationError naming the field.
    """

    omega: float = 1.0
    lambda0: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            require_finite(field.name, value)
            if field.name != "lambda0" and not value > 0:
                raise ValidationError(f"{field.name} must be strictly positive; got {value}")
        if self.lambda0 < 0:
            raise ValidationError(f"lambda0 must be non-negative; got {self.lambda0}")
        _require_coupling(self.lambda0, self.omega)


class QuenchReport(NamedTuple):
    """All thermodynamic outputs of the protocol at one temperature; the
    field names are the CSV columns.

    Domain: not checked; the library builds each report from validated inputs.
    """

    temperature: float
    w_c_avg: float
    df_c: float
    w_c_irr: float
    w_q_avg: float
    df_q: float
    w_q_irr: float
    omega_excess: float
    gaussian_discord: float


def _log_sinh(x):
    """ln(sinh(x)) for x > 0, a float or an array, stable against overflow
    at large x; np.log(np.sinh(x)) alone, the same bits, when every x <= 20."""
    if np.max(x) <= 20.0:
        return np.log(np.sinh(x))
    return np.where(
        x > 20.0,
        x - math.log(2.0) + np.log1p(-np.exp(-2.0 * np.maximum(x, 20.0))),
        np.log(np.sinh(np.minimum(x, 20.0))),
    )


def _closed_forms(params: QuenchParams, beta):
    """Every closed form at the inverse temperature ``beta``, a float or an
    array: ``(w_c, df_c, w_q, df_q, excess)``, where ``excess`` is the
    single-line closed form of :func:`excess_dissipated_work`. Each is
    written only here; the public functions evaluate it at ``params.beta``.
    """
    omega, lam0 = params.omega, params.lambda0
    w1, w2 = normal_mode_frequencies(omega, lam0)
    half = beta / 2.0
    tanh = np.tanh(half * omega)
    w_c = lam0**2 / (beta * omega**2)
    df_c = math.log1p(2.0 * lam0**2 / omega**2) / (2.0 * beta)
    w_q = lam0**2 / (2.0 * omega) / tanh
    if lam0 == 0.0:
        df_q = spectral = 0.0 * beta
    else:
        # w1 == omega, so one ln sinh serves both
        log_sinh_w1, log_sinh_w2 = _log_sinh(half * w1), _log_sinh(half * w2)
        df_q = (log_sinh_w1 + log_sinh_w2 - 2.0 * log_sinh_w1) / beta
        spectral = (2.0 * log_sinh_w1 - log_sinh_w1 - log_sinh_w2) / beta
    kinetic = lam0**2 / (2.0 * omega) * (1.0 / tanh - 2.0 / (beta * omega))
    return w_c, df_c, w_q, df_q, kinetic + spectral + df_c


# -- classical branch ----------------------------------------------------

def classical_partition(params: QuenchParams, lam: float) -> float:
    """Classical partition function of the coupled pair,

        Z_C(lam) = (2 pi / (h beta omega))^2 / sqrt(1 + 2 lam^2 / omega^2), h = 2 pi.

    Domain: a :class:`QuenchParams` and a coupling ``lam`` under the rule of its lambda0, else ValidationError naming the coupling or omega^2; where Z_C is not a positive finite float (beta omega below about 7.5e-155, or so large that Z_C underflows to zero), ValidationError naming beta omega.
    """
    _require_coupling(lam, params.omega)
    beta_omega = params.beta * params.omega
    try:
        value = (1.0 / beta_omega) ** 2 / math.sqrt(1.0 + 2.0 * lam * lam / params.omega**2)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValidationError(f"beta omega = {beta_omega!r} puts Z_C = {value!r} outside the positive finite floats")
    return value


def classical_avg_work(params: QuenchParams) -> float:
    """Mean work of the sudden quench over the initial Gibbs ensemble,
    lambda0^2 / (beta omega^2).

    Domain: any :class:`QuenchParams` in the closed-form range of the module docstring; outside it, unguarded.
    """
    return float(_closed_forms(params, params.beta)[0])


def classical_free_energy_change(params: QuenchParams) -> float:
    """Free-energy change (1/(2 beta)) ln[1 + 2 lambda0^2 / omega^2];
    equals -(1/beta) ln[Z_C(lambda0)/Z_C(0)].

    Domain: any :class:`QuenchParams` in the closed-form range of the module docstring; outside it, unguarded.
    """
    return float(_closed_forms(params, params.beta)[1])


def classical_irr_work(params: QuenchParams) -> float:
    """Irreversible (dissipated) classical work, mean work minus the
    free-energy change. Non-negative.

    Domain: any :class:`QuenchParams` in the closed-form range of the module docstring; outside it, unguarded.
    """
    w_c, df_c, _, _, _ = _closed_forms(params, params.beta)
    return float(w_c - df_c)


# -- quantum branch ------------------------------------------------------

def quantum_partition(params: QuenchParams, lam: float) -> float:
    """Quantum partition function of the coupled pair,

        Z_Q(lam) = (1/4) csch(beta w1 / 2) csch(beta w2 / 2)

    with the normal-mode frequencies w1 = omega and
    w2 = sqrt(omega^2 + 2 lam^2).

    Domain: as :func:`classical_partition` for ``lam``; where Z_Q is not a positive finite float (beta^2 w1 w2 / 4 below about 1.4e-309, or beta (w1 + w2) / 2 above about 711), ValidationError naming both beta w / 2.
    """
    w1, w2 = normal_mode_frequencies(params.omega, lam)
    half = params.beta / 2.0
    try:
        value = 0.25 / (math.sinh(half * w1) * math.sinh(half * w2))
    except (OverflowError, ZeroDivisionError):
        value = 0.0
    if not 0.0 < value < math.inf:
        raise ValidationError(f"beta w / 2 = {half * w1!r} and {half * w2!r} put Z_Q outside the positive finite floats")
    return value


def quantum_avg_work(params: QuenchParams) -> float:
    """Mean quantum work of the sudden quench,
    (lambda0^2 / (2 omega)) coth(beta omega / 2).
    Approaches the classical value as beta*omega -> 0.

    Domain: any :class:`QuenchParams` in the closed-form range of the module docstring; outside it, unguarded.
    """
    return float(_closed_forms(params, params.beta)[2])


def quantum_free_energy_change(params: QuenchParams) -> float:
    """Free-energy change -(1/beta) ln[Z_Q(lambda0)/Z_Q(0)], reducing to
    (1/beta) ln[sinh(beta w2 / 2) / sinh(beta omega / 2)].

    Domain: any :class:`QuenchParams` in the closed-form range of the module docstring; outside it, unguarded.
    """
    return float(_closed_forms(params, params.beta)[3])


def quantum_irr_work(params: QuenchParams) -> float:
    """Irreversible quantum work, mean work minus the free-energy
    change. Non-negative; zero for a vanishing quench amplitude.

    Domain: any :class:`QuenchParams` in the closed-form range of the module docstring; outside it, unguarded.
    """
    _, _, w_q, df_q, _ = _closed_forms(params, params.beta)
    return float(w_q - df_q)


def excess_dissipated_work(params: QuenchParams) -> float:
    """Excess quantum dissipated work: quantum minus classical
    irreversible work for the same quench.

    Evaluated both as that difference and through the single-line
    closed form

        (lam0^2 / (2 w)) (coth(b w / 2) - 2 / (b w))
        + (1/b) ln[csch(b w1 / 2) csch(b w2 / 2) / csch^2(b w / 2)]
        + (1/(2 b)) ln[1 + 2 lam0^2 / w^2];

    checked as every report is (:func:`_check_excess`). Non-negative,
    vanishing in the high-temperature limit.

    Domain: as the closed forms it combines; an excess below OMEGA_FLOOR raises ValidationError and routes that disagree by more than IDENTITY_TOL raise ConsistencyError, as in every report.
    """
    w_c, df_c, w_q, df_q, closed = _closed_forms(params, params.beta)
    difference = (w_q - df_q) - (w_c - df_c)
    _check_excess(np.array([params.beta]), np.array([closed]), np.array([difference]))
    return float(difference)


def _check_excess(beta: np.ndarray, closed: np.ndarray, omega_excess: np.ndarray):
    """Raise at the first inverse temperature whose excess work is below
    ``OMEGA_FLOOR`` or whose two routes (closed form and difference)
    disagree by more than ``IDENTITY_TOL``, whichever comes first."""
    disagree = np.abs(closed - omega_excess) > IDENTITY_TOL
    stop = int(disagree.argmax()) if disagree.any() else omega_excess.size
    negative = omega_excess[:stop] < OMEGA_FLOOR
    if negative.any():
        first = float(omega_excess[negative.argmax()])
        raise ValidationError(f"omega_excess = {first!r} is negative")
    if stop < omega_excess.size:
        raise ConsistencyError(
            f"excess-work routes disagree at beta = {float(beta[stop])!r}: "
            f"{float(closed[stop])!r} vs {float(omega_excess[stop])!r}"
        )


# -- correlations and the temperature sweep ------------------------------

def _quench_kappa(omega: float, lam0: float, t: float) -> float:
    """kappa = (sin(w2 t) lambda0^2 / (omega w2))^2: the evolved vacuum's
    local invariants are (1 + kappa, 1 + kappa, -kappa, 1)."""
    _, w2 = normal_mode_frequencies(omega, lam0)
    return (math.sin(w2 * t) * (lam0 * lam0 / (omega * w2))) ** 2


def _occupation_entropy(delta: np.ndarray) -> np.ndarray:
    """F(delta) = ln(1 + delta) + delta ln(1 + 1/delta), the entropy of a mode of occupation
    delta >= 0; F(0) = 0, since 1/delta is taken of no less than the smallest normal float."""
    return np.log1p(delta) + delta * np.log1p(1.0 / np.maximum(delta, _TINY))


def _thermal_quench_discord(params: QuenchParams, beta: np.ndarray, t: float) -> np.ndarray:
    """Gaussian discord of the post-quench state at each inverse temperature in ``beta``, from the
    thermal occupation n = 1 / (exp(beta omega) - 1) and :func:`_quench_kappa`, clamped at zero.

    Both modes start at nu I, nu = n + 1/2, and S does not depend on beta, so the evolved state is
    nu S S^T. S S^T is pure with block determinants 1 + kappa and -kappa: in the (center-of-mass,
    relative) frame it is ((I + Q)/2, (I - Q)/2; (I - Q)/2, (I + Q)/2), where Q = M2 M2^T, for the
    relative-mode rotation M2 with quadratures rescaled by r = w2 / omega, has det Q = 1 and
    tr Q = 2 + 4 kappa; (r - 1/r) / 2 = lambda0^2 / (omega w2) has no cancellation at small lambda0.
    The doubled invariants are a = b = s (1 + kappa), c = -s kappa and d = s^2, with
    sqrt(s) = 2 nu = 1 + 2n, and both symplectic eigenvalues are nu. The Adesso-Datta discriminant
    is then -(1 + kappa) (s - 1)^2 kappa^2 s^3 <= 0: the finite-squeezing branch, with
    sqrt(E_min) = (s kappa + (s - 1) sqrt(s (1 + kappa))) / (s (1 + kappa) - 1). With
    k' = sqrt(1 + kappa) - 1 = kappa / (1 + sqrt(1 + kappa)), the occupations sqrt(b) / 2 - 1/2 of
    the measured mode and sqrt(E_min) / 2 - 1/2 of the conditional mode are

        delta_B = n + (n + 1/2) k',    delta_E = 2 n (n + 1) / ((1 + 2n) (1 + k') + 1),

    and D = F(delta_B) - 2 F(n) + F(delta_E), F of :func:`_occupation_entropy`. No s - 1 cancels
    at low temperature and no s^2 overflows at high, where the three entropies, each near
    ln n + 1, cancel to a few rounding errors. n = exp(-x) / -expm1(-x), x = beta omega, is finite
    with no warning for 1e-100 <= x <= 1e100.
    """
    kappa = _quench_kappa(params.omega, params.lambda0, t)
    k = kappa / (1.0 + math.sqrt(1.0 + kappa))
    x = beta * params.omega
    n = np.exp(-x) / -np.expm1(-x)
    delta_b = n + (n + 0.5) * k
    delta_e = 2.0 * n * (n + 1.0) / ((1.0 + 2.0 * n) * (1.0 + k) + 1.0)
    discord = _occupation_entropy(delta_b) - 2.0 * _occupation_entropy(n) + _occupation_entropy(delta_e)
    return np.maximum(discord, 0.0)


def _reports(params: QuenchParams, beta: np.ndarray, evolution_time: float) -> list:
    """One report per inverse temperature in the array ``beta``, every
    field computed over the whole array at once.

    Like a loop over :func:`report_at`, raises where
    :func:`_check_excess` does.
    """
    require_finite("evolution_time", evolution_time)
    w_c, df_c, w_q, df_q, closed = _closed_forms(params, beta)
    w_c_irr = w_c - df_c
    w_q_irr = w_q - df_q
    omega_excess = w_q_irr - w_c_irr
    discord = _thermal_quench_discord(params, beta, evolution_time)
    _check_excess(beta, closed, omega_excess)
    columns = (1.0 / beta, w_c, df_c, w_c_irr, w_q, df_q, w_q_irr, omega_excess, discord)
    # QuenchReport._make without its Python frame per row; the rows have nine columns, so it needs no length check
    return list(map(partial(tuple.__new__, QuenchReport), zip(*(c.tolist() for c in columns))))


def report_at(params: QuenchParams, evolution_time: float = 1.0) -> QuenchReport:
    """Evaluate every report field at the parameters' temperature: one
    row of :func:`sweep_temperature`, by the same code.

    Domain: a :class:`QuenchParams` (which validates its own fields) and a finite real ``evolution_time``; a non-finite or non-real one raises ValidationError. Outside the closed-form range of the module docstring, unguarded.
    """
    return _reports(params, np.array([params.beta]), evolution_time)[0]


def _require_temperature_range(t_min, t_max):
    require_real("t_min", t_min)
    require_real("t_max", t_max)
    if not 0.0 < t_min < t_max < math.inf:
        raise ValidationError(f"need 0 < t_min < t_max < inf; got {t_min}, {t_max}")


def sweep_temperature(
    params: QuenchParams,
    t_min: float,
    t_max: float,
    points: int,
    evolution_time: float = 1.0,
):
    """Reports on a uniform temperature grid from t_min to t_max.

    Every closed form and the discord are evaluated over the whole array
    of inverse temperatures in one pass; the discord column comes from the
    thermal occupation and kappa (:func:`_thermal_quench_discord`), with no
    invariants, propagator or covariance matrix. Each grid point's value
    depends only on its own temperature, so refining the grid leaves values
    at shared temperatures unchanged.

    Domain: a :class:`QuenchParams`, real 0 < t_min < t_max < inf with beta finite at both ends, an integer ``points`` >= 2 whose array of floats numpy can size (a Python or numpy integer, not a float or string) and a finite real ``evolution_time``; values outside these ranges, non-real temperatures or ``evolution_time``, and a ``points`` that is not an integer raise ValidationError. Temperatures are energies, k_B T; outside the closed-form range of the module docstring, unguarded.
    """
    _require_temperature_range(t_min, t_max)
    points = require_integer("points", points)
    if points < 2:
        raise ValidationError(f"need at least 2 grid points; got {_integer_text(points)}")
    _require_array_size("points", points, 8)
    # beta = 1 / t falls with t and is positive below t_max < inf: finite at t_min, valid throughout
    require_finite("beta", 1.0 / t_min)
    temperatures = np.linspace(t_min, t_max, points)
    return _reports(params, 1.0 / temperatures, evolution_time)


CSV_FIELDS = QuenchReport._fields
_CSV_ROW = ",".join(["%.17g"] * len(CSV_FIELDS))


def reports_to_csv(reports) -> str:
    """CSV rendering of a report list: header row plus one line per
    temperature, every number printed with 17 significant digits.

    Domain: an iterable of :class:`QuenchReport` rows, or of any nine numbers each; not checked.
    """
    lines = [",".join(CSV_FIELDS)]
    lines.extend(_CSV_ROW % report for report in reports)
    return "\n".join(lines) + "\n"
