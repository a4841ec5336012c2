"""Sudden-quench thermodynamics of two coupled harmonic oscillators.

Two oscillators of equal mass and frequency, initially uncoupled and
thermalized at inverse temperature beta, have their harmonic coupling
switched instantaneously from 0 to lambda0. This module provides the
closed-form classical and quantum partition functions, average work,
free-energy changes and irreversible work for that protocol, the excess
quantum dissipated work (quantum minus classical irreversible work),
the Gaussian discord generated by the quench, and a temperature sweep
collecting everything.

Each closed form is one numpy expression over beta. The temperature
sweep evaluates them over the whole array of inverse temperatures in
one pass, and its discord column comes from the closed-form local
invariants of the evolved vacuum, (1 + kappa, 1 + kappa, -kappa, 1),
scaled by the thermal occupation; :func:`report_at` is the same code at
one temperature. The excess-work floor and the two-route check run once
over each column, before any row is built. Each temperature's outputs
are one :class:`QuenchReport`, a ``NamedTuple`` whose field names are
the CSV columns of :func:`reports_to_csv`.

Independent checks (exact-Gaussian Monte-Carlo sampling, tensor-product
Gaussian quadrature, truncated Fock-basis traces, and
:func:`quench_discord`, which evolves the thermal state with ``expm``)
live alongside the closed forms so the two routes can be compared in
the test suite. The mass cancels in every quantity, so the oracles that
sample or trace positions work at unit mass.

The work-operator route is only meaningful for a sudden quench, so no
time-dependent protocol API is exposed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import IDENTITY_TOL, OMEGA_FLOOR, ConsistencyError, ValidationError
from .gaussian import (
    _require_coupling,
    _require_finite,
    direct_sum,
    discord_from_invariants,
    gaussian_discord,
    normal_mode_frequencies,
    quench_hamiltonian_matrix,
    symplectic_evolution,
    thermal_covariance,
)

_MC_SAMPLES = 1_000_000


@dataclass(frozen=True, kw_only=True)
class QuenchParams:
    """Physical parameters of the quench protocol, keyword-only.

    There is no mass: in the dimensionless quadratures it cancels in
    every quantity. Planck's constant ``h = 2 pi hbar`` makes the
    classical partition function dimensionless.
    """

    omega: float = 1.0
    lambda0: float = 1.0
    beta: float = 1.0
    hbar: float = 1.0
    kb: float = 1.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            _require_finite(field.name, value)
            if field.name != "lambda0" and not value > 0:
                raise ValidationError(f"{field.name} must be strictly positive; got {value}")
        if self.lambda0 < 0:
            raise ValidationError(f"lambda0 must be non-negative; got {self.lambda0}")
        # the closed forms divide by omega^2 and take log1p(2 lambda0^2 / omega^2)
        omega_sq = self.omega * self.omega
        if not (0.0 < omega_sq < math.inf and math.isfinite(2.0 * (self.lambda0 * self.lambda0) / omega_sq)):
            raise ValidationError(
                "omega^2 must be nonzero and finite, and so must 2 lambda0^2 / omega^2; "
                f"got omega = {self.omega}, lambda0 = {self.lambda0}"
            )

    @property
    def temperature(self) -> float:
        return 1.0 / (self.kb * self.beta)

    def at_temperature(self, temperature: float) -> "QuenchParams":
        try:
            in_range = 0.0 < temperature < math.inf
        except TypeError:
            raise ValidationError(f"temperature must be a real number; got {temperature!r}") from None
        if not in_range:
            raise ValidationError(f"temperature must be positive and finite; got {temperature}")
        return replace(self, beta=1.0 / (self.kb * temperature))


class QuenchReport(NamedTuple):
    """All thermodynamic outputs of the protocol at one temperature; the
    field names are the CSV columns."""

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
    """ln(sinh(x)) for x > 0, a float or an array, stable against
    overflow at large x."""
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
    hbar, omega, lam0 = params.hbar, params.omega, params.lambda0
    w1, w2 = normal_mode_frequencies(omega, lam0)
    half = beta * hbar / 2.0
    tanh = np.tanh(half * omega)
    w_c = lam0**2 / (beta * omega**2)
    df_c = math.log1p(2.0 * lam0**2 / omega**2) / (2.0 * beta)
    w_q = hbar * lam0**2 / (2.0 * omega) / tanh
    if lam0 == 0.0:
        df_q = spectral = 0.0 * beta
    else:
        # w1 == omega, so one ln sinh serves both
        log_sinh_w1, log_sinh_w2 = _log_sinh(half * w1), _log_sinh(half * w2)
        df_q = (log_sinh_w1 + log_sinh_w2 - 2.0 * log_sinh_w1) / beta
        spectral = (2.0 * log_sinh_w1 - log_sinh_w1 - log_sinh_w2) / beta
    kinetic = hbar * lam0**2 / (2.0 * omega) * (1.0 / tanh - 2.0 / (beta * hbar * omega))
    return w_c, df_c, w_q, df_q, kinetic + spectral + df_c


# -- classical branch ----------------------------------------------------

def classical_partition(params: QuenchParams, lam: float) -> float:
    """Classical partition function of the coupled pair,

        Z_C(lam) = (2 pi / (h beta omega))^2 / sqrt(1 + 2 lam^2 / omega^2).
    """
    _require_coupling(lam)
    h = 2.0 * math.pi * params.hbar
    prefactor = (2.0 * math.pi / (h * params.beta * params.omega)) ** 2
    return prefactor / math.sqrt(1.0 + 2.0 * lam * lam / params.omega**2)


def classical_partition_quadrature(params: QuenchParams, lam: float) -> float:
    """Phase-space integral of exp(-beta H) / h^2, at unit mass, by
    tensor-product Gauss-Hermite quadrature on 96 nodes per axis; the
    independent check of :func:`classical_partition`.
    """
    _require_coupling(lam)
    x, w = np.polynomial.hermite.hermgauss(96)
    beta, omega = params.beta, params.omega
    # momenta: p = sqrt(2 / beta) x, two independent factors
    momentum_part = (math.sqrt(2.0 / beta) * w.sum()) ** 2
    # positions: q = sqrt(2 / (beta omega^2)) x, coupled through the quench term
    coupling = (lam / omega) ** 2
    diff = x[:, None] - x[None, :]
    kernel = np.exp(-coupling * diff**2)
    position_part = (2.0 / (beta * omega**2)) * float(w @ kernel @ w)
    return momentum_part * position_part / (2.0 * math.pi * params.hbar) ** 2


def classical_avg_work(params: QuenchParams) -> float:
    """Mean work of the sudden quench over the initial Gibbs ensemble,
    lambda0^2 / (beta omega^2). Independent of hbar."""
    return float(_closed_forms(params, params.beta)[0])


def monte_carlo_classical_work(params: QuenchParams, *, seed: int = 0):
    """Monte-Carlo estimate of the classical average work from 10^6
    samples at unit mass.

    Draws exact samples from the uncoupled Gibbs distribution, whose
    position and momentum factors are independent Gaussians; the work
    (lambda0^2 / 2)(q1 - q2)^2 involves only the positions, so the
    exact position marginal is sampled. Returns ``(mean,
    standard_error)``.
    """
    rng = np.random.default_rng(seed)
    q_scale = 1.0 / math.sqrt(params.beta) / params.omega
    q = rng.normal(0.0, q_scale, (2, _MC_SAMPLES))
    work = 0.5 * params.lambda0**2 * (q[0] - q[1]) ** 2
    mean = float(work.mean())
    stderr = float(work.std(ddof=1) / math.sqrt(_MC_SAMPLES))
    return mean, stderr


def classical_free_energy_change(params: QuenchParams) -> float:
    """Free-energy change (1/(2 beta)) ln[1 + 2 lambda0^2 / omega^2];
    equals -(1/beta) ln[Z_C(lambda0)/Z_C(0)]."""
    return float(_closed_forms(params, params.beta)[1])


def classical_irr_work(params: QuenchParams) -> float:
    """Irreversible (dissipated) classical work, mean work minus the
    free-energy change. Non-negative."""
    w_c, df_c, _, _, _ = _closed_forms(params, params.beta)
    return float(w_c - df_c)


# -- quantum branch ------------------------------------------------------

def quantum_partition(params: QuenchParams, lam: float) -> float:
    """Quantum partition function of the coupled pair,

        Z_Q(lam) = (1/4) csch(beta hbar w1 / 2) csch(beta hbar w2 / 2)

    with the normal-mode frequencies w1 = omega and
    w2 = sqrt(omega^2 + 2 lam^2).
    """
    w1, w2 = normal_mode_frequencies(params.omega, lam)
    half = params.beta * params.hbar / 2.0
    return 0.25 / (math.sinh(half * w1) * math.sinh(half * w2))


def quantum_partition_fock(params: QuenchParams, lam: float) -> float:
    """Partition function by direct summation of the two-mode Fock
    spectrum of the decoupled normal modes, truncated adaptively until
    the geometric tail bound drops below 1e-12 of the partial sum per
    mode."""
    w1, w2 = normal_mode_frequencies(params.omega, lam)
    factors = []
    for wk in (w1, w2):
        step = params.beta * params.hbar * wk
        cutoff = 8
        while True:
            levels = np.exp(-step * (np.arange(cutoff + 1) + 0.5))
            partial = float(levels.sum())
            tail = math.exp(-step * (cutoff + 1.5)) / -math.expm1(-step)
            if tail < 1e-12 * partial:
                factors.append(partial)
                break
            cutoff *= 2
            if cutoff > 2**22:
                raise ConsistencyError("Fock cutoff failed to converge")
    return factors[0] * factors[1]


def quantum_avg_work(params: QuenchParams) -> float:
    """Mean quantum work of the sudden quench,
    (hbar lambda0^2 / (2 omega)) coth(beta hbar omega / 2).
    Approaches the classical value as beta*hbar*omega -> 0."""
    return float(_closed_forms(params, params.beta)[2])


def quantum_avg_work_fock(params: QuenchParams) -> float:
    """Mean work as a truncated Fock-basis trace of the work operator
    (lambda0^2 / 2)(q1 - q2)^2, at unit mass, against the uncoupled
    thermal state.

    The position operators are built numerically in the truncated basis
    and the cutoff grows until the estimate stops moving by more than
    1e-12 in relative terms.
    """
    beta_step = params.beta * params.hbar * params.omega
    cutoff = 24
    previous = None
    while True:
        n = np.arange(cutoff + 1)
        ladder = np.zeros((cutoff + 1, cutoff + 1))
        ladder[n[:-1], n[1:]] = np.sqrt(n[1:])  # annihilation operator
        q_scale = math.sqrt(params.hbar / (2.0 * params.omega))
        q_op = q_scale * (ladder + ladder.T)
        q_sq = q_op @ q_op
        weights = np.exp(-beta_step * (n + 0.5))
        weights /= weights.sum()
        mean_q = float(weights @ np.diag(q_op))
        mean_q_sq = float(weights @ np.diag(q_sq))
        # (q1 - q2)^2 = q1^2 + q2^2 - 2 q1 q2 across the product state
        estimate = 0.5 * params.lambda0**2 * (
            2.0 * mean_q_sq - 2.0 * mean_q * mean_q
        )
        if previous is not None and abs(estimate - previous) <= 1e-12 * max(1.0, abs(estimate)):
            return estimate
        previous = estimate
        cutoff *= 2
        if cutoff > 2**14:
            raise ConsistencyError("Fock cutoff failed to converge")


def quantum_free_energy_change(params: QuenchParams) -> float:
    """Free-energy change -(1/beta) ln[Z_Q(lambda0)/Z_Q(0)], reducing to
    (1/beta) ln[sinh(beta hbar w2 / 2) / sinh(beta hbar omega / 2)]."""
    return float(_closed_forms(params, params.beta)[3])


def quantum_irr_work(params: QuenchParams) -> float:
    """Irreversible quantum work, mean work minus the free-energy
    change. Non-negative; zero for a vanishing quench amplitude."""
    _, _, w_q, df_q, _ = _closed_forms(params, params.beta)
    return float(w_q - df_q)


def excess_dissipated_work(params: QuenchParams) -> float:
    """Excess quantum dissipated work: quantum minus classical
    irreversible work for the same quench.

    Evaluated both as that difference and through the single-line
    closed form

        (hbar lam0^2 / (2 w)) (coth(b hbar w / 2) - 2 / (b hbar w))
        + (1/b) ln[csch(b hbar w1 / 2) csch(b hbar w2 / 2) / csch^2(b hbar w / 2)]
        + (1/(2 b)) ln[1 + 2 lam0^2 / w^2];

    checked as every report is (:func:`_check_excess`). Non-negative,
    vanishing in the high-temperature limit.
    """
    w_c, df_c, w_q, df_q, closed = _closed_forms(params, params.beta)
    difference = (w_q - df_q) - (w_c - df_c)
    _check_excess(np.array([params.temperature]), np.array([closed]), np.array([difference]))
    return float(difference)


def _check_excess(temperature: np.ndarray, closed: np.ndarray, omega_excess: np.ndarray):
    """Raise at the first temperature whose excess work is below
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
            f"excess-work routes disagree at temperature {float(temperature[stop])!r}: "
            f"{float(closed[stop])!r} vs {float(omega_excess[stop])!r}"
        )


# -- correlations and the temperature sweep ------------------------------

def quench_discord(params: QuenchParams, t: float = 1.0) -> float:
    """Gaussian discord of the post-quench state.

    Both modes start in the thermal state at (beta, omega), evolve under
    the coupled Hamiltonian at amplitude lambda0 for time ``t``, and the
    discord of the resulting two-mode Gaussian state is returned. Built
    with ``expm`` and a validated covariance matrix, this is the
    independent check of the discord column of :func:`sweep_temperature`.
    """
    _require_finite("evolution_time", t)
    one_mode = thermal_covariance(params.beta, params.omega, params.hbar)
    initial = direct_sum(one_mode, one_mode)
    ham = quench_hamiltonian_matrix(params.omega, params.lambda0)
    final = symplectic_evolution(initial, ham, t)
    return gaussian_discord(final, measured_mode=1)


def _quench_kappa(omega: float, lam0: float, t: float) -> float:
    """kappa = (sin(w2 t) lambda0^2 / (omega w2))^2: the evolved vacuum's
    local invariants are (1 + kappa, 1 + kappa, -kappa, 1)."""
    _, w2 = normal_mode_frequencies(omega, lam0)
    return (math.sin(w2 * t) * (lam0 * lam0 / (omega * w2))) ** 2


def _thermal_quench_discord(params: QuenchParams, beta: np.ndarray, t: float) -> np.ndarray:
    """Gaussian discord of the post-quench state at each inverse
    temperature in ``beta``, from the closed-form local invariants of the
    evolved state.

    Both modes start at nu(beta) I, with nu = (1/2) coth(beta hbar omega / 2),
    and the propagator S does not depend on beta, so the evolved state is
    nu S S^T: its doubled-convention invariants are those of the evolved
    vacuum S S^T scaled by s = (2 nu)^2 for the 2x2 blocks and s^2 for the
    whole matrix, and both symplectic eigenvalues are nu.

    In the (center-of-mass, relative) frame the center-of-mass rotation is
    orthogonal, so S S^T is ((I + Q)/2, (I - Q)/2; (I - Q)/2, (I + Q)/2)
    with Q = M2 M2^T, M2 the relative-mode rotation with quadratures
    rescaled by r = w2 / omega. det Q = 1 and
    tr Q = 2 + sin^2(w2 t) (r - 1/r)^2, so the blocks have determinants
    1 + kappa and -kappa with kappa = (sin(w2 t) (r - 1/r) / 2)^2, and the
    evolved vacuum is pure (determinant 1). Since r^2 - 1 = 2 lambda0^2 / omega^2,
    (r - 1/r) / 2 = lambda0^2 / (omega w2), which has no cancellation at
    small lambda0.
    """
    kappa = _quench_kappa(params.omega, params.lambda0, t)
    nu = 0.5 / np.tanh(beta * params.hbar * params.omega / 2.0)
    scale = (2.0 * nu) ** 2
    local = (1.0 + kappa) * scale
    return discord_from_invariants(local, local, -kappa * scale, scale * scale, nu, nu)


def _reports(params: QuenchParams, beta: np.ndarray, evolution_time: float) -> list:
    """One report per inverse temperature in the array ``beta``, every
    field computed over the whole array at once.

    Like a loop over :func:`report_at`, raises where
    :func:`_check_excess` does.
    """
    _require_finite("evolution_time", evolution_time)
    w_c, df_c, w_q, df_q, closed = _closed_forms(params, beta)
    w_c_irr = w_c - df_c
    w_q_irr = w_q - df_q
    omega_excess = w_q_irr - w_c_irr
    temperature = 1.0 / (params.kb * beta)
    discord = _thermal_quench_discord(params, beta, evolution_time)
    _check_excess(temperature, closed, omega_excess)
    columns = (temperature, w_c, df_c, w_c_irr, w_q, df_q, w_q_irr, omega_excess, discord)
    return list(map(QuenchReport._make, zip(*(c.tolist() for c in columns))))


def report_at(params: QuenchParams, evolution_time: float = 1.0) -> QuenchReport:
    """Evaluate every report field at the parameters' temperature: one
    row of :func:`sweep_temperature`, by the same code.

    Domain: a :class:`QuenchParams` (which validates its own fields) and a finite real ``evolution_time``; a non-finite or non-real one raises ValidationError.
    """
    return _reports(params, np.array([params.beta]), evolution_time)[0]


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
    closed-form local invariants of the evolved state, with no propagator
    or covariance matrix. Each grid point's value depends only on its own
    temperature, so refining the grid leaves values at shared temperatures
    unchanged.

    Domain: a :class:`QuenchParams`, real 0 < t_min < t_max < inf with beta finite at both ends, an integer ``points`` >= 2 (a Python or numpy integer, not a float or string) and a finite real ``evolution_time``; values outside these ranges, non-real temperatures or ``evolution_time``, and a ``points`` that is not an integer, raise ValidationError.
    """
    try:
        in_range = 0.0 < t_min < t_max < math.inf
    except TypeError:
        raise ValidationError(f"t_min and t_max must be real numbers; got {t_min!r}, {t_max!r}") from None
    if not in_range:
        raise ValidationError(f"need 0 < t_min < t_max < inf; got {t_min}, {t_max}")
    try:
        points = operator.index(points)
    except TypeError:
        raise ValidationError(f"points must be an integer; got {points!r}") from None
    if points < 2:
        raise ValidationError(f"need at least 2 grid points; got {points}")
    # beta falls monotonically with temperature: valid at both ends, valid throughout
    params.at_temperature(t_max)
    params.at_temperature(t_min)
    temperatures = np.linspace(t_min, t_max, points)
    return _reports(params, 1.0 / (params.kb * temperatures), evolution_time)


CSV_FIELDS = QuenchReport._fields
_CSV_ROW = ",".join(["%.17g"] * len(CSV_FIELDS))


def reports_to_csv(reports) -> str:
    """CSV rendering of a report list: header row plus one line per
    temperature, every number printed with 17 significant digits."""
    lines = [",".join(CSV_FIELDS)]
    lines.extend(_CSV_ROW % report for report in reports)
    return "\n".join(lines) + "\n"
