"""Independent numerical checks of the closed forms of :mod:`qcorr.quench`:
exact-Gaussian Monte-Carlo sampling of the classical work, tensor-product
Gauss-Hermite quadrature of the classical partition function, truncated
Fock-basis traces of the quantum partition function and mean work, the
Gaussian discord of the thermal state evolved with the library's ``expm``
(:func:`quench_discord`), and the propagator of the coupled pair built
from its normal modes (:func:`quench_propagator_closed_form`).

The mass cancels in every quantity, so the oracles that sample or trace
positions work at unit mass. The library works at hbar = k_B = 1; the
quadrature, Fock and ``expm`` oracles take ``hbar`` as a keyword instead,
with omega and lambda0 as frequencies, so a test can check the library on
the rescaled inputs hbar omega, hbar lambda0 and t / hbar against a
reference that keeps hbar explicit. Each keeps the domain checks of the
closed form it checks. Only ``math``, numpy and qcorr are imported, so the
``expm`` route runs where scipy cannot be imported; the high-precision
discord reference (:func:`quench_discord_mp`) imports mpmath when called.
"""

import math

import numpy as np

from qcorr import (
    ConsistencyError,
    QuenchParams,
    direct_sum,
    gaussian_discord,
    normal_mode_frequencies,
    quench_hamiltonian_matrix,
    symplectic_evolution,
    thermal_covariance,
)
from qcorr.errors import require_finite
from qcorr.gaussian import _require_coupling

_MC_SAMPLES = 1_000_000


def classical_partition_quadrature(params: QuenchParams, lam: float, *, hbar: float = 1.0) -> float:
    """Phase-space integral of exp(-beta H) / h^2, at unit mass, by
    tensor-product Gauss-Hermite quadrature on 96 nodes per axis; the
    independent check of :func:`qcorr.classical_partition`.
    """
    _require_coupling(lam, params.omega)
    x, w = np.polynomial.hermite.hermgauss(96)
    beta, omega = params.beta, params.omega
    # momenta: p = sqrt(2 / beta) x, two independent factors
    momentum_part = (math.sqrt(2.0 / beta) * w.sum()) ** 2
    # positions: q = sqrt(2 / (beta omega^2)) x, coupled through the quench term
    coupling = (lam / omega) ** 2
    diff = x[:, None] - x[None, :]
    kernel = np.exp(-coupling * diff**2)
    position_part = (2.0 / (beta * omega**2)) * float(w @ kernel @ w)
    return momentum_part * position_part / (2.0 * math.pi * hbar) ** 2


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


def quantum_partition_fock(params: QuenchParams, lam: float, *, hbar: float = 1.0) -> float:
    """Partition function by direct summation of the two-mode Fock
    spectrum of the decoupled normal modes, truncated adaptively until
    the geometric tail bound drops below 1e-12 of the partial sum per
    mode."""
    w1, w2 = normal_mode_frequencies(params.omega, lam)
    factors = []
    for wk in (w1, w2):
        step = params.beta * hbar * wk
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


def quantum_avg_work_fock(params: QuenchParams, *, hbar: float = 1.0) -> float:
    """Mean work as a truncated Fock-basis trace of the work operator
    (lambda0^2 / 2)(q1 - q2)^2, at unit mass, against the uncoupled
    thermal state.

    The position operators are built numerically in the truncated basis
    and the cutoff grows until the estimate stops moving by more than
    1e-12 in relative terms.
    """
    beta_step = params.beta * hbar * params.omega
    cutoff = 24
    previous = None
    while True:
        n = np.arange(cutoff + 1)
        ladder = np.zeros((cutoff + 1, cutoff + 1))
        ladder[n[:-1], n[1:]] = np.sqrt(n[1:])  # annihilation operator
        q_scale = math.sqrt(hbar / (2.0 * params.omega))
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


def quench_discord(params: QuenchParams, t: float = 1.0, *, hbar: float = 1.0) -> float:
    """Gaussian discord of the post-quench state.

    Both modes start in the thermal state at (beta hbar, omega), evolve under
    the coupled Hamiltonian at amplitude lambda0 for time ``t``, and the
    discord of the resulting two-mode Gaussian state is returned. Built
    with ``expm`` and a validated covariance matrix, this is the
    independent check of the discord column of :func:`qcorr.sweep_temperature`.
    """
    require_finite("evolution_time", t)
    one_mode = thermal_covariance(params.beta * hbar, params.omega)
    initial = direct_sum(one_mode, one_mode)
    ham = quench_hamiltonian_matrix(params.omega, params.lambda0)
    final = symplectic_evolution(initial, ham, t)
    return gaussian_discord(final, measured_mode=1)


def quench_discord_mp(params: QuenchParams, t: float = 1.0, *, dps: int = 250) -> float:
    """Gaussian discord of the post-quench state by the Adesso-Datta closed
    form, both branches, on the exact doubled-convention invariants
    a = b = s (1 + kappa), c = -s kappa, d = s^2 with s = (2 nu)^2,
    nu = (1/2) coth(beta omega / 2) and
    kappa = (sin(w2 t) lambda0^2 / (omega w2))^2, in mpmath at ``dps``
    digits, rounded to a float once. At low temperature s - 1 = 4 n (n + 1)
    is tiny and the closed form cancels: 50 to 80 digits misread points
    near T = 0.01 omega, where 250 do not.
    """
    import mpmath

    with mpmath.workdps(dps):
        omega, lam0, beta, t = (mpmath.mpf(x) for x in (params.omega, params.lambda0, params.beta, t))
        w2 = mpmath.sqrt(omega**2 + 2 * lam0**2)
        kappa = (mpmath.sin(w2 * t) * lam0**2 / (omega * w2)) ** 2
        nu = mpmath.coth(beta * omega / 2) / 2
        s = (2 * nu) ** 2
        a = b = s * (1 + kappa)
        c, d = s * kappa, s * s

        def f(x):  # the entropy of a mode with symplectic eigenvalue x
            return (x + 0.5) * mpmath.log(x + 0.5) - ((x - 0.5) * mpmath.log(x - 0.5) if x > 0.5 else 0)

        if (d - a * b) ** 2 - (1 + b) * c**2 * (a + d) <= 0:
            e_min = (2 * c**2 + (b - 1) * (d - a) + 2 * c * mpmath.sqrt(c**2 + (b - 1) * (d - a))) / (b - 1) ** 2
        else:
            e_min = (a * b - c**2 + d - mpmath.sqrt(c**4 + (d - a * b) ** 2 - 2 * c**2 * (a * b + d))) / (2 * b)
        return float(max(f(mpmath.sqrt(b) / 2) - 2 * f(nu) + f(mpmath.sqrt(e_min) / 2), 0))


def quench_propagator_closed_form(omega: float, lam: float, t: float) -> np.ndarray:
    """Propagator of the coupled pair built from its normal modes.

    Rotates to the (center-of-mass, relative) mode pair, applies the
    harmonic rotation with frequency-rescaled quadratures, and rotates
    back. Agrees with :func:`qcorr.symplectic_propagator` applied to
    :func:`qcorr.quench_hamiltonian_matrix` to high accuracy.
    """
    w1, w2 = normal_mode_frequencies(omega, lam)

    def mode_block(wk: float) -> np.ndarray:
        c, s = math.cos(wk * t), math.sin(wk * t)
        return np.array([[c, (omega / wk) * s], [-(wk / omega) * s, c]])

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    rot = np.zeros((4, 4))
    rot[0, 0] = rot[0, 2] = inv_sqrt2   # x_com
    rot[1, 1] = rot[1, 3] = inv_sqrt2   # p_com
    rot[2, 0] = inv_sqrt2; rot[2, 2] = -inv_sqrt2  # x_rel
    rot[3, 1] = inv_sqrt2; rot[3, 3] = -inv_sqrt2  # p_rel
    block = np.zeros((4, 4))
    block[:2, :2] = mode_block(w1)
    block[2:, 2:] = mode_block(w2)
    return rot.T @ block @ rot
