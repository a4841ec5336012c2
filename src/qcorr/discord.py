"""Two-qubit classical correlations and quantum discord.

Classical correlations are extracted by rank-1 projective measurements
on subsystem A, parametrized by Bloch angles. The discord computed here
is therefore an upper bound on the POVM-optimized quantity; two-outcome
projective measurements keep the search space two-dimensional and make
the grid oracle unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import NEGATIVE_CLAMP, ZERO_PROBABILITY, ZERO_WEIGHT, ConsistencyError, ValidationError
from .measurement import Povm, povm_outcome
from .states import DensityMatrix, partial_trace, quantum_mutual_information, von_neumann_entropy

THETA_POINTS = 64
PHI_POINTS = 128


def _fold_angles(theta: float, phi: float):
    """Map arbitrary angles onto theta in [0, pi], phi in [0, 2*pi)."""
    theta = theta % (2.0 * math.pi)
    if theta > math.pi:
        theta = 2.0 * math.pi - theta
        phi = phi + math.pi
    phi = phi % (2.0 * math.pi)
    return theta, phi


@dataclass(frozen=True)
class MeasurementBasis:
    """Bloch angles of a projective qubit basis {|n><n|, |n_perp><n_perp|}."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValidationError(f"theta must lie in [0, pi]; got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValidationError(f"phi must lie in [0, 2*pi); got {self.phi!r}")

    @classmethod
    def canonical(cls, theta: float, phi: float) -> "MeasurementBasis":
        t, p = _fold_angles(float(theta), float(phi))
        if p >= 2.0 * math.pi:  # guard against rounding at the seam
            p = 0.0
        return cls(min(t, math.pi), p)

    def vectors(self):
        """The basis kets (|n>, |n_perp>) as complex 2-vectors."""
        half = self.theta / 2.0
        phase = complex(math.cos(self.phi), math.sin(self.phi))
        n = np.array([math.cos(half), phase * math.sin(half)], dtype=complex)
        n_perp = np.array([math.sin(half), -phase * math.cos(half)], dtype=complex)
        return n, n_perp


@dataclass(frozen=True)
class OptimizerTrace:
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class DiscordResult:
    """Mutual information, classical correlations and their difference."""

    mutual_info: float
    classical_corr: float
    discord: float
    optimal_basis: MeasurementBasis
    trace: OptimizerTrace

    def __post_init__(self):
        if abs(self.discord - (self.mutual_info - self.classical_corr)) > NEGATIVE_CLAMP:
            raise ValidationError("discord must equal mutual_info - classical_corr")
        if not -NEGATIVE_CLAMP <= self.classical_corr <= self.mutual_info + NEGATIVE_CLAMP:
            raise ValidationError(
                f"classical correlations {self.classical_corr!r} outside "
                f"[0, {self.mutual_info!r}]"
            )


def _require_two_qubits(rho: DensityMatrix):
    if rho.dims != (2, 2):
        raise ValidationError(f"operation requires a 2 (x) 2 state; got dims {rho.dims}")


def _binary_entropy_from_det(dets: np.ndarray) -> np.ndarray:
    """Entropy of normalized 2x2 states given their determinants."""
    disc = np.sqrt(np.clip(1.0 - 4.0 * dets, 0.0, 1.0))
    lam = np.clip((1.0 + disc) / 2.0, 0.0, 1.0)
    out = np.zeros_like(lam)
    for p in (lam, 1.0 - lam):
        live = p > ZERO_PROBABILITY
        out[live] -= p[live] * np.log(p[live])
    return out


def _grid_classical_correlations(rho: DensityMatrix, thetas: np.ndarray, phis: np.ndarray):
    """Vectorized evaluation of the measured-A classical correlations on a
    (theta, phi) grid. Matches the scalar route through povm_outcome."""
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    half = (tt / 2.0).ravel()
    phase = np.exp(1j * pp.ravel())
    n = np.stack([np.cos(half), phase * np.sin(half)], axis=1)
    n_perp = np.stack([np.sin(half), -phase * np.cos(half)], axis=1)
    four = rho.elements.reshape(2, 2, 2, 2)
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    avg = np.zeros(n.shape[0])
    for vec in (n, n_perp):
        block = np.einsum("ga,abcd,gc->gbd", vec.conj(), four, vec)
        prob = np.real(block[:, 0, 0] + block[:, 1, 1])
        det = np.real(
            block[:, 0, 0] * block[:, 1, 1] - block[:, 0, 1] * block[:, 1, 0]
        )
        live = prob > ZERO_WEIGHT
        cond_det = np.zeros_like(det)
        cond_det[live] = det[live] / prob[live] ** 2
        entropy = _binary_entropy_from_det(cond_det)
        avg = avg + np.where(live, prob * entropy, 0.0)
    values = s_b - avg
    if values.min() < -NEGATIVE_CLAMP:
        raise ConsistencyError(
            f"classical correlations evaluated to {values.min()!r} < 0"
        )
    return np.clip(values, 0.0, None).reshape(len(thetas), len(phis))


def classical_correlations_at(rho: DensityMatrix, basis: MeasurementBasis) -> float:
    """Classical correlations S(rho_B) - sum_j p_j S(rho_B^(j)) for the
    projective measurement of ``basis`` on qubit A, in nats.

    Outcomes with probability at or below ``ZERO_WEIGHT`` (defined in
    :mod:`qcorr.errors`) contribute nothing.
    """
    _require_two_qubits(rho)
    n, n_perp = basis.vectors()
    povm = Povm((np.outer(n, n.conj()), np.outer(n_perp, n_perp.conj())))
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    four = rho.elements.reshape(2, 2, 2, 2)
    avg = 0.0
    for j, effect in enumerate(povm.elements):
        prob = float(np.real(np.einsum("ab,bcac->", effect, four)))
        if prob <= ZERO_WEIGHT:
            continue
        prob, conditional = povm_outcome(rho, povm, j)
        avg += prob * von_neumann_entropy(conditional)
    value = s_b - avg
    if value < -NEGATIVE_CLAMP:
        raise ConsistencyError(f"classical correlations evaluated to {value!r} < 0")
    return max(value, 0.0)


def _maximize_classical_correlations(rho: DensityMatrix):
    """Coarse grid followed by local refinement. Returns
    (value, basis, evaluations, converged)."""
    thetas = np.linspace(0.0, math.pi, THETA_POINTS)
    phis = np.linspace(0.0, 2.0 * math.pi, PHI_POINTS, endpoint=False)
    grid = _grid_classical_correlations(rho, thetas, phis)
    flat_best = int(np.argmax(grid))  # first occurrence: smallest (theta, phi)
    it, ip = divmod(flat_best, PHI_POINTS)
    grid_value = float(grid[it, ip])

    def negated(z):
        t, p = _fold_angles(z[0], z[1])
        single = _grid_classical_correlations(rho, np.array([t]), np.array([p]))
        return -float(single[0, 0])

    result = minimize(
        negated,
        np.array([thetas[it], phis[ip]]),
        method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 600, "maxfev": 600},
    )
    evaluations = THETA_POINTS * PHI_POINTS + int(result.nfev)
    if -result.fun >= grid_value:
        value = -float(result.fun)
        basis = MeasurementBasis.canonical(result.x[0], result.x[1])
    else:
        value, basis = grid_value, MeasurementBasis.canonical(thetas[it], phis[ip])
    return value, basis, evaluations, bool(result.success)


def max_classical_correlations(rho: DensityMatrix):
    """Maximum of :func:`classical_correlations_at` over all projective
    bases on A. Returns ``(value, basis)``."""
    _require_two_qubits(rho)
    value, basis, _, _ = _maximize_classical_correlations(rho)
    return value, basis


def discord(rho: DensityMatrix) -> DiscordResult:
    """Quantum discord D(B|A): mutual information minus the maximal
    measurement-extractable classical correlations.

    Values in ``[-NEGATIVE_CLAMP, 0)`` are clamped to zero; anything more
    negative raises :class:`ConsistencyError` since it signals a broken
    optimization rather than rounding noise.
    """
    _require_two_qubits(rho)
    info = quantum_mutual_information(rho)
    value, basis, evaluations, converged = _maximize_classical_correlations(rho)
    value = min(value, info) if info < value <= info + NEGATIVE_CLAMP else value
    gap = info - value
    if gap < -NEGATIVE_CLAMP:
        raise ConsistencyError(
            f"discord evaluated to {gap!r}; classical correlations exceed mutual information"
        )
    return DiscordResult(
        mutual_info=info,
        classical_corr=value,
        discord=max(gap, 0.0),
        optimal_basis=basis,
        trace=OptimizerTrace(evaluations, converged),
    )


def discord_swapped(rho: DensityMatrix) -> DiscordResult:
    """Discord of the state with the roles of A and B exchanged.

    No symmetry with :func:`discord` is implied; one-way classical
    states give zero in one direction only.
    """
    _require_two_qubits(rho)
    perm = [0, 2, 1, 3]
    swapped = rho.elements[np.ix_(perm, perm)]
    return discord(DensityMatrix(swapped, (2, 2)))
