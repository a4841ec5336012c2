"""Two-qubit classical correlations and quantum discord.

Classical correlations are extracted by rank-1 projective measurements
on subsystem A, parametrized by Bloch angles. The discord computed here
is therefore an upper bound on the POVM-optimized quantity; two-outcome
projective measurements keep the search space two-dimensional and make
the grid oracle unambiguous.

The search runs on the Bloch representation of the state (Girolami and
Adesso, PRA 83, 052108, 2011),

    rho = (1 + a.sigma (x) 1 + 1 (x) b.sigma + sum_ij T_ij sigma_i (x) sigma_j) / 4,

read once from the matrix elements. Measuring A along the unit vector
n = (sin theta cos phi, sin theta sin phi, cos theta) gives the outcomes
+-1 with probabilities p+- = (1 +- a.n) / 2 and leaves B with the Bloch
vector r+- = (b +- T^T n) / (1 +- a.n), so that

    C(n) = h(|b|) - p+ h(|r+|) - p- h(|r-|),

where h(r) is the entropy of a qubit state with Bloch vector length r.
Every evaluation is 3-vector arithmetic; S(rho_B) = h(|b|) is computed
once per search. The bases along n and -n are the same pair of
projectors, so C(n) = C(-n), and the grid covers only the hemisphere
phi in [0, pi): its points and their antipodes (pi - theta, phi + pi)
make up the full theta x [0, 2 pi) grid, whose maximum is therefore the
same. Exchanging A and B maps (a, b, T) to (b, a, T^T). The grid
maximum is refined by the in-repo Nelder-Mead of :mod:`qcorr._simplex`,
a step-for-step port of scipy's, so this module does not import scipy.

:func:`classical_correlations_at` does not use this representation: it
measures through :class:`~qcorr.measurement.Povm` and partial traces,
an independent route that the tests compare the search against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._simplex import minimize
from .errors import NEGATIVE_CLAMP, ZERO_PROBABILITY, ZERO_WEIGHT, ConsistencyError, ValidationError
from .measurement import Povm, povm_outcome
from .states import DensityMatrix, partial_trace, quantum_mutual_information, von_neumann_entropy

THETA_POINTS = 64
PHI_POINTS = 64  # phi in [0, pi); C(n) = C(-n) covers the other hemisphere

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


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
    """Mutual information, classical correlations and their difference.
    :func:`discord` builds it with 0 <= classical_corr <= mutual_info and
    discord the clamped difference; a hand-built one is not validated."""

    mutual_info: float
    classical_corr: float
    discord: float
    optimal_basis: MeasurementBasis
    trace: OptimizerTrace


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


def _bloch(rho: DensityMatrix):
    """Bloch vectors and correlation matrix ``(a, b, T)`` of a two-qubit
    state: a_i = Tr[rho sigma_i (x) 1], b_j = Tr[rho 1 (x) sigma_j] and
    T_ij = Tr[rho sigma_i (x) sigma_j]."""
    four = rho.elements.reshape(2, 2, 2, 2)
    r = np.real(np.einsum("abcd,mca,ndb->mn", four, _PAULI, _PAULI))
    return r[1:, 0], r[0, 1:], r[1:, 1:]


def _qubit_entropy(r2: float) -> float:
    """Entropy of the qubit state (1 + r.sigma)/2 given |r|^2; the scalar
    form of :func:`_binary_entropy_from_det` at det = (1 - |r|^2)/4."""
    lam = (1.0 + math.sqrt(min(max(r2, 0.0), 1.0))) / 2.0
    total = 0.0
    for p in (lam, 1.0 - lam):
        if p > ZERO_PROBABILITY:
            total -= p * math.log(p)
    return total


def _grid_values(bloch, s_b: float, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """C(n) for every direction of the (theta, phi) grid, given (a, b, T)
    and S(rho_B)."""
    a, b, t = bloch
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    sin_t = np.sin(tt).ravel()
    n = np.stack([sin_t * np.cos(pp).ravel(), sin_t * np.sin(pp).ravel(), np.cos(tt).ravel()], axis=1)
    an, tn = n @ a, n @ t
    values = np.full(n.shape[0], s_b)
    for sign in (1.0, -1.0):
        prob = (1.0 + sign * an) / 2.0
        live = prob > ZERO_WEIGHT
        r2 = np.zeros_like(prob)
        r2[live] = np.sum((b + sign * tn[live]) ** 2, axis=1) / (2.0 * prob[live]) ** 2
        values -= np.where(live, prob * _binary_entropy_from_det((1.0 - r2) / 4.0), 0.0)
    if values.min() < -NEGATIVE_CLAMP:
        raise ConsistencyError(
            f"classical correlations evaluated to {values.min()!r} < 0"
        )
    return np.clip(values, 0.0, None).reshape(len(thetas), len(phis))


def _grid_classical_correlations(rho: DensityMatrix, thetas: np.ndarray, phis: np.ndarray):
    """Vectorized evaluation of the measured-A classical correlations on a
    (theta, phi) grid. Matches the scalar route through povm_outcome."""
    bloch = _bloch(rho)
    return _grid_values(bloch, _qubit_entropy(float(bloch[1] @ bloch[1])), thetas, phis)


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


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _maximize_classical_correlations(bloch):
    """Coarse hemisphere grid followed by local refinement, on (a, b, T).
    Returns (value, basis, evaluations, converged)."""
    a, b, t = bloch
    s_b = _qubit_entropy(float(b @ b))
    thetas = np.linspace(0.0, math.pi, THETA_POINTS)
    phis = np.linspace(0.0, math.pi, PHI_POINTS, endpoint=False)
    grid = _grid_values(bloch, s_b, thetas, phis)
    flat_best = int(np.argmax(grid))  # first occurrence: smallest (theta, phi)
    it, ip = divmod(flat_best, PHI_POINTS)
    grid_value = float(grid[it, ip])

    a, b, t_columns = a.tolist(), b.tolist(), t.T.tolist()  # floats for the scalar objective

    def negated(z):
        sin_t = math.sin(z[0])
        n = (sin_t * math.cos(z[1]), sin_t * math.sin(z[1]), math.cos(z[0]))
        an = _dot(a, n)
        tn = [_dot(column, n) for column in t_columns]
        value = s_b
        for sign in (1.0, -1.0):
            prob = (1.0 + sign * an) / 2.0
            if prob > ZERO_WEIGHT:
                r = [b_j + sign * tn_j for b_j, tn_j in zip(b, tn)]
                value -= prob * _qubit_entropy(_dot(r, r) / (2.0 * prob) ** 2)
        if value < -NEGATIVE_CLAMP:
            raise ConsistencyError(f"classical correlations evaluated to {value!r} < 0")
        return -max(value, 0.0)

    result = minimize(
        negated, (float(thetas[it]), float(phis[ip])), xatol=1e-7, fatol=1e-12, maxiter=600, maxfev=600
    )
    evaluations = THETA_POINTS * PHI_POINTS + result.nfev
    if -result.fun >= grid_value:
        value = -result.fun
        basis = MeasurementBasis.canonical(result.x[0], result.x[1])
    else:
        value, basis = grid_value, MeasurementBasis.canonical(thetas[it], phis[ip])
    return value, basis, evaluations, result.success


def max_classical_correlations(rho: DensityMatrix):
    """Maximum of :func:`classical_correlations_at` over all projective
    bases on A. Returns ``(value, basis)``."""
    _require_two_qubits(rho)
    value, basis, _, _ = _maximize_classical_correlations(_bloch(rho))
    return value, basis


def _discord(info: float, bloch) -> DiscordResult:
    value, basis, evaluations, converged = _maximize_classical_correlations(bloch)
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


def discord(rho: DensityMatrix) -> DiscordResult:
    """Quantum discord D(B|A): mutual information minus the maximal
    measurement-extractable classical correlations.

    Values in ``[-NEGATIVE_CLAMP, 0)`` are clamped to zero; anything more
    negative raises :class:`ConsistencyError` since it signals a broken
    optimization rather than rounding noise.
    """
    _require_two_qubits(rho)
    return _discord(quantum_mutual_information(rho), _bloch(rho))


def discord_swapped(rho: DensityMatrix) -> DiscordResult:
    """Discord of the state with the roles of A and B exchanged.

    No symmetry with :func:`discord` is implied; one-way classical
    states give zero in one direction only. The mutual information is
    symmetric and (a, b, T) becomes (b, a, T^T).
    """
    _require_two_qubits(rho)
    a, b, t = _bloch(rho)
    return _discord(quantum_mutual_information(rho), (b, a, t.T))
