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
vector (b +- T^T n) / (1 +- a.n). With eta(x) = x ln x, q = 1 +- a.n,
u = b +- T^T n and lambda+- = (q +- |u|) / 2, twice the outcome's
probability times each eigenvalue of its conditional state, the
classical correlations are

    C(n) = h(|b|) + (1/2) sum_{+-} [eta(lambda+) + eta(lambda-) - eta(q)],

where h(r) is the entropy of a qubit state with Bloch vector length r.
The sphere search (:mod:`qcorr._sphere`) hands the objective each point
as n with an orthonormal basis (e1, e2) of its tangent plane, and the
objective returns C with its Riemannian gradient and Hessian in that
basis: every evaluation is a few dozen dot products of 3-vectors (see
:func:`_negated_objective`). The bases along n and -n are the same pair
of projectors, so C(n) = C(-n), and the grid covers only the hemisphere
phi in [0, pi): its points and their antipodes (pi - theta, phi + pi)
make up the full theta x [0, 2 pi) grid, whose maximum is therefore the
same. Exchanging A and B maps (a, b, T) to (b, a, T^T).

The search evaluates C on the distinct directions of a THETA_POINTS x
PHI_POINTS hemisphere grid (:data:`GRID`) and runs Riemannian Newton on
the sphere (:mod:`qcorr._sphere`, bound here as ``minimize``) from the
STARTS best of them; it returns the larger of the grid and Newton
maxima. The grid is twice as dense, along each axis, as the smallest
that reproduces the 64 x 64 grid plus Nelder-Mead search of earlier
versions to 1e-12 on the seeded states of the tests (4 x 4 with two
starts). C is constant
on pure and Werner states, and its Hessian diverges where a conditional
state is pure; Newton then stops at rounding with the best value it
evaluated. The mutual information takes S(rho_A) = h(|a|) and
S(rho_B) = h(|b|) from the same vectors, so only S(rho) needs the
spectrum, which :class:`~qcorr.states.DensityMatrix` holds; all three
drop eigenvalues at or below ``SUPPORT_CUTOFF``, as
:func:`~qcorr.states.quantum_mutual_information` does.

:func:`classical_correlations_at` does not use this representation: it
measures through :class:`~qcorr.measurement.Povm` and partial traces,
an independent route that the tests compare the search against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._newton import FTOL
from ._sphere import _dot, minimize
from .errors import NEGATIVE_CLAMP, SUPPORT_CUTOFF, ZERO_PROBABILITY, ZERO_WEIGHT, ConsistencyError, ValidationError
from .measurement import Povm
from .states import DensityMatrix, partial_trace, von_neumann_entropy

THETA_POINTS = 8
PHI_POINTS = 8  # phi in [0, pi); C(n) = C(-n) covers the other hemisphere
STARTS = 2  # Newton runs, from the best grid directions

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
    if not (isinstance(rho, DensityMatrix) and rho.dims == (2, 2)):
        got = f"dims {rho.dims}" if isinstance(rho, DensityMatrix) else type(rho).__name__
        raise ValidationError(f"operation requires a 2 (x) 2 state; got {got}")


def _bloch(rho: DensityMatrix):
    """Bloch vectors and correlation matrix ``(a, b, T)`` of a two-qubit
    state: a_i = Tr[rho sigma_i (x) 1], b_j = Tr[rho 1 (x) sigma_j] and
    T_ij = Tr[rho sigma_i (x) sigma_j]."""
    four = rho.elements.reshape(2, 2, 2, 2)
    r = np.real(np.einsum("abcd,mca,ndb->mn", four, _PAULI, _PAULI))
    return r[1:, 0], r[0, 1:], r[1:, 1:]


def _qubit_entropy(r2: float) -> float:
    """Entropy of the qubit state (1 + r.sigma)/2 given |r|^2."""
    lam = (1.0 + math.sqrt(min(max(r2, 0.0), 1.0))) / 2.0
    total = 0.0
    for p in (lam, 1.0 - lam):
        if p > ZERO_PROBABILITY:
            total -= p * math.log(p)
    return total


def _eta(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def _directions(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Unit vectors n of the (theta, phi) grid, theta-major, shape (N, 3)."""
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    sin_t = np.sin(tt).ravel()
    return np.stack([sin_t * np.cos(pp).ravel(), sin_t * np.sin(pp).ravel(), np.cos(tt).ravel()], axis=1)


# each direction of the theta x phi hemisphere grid once: the row theta = 0 is one point, and the
# row theta = pi holds its antipode
GRID = np.concatenate(
    [
        [[0.0, 0.0, 1.0]],
        _directions(np.linspace(0.0, math.pi, THETA_POINTS)[1:-1], np.linspace(0.0, math.pi, PHI_POINTS, endpoint=False)),
    ]
)
_SIGNS = np.array([[1.0], [-1.0]])


def _grid_values(bloch, s_b: float, n: np.ndarray) -> np.ndarray:
    """C(n) for every row of the direction array ``n``, given (a, b, T) and
    S(rho_B), in the eta form of the module docstring."""
    a, b, t = bloch
    q = 1.0 + _SIGNS * (n @ a)
    w = np.sqrt(np.sum((b + _SIGNS[..., None] * (n @ t)) ** 2, axis=2))
    lam = np.stack([(q + w) / 2.0, (q - w) / 2.0, q])
    live = lam > 0.0
    live[1] &= lam[1] > ZERO_PROBABILITY * q  # eta(lambda-) of a pure conditional state is rounding
    eta = np.where(live, lam * np.log(np.where(live, lam, 1.0)), 0.0)
    values = s_b + np.sum(eta[0] + eta[1] - eta[2], axis=0) / 2.0
    if values.min() < -NEGATIVE_CLAMP:
        raise ConsistencyError(
            f"classical correlations evaluated to {values.min()!r} < 0"
        )
    return np.clip(values, 0.0, None)


def _grid_classical_correlations(rho: DensityMatrix, thetas: np.ndarray, phis: np.ndarray):
    """Vectorized evaluation of the measured-A classical correlations on a
    (theta, phi) grid. Matches the scalar route of classical_correlations_at."""
    bloch = _bloch(rho)
    values = _grid_values(bloch, _qubit_entropy(float(bloch[1] @ bloch[1])), _directions(thetas, phis))
    return values.reshape(len(thetas), len(phis))


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
    for effect in povm.elements:
        block = np.einsum("ab,bcad->cd", effect, four)  # Tr_A[(E_j (x) 1) rho] = p_j rho_B^(j)
        prob = float(np.real(np.trace(block)))
        if prob <= ZERO_WEIGHT:
            continue
        # p_j S(rho_B^(j)) from the unnormalized block: dividing by p_j first scales its rounding by 1 / p_j
        mu = np.linalg.eigvalsh((block + block.conj().T) / 2.0)
        mu = mu[mu > SUPPORT_CUTOFF * prob]
        avg -= float(np.sum(mu * np.log(mu / prob)))
    value = s_b - avg
    if value < -NEGATIVE_CLAMP:
        raise ConsistencyError(f"classical correlations evaluated to {value!r} < 0")
    return max(value, 0.0)


def _negated_objective(bloch, s_b: float):
    """-C(n) with its Riemannian gradient (g1, g2) and Hessian (h11, h12,
    h22) in the tangent basis (e1, e2), for :func:`qcorr._sphere.minimize`,
    which passes the point as (n, e1, e2).

    Each of the terms eta(lambda+), eta(lambda-) and -eta(q) of outcome
    +-1 adds eta'(x) grad x / 2 to the Euclidean gradient and (grad x
    grad x^T / x + eta'(x) hess x) / 2 to the Hessian, with eta'(x) =
    ln x + 1 and grad lambda+- = +-(a +- v) / 2, grad q = +-a, hess
    lambda+- = +-T (1 - u u^T / w^2) T^T / (2 w), hess q = 0, where
    v = T u / w and w = |u|. The gradient is g_a a + sum g_v v and the
    Hessian a sum of outer products of a + v, a - v, a and v, and of
    T T^T, so each vector x enters only as x.e1 and x.e2 (v.e_i =
    u.(T^T e_i) / w), T T^T as (T^T e_i).(T^T e_j), and the curvature
    term -(n.g) delta_ij as n.g = g_a a.n + sum g_v v.n. On the tangent
    plane the Hessian keeps its digits where a conditional state is nearly
    pure: lambda- is small there, and so is the tangent part of a - v,
    while its part along n, which would give terms of order 1 / lambda-
    that cancel, never enters. An impossible outcome (q <= 2 ZERO_WEIGHT)
    adds nothing to the derivatives, and the eta(lambda-) of a pure
    conditional state (lambda- <= ZERO_PROBABILITY q) nothing to the
    value either, as in :func:`_qubit_entropy`: its gradient along the
    sphere vanishes there.
    """
    a, b, t = bloch
    columns = t.T.tolist()
    a, b = a.tolist(), b.tolist()

    def negated(x):
        n, e1, e2 = x
        an, a1, a2 = _dot(a, n), _dot(a, e1), _dot(a, e2)
        tn, t1, t2 = ([_dot(column, y) for column in columns] for y in x)  # T^T n, T^T e1, T^T e2
        value, g_a, h_a, h_tt = s_b, 0.0, 0.0, 0.0
        g1 = g2 = normal = 0.0  # the v parts of the gradient and of n.g
        outer = []
        for sign in (1.0, -1.0):
            q = 1.0 + sign * an
            u = [b_j + sign * tn_j for b_j, tn_j in zip(b, tn)]
            w = math.sqrt(_dot(u, u))
            plus, minus = (q + w) / 2.0, (q - w) / 2.0
            mixed = minus > ZERO_PROBABILITY * q
            value += (_eta(plus) + (_eta(minus) if mixed else 0.0) - _eta(q)) / 2.0
            if q <= 2.0 * ZERO_WEIGHT:
                continue
            v1, v2, vn = (_dot(u, t1) / w, _dot(u, t2) / w, _dot(u, tn) / w) if w > 0.0 else (0.0, 0.0, 0.0)
            slope_plus = math.log(plus) + 1.0
            if mixed:
                slope_minus = math.log(minus) + 1.0
                # the two hess lambda terms together, (slope_plus - slope_minus) / (4 w): as atanh(r) / r, finite
                # as w -> 0; with the gradient's ln(lambda-) where lambda- is small, whose rounding then cancels
                r = w / q
                if r > 0.5:
                    c_t = (slope_plus - slope_minus) / (4.0 * w)
                else:
                    c_t = (math.atanh(r) / r if r > 0.0 else 1.0) / (2.0 * q)
                outer.append((-1.0 / (8.0 * minus), a1 - v1, a2 - v2))
            else:
                slope_minus = 0.0
                c_t = slope_plus / (4.0 * w)
            # the gradient of -C as coefficients of a and v, its Hessian as outer products and T T^T
            g_a += sign * (2.0 * math.log(q) + 2.0 - slope_plus - slope_minus) / 4.0
            g_v = sign * (slope_minus - slope_plus) / 4.0
            g1, g2, normal = g1 + g_v * v1, g2 + g_v * v2, normal + g_v * vn
            h_a += 1.0 / (2.0 * q)
            h_tt += c_t
            outer += [(-1.0 / (8.0 * plus), a1 + v1, a2 + v2), (c_t, v1, v2)]
        if value < -NEGATIVE_CLAMP:
            raise ConsistencyError(f"classical correlations evaluated to {value!r} < 0")
        normal += g_a * an
        outer.append((h_a, a1, a2))
        h11, h12, h22 = -h_tt * _dot(t1, t1) - normal, -h_tt * _dot(t1, t2), -h_tt * _dot(t2, t2) - normal
        for coef, x1, x2 in outer:
            h11, h12, h22 = h11 + coef * x1 * x1, h12 + coef * x1 * x2, h22 + coef * x2 * x2
        return -max(value, 0.0), (g1 + g_a * a1, g2 + g_a * a2), (h11, h12, h22)

    return negated


def _basis_of(n) -> MeasurementBasis:
    return MeasurementBasis.canonical(math.atan2(math.hypot(n[0], n[1]), n[2]), math.atan2(n[1], n[0]))


def _maximize_classical_correlations(bloch):
    """Coarse hemisphere grid, then Newton on the sphere from its best
    cells, on (a, b, T). Returns (value, basis, evaluations, converged)."""
    s_b = _qubit_entropy(float(bloch[1] @ bloch[1]))
    grid = _grid_values(bloch, s_b, GRID)
    # values within FTOL of each other are equal to rounding, and the earlier direction wins: the
    # pole where C is constant, as on pure and Werner states
    starts = np.argsort(np.round((grid.max() - grid) / FTOL), kind="stable")[:STARTS]
    grid_value = float(grid[starts[0]])
    result = minimize(_negated_objective(bloch, s_b), GRID[starts].tolist())
    evaluations = len(GRID) + result.nfev
    if -result.fun >= grid_value:
        value, n = -result.fun, result.x
    else:
        value, n = grid_value, GRID[starts[0]].tolist()
    return value, _basis_of(n), evaluations, result.success


def max_classical_correlations(rho: DensityMatrix):
    """Maximum of :func:`classical_correlations_at` over all projective
    bases on A. Returns ``(value, basis)``.

    Domain: a two-qubit :class:`~qcorr.states.DensityMatrix` (dims (2, 2)); anything else raises ValidationError.
    """
    _require_two_qubits(rho)
    value, basis, _, _ = _maximize_classical_correlations(_bloch(rho))
    return value, basis


def _marginal_entropies(a: np.ndarray, b: np.ndarray) -> float:
    """S(rho_A) + S(rho_B) from the Bloch vectors, from the spectra
    (1 +- |a|)/2 and (1 +- |b|)/2 with the cutoff of von_neumann_entropy."""
    radii = [math.sqrt(min(max(float(v @ v), 0.0), 1.0)) for v in (a, b)]
    return -sum(p * math.log(p) for r in radii for p in ((1.0 + r) / 2.0, (1.0 - r) / 2.0) if p > SUPPORT_CUTOFF)


def _discord(rho: DensityMatrix, bloch) -> DiscordResult:
    a, b, _ = bloch
    info = _marginal_entropies(a, b) - von_neumann_entropy(rho)
    info = 0.0 if -NEGATIVE_CLAMP <= info < 0.0 else info  # as quantum_mutual_information reads it
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

    Values of the mutual information or the discord in
    ``[-NEGATIVE_CLAMP, 0)`` are clamped to zero; a discord more negative
    raises :class:`ConsistencyError` since it signals a broken
    optimization rather than rounding noise.

    Domain: a two-qubit :class:`~qcorr.states.DensityMatrix` (dims (2, 2)); anything else raises ValidationError.
    """
    _require_two_qubits(rho)
    return _discord(rho, _bloch(rho))


def discord_swapped(rho: DensityMatrix) -> DiscordResult:
    """Discord of the state with the roles of A and B exchanged.

    No symmetry with :func:`discord` is implied; one-way classical
    states give zero in one direction only. The mutual information is
    symmetric and (a, b, T) becomes (b, a, T^T).

    Domain: a two-qubit :class:`~qcorr.states.DensityMatrix` (dims (2, 2)); anything else raises ValidationError.
    """
    _require_two_qubits(rho)
    a, b, t = _bloch(rho)
    return _discord(rho, (b, a, t.T))
