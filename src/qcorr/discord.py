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
spectrum, which :class:`~qcorr.states.DensityMatrix` holds. Every eta
here and in :mod:`qcorr.states` is the one of :mod:`qcorr.probability`,
zero at or below ``ZERO_PROBABILITY``, so I and both routes to C drop
the same rounding-level eigenvalues.

:func:`classical_correlations_at` does not use this representation: it
measures through :class:`~qcorr.measurement.Povm` and partial traces,
an independent route that the tests compare the search against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._newton import FTOL
from ._sphere import minimize
from .errors import NEGATIVE_CLAMP, ZERO_PROBABILITY, ZERO_WEIGHT, ConsistencyError, ValidationError
from .measurement import Povm
from .probability import _eta, _plogp
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
    return 0.0 - (_eta(lam) + _eta(1.0 - lam))


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
    eta = _plogp(np.stack([(q + w) / 2.0, (q - w) / 2.0, q]))
    values = s_b + np.sum(eta[0] + eta[1] - eta[2], axis=0) / 2.0
    if values.min() < -NEGATIVE_CLAMP:
        raise ConsistencyError(
            f"classical correlations evaluated to {float(values.min())!r} < 0"
        )
    return np.clip(values, 0.0, None)


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
        mu = mu[mu > ZERO_PROBABILITY * prob]
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
    adds nothing to the derivatives, and nor does the lambda- of a pure
    conditional state (lambda- <= ZERO_PROBABILITY), whose gradient along
    the sphere vanishes there; the eta of :mod:`qcorr.probability` reads
    such a lambda- as zero in the value too.
    """
    (ax, ay, az), (bx, by, bz) = bloch[0].tolist(), bloch[1].tolist()
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = bloch[2].tolist()

    def negated(x):
        # every dot product in the operand order of _sphere._dot, u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
        (n0, n1, n2), (e10, e11, e12), (e20, e21, e22) = x
        an, a1, a2 = ax * n0 + ay * n1 + az * n2, ax * e10 + ay * e11 + az * e12, ax * e20 + ay * e21 + az * e22
        # T^T n, T^T e1, T^T e2
        tn0, tn1, tn2 = t00 * n0 + t10 * n1 + t20 * n2, t01 * n0 + t11 * n1 + t21 * n2, t02 * n0 + t12 * n1 + t22 * n2
        p0, p1, p2 = t00 * e10 + t10 * e11 + t20 * e12, t01 * e10 + t11 * e11 + t21 * e12, t02 * e10 + t12 * e11 + t22 * e12
        s0, s1, s2 = t00 * e20 + t10 * e21 + t20 * e22, t01 * e20 + t11 * e21 + t21 * e22, t02 * e20 + t12 * e21 + t22 * e22
        value, g_a, h_a, h_tt = s_b, 0.0, 0.0, 0.0
        g1 = g2 = normal = 0.0  # the v parts of the gradient and of n.g
        outer = []
        for sign in (1.0, -1.0):
            q = 1.0 + sign * an
            u0, u1, u2 = bx + sign * tn0, by + sign * tn1, bz + sign * tn2
            w = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
            plus, minus = (q + w) / 2.0, (q - w) / 2.0
            value += (_eta(plus) + _eta(minus) - _eta(q)) / 2.0
            if q <= 2.0 * ZERO_WEIGHT:
                continue
            if w > 0.0:
                v1, v2 = (u0 * p0 + u1 * p1 + u2 * p2) / w, (u0 * s0 + u1 * s1 + u2 * s2) / w
                vn = (u0 * tn0 + u1 * tn1 + u2 * tn2) / w
            else:
                v1 = v2 = vn = 0.0
            slope_plus = math.log(plus) + 1.0
            if minus > ZERO_PROBABILITY:  # a mixed conditional state, whose eta(lambda-) counts
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
        h11 = -h_tt * (p0 * p0 + p1 * p1 + p2 * p2) - normal
        h12 = -h_tt * (p0 * s0 + p1 * s1 + p2 * s2)
        h22 = -h_tt * (s0 * s0 + s1 * s1 + s2 * s2) - normal
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
    starts = np.argsort(np.rint((grid.max() - grid) / FTOL), kind="stable")[:STARTS]
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


def _discord(rho: DensityMatrix, bloch) -> DiscordResult:
    a, b, _ = bloch
    info = _qubit_entropy(float(a @ a)) + _qubit_entropy(float(b @ b)) - von_neumann_entropy(rho)
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
