"""The two-qubit search of qcorr before Newton on the sphere, kept as an
oracle: C(n) on a 64 x 64 hemisphere grid in the determinant form of
the conditional entropies, and the in-repo Nelder-Mead of
:mod:`qcorr._simplex` in (theta, phi) from the best grid point.

:func:`_maximize_classical_correlations` takes the Bloch vectors and
correlation matrix (a, b, T) and returns (value, basis, evaluations,
converged), as the library's search did.
"""

import math

import numpy as np

from qcorr import ConsistencyError, MeasurementBasis
from qcorr._simplex import minimize
from qcorr.errors import NEGATIVE_CLAMP, ZERO_PROBABILITY, ZERO_WEIGHT

THETA_POINTS = 64
PHI_POINTS = 64  # phi in [0, pi); C(n) = C(-n) covers the other hemisphere


def _binary_entropy_from_det(dets: np.ndarray) -> np.ndarray:
    """Entropy of normalized 2x2 states given their determinants."""
    disc = np.sqrt(np.clip(1.0 - 4.0 * dets, 0.0, 1.0))
    lam = np.clip((1.0 + disc) / 2.0, 0.0, 1.0)
    out = np.zeros_like(lam)
    for p in (lam, 1.0 - lam):
        live = p > ZERO_PROBABILITY
        out[live] -= p[live] * np.log(p[live])
    return out


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
