"""Two-mode Gaussian states in covariance-matrix form.

Conventions
-----------
Quadratures are dimensionless, ``x = sqrt(m w / hbar) q`` and
``p~ = p / sqrt(m w hbar)``, ordered ``(x1, p1, x2, p2)``. The vacuum
has quadrature variance 1/2, so physical covariance matrices have every
symplectic eigenvalue at least 1/2. All entropies are in nats. A
quadratic Hamiltonian is held as its frequency matrix G = H / hbar, so
the propagator exp(Omega G t) takes no hbar.

The closed-form Gaussian discord below is stated in the doubled
(vacuum = identity) convention internally; its agreement with the
measurement-minimization search is part of the acceptance suite, which
makes any convention slip detectable. That search refines with the
in-repo Nelder-Mead of :mod:`qcorr._simplex`. scipy's ``expm`` is
imported only inside :func:`symplectic_propagator` and
:func:`random_covariance`, so importing this module does not import
scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._simplex import minimize
from .errors import (
    BRANCH_BOUNDARY_WIDTH,
    HAMILTONIAN_TOL,
    PHYSICALITY_SLACK,
    PURE_MODE_CUTOFF,
    SUPPORT_CUTOFF,
    ValidationError,
    hermitian_part,
)

VACUUM_VARIANCE = 0.5

_MEASUREMENT_GRID_S = 24
_MEASUREMENT_GRID_PHI = 16
_LOG_S_RANGE = (math.log(1e-3), math.log(1e3))


def symplectic_form(n_modes: int) -> np.ndarray:
    """The block-diagonal symplectic form for quadrature order (x1, p1, ...)."""
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = w
    return out


def _symplectic_spectrum(sigma: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvals(symplectic_form(sigma.shape[0] // 2) @ sigma)
    doubled = np.sort(np.abs(eigs.imag))
    return doubled[1::2]


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Second-moment matrix of a Gaussian state of any number of modes.

    Validated to be symmetric and to satisfy the uncertainty bound: the
    smallest symplectic eigenvalue must be at least
    ``1/2 - PHYSICALITY_SLACK``.
    """

    sigma: np.ndarray

    def __post_init__(self):
        mat = hermitian_part(self.sigma, "covariance matrix", dtype=float, even=True)
        spectrum = _symplectic_spectrum(mat)
        nu_min = float(spectrum.min())
        if nu_min < VACUUM_VARIANCE - PHYSICALITY_SLACK:
            raise ValidationError(
                f"smallest symplectic eigenvalue {nu_min!r} violates the "
                f"uncertainty bound {VACUUM_VARIANCE}"
            )
        mat.flags.writeable = False
        spectrum.flags.writeable = False
        object.__setattr__(self, "sigma", mat)
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def n_modes(self) -> int:
        return self.sigma.shape[0] // 2


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Frequency matrix G = H / hbar of a quadratic Hamiltonian
    H = (hbar / 2) r^T G r in dimensionless quadratures r; the
    propagator is S = exp(Omega G t), so hbar never enters it."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = hermitian_part(
            self.matrix, "Hamiltonian matrix", dtype=float, tol=HAMILTONIAN_TOL, even=True
        )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def thermal_variance(beta: float, omega: float, hbar: float = 1.0) -> float:
    """Quadrature variance (1/2) coth(beta hbar omega / 2) of a thermal mode."""
    if beta <= 0 or omega <= 0 or hbar <= 0:
        raise ValidationError("beta, omega and hbar must be positive")
    return 0.5 / math.tanh(beta * hbar * omega / 2.0)


def thermal_covariance(beta: float, omega: float, hbar: float = 1.0) -> CovarianceMatrix:
    """Single-mode thermal covariance matrix nu * I with
    nu = (1/2) coth(beta hbar omega / 2)."""
    return CovarianceMatrix(thermal_variance(beta, omega, hbar) * np.eye(2))


def direct_sum(*blocks: CovarianceMatrix) -> CovarianceMatrix:
    """Product state of independent Gaussian modes."""
    mats = [b.sigma for b in blocks]
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total))
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return CovarianceMatrix(out)


def _require_coupling(lam: float):
    if not 0.0 <= lam < math.inf:
        raise ValidationError(f"coupling must be finite and non-negative; got {lam!r}")


def quench_hamiltonian_matrix(omega: float, lam: float) -> QuadraticHamiltonian:
    """Two coupled oscillators in dimensionless quadratures at reference
    frequency ``omega``, as the frequency matrix G = H / hbar.

    The coupling adds ``(lam^2 / omega^2)`` to each diagonal x entry and
    ``-(lam^2 / omega^2)`` across the modes; the mass and hbar cancel in
    the dimensionless quadratures, so neither is a parameter. Momentum
    entries are uncoupled.
    """
    _require_coupling(lam)
    if omega <= 0:
        raise ValidationError(f"omega must be positive; got {omega!r}")
    ratio = (lam / omega) ** 2
    g = np.zeros((4, 4))
    g[0, 0] = g[2, 2] = 1.0 + ratio
    g[0, 2] = g[2, 0] = -ratio
    g[1, 1] = g[3, 3] = 1.0
    return QuadraticHamiltonian(omega * g)


def normal_mode_frequencies(omega: float, lam: float):
    """Frequencies of the decoupled collective modes: the center-of-mass
    mode keeps ``omega``; the relative mode is stiffened to
    ``sqrt(omega^2 + 2 lam^2)``."""
    _require_coupling(lam)
    return omega, math.sqrt(omega * omega + 2.0 * lam * lam)


def symplectic_propagator(ham: QuadraticHamiltonian, t: float) -> np.ndarray:
    """Propagator S = exp(Omega G t) for the quadrature vector, with G
    the frequency matrix of ``ham``."""
    from scipy.linalg import expm  # an oracle only; keeps scipy off the import path

    omega_s = symplectic_form(ham.n_modes)
    return expm(omega_s @ ham.matrix * t)


def quench_propagator_closed_form(omega: float, lam: float, t: float) -> np.ndarray:
    """Propagator of the coupled pair built from its normal modes.

    Rotates to the (center-of-mass, relative) mode pair, applies the
    harmonic rotation with frequency-rescaled quadratures, and rotates
    back. Agrees with :func:`symplectic_propagator` applied to
    :func:`quench_hamiltonian_matrix` to high accuracy.
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


def symplectic_evolution(sigma: CovarianceMatrix, ham: QuadraticHamiltonian, t: float) -> CovarianceMatrix:
    """Evolve a covariance matrix: sigma -> S sigma S^T with
    S = exp(Omega G t)."""
    if sigma.n_modes != ham.n_modes:
        raise ValidationError(
            f"mode mismatch: state has {sigma.n_modes}, Hamiltonian {ham.n_modes}"
        )
    s = symplectic_propagator(ham, t)
    evolved = s @ sigma.sigma @ s.T
    # symmetric up to rounding, which at large entries exceeds the
    # absolute MATRIX_TOL meant for input matrices
    return CovarianceMatrix((evolved + evolved.T) / 2.0)


def symplectic_eigenvalues(sigma: CovarianceMatrix) -> tuple:
    """The whole symplectic spectrum, ascending, as a tuple of floats:
    ``(nu,)`` for one mode, ``(nu_minus, nu_plus)`` for two. The
    constructor has already checked it against the uncertainty bound."""
    return tuple(float(nu) for nu in sigma._spectrum)


def mode_entropy(nu):
    """Entropy contribution f(nu) = (nu + 1/2) ln(nu + 1/2)
    - (nu - 1/2) ln(nu - 1/2) of one symplectic eigenvalue.

    Rejects NaN and nu below 1/2 - PHYSICALITY_SLACK, the bound a
    :class:`CovarianceMatrix` is built with. A float gives a float,
    evaluated with ``math`` because the measurement search calls it once
    per evaluation; an array gives an array.
    """
    if isinstance(nu, float):
        if not nu >= VACUUM_VARIANCE - PHYSICALITY_SLACK:
            raise ValidationError(f"symplectic eigenvalue {nu!r} below the vacuum value 1/2")
        above = nu - VACUUM_VARIANCE
        if above <= SUPPORT_CUTOFF:
            return 0.0
        plus = nu + VACUUM_VARIANCE
        return plus * math.log(plus) - above * math.log(above)
    nu = np.asarray(nu, dtype=float)
    above = nu - VACUUM_VARIANCE
    if not (nu >= VACUUM_VARIANCE - PHYSICALITY_SLACK).all():
        lowest = float(nu.min())
        raise ValidationError(f"symplectic eigenvalue {lowest!r} below the vacuum value 1/2")
    support = above > SUPPORT_CUTOFF
    above = np.where(support, above, 1.0)  # log(1) = 0 off the support
    plus = np.where(support, nu + VACUUM_VARIANCE, 1.0)
    return plus * np.log(plus) - above * np.log(above)


def gaussian_entropy(sigma: CovarianceMatrix) -> float:
    """von Neumann entropy of a Gaussian state: sum of f over the
    symplectic spectrum, in nats."""
    return sum(mode_entropy(nu) for nu in symplectic_eigenvalues(sigma))


def _split_blocks(sigma: np.ndarray, measured_mode: int):
    """(measured block, unmeasured block, cross block with measured rows)."""
    if measured_mode == 1:
        return sigma[:2, :2], sigma[2:, 2:], sigma[:2, 2:]
    if measured_mode == 2:
        return sigma[2:, 2:], sigma[:2, :2], sigma[2:, :2]
    raise ValidationError(f"measured mode must be 1 or 2; got {measured_mode!r}")


def _require_two_modes(sigma: CovarianceMatrix):
    if sigma.n_modes != 2:
        raise ValidationError(f"operation requires a two-mode state; got {sigma.n_modes} mode(s)")


def local_invariants(sigma: CovarianceMatrix, measured_mode: int = 1):
    """The four local-symplectic invariants (a, b, c, d) in the doubled
    (vacuum = identity) convention: determinants of the unmeasured block,
    the measured block, the cross block and the whole matrix."""
    _require_two_modes(sigma)
    doubled = 2.0 * sigma.sigma
    meas, unmeas, cross = _split_blocks(doubled, measured_mode)
    return (
        float(np.linalg.det(unmeas)),
        float(np.linalg.det(meas)),
        float(np.linalg.det(cross)),
        float(np.linalg.det(doubled)),
    )


def gaussian_discord(sigma: CovarianceMatrix, measured_mode: int = 1) -> float:
    """Gaussian discord with Gaussian measurements on the chosen mode:
    :func:`discord_from_invariants` of the state's local invariants and
    symplectic spectrum."""
    invariants = local_invariants(sigma, measured_mode)
    return float(discord_from_invariants(*invariants, *symplectic_eigenvalues(sigma)))


def discord_from_invariants(inv_a, inv_b, inv_c, inv_d, nu_minus, nu_plus):
    """Closed-form Gaussian discord (Adesso-Datta) from the local invariants
    of :func:`local_invariants` and the symplectic eigenvalues; every
    argument may be an array of the same shape, and so is the result.

    The minimal conditional determinant has two regimes selected by a
    discriminant, one reached in the infinite-squeezing (homodyne) limit
    and one at finite squeezing. The result is clamped at zero.
    """
    a, b, c, d = (np.asarray(x, dtype=float) for x in (inv_a, inv_b, inv_c, inv_d))
    c2 = c * c
    pure = b - 1.0 < PURE_MODE_CUTOFF  # pure measured mode: necessarily a product state
    b1 = np.where(pure, 1.0, b - 1.0)
    finite_inner = np.maximum(c2 + b1 * (d - a), 0.0)
    finite_squeezing = (2.0 * c2 + b1 * (d - a) + 2.0 * np.abs(c) * np.sqrt(finite_inner)) / b1**2
    homodyne_inner = np.maximum(c2 * c2 + (d - a * b) ** 2 - 2.0 * c2 * (a * b + d), 0.0)
    homodyne = (a * b - c2 + d - np.sqrt(homodyne_inner)) / (2.0 * b)
    margin = (d - a * b) ** 2 - (1.0 + b) * c2 * (a + d)
    # on the branch boundary the two expressions coincide exactly but the
    # first loses precision to cancellation; take the smaller
    boundary = np.abs(margin) <= BRANCH_BOUNDARY_WIDTH * np.maximum(1.0, (1.0 + b) * c2 * (a + d))
    e_min = np.where(
        pure,
        a,
        np.where(
            boundary,
            np.minimum(finite_squeezing, homodyne),
            np.where(margin <= 0.0, finite_squeezing, homodyne),
        ),
    )
    value = (
        mode_entropy(np.sqrt(np.maximum(b, 1.0)) / 2.0)
        - mode_entropy(nu_minus)
        - mode_entropy(nu_plus)
        + mode_entropy(np.sqrt(np.maximum(e_min, 1.0)) / 2.0)
    )
    return np.maximum(value, 0.0)


def _block_entries(sigma: np.ndarray, measured_mode: int) -> tuple:
    """The blocks of :func:`_split_blocks` as Python floats:
    ``(m00, m01, m11, b00, b01, b11, c00, c01, c10, c11)`` for the
    symmetric measured block M and unmeasured block B and the cross
    block C."""
    meas, unmeas, cross = (block.tolist() for block in _split_blocks(sigma, measured_mode))
    return (
        meas[0][0], meas[0][1], meas[1][1],
        unmeas[0][0], unmeas[0][1], unmeas[1][1],
        cross[0][0], cross[0][1], cross[1][0], cross[1][1],
    )


def _finite_conditional_det(entries: tuple, s, c, sn):
    """det(B - k^T (R^T M R + diag(s/2, 1/(2s)))^-1 k) with k = R^T C and R
    the rotation with cosine ``c`` and sine ``sn``, for the entries of
    :func:`_block_entries`. ``s``, ``c`` and ``sn`` are floats or
    broadcastable arrays.

    M is rotated before the seed is added, and the sum is inverted
    analytically: adding R D R^T to M first loses digits at extreme
    squeezing.
    """
    m00, m01, m11, b00, b01, b11, c00, c01, c10, c11 = entries
    a00 = c * m00 + sn * m01  # R^T M
    a01 = c * m01 + sn * m11
    a10 = -sn * m00 + c * m01
    a11 = -sn * m01 + c * m11
    r00 = a00 * c + a01 * sn + s / 2.0  # (R^T M) R + D
    r01 = -a00 * sn + a01 * c
    r11 = -a10 * sn + a11 * c + 1.0 / (2.0 * s)
    det = r00 * r11 - r01 * r01
    i00, i01, i11 = r11 / det, -r01 / det, r00 / det
    k00 = c * c00 + sn * c10  # R^T C
    k01 = c * c01 + sn * c11
    k10 = -sn * c00 + c * c10
    k11 = -sn * c01 + c * c11
    p00 = k00 * i00 + k10 * i01  # k^T (R^T M R + D)^-1
    p01 = k00 * i01 + k10 * i11
    p10 = k01 * i00 + k11 * i01
    p11 = k01 * i01 + k11 * i11
    q00 = b00 - (p00 * k00 + p01 * k10)
    q01 = b01 - (p00 * k01 + p01 * k11)
    q11 = b11 - (p10 * k01 + p11 * k11)
    return q00 * q11 - q01 * q01


def _homodyne_conditional_det(entries: tuple, c, sn):
    """det(B - w w^T / (v^T M v)) with v = (c, sn) and w = C^T v, the
    infinite-squeezing limit of :func:`_finite_conditional_det`."""
    m00, m01, m11, b00, b01, b11, c00, c01, c10, c11 = entries
    w0 = c00 * c + c10 * sn
    w1 = c01 * c + c11 * sn
    denom = (c * m00 + sn * m01) * c + (c * m01 + sn * m11) * sn
    q01 = b01 - w0 * w1 / denom
    return (b00 - w0 * w0 / denom) * (b11 - w1 * w1 / denom) - q01 * q01


def _conditional_entropy(det):
    """Entropy of the conditional mode from its determinant, which
    rounding may push below the vacuum value 1/4; float or array."""
    if isinstance(det, float):
        return mode_entropy(math.sqrt(max(det, 0.25)))
    return mode_entropy(np.sqrt(np.maximum(det, 0.25)))


def _conditional_entropy_factory(sigma: np.ndarray, measured_mode: int):
    """Conditional-entropy objectives for seeded Gaussian measurements.

    Returns ``(finite, homodyne)`` where ``finite(u, phi)`` evaluates the
    post-measurement entropy of the unmeasured mode for the seed
    covariance R(phi) diag(e^u / 2, e^-u / 2) R(phi)^T and
    ``homodyne(phi)`` evaluates the exact infinite-squeezing limit. Both
    are scalar ``math`` expressions over the block entries; the measured
    block is rotated first and inverted analytically so both stay
    accurate at extreme squeezing.
    """
    entries = _block_entries(sigma, measured_mode)

    def finite(u: float, phi: float) -> float:
        s = math.exp(min(max(u, -34.5), 34.5))
        return _conditional_entropy(_finite_conditional_det(entries, s, math.cos(phi), math.sin(phi)))

    def homodyne(phi: float) -> float:
        return _conditional_entropy(_homodyne_conditional_det(entries, math.cos(phi), math.sin(phi)))

    return finite, homodyne


def minimize_gaussian_measurement(sigma: CovarianceMatrix, measured_mode: int = 1) -> float:
    """Gaussian discord by direct minimization over seeded single-mode
    Gaussian measurements on the chosen mode.

    Scans squeezing s on a log grid over [1e-3, 1e3] crossed with the
    seed orientation phi in [0, pi), refines the best cells locally, and
    separately refines the exact homodyne limit. The discord is then
    assembled as mutual information minus the extracted classical
    correlations. Serves as the independent check of
    :func:`gaussian_discord`.
    """
    _require_two_modes(sigma)
    meas, unmeas, _ = _split_blocks(sigma.sigma, measured_mode)
    entries = _block_entries(sigma.sigma, measured_mode)
    finite, homodyne = _conditional_entropy_factory(sigma.sigma, measured_mode)

    # the grid as one array, u down the rows; a stable argsort keeps the
    # first of equal cells in (u, phi) order
    u_grid = np.linspace(_LOG_S_RANGE[0], _LOG_S_RANGE[1], _MEASUREMENT_GRID_S)
    phi_grid = np.linspace(0.0, math.pi, _MEASUREMENT_GRID_PHI, endpoint=False)
    grid = _conditional_entropy(
        _finite_conditional_det(entries, np.exp(u_grid)[:, None], np.cos(phi_grid), np.sin(phi_grid))
    )
    starts = np.argsort(grid, axis=None, kind="stable")[:3]
    best = float(grid.flat[starts[0]])
    for u_at, phi_at in zip(*np.unravel_index(starts, grid.shape)):
        refined = minimize(
            lambda z: finite(z[0], z[1]),
            (float(u_grid[u_at]), float(phi_grid[phi_at])),
            xatol=1e-10,
            fatol=1e-14,
            maxiter=4000,
            maxfev=4000,
        )
        best = min(best, refined.fun)
    hom_phis = np.linspace(0.0, math.pi, 64, endpoint=False)
    hom_grid = _conditional_entropy(_homodyne_conditional_det(entries, np.cos(hom_phis), np.sin(hom_phis)))
    hom_at = int(np.argmin(hom_grid))
    hom_best, hom_phi = float(hom_grid[hom_at]), hom_phis[hom_at]
    hom_refined = minimize(lambda z: homodyne(z[0]), (float(hom_phi),), xatol=1e-12, fatol=1e-15, maxiter=2000)
    min_conditional = min(best, hom_best, hom_refined.fun)

    nu_minus, nu_plus = symplectic_eigenvalues(sigma)
    entropy_meas = mode_entropy(math.sqrt(max(float(np.linalg.det(meas)), 0.25)))
    entropy_unmeas = mode_entropy(math.sqrt(max(float(np.linalg.det(unmeas)), 0.25)))
    total = mode_entropy(nu_minus) + mode_entropy(nu_plus)
    info = entropy_meas + entropy_unmeas - total
    classical = entropy_unmeas - min_conditional
    return max(info - classical, 0.0)


def random_covariance(seed: int) -> CovarianceMatrix:
    """Random physical two-mode covariance matrix.

    Conjugates a diagonal of symplectic eigenvalues (drawn uniformly
    from [1/2, 3], or exactly 1/2 with probability 0.2) by a random
    symplectic built from a Gaussian symmetric generator. Deterministic
    for a fixed seed.
    """
    from scipy.linalg import expm  # test and benchmark input only; keeps scipy off the import path

    rng = np.random.default_rng(seed)
    gen = rng.normal(0.0, 0.35, (4, 4))
    gen = (gen + gen.T) / 2.0
    s = expm(symplectic_form(2) @ gen)
    nus = np.where(
        rng.random(2) < 0.2, VACUUM_VARIANCE, rng.uniform(VACUUM_VARIANCE, 3.0, 2)
    )
    return CovarianceMatrix(s @ np.diag(np.repeat(nus, 2)) @ s.T)


# -- JSON serialization -------------------------------------------------
#
# A covariance matrix is stored as a bare 4x4 (or 2x2) row-major nested
# array of floats.

def covariance_to_json(sigma: CovarianceMatrix) -> str:
    return json.dumps([[float(x) for x in row] for row in sigma.sigma])


def covariance_from_json(text: str) -> CovarianceMatrix:
    try:  # json and numpy raise ValueError or TypeError on bad JSON, ragged rows, non-numbers
        mat = np.asarray(json.loads(text), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"covariance matrix must be a JSON array of rows of numbers: {exc}") from exc
    return CovarianceMatrix(mat)
