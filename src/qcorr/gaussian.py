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
makes any convention slip detectable. That search minimizes the
determinant of the unmeasured mode's conditional covariance over pure
seeds Gamma = (e^u v v^T + e^-u w w^T) / 2 with v = (cos phi, sin phi)
and w = (-sin phi, cos phi). For the measured block M, unmeasured block
B and cross block C, the Schur complement gives

    det(B - C^T (M + Gamma)^-1 C) = det(sigma + Gamma (+) 0) / det(M + Gamma)
      = [det sigma + det B / 4 + (e^u v^T Q v + e^-u w^T Q w) / 2]
        / [det M + 1/4 + (e^u w^T M w + e^-u v^T M v) / 2],

with Q the measured-mode block of adj(sigma). Times 1 - |zeta|^2, on the
Poincare disk zeta = x + iy = tanh(u/2) e^{2i phi} (which holds each seed
once: (u, phi) and (-u, phi + pi/2) are one point), both are quadratics:

    N = alpha (1 - |zeta|^2) + t_Q (1 + |zeta|^2) + (q00 - q11) x + 2 q01 y
      = alpha (1 - |zeta|^2) + (q00 |1 + zeta|^2 + q11 |1 - zeta|^2) / 2 + 2 q01 y,
    D = delta (1 - |zeta|^2) + t_M (1 + |zeta|^2) - (m00 - m11) x - 2 m01 y
      = delta (1 - |zeta|^2) + (m11 |1 + zeta|^2 + m00 |1 - zeta|^2) / 2 - 2 m01 y,

with alpha = det sigma + det B / 4, delta = det M + 1/4, t_Q = tr Q / 2
and t_M = tr M / 2; the second lines are how they are evaluated. D > 0
on the closed disk, and its circle (u -> infinity) is homodyne detection
of the quadrature along w, where N / D is v^T Q v / w^T M w. The search
is one Newton minimization (:mod:`qcorr._newton`) on the closed disk,
where that limit is at finite distance: a run that meets the circle
slides along it, so the runs reach that limit themselves.

:func:`symplectic_propagator` and :func:`random_covariance` exponentiate
with :func:`_expm`, a scaling-and-squaring Pade approximant in numpy, so
this module needs numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._newton import _newton_step, minimize
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

# the measurement search: seeds zeta = tanh(u/2) e^{2i phi} on the unit disk
GRID_U = 4
GRID_PHI = 4
STARTS = 2  # Newton runs on the disk, from the best grid cells
# (u, phi) and (-u, phi + pi/2) are the same zeta, so the grid takes u in (0, ln 1e3], in (u, phi) order
_GRID_R = np.tanh(math.log(1e3) * np.arange(1, GRID_U + 1) / (2 * GRID_U))
_GRID_ANGLE = np.linspace(0.0, 2.0 * math.pi, GRID_PHI, endpoint=False)
_GRID_X = np.outer(_GRID_R, np.cos(_GRID_ANGLE)).ravel()
_GRID_Y = np.outer(_GRID_R, np.sin(_GRID_ANGLE)).ravel()


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

    Validated to be symmetric, positive definite (by Cholesky, before the
    symplectic spectrum is read as |Im eig(Omega sigma)|, which holds only
    for sigma > 0) and to satisfy the uncertainty bound: the smallest
    symplectic eigenvalue must be at least ``1/2 - PHYSICALITY_SLACK``.
    """

    sigma: np.ndarray

    def __post_init__(self):
        mat = hermitian_part(self.sigma, "covariance matrix", dtype=float, even=True)
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            raise ValidationError("covariance matrix is not positive definite") from None
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


def _require_finite(name: str, value: float):
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise ValidationError(f"{name} must be a real number; got {value!r}") from None
    if not finite:
        raise ValidationError(f"{name} must be finite; got {value}")


def _require_frequency(omega: float):
    if not 0.0 < omega < math.inf:
        raise ValidationError(f"omega must be positive and finite; got {omega}")


def thermal_variance(beta: float, omega: float, hbar: float = 1.0) -> float:
    """Quadrature variance (1/2) coth(beta hbar omega / 2) of a thermal mode.

    Domain: 0 < omega < inf, beta > 0 and hbar > 0; NaN or anything else raises ValidationError naming it.
    """
    _require_frequency(omega)
    for name, value in (("beta", beta), ("hbar", hbar)):
        if not value > 0:
            raise ValidationError(f"{name} must be positive; got {value}")
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
        raise ValidationError(f"coupling must be finite and non-negative; got {lam}")


def quench_hamiltonian_matrix(omega: float, lam: float) -> QuadraticHamiltonian:
    """Two coupled oscillators in dimensionless quadratures at reference
    frequency ``omega``, as the frequency matrix G = H / hbar.

    The coupling adds ``(lam^2 / omega^2)`` to each diagonal x entry and
    ``-(lam^2 / omega^2)`` across the modes; the mass and hbar cancel in
    the dimensionless quadratures, so neither is a parameter. Momentum
    entries are uncoupled.
    """
    _require_coupling(lam)
    _require_frequency(omega)
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
    _require_frequency(omega)
    return omega, math.sqrt(omega * omega + 2.0 * lam * lam)


# Pade degrees m with the bound theta_m of Higham (2005) and the coefficients
# b_0 .. b_m of the [m/m] approximant p(A) / p(-A), p(x) = sum b_j x^j
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1,
     (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068e0,
     (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
      2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
)
_THETA_13 = 5.371920351148152
_B_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring of a Pade approximant.

    The degree m and the scaling 2^-s follow Al-Mohy and Higham (SIAM J.
    Matrix Anal. Appl. 31, 970, 2009): the [m/m] approximant r_m has a
    backward error below unit roundoff while max(d_p, d_p+1) <= theta_m,
    with d_k = ||a^k||_1^(1/k). Exact norms of the even powers are cheap
    for the small matrices here, and for a non-normal ``a`` they can sit
    far below ||a||_1, sparing squarings that would each add rounding.
    With U the odd and V the even part of p(a), r_m(a) = (V - U)^-1 (V + U),
    formed as I + 2 (V - U)^-1 U so that a near-identity result keeps its
    identity exact. A non-finite ``a`` gives NaN.
    """
    ident = np.eye(a.shape[0])
    even = [ident, a @ a]  # a^0, a^2, a^4, a^6, a^8
    for _ in range(3):
        even.append(even[1] @ even[-1])
    d4, d6, d8 = (np.linalg.norm(even[j], 1) ** (0.5 / j) for j in (2, 3, 4))
    for m, theta, b in _PADE:
        if (max(d4, d6) if m < 7 else max(d6, d8)) <= theta:
            u = a @ sum(b[j] * even[j // 2] for j in range(m, 0, -2))
            v = sum(b[j] * even[j // 2] for j in range(m - 1, -1, -2))
            return ident + 2.0 * np.linalg.solve(v - u, u)
    d10 = np.linalg.norm(even[2] @ even[3], 1) ** 0.1
    eta = min(max(d6, d8), max(d8, d10))
    s = max(math.ceil(math.log2(eta / _THETA_13)), 0) if math.isfinite(eta) else 0
    a1 = a * 2.0 ** -s
    a2, a4, a6 = (even[j] * 2.0 ** (-2 * j * s) for j in (1, 2, 3))
    b = _B_13
    u = a1 @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    x = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        x = x @ x
    return x


def symplectic_propagator(ham: QuadraticHamiltonian, t: float) -> np.ndarray:
    """Propagator S = exp(Omega G t) for the quadrature vector, with G
    the frequency matrix of ``ham``.

    Domain: a finite real ``t`` for which S is finite; anything else raises ValidationError naming t.
    """
    _require_finite("t", t)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Omega G t is rejected below
        s = _expm(symplectic_form(ham.n_modes) @ ham.matrix * t)
    if not np.isfinite(s).all():
        raise ValidationError(f"t = {t!r} overflows the propagator exp(Omega G t)")
    return s


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
    S = exp(Omega G t), for ``t`` in the domain of :func:`symplectic_propagator`."""
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
    :class:`CovarianceMatrix` is built with. A float gives a float, with
    ``math``, for scalar callers such as :func:`gaussian_entropy` and the
    test suite's oracle, which calls it per evaluation; an array gives an array.
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


def _seed_forms(sigma: np.ndarray, measured_mode: int) -> tuple:
    """``((N, D), det M, det B)``, with N and D of the module docstring as
    ``(k, p, m, c)``: k (1 - |zeta|^2) + (p |1 + zeta|^2 + m |1 - zeta|^2) / 2 + c y.
    Q = adj(det B M - C adj(B) C^T), the adjugate of det B times the Schur
    complement of B, which needs no inverse."""
    meas, unmeas, cross = _split_blocks(sigma, measured_mode)
    det_m, det_b = float(np.linalg.det(meas)), float(np.linalg.det(unmeas))
    adj_b = np.array([[unmeas[1, 1], -unmeas[0, 1]], [-unmeas[1, 0], unmeas[0, 0]]])
    (s00, s01), (s10, s11) = (det_b * meas - cross @ adj_b @ cross.T).tolist()
    (m00, m01), (_, m11) = meas.tolist()
    # Q = adj(schur) = [[s11, -s01], [-s10, s00]], symmetrized
    numerator = (float(np.linalg.det(sigma)) + det_b / 4.0, s11, s00, -(s01 + s10))
    return (numerator, (det_m + 0.25, m11, m00, -2.0 * m01)), det_m, det_b


def _quadratic(form: tuple, x, y):
    """The quadratic ``form = (k, p, m, c)`` of :func:`_seed_forms` at
    zeta = x + iy, as a sum of terms that do not cancel where its matrix
    is ill-conditioned along the quadrature axes."""
    k, p, m, c = form
    y2 = y * y
    return k * (1.0 - x * x - y2) + (p * ((1.0 + x) ** 2 + y2) + m * ((1.0 - x) ** 2 + y2)) / 2.0 + c * y


def _conditional_det(forms: tuple, x, y):
    """det(B - C^T (M + Gamma)^-1 C) for the seed zeta = x + iy of the closed
    unit disk, as the ratio N / D of the :func:`_seed_forms`; floats or
    broadcastable arrays. On |zeta| = 1 it is the homodyne limit."""
    numerator, denominator = forms
    return _quadratic(numerator, x, y) / _quadratic(denominator, x, y)


def _finite_objective(forms: tuple):
    """:func:`_conditional_det` at (x, y) with its gradient and Hessian,
    for :func:`minimize` on the disk. N and D have affine gradients and
    Hessians (p + m - 2 k) I, so no transcendental function enters; those
    of N / D follow by the quotient rule."""
    (n_k, n_p, n_m, n_c), (d_k, d_p, d_m, d_c) = forms
    n_curv, d_curv = n_p + n_m - 2.0 * n_k, d_p + d_m - 2.0 * d_k

    def conditional_det(z):
        x, y = z
        den = _quadratic(forms[1], x, y)
        f = _quadratic(forms[0], x, y) / den
        n_x, n_y = n_curv * x + n_p - n_m, n_curv * y + n_c
        d_x, d_y = d_curv * x + d_p - d_m, d_curv * y + d_c
        g_x, g_y = (n_x - f * d_x) / den, (n_y - f * d_y) / den
        curv = n_curv - f * d_curv
        hess = ((curv - 2.0 * g_x * d_x) / den, -(g_x * d_y + g_y * d_x) / den, (curv - 2.0 * g_y * d_y) / den)
        return f, (g_x, g_y), hess

    return conditional_det


def _disk(z, g, h) -> tuple:
    """The closed unit disk of seeds zeta = (x, y) as a chart for
    :func:`minimize`. A step that would leave the disk stops where it meets
    the circle; on the circle, the run slides along it instead: the chart
    is the arc, with the objective's slope and curvature along it."""
    x, y = z
    gap = max(1.0 - (x * x + y * y), 0.0)
    if gap <= 1e-12:  # on the circle, to rounding
        d1, d2 = _newton_step(g, h)
        if (x + d1) ** 2 + (y + d2) ** 2 > 1.0:
            # along the tangent (-y, x); the arc's own curvature adds -g.z
            curv = h[0] * y * y - 2.0 * h[1] * x * y + h[2] * x * x - (g[0] * x + g[1] * y)

            def slide(d1, d2):
                norm = math.hypot(x - d1 * y, y + d1 * x)
                return ((x - d1 * y) / norm, (y + d1 * x) / norm), d1, 0.0

            return (g[1] * x - g[0] * y, 0.0), (curv, 0.0, 0.0), slide

    def move(d1, d2):
        if (x + d1) ** 2 + (y + d2) ** 2 <= 1.0:
            return (x + d1, y + d2), d1, d2
        # the t in (0, 1) with |z + t d| = 1, in the form that does not cancel
        along, length2 = x * d1 + y * d2, d1 * d1 + d2 * d2
        root = math.sqrt(along * along + length2 * gap)
        t = gap / (along + root) if along > 0.0 else (root - along) / length2
        norm = math.hypot(x + t * d1, y + t * d2)
        return ((x + t * d1) / norm, (y + t * d2) / norm), t * d1, t * d2

    return g, h, move


def minimize_gaussian_measurement(sigma: CovarianceMatrix, measured_mode: int = 1) -> float:
    """Gaussian discord by direct minimization over seeded single-mode
    Gaussian measurements on the chosen mode.

    Evaluates the conditional determinant on the GRID_U x GRID_PHI grid
    of seeds zeta = tanh(u/2) e^{2i phi}, u in (0, ln 1e3] and phi in
    [0, pi), and runs Newton on the closed unit disk from its STARTS best
    cells; a run that meets the circle, the homodyne limit, slides along
    it (see :func:`_disk`). The smallest determinant found gives the
    classical correlations through one :func:`mode_entropy`, and the
    discord is the mutual information minus them. Serves as the
    independent check of :func:`gaussian_discord`.
    """
    _require_two_modes(sigma)
    forms, det_m, det_b = _seed_forms(sigma.sigma, measured_mode)
    # a stable argsort keeps the first of equal cells in (u, phi) order
    cells = np.argsort(_conditional_det(forms, _GRID_X, _GRID_Y), kind="stable")[:STARTS]
    starts = list(zip(_GRID_X[cells].tolist(), _GRID_Y[cells].tolist()))
    min_det = minimize(_finite_objective(forms), starts, _disk).fun  # at most the best cell's value

    nu_minus, nu_plus = symplectic_eigenvalues(sigma)
    entropy_meas = mode_entropy(math.sqrt(max(det_m, 0.25)))
    entropy_unmeas = mode_entropy(math.sqrt(max(det_b, 0.25)))
    total = mode_entropy(nu_minus) + mode_entropy(nu_plus)
    info = entropy_meas + entropy_unmeas - total
    classical = entropy_unmeas - mode_entropy(math.sqrt(max(min_det, 0.25)))
    return max(info - classical, 0.0)


def random_covariance(seed: int) -> CovarianceMatrix:
    """Random physical two-mode covariance matrix.

    Conjugates a diagonal of symplectic eigenvalues (drawn uniformly
    from [1/2, 3], or exactly 1/2 with probability 0.2) by a random
    symplectic built from a Gaussian symmetric generator. Deterministic
    for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    gen = rng.normal(0.0, 0.35, (4, 4))
    gen = (gen + gen.T) / 2.0
    s = _expm(symplectic_form(2) @ gen)
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
