"""Two-mode Gaussian states in covariance-matrix form.

Conventions
-----------
Quadratures are dimensionless, ``x = sqrt(m w / hbar) q`` and
``p~ = p / sqrt(m w hbar)``, ordered ``(x1, p1, x2, p2)``. The vacuum
has quadrature variance 1/2, so physical covariance matrices have every
symplectic eigenvalue at least 1/2. All entropies are in nats, and
hbar = k_B = 1. A quadratic Hamiltonian is held as its frequency matrix
G, with propagator exp(Omega G t). A two-mode matrix holds its
block determinants det A, det B, det C and det sigma, taken once when it
is built; both Gaussian discord routes read them from there.

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
of the quadrature along w, where N / D is v^T Q v / w^T M w. On the
closed disk that limit is at finite distance, so the search reaches it
as it reaches any other seed.

The search finds the global minimum. The quadratics (k, p, m, c) have
isotropic Hessians (p + m - 2 k) I and gradients (p - m, c) at zeta = 0,
so for any level f, N - f D = (c_f / 2) |zeta|^2 + g_f . zeta + const,
whose minimum over the closed disk is the interior point -g_f / c_f where
c_f > |g_f|, else the circle point -g_f / |g_f|. Dinkelbach's iteration
(:func:`qcorr._newton.minimize_ratio`) starts at zeta = 0, moves to that
minimum of N - f D at the level f = N / D of the current point, and stops
when the level no longer falls. Each step minimizes over the whole disk,
not near the current point, so no start can trap it in a local minimum:
the levels are Newton's method on F(f) = min (N - f D), a concave
function with slope -D at the minimizing point, and they fall to its
root, the global minimum of N / D.

:func:`symplectic_propagator` and :func:`random_covariance` exponentiate
with :func:`_expm`, a scaling-and-squaring [13/13] Pade approximant in
numpy, so this module needs numpy alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._newton import minimize_ratio as minimize  # the name under which the traced benchmark counts its evaluations
from .errors import BRANCH_BOUNDARY_WIDTH, HAMILTONIAN_TOL, INVARIANT_SLACK, PHYSICALITY_SLACK, PROPAGATOR_DET_TOL
from .errors import PURE_MODE_CUTOFF, SUPPORT_CUTOFF, ValidationError, hermitian_part, require_finite, require_integer
from .errors import _integer_text, _require_array_size, require_real, require_seed

VACUUM_VARIANCE = 0.5
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def symplectic_form(n_modes: int) -> np.ndarray:
    """The block-diagonal symplectic form for quadrature order (x1, p1, ...).

    Domain: a Python or numpy integer n_modes >= 0, 0 giving a 0 x 0 array; a negative one, one whose (2 n_modes)^2 floats exceed numpy's largest array in bytes, a float, string or None raises ValidationError naming n_modes."""
    if require_integer("n_modes", n_modes) < 0:
        raise ValidationError(f"n_modes must be non-negative; got {_integer_text(n_modes)}")
    _require_array_size("2 n_modes", 2 * n_modes, 8, square=True)
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = w
    return out


_TWO_MODE_FORM = symplectic_form(2)
_TWO_MODE_FORM.flags.writeable = False


def _symplectic_spectrum(sigma: np.ndarray) -> np.ndarray:
    omega = _TWO_MODE_FORM if len(sigma) == 4 else symplectic_form(len(sigma) // 2)
    eigs = np.linalg.eigvals(omega @ sigma)
    doubled = np.sort(np.abs(eigs.imag))
    return doubled[1::2]


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Second-moment matrix of a Gaussian state of any number of modes.

    Validated to be symmetric, positive definite (by Cholesky, before the
    symplectic spectrum is read as |Im eig(Omega sigma)|, which holds only
    for sigma > 0) and to satisfy the uncertainty bound: the smallest
    symplectic eigenvalue must be at least ``1/2 - PHYSICALITY_SLACK``.
    A two-mode ((A, C), (C^T, B)) holds ((det A, det C), (det C^T, det B)) and det sigma.

    Domain: a real symmetric matrix of even size with those properties, entries of at most MATRIX_ENTRY_MAX and a finite det sigma (a complex one whose imaginary parts are all zero is read as its real part); anything else, a ragged or non-numeric matrix included, raises ValidationError.
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
            raise ValidationError(f"smallest symplectic eigenvalue {nu_min!r} violates the uncertainty bound {VACUUM_VARIANCE}")
        if mat.shape[0] == 4:  # one np.linalg.det for the 2x2 blocks ((A, C), (C^T, B)), one slogdet for sigma
            block_dets = np.linalg.det(mat.reshape(2, 2, 2, 2).swapaxes(1, 2))
            block_dets.flags.writeable = False
            sign, log_det = np.linalg.slogdet(mat)
            if not log_det < _LOG_FLOAT_MAX:  # sign exp(ln |det|) is how np.linalg.det forms it, warning on overflow
                raise ValidationError(f"covariance matrix determinant overflows: ln det sigma = {log_det.item()!r}")
            object.__setattr__(self, "_dets", (block_dets, sign.item() * math.exp(log_det.item())))
        mat.flags.writeable = False
        spectrum.flags.writeable = False
        object.__setattr__(self, "sigma", mat)
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def n_modes(self) -> int:
        return self.sigma.shape[0] // 2


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Frequency matrix G of a quadratic Hamiltonian H = r^T G r / 2 in
    dimensionless quadratures r; the propagator is S = exp(Omega G t).

    Domain: a non-empty rectangular array of real numbers of even size, symmetric within HAMILTONIAN_TOL, with finite entries of at most MATRIX_ENTRY_MAX (its sign is not checked); anything else, a ragged or non-numeric matrix or a nonzero imaginary part included, raises ValidationError naming the Hamiltonian matrix."""

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


def _require_frequency(omega: float):
    if not (require_real("omega", omega) and omega > 0.0):
        raise ValidationError(f"omega must be positive and finite; got {omega}")


def thermal_variance(beta: float, omega: float) -> float:
    """Quadrature variance (1/2) coth(beta omega / 2) of a thermal mode.

    Domain: 0 < omega < inf, beta > 0 within the float range (inf included) and beta omega / 2 large enough for a finite variance; NaN or anything else raises ValidationError naming it.
    """
    _require_frequency(omega)
    if not ((require_real("beta", beta) or beta == math.inf) and beta > 0):  # NaN fails
        raise ValidationError(f"beta must be positive; got {beta}")
    half = beta * omega / 2.0
    variance = 0.5 / math.tanh(half) if half > 0.0 else math.inf  # a subnormal half overflows silently
    if variance == math.inf:
        raise ValidationError(f"beta omega / 2 underflows: 1/2 coth({half}) is not finite; got beta = {beta}, omega = {omega}")
    return variance


def thermal_covariance(beta: float, omega: float) -> CovarianceMatrix:
    """Single-mode thermal covariance matrix nu * I with
    nu = (1/2) coth(beta omega / 2).

    Domain: that of :func:`thermal_variance`, whose errors it raises; a nu above MATRIX_ENTRY_MAX raises ValidationError naming the overflow.
    """
    return CovarianceMatrix(thermal_variance(beta, omega) * np.eye(2))


def direct_sum(*blocks: CovarianceMatrix) -> CovarianceMatrix:
    """Product state of independent Gaussian modes.

    Domain: one or more :class:`CovarianceMatrix` blocks whose direct sum that class accepts (a finite det sigma); anything else raises ValidationError, also no blocks at all, and a block of another type is named by its type."""
    for b in blocks:
        if not isinstance(b, CovarianceMatrix):
            raise ValidationError(f"blocks must be CovarianceMatrix objects; got {type(b).__name__}")
    mats = [b.sigma for b in blocks]
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total))
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return CovarianceMatrix(out)


def _require_coupling(lam: float, omega: float):
    # the quench's closed forms divide by omega^2, take log1p(2 lambda0^2 / omega^2) and sqrt(omega^2 + 2 lambda0^2)
    if not (require_real("coupling", lam) and lam >= 0.0):
        raise ValidationError(f"coupling must be finite and non-negative; got {lam}")
    _require_frequency(omega)
    square = omega * omega
    if not (0.0 < square < math.inf and math.isfinite(2.0 * (lam * lam) / square) and square + 2.0 * lam * lam < math.inf):
        raise ValidationError(f"omega^2 must be nonzero and finite, and so must 2 lambda0^2 / omega^2 and omega^2 + 2 lambda0^2; got omega = {omega}, lambda0 = {lam}")


def quench_hamiltonian_matrix(omega: float, lam: float) -> QuadraticHamiltonian:
    """Two coupled oscillators in dimensionless quadratures at reference
    frequency ``omega``, as the frequency matrix G.

    The coupling adds ``(lam^2 / omega^2)`` to each diagonal x entry and
    ``-(lam^2 / omega^2)`` across the modes; the mass cancels in the
    dimensionless quadratures, so it is not a parameter. Momentum entries
    are uncoupled.

    Domain: that of :func:`normal_mode_frequencies`, whose ValidationError it raises.
    """
    _require_coupling(lam, omega)
    ratio = (lam / omega) ** 2
    g = np.zeros((4, 4))
    g[0, 0] = g[2, 2] = 1.0 + ratio
    g[0, 2] = g[2, 0] = -ratio
    g[1, 1] = g[3, 3] = 1.0
    return QuadraticHamiltonian(omega * g)


def normal_mode_frequencies(omega: float, lam: float):
    """Frequencies of the decoupled collective modes: the center-of-mass
    mode keeps ``omega``; the relative mode is stiffened to
    ``sqrt(omega^2 + 2 lam^2)``.

    Domain: real 0 < omega < inf and a finite lam >= 0 with omega^2, 2 lam^2 / omega^2 and omega^2 + 2 lam^2 nonzero and finite, the rule of QuenchParams; anything else, a non-real argument included, raises ValidationError naming it."""
    _require_coupling(lam, omega)
    return omega, math.sqrt(omega * omega + 2.0 * lam * lam)


# the coefficients b_0 .. b_13 of the [13/13] Pade approximant p(A) / p(-A), p(x) = sum b_j x^j,
# and its bound theta_13 of Higham (2005)
_THETA_13 = 5.371920351148152
_B_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring of the [13/13] Pade approximant r_13.

    The scaling 2^-s follows Al-Mohy and Higham (SIAM J. Matrix Anal.
    Appl. 31, 970, 2009): r_13 has a backward error below unit roundoff
    while min(max(d_6, d_8), max(d_8, d_10)) 2^-s <= theta_13, with
    d_k = ||a^k||_1^(1/k). Exact norms of the even powers are cheap for
    the small matrices here, and for a non-normal ``a`` they can sit far
    below ||a||_1, sparing squarings that would each add rounding. The
    paper's lower degrees 3 to 9 would only save flops on small norms.
    With U the odd and V the even part of p(a), r_13(a) = (V - U)^-1 (V + U),
    formed as I + 2 (V - U)^-1 U so that a near-identity result keeps its
    identity exact. A zero ``a`` takes s = 0; a non-finite ``a`` gives NaN.
    """
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    a8 = a2 @ a6
    d6, d8, d10 = (np.linalg.norm(p, 1) ** (1.0 / k) for p, k in ((a6, 6), (a8, 8), (a4 @ a6, 10)))
    eta = min(max(d6, d8), max(d8, d10))
    s = max(math.ceil(math.log2(eta / _THETA_13)), 0) if 0.0 < eta < math.inf else 0
    a1 = a * 2.0 ** -s
    a2, a4, a6 = (p * 2.0 ** (-k * s) for p, k in ((a2, 2), (a4, 4), (a6, 6)))
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

    Domain: a finite real ``t`` for which S is finite and |det S - 1| <= PROPAGATOR_DET_TOL; anything else raises ValidationError naming t.
    """
    require_finite("t", t)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Omega G t is rejected below
        s = _expm(symplectic_form(ham.n_modes) @ ham.matrix * t)
        defect = abs(np.linalg.det(s) - 1.0)
    if not np.isfinite(s).all():
        raise ValidationError(f"t = {t!r} overflows the propagator exp(Omega G t)")
    if not defect <= PROPAGATOR_DET_TOL:
        raise ValidationError(f"t = {t!r} is beyond the propagator's accuracy: |det exp(Omega G t) - 1| = {float(defect)!r} > {PROPAGATOR_DET_TOL}")
    return s


def symplectic_evolution(sigma: CovarianceMatrix, ham: QuadraticHamiltonian, t: float) -> CovarianceMatrix:
    """Evolve a covariance matrix: sigma -> S sigma S^T with
    S = exp(Omega G t), for ``t`` in the domain of :func:`symplectic_propagator`.

    Domain: a :class:`CovarianceMatrix` and a :class:`QuadraticHamiltonian` of as many modes, a ``t`` in the domain of :func:`symplectic_propagator` and an evolved matrix that :class:`CovarianceMatrix` accepts; anything else raises ValidationError, which names the type of a state or Hamiltonian of another type."""
    if not (isinstance(sigma, CovarianceMatrix) and isinstance(ham, QuadraticHamiltonian)):
        raise ValidationError(f"sigma and ham must be a CovarianceMatrix and a QuadraticHamiltonian; got {type(sigma).__name__} and {type(ham).__name__}")
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
    constructor has already checked it against the uncertainty bound.

    Domain: a :class:`CovarianceMatrix` of any number of modes; anything else raises ValidationError naming its type."""
    if not isinstance(sigma, CovarianceMatrix):
        raise ValidationError(f"sigma must be a CovarianceMatrix; got {type(sigma).__name__}")
    return tuple(sigma._spectrum.tolist())


def _real_scalar(name: str, value) -> float:
    """``value``, a Python or numpy real number, as a float; anything else raises naming ``name``."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number; got {value!r}")
    require_real(name, value)  # names an integer beyond the float range
    return float(value)


def mode_entropy(nu) -> float:
    """Entropy contribution f(nu) = (nu + 1/2) ln(nu + 1/2)
    - (nu - 1/2) ln(nu - 1/2) of one symplectic eigenvalue, with ``math``.

    Domain: a real scalar (a float, or a Python or numpy integer or real) finite and at least 1/2 - PHYSICALITY_SLACK, the bound of :class:`CovarianceMatrix`; NaN, inf or less raises ValidationError with its value, and anything else, an array, a string or an integer beyond the float range included, raises ValidationError naming the symplectic eigenvalue.
    """
    if type(nu) is not float:
        nu = _real_scalar("symplectic eigenvalue", nu)
    if not VACUUM_VARIANCE - PHYSICALITY_SLACK <= nu < math.inf:
        raise ValidationError(f"symplectic eigenvalue {nu!r} {'is not finite' if nu == math.inf else 'below the vacuum value 1/2'}")
    above = nu - VACUUM_VARIANCE
    if above <= SUPPORT_CUTOFF:
        return 0.0
    plus = nu + VACUUM_VARIANCE
    return plus * math.log(plus) - above * math.log(above)


def gaussian_entropy(sigma: CovarianceMatrix) -> float:
    """von Neumann entropy of a Gaussian state: sum of f over the
    symplectic spectrum, in nats.

    Domain: a :class:`CovarianceMatrix` of any number of modes; anything else raises ValidationError naming its type."""
    return sum(mode_entropy(nu) for nu in symplectic_eigenvalues(sigma))


def _split_blocks(sigma: np.ndarray, measured_mode: int):
    """(measured block, unmeasured block, cross block with measured rows) of a two-mode matrix,
    or of its 2 x 2 matrix of block determinants, which :func:`_held_dets` reads, validating the
    measured mode; :func:`_seed_forms` unpacks the entries of sigma in the same orientation."""
    n = len(sigma) // 2
    if measured_mode == 1:
        return sigma[:n, :n], sigma[n:, n:], sigma[:n, n:]
    if measured_mode == 2:
        return sigma[n:, n:], sigma[:n, :n], sigma[n:, :n]
    raise ValidationError(f"measured mode must be 1 or 2; got {measured_mode!r}")


def _require_two_modes(sigma: CovarianceMatrix):
    if not isinstance(sigma, CovarianceMatrix):
        raise ValidationError(f"sigma must be a CovarianceMatrix; got {type(sigma).__name__}")
    if sigma.n_modes != 2:
        raise ValidationError(f"operation requires a two-mode state; got {sigma.n_modes} mode(s)")


def _held_dets(sigma: CovarianceMatrix, measured_mode: int) -> tuple:
    """The held (det M, det B, det C, det sigma) of the blocks (M, B, C) of :func:`_split_blocks`."""
    _require_two_modes(sigma)
    block_dets, det_sigma = sigma._dets
    det_m, det_b, det_c = _split_blocks(block_dets, measured_mode)
    return det_m.item(), det_b.item(), det_c.item(), det_sigma


def local_invariants(sigma: CovarianceMatrix, measured_mode: int = 1):
    """The four local-symplectic invariants (a, b, c, d) in the doubled
    (vacuum = identity) convention: determinants of the unmeasured block,
    the measured block, the cross block and the whole matrix, scaled from the held ones.

    Domain: a two-mode :class:`CovarianceMatrix` and measured mode 1 or 2; anything else raises ValidationError, which names the type of a state of another type, and so does a det sigma whose d = 16 det sigma overflows (from det sigma of about 1.1e307), naming det sigma.
    """
    det_m, det_b, det_c, det_sigma = _held_dets(sigma, measured_mode)
    d = 16.0 * det_sigma
    if d == math.inf:
        raise ValidationError(f"det sigma = {det_sigma!r} overflows the invariant d = 16 det sigma")
    return 4.0 * det_b, 4.0 * det_m, 4.0 * det_c, d


def gaussian_discord(sigma: CovarianceMatrix, measured_mode: int = 1) -> float:
    """Gaussian discord with Gaussian measurements on the chosen mode:
    :func:`discord_from_invariants` of the state's local invariants and
    symplectic spectrum.

    Domain: a two-mode :class:`CovarianceMatrix` and measured mode 1 or 2; anything else raises ValidationError, which names the type of a state of another type, and so does a state whose invariants overflow the closed form (thermal pairs from nu of about 3e76, where the matrix itself is still accepted), saying so and naming them.
    """
    return discord_from_invariants(*local_invariants(sigma, measured_mode), *symplectic_eigenvalues(sigma))


def _min_conditional_det(a: float, b: float, abs_c: float, d: float) -> float:
    """The minimal conditional determinant E_min of the unmeasured mode, from the local invariants.
    A discriminant selects one of two regimes, one reached in the infinite-squeezing (homodyne)
    limit and one at finite squeezing. Invariants near the float range overflow its terms: the
    selected branch may stay finite, or E_min is NaN or infinite."""
    if b - 1.0 < PURE_MODE_CUTOFF:  # pure measured mode: necessarily a product state
        return a
    c2, ab, b1 = abs_c * abs_c, a * b, b - 1.0  # each product and difference below is formed once
    lift = b1 * (d - a)
    finite_squeezing = (2.0 * c2 + lift + 2.0 * abs_c * math.sqrt(max(c2 + lift, 0.0))) / (b1 * b1)
    skew = d - ab
    skew2, spread = skew * skew, (1.0 + b) * c2 * (a + d)
    homodyne = (ab - c2 + d - math.sqrt(max(c2 * c2 + skew2 - 2.0 * c2 * (ab + d), 0.0))) / (2.0 * b)
    margin = skew2 - spread
    # on the branch boundary the two expressions coincide exactly but the
    # first loses precision to cancellation; take the smaller
    if abs(margin) <= BRANCH_BOUNDARY_WIDTH * max(1.0, spread):
        return min(finite_squeezing, homodyne)
    return finite_squeezing if margin <= 0.0 else homodyne


def discord_from_invariants(inv_a, inv_b, inv_c, inv_d, nu_minus, nu_plus) -> float:
    """Closed-form Gaussian discord (Adesso-Datta) from the local invariants
    of :func:`local_invariants` and the symplectic eigenvalues, through
    :func:`_min_conditional_det`, with ``math``. The result is clamped at zero.

    Domain: six real scalars (floats, or Python or numpy integers or reals), the invariants and spectrum of a physical state; an invariant that is not a real scalar (an array or a string included) or is an integer beyond the float range, an a, b or d not finite or below the vacuum's 1 by more than INVARIANT_SLACK, a c not finite, or a symplectic eigenvalue outside the domain of :func:`mode_entropy`, raises ValidationError naming it, and invariants so large (products such as ab, c^2 or b (d - a) beyond the float range) that the minimal conditional determinant is NaN or infinite raise ValidationError saying they overflow the closed form and naming them.
    """
    a, b, c, d = inv_a, inv_b, inv_c, inv_d
    if not (type(a) is type(b) is type(c) is type(d) is float):
        a, b, c, d = map(_real_scalar, ("invariant a", "invariant b", "invariant c", "invariant d"), (a, b, c, d))
    floor, abs_c = 1.0 - INVARIANT_SLACK, abs(c)
    # NaN fails every comparison
    if not (floor <= a < math.inf and floor <= b < math.inf and floor <= d < math.inf and abs_c < math.inf):
        for name, x in zip("abcd", (a, b, c, d)):
            if not (abs(x) < math.inf and (name == "c" or x >= floor)):
                need = "finite" if name == "c" else "finite and at least 1 - INVARIANT_SLACK, the vacuum's"
                raise ValidationError(f"invariant {name} must be {need}; got {x!r}")
    e_min = _min_conditional_det(a, b, abs_c, d)
    if not abs(e_min) < math.inf:  # Python float arithmetic overflows without a warning
        raise ValidationError(f"invariants a = {a!r}, b = {b!r}, c = {c!r}, d = {d!r} overflow the closed form")
    f_minus, f_plus = mode_entropy(nu_minus), mode_entropy(nu_plus)
    value = mode_entropy(math.sqrt(max(b, 1.0)) / 2.0) - f_minus - f_plus + mode_entropy(math.sqrt(max(e_min, 1.0)) / 2.0)
    return max(value, 0.0)


def _seed_forms(sigma: CovarianceMatrix, measured_mode: int) -> tuple:
    """``((N, D), det M)``, with N and D of the module docstring as
    ``(k, p, m, c)``: k (1 - |zeta|^2) + (p |1 + zeta|^2 + m |1 - zeta|^2) / 2 + c y.
    Q = adj(det B M - C adj(B) C^T), the adjugate of det B times the Schur
    complement of B, which needs no inverse. On floats: the held determinants,
    and the entries of M = [[m00, m01], [m01, m11]], B = [[u00, u01], [u10, u11]]
    and C (rows (c00, c01) and (c10, c11), measured rows) from one ``tolist``."""
    det_m, det_b, _, det_sigma = _held_dets(sigma, measured_mode)
    if measured_mode == 1:
        (m00, m01, c00, c01), (_, m11, c10, c11), (_, _, u00, u01), (_, _, u10, u11) = sigma.sigma.tolist()
    else:
        (u00, u01, _, _), (u10, u11, _, _), (c00, c01, m00, m01), (c10, c11, _, m11) = sigma.sigma.tolist()
    # r^T adj(B) s for rows r, s of C, with adj(B) = [[u11, -u01], [-u10, u00]]
    adj_01 = (c00 * u11 - c01 * u10) * c10 + (c01 * u00 - c00 * u01) * c11
    adj_10 = (c10 * u11 - c11 * u10) * c00 + (c11 * u00 - c10 * u01) * c01
    adj_11 = (c10 * u11 - c11 * u10) * c10 + (c11 * u00 - c10 * u01) * c11
    adj_00 = (c00 * u11 - c01 * u10) * c00 + (c01 * u00 - c00 * u01) * c01
    # Q = adj(schur) = [[s11, -s01], [-s10, s00]], symmetrized, with schur = det B M - C adj(B) C^T
    off = (det_b * m01 - adj_01) + (det_b * m01 - adj_10)
    numerator = (det_sigma + det_b / 4.0, det_b * m11 - adj_11, det_b * m00 - adj_00, -off)
    return (numerator, (det_m + 0.25, m11, m00, -2.0 * m01)), det_m


def _conditional_det(forms: tuple, x, y):
    """det(B - C^T (M + Gamma)^-1 C) as N / D of the :func:`_seed_forms` at the seed zeta = x + iy
    of the closed unit disk (floats, or arrays of seeds); on |zeta| = 1 the homodyne limit. The weights
    (1 - |zeta|^2, |1 + zeta|^2 / 2, |1 - zeta|^2 / 2, y) of (k, p, m, c) do not cancel where M or Q is
    ill-conditioned."""
    y2 = y * y
    w_k, w_p, w_m = 1.0 - x * x - y2, ((1.0 + x) ** 2 + y2) / 2.0, ((1.0 - x) ** 2 + y2) / 2.0
    (n_k, n_p, n_m, n_c), (d_k, d_p, d_m, d_c) = forms
    return (n_k * w_k + (n_p * w_p + n_m * w_m) + n_c * y) / (d_k * w_k + (d_p * w_p + d_m * w_m) + d_c * y)


def minimize_gaussian_measurement(sigma: CovarianceMatrix, measured_mode: int = 1) -> float:
    """Gaussian discord by direct minimization over seeded single-mode
    Gaussian measurements on the chosen mode.

    Minimizes the conditional determinant N / D over the seeds
    zeta = tanh(u/2) e^{2i phi} of the closed unit disk, its circle the
    homodyne limit, by Dinkelbach's iteration from zeta = 0
    (:func:`qcorr._newton.minimize_ratio`): each step moves to the closed-form
    minimum of N - f D over the disk at the current level f, and the
    levels fall to the global minimum (see the module docstring). The
    discord is S(M) - S(sigma) + S(E_min) at the smallest determinant E_min:
    the mutual information less the classical correlations, where S(B) cancels.
    Serves as the independent check of :func:`gaussian_discord`.

    Domain: a two-mode :class:`CovarianceMatrix` and measured mode 1 or 2; anything else raises ValidationError, which names the type of a state of another type.
    """
    forms, det_m = _seed_forms(sigma, measured_mode)
    (n_k, n_p, n_m, n_c), (d_k, d_p, d_m, d_c) = forms
    # each as (curvature, gradient at zeta = 0) of (curvature / 2) |zeta|^2 + gradient . zeta + const
    numerator, denominator = (n_p + n_m - 2.0 * n_k, n_p - n_m, n_c), (d_p + d_m - 2.0 * d_k, d_p - d_m, d_c)
    min_det = minimize(partial(_conditional_det, forms), numerator, denominator).fun

    nu_minus, nu_plus = symplectic_eigenvalues(sigma)
    total = mode_entropy(nu_minus) + mode_entropy(nu_plus)
    return max(mode_entropy(math.sqrt(max(det_m, 0.25))) - total + mode_entropy(math.sqrt(max(min_det, 0.25))), 0.0)


def random_covariance(seed: int) -> CovarianceMatrix:
    """Random physical two-mode covariance matrix.

    Conjugates a diagonal of symplectic eigenvalues (drawn uniformly
    from [1/2, 3], or exactly 1/2 with probability 0.2) by a random
    symplectic built from a Gaussian symmetric generator. Deterministic
    for a fixed seed.

    Domain: a non-negative Python or numpy integer seed, a bool included; anything else raises ValidationError naming the seed.
    """
    rng = np.random.default_rng(require_seed(seed))
    gen = rng.normal(0.0, 0.35, (4, 4))
    gen = (gen + gen.T) / 2.0
    s = _expm(symplectic_form(2) @ gen)
    nus = np.where(
        rng.random(2) < 0.2, VACUUM_VARIANCE, rng.uniform(VACUUM_VARIANCE, 3.0, 2)
    )
    return CovarianceMatrix(s @ np.diag(np.repeat(nus, 2)) @ s.T)

