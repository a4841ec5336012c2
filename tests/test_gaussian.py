import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcorr import _newton, gaussian
from qcorr import (
    CovarianceMatrix,
    QuadraticHamiltonian,
    ValidationError,
    direct_sum,
    gaussian_discord,
    gaussian_entropy,
    minimize_gaussian_measurement,
    mode_entropy,
    normal_mode_frequencies,
    quench_hamiltonian_matrix,
    random_covariance,
    symplectic_eigenvalues,
    symplectic_evolution,
    symplectic_form,
    symplectic_propagator,
    thermal_covariance,
    thermal_variance,
)
from qcorr.errors import PROPAGATOR_DET_TOL
from qcorr.gaussian import local_invariants

from . import gaussian_oracle
from .quench_oracle import quench_propagator_closed_form

# symmetric with eigenvalues -1.48 (twice) and 11.48 (twice), yet |Im eig(Omega sigma)| = (1, 1)
INDEFINITE = np.array([[4.0, 0.0, 6.4, 0.0], [0.0, 4.0, 0.0, -6.4], [6.4, 0.0, 6.0, 0.0], [0.0, -6.4, 0.0, 6.0]])

NU_THERMAL_UNIT = 1.0819767068693265  # (1/2) coth(1/2)
MODE_ENTROPY_UNIT = 1.0406518522564083  # f(nu) at beta = omega = 1


def quench_state(beta=1.0, omega=1.0, lam=1.0, t=1.0) -> CovarianceMatrix:
    one = thermal_covariance(beta, omega)
    ham = quench_hamiltonian_matrix(omega, lam)
    return symplectic_evolution(direct_sum(one, one), ham, t)


def rk4_covariance_oracle(sigma0: np.ndarray, gen: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Integrate d(sigma)/dt = gen sigma + sigma gen^T with classic RK4."""
    h = t / steps
    sigma = sigma0.copy()

    def rate(s):
        return gen @ s + s @ gen.T

    for _ in range(steps):
        k1 = rate(sigma)
        k2 = rate(sigma + 0.5 * h * k1)
        k3 = rate(sigma + 0.5 * h * k2)
        k4 = rate(sigma + h * k3)
        sigma = sigma + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return sigma


class TestConstruction:
    def test_asymmetric_rejected(self):
        mat = 0.6 * np.eye(4)
        mat[0, 1] = 1e-3
        with pytest.raises(ValidationError, match="symmetric"):
            CovarianceMatrix(mat)

    def test_uncertainty_bound_names_value(self):
        with pytest.raises(ValidationError, match=r"uncertainty.*0\.5"):
            CovarianceMatrix(0.4 * np.eye(4))

    def test_vacuum_accepted(self):
        CovarianceMatrix(0.5 * np.eye(4))

    @pytest.mark.parametrize("mat", [-np.eye(2), INDEFINITE])
    def test_not_positive_definite_rejected(self, mat):
        """|Im| of the eigenvalues of Omega sigma is the symplectic spectrum
        only for sigma > 0: -I reads as nu = (1,), and INDEFINITE, with
        eigenvalue -1.48 twice, as nu = (1, 1)."""
        with pytest.raises(ValidationError, match="not positive definite"):
            CovarianceMatrix(mat)

    def test_hamiltonian_symmetry_enforced(self):
        mat = np.eye(4)
        mat[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="symmetric"):
            QuadraticHamiltonian(mat)


class TestThermalCovariance:
    def test_zero_temperature_limit_is_vacuum(self):
        sigma = thermal_covariance(beta=200.0, omega=1.0)
        assert np.allclose(sigma.sigma, 0.5 * np.eye(2), atol=1e-12)

    def test_unit_parameters(self):
        assert thermal_variance(1.0, 1.0) == pytest.approx(NU_THERMAL_UNIT, abs=1e-12)
        # occupation cross-check: nu = n_bar + 1/2
        n_bar = 1.0 / (math.e - 1.0)
        assert thermal_variance(1.0, 1.0) == pytest.approx(n_bar + 0.5, abs=1e-12)

    def test_two_mode_product_is_isotropic(self):
        one = thermal_covariance(1.0, 1.0)
        two = direct_sum(one, one)
        assert np.allclose(two.sigma, NU_THERMAL_UNIT * np.eye(4), atol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            thermal_covariance(-1.0, 1.0)


class TestQuenchHamiltonian:
    def test_uncoupled_limit(self):
        ham = quench_hamiltonian_matrix(1.0, 0.0)
        assert np.allclose(ham.matrix, np.eye(4), atol=1e-15)

    def test_unit_coupling_blocks(self):
        ham = quench_hamiltonian_matrix(1.0, 1.0)
        x_block = ham.matrix[np.ix_([0, 2], [0, 2])]
        p_block = ham.matrix[np.ix_([1, 3], [1, 3])]
        assert np.allclose(x_block, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-15)
        assert np.allclose(p_block, np.eye(2), atol=1e-15)

    def test_normal_mode_frequencies_from_spectrum(self):
        omega, lam = 1.3, 0.8
        ham = quench_hamiltonian_matrix(omega, lam)
        x_block = ham.matrix[np.ix_([0, 2], [0, 2])] / (omega * 1.0)
        freqs = np.sort(omega * np.sqrt(np.linalg.eigvalsh(x_block)))
        w1, w2 = normal_mode_frequencies(omega, lam)
        assert freqs == pytest.approx([w1, w2], abs=1e-12)
        assert w2 == pytest.approx(math.sqrt(omega**2 + 2 * lam**2), abs=1e-15)


class TestSymplecticEvolution:
    def test_zero_time_is_identity(self):
        sigma = random_covariance(3)
        out = symplectic_evolution(sigma, quench_hamiltonian_matrix(1.0, 1.0), 0.0)
        assert np.allclose(out.sigma, sigma.sigma, atol=1e-14)

    def test_thermal_state_is_stationary_when_uncoupled(self):
        one = thermal_covariance(1.0, 1.0)
        sigma = direct_sum(one, one)
        ham = quench_hamiltonian_matrix(1.0, 0.0)
        for t in (0.3, 1.0, 7.7):
            out = symplectic_evolution(sigma, ham, t)
            assert np.allclose(out.sigma, sigma.sigma, atol=1e-12)

    def test_propagator_is_symplectic(self):
        omega_s = symplectic_form(2)
        for lam in (0.0, 0.5, 1.0, 2.0):
            s = symplectic_propagator(quench_hamiltonian_matrix(1.0, lam), 1.3)
            assert np.allclose(s.T @ omega_s @ s, omega_s, atol=1e-9)

    def test_matches_rk4_integrator(self):
        ham = quench_hamiltonian_matrix(1.0, 1.0)
        sigma0 = direct_sum(thermal_covariance(1.0, 1.0), thermal_covariance(1.0, 1.0))
        gen = symplectic_form(2) @ ham.matrix
        oracle = rk4_covariance_oracle(sigma0.sigma, gen, 1.0, steps=10**4)
        out = symplectic_evolution(sigma0, ham, 1.0)
        assert np.max(np.abs(out.sigma - oracle)) < 1e-8

    def test_matches_normal_mode_closed_form(self):
        for omega, lam, t in [(1.0, 1.0, 1.0), (1.3, 0.7, 2.1), (0.8, 0.0, 3.0), (1.0, 2.5, 0.4)]:
            ham = quench_hamiltonian_matrix(omega, lam)
            pade = symplectic_propagator(ham, t)
            closed = quench_propagator_closed_form(omega, lam, t)
            assert np.max(np.abs(pade - closed)) < 1e-10

    def test_spectrum_preserved(self):
        sigma = random_covariance(5)
        before = symplectic_eigenvalues(sigma)
        after = symplectic_eigenvalues(
            symplectic_evolution(sigma, quench_hamiltonian_matrix(1.0, 0.9), 2.0)
        )
        assert after == pytest.approx(before, abs=1e-9)
        det_before = np.linalg.det(sigma.sigma)
        det_after = np.linalg.det(
            symplectic_evolution(sigma, quench_hamiltonian_matrix(1.0, 0.9), 2.0).sigma
        )
        assert det_after == pytest.approx(det_before, abs=1e-9)

    def test_uncertainty_bound_maintained_along_evolution(self):
        for beta in (0.2, 1.0, 5.0):
            for lam in (0.3, 1.0, 3.0):
                for t in np.linspace(0.0, 4.0, 9):
                    nu_min = symplectic_eigenvalues(quench_state(beta=beta, lam=lam, t=t))[0]
                    assert nu_min >= 0.5 - 1e-9

    def test_exponent_sign_does_not_change_invariants(self):
        # evolving forward or backward in time gives the same spectra and discord
        forward = quench_state(t=1.0)
        backward = quench_state(t=-1.0)
        assert symplectic_eigenvalues(forward) == pytest.approx(
            symplectic_eigenvalues(backward), abs=1e-10
        )
        assert gaussian_entropy(forward) == pytest.approx(gaussian_entropy(backward), abs=1e-10)
        assert gaussian_discord(forward) == pytest.approx(gaussian_discord(backward), abs=1e-10)


def _random_covariance_generator(seed: int) -> np.ndarray:
    """Omega G with G drawn as :func:`random_covariance` draws it."""
    gen = np.random.default_rng(seed).normal(0.0, 0.35, (4, 4))
    return symplectic_form(2) @ ((gen + gen.T) / 2.0)


# a free particle, H = p^2 / 2 per mode: Omega G t is nilpotent and its exp is I + Omega G t
FREE_PARTICLE = symplectic_form(2) @ np.diag([0.0, 1.0, 0.0, 1.0]) * 2.5

EXPM_GENERATORS = (
    [pytest.param(_random_covariance_generator(seed), id=f"random-{seed}") for seed in range(200)]
    + [
        pytest.param(symplectic_form(2) @ quench_hamiltonian_matrix(1.0, lam0).matrix * t, id=f"quench-{lam0}-{t}")
        for lam0 in (0.0, 0.1, 1.0, 3.0, 30.0)
        for t in (0.01, 0.7, 3.0, 20.0)
    ]
    + [
        pytest.param(FREE_PARTICLE, id="free-particle"),
        pytest.param(np.zeros((4, 4)), id="zero"),
    ]
)


class TestPadeExpm:
    UNIT_ROUNDOFF = 2.0**-53

    @staticmethod
    def _relative_error(x: np.ndarray, exact) -> float:
        """Relative 1-norm error of ``x`` against a 40-digit reference."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            return float(mpmath.mnorm(mpmath.matrix(x.tolist()) - exact, 1) / mpmath.mnorm(exact, 1))

    @pytest.mark.parametrize("gen", EXPM_GENERATORS)
    def test_matches_mpmath(self, gen):
        """Within 1e-13 of 40-digit mpmath, and no worse than scipy's expm
        beyond two unit roundoffs, the size of the rounding of the result
        itself in this norm."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath.expm(mpmath.matrix(gen.tolist()))
        err = self._relative_error(gaussian._expm(gen), exact)
        assert err <= 1e-13
        assert err <= self._relative_error(expm(gen), exact) + 2 * self.UNIT_ROUNDOFF

    def test_det_over_a_dense_t_sweep_within_the_tolerance_margin(self):
        """|det S - 1| over 2001 times t in [0, 25] at lambda0 = 30, past the
        listed t = 20 and the interval [18, 22] where the error against mpmath
        peaks (3.6e-13), stays 100 times below PROPAGATOR_DET_TOL, beyond which
        symplectic_propagator rejects t. Measured: 3.5e-13 at t = 21.36."""
        ham = quench_hamiltonian_matrix(1.0, 30.0)
        times = np.linspace(0.0, 25.0, 2001).tolist()
        worst = max(abs(float(np.linalg.det(symplectic_propagator(ham, t))) - 1.0) for t in times)
        assert worst <= PROPAGATOR_DET_TOL / 100

    def test_free_particle_is_exact(self):
        assert np.array_equal(gaussian._expm(FREE_PARTICLE), np.eye(4) + FREE_PARTICLE)
        assert np.array_equal(gaussian._expm(np.zeros((4, 4))), np.eye(4))


class TestSymplecticEigenvalues:
    def test_two_mode_vacuum(self):
        assert symplectic_eigenvalues(CovarianceMatrix(0.5 * np.eye(4))) == pytest.approx(
            (0.5, 0.5), abs=1e-12
        )

    def test_isotropic_thermal(self):
        nu = thermal_variance(1.0, 1.0)
        sigma = CovarianceMatrix(nu * np.eye(4))
        assert symplectic_eigenvalues(sigma) == pytest.approx((nu, nu), abs=1e-12)

    def test_one_mode_gives_a_one_tuple(self):
        assert symplectic_eigenvalues(thermal_covariance(1.0, 1.0)) == pytest.approx(
            (NU_THERMAL_UNIT,), abs=1e-12
        )

    def test_three_modes_give_the_whole_spectrum(self):
        sigma = CovarianceMatrix(np.diag([0.5, 0.5, 1.0, 1.0, 2.0, 2.0]))
        assert symplectic_eigenvalues(sigma) == pytest.approx((0.5, 1.0, 2.0), abs=1e-12)

    def test_determinant_identity_on_quench_state(self):
        sigma = quench_state()
        nu_minus, nu_plus = symplectic_eigenvalues(sigma)
        assert nu_minus**2 * nu_plus**2 == pytest.approx(
            np.linalg.det(sigma.sigma), abs=1e-9
        )


class TestGaussianEntropy:
    def test_vacuum_is_zero(self):
        assert gaussian_entropy(CovarianceMatrix(0.5 * np.eye(2))) == 0.0
        assert mode_entropy(0.5) == 0.0

    def test_single_thermal_mode(self):
        assert gaussian_entropy(thermal_covariance(1.0, 1.0)) == pytest.approx(
            MODE_ENTROPY_UNIT, abs=1e-12
        )

    def test_three_modes_sum_over_the_whole_spectrum(self):
        sigma = CovarianceMatrix(np.diag([0.5, 0.5, 1.0, 1.0, 2.0, 2.0]))
        expected = sum(
            (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5) for nu in (1.0, 2.0)
        )
        assert expected == pytest.approx(2.6373, abs=1e-4)
        assert gaussian_entropy(sigma) == pytest.approx(expected, abs=1e-12)

    def test_fock_series_cross_check(self):
        beta = 1.3
        occupations = np.arange(400)
        weights = (1.0 - math.exp(-beta)) * np.exp(-beta * occupations)
        series = float(-np.sum(weights * np.log(weights)))
        assert gaussian_entropy(thermal_covariance(beta, 1.0)) == pytest.approx(
            series, abs=1e-10
        )

    def test_invariant_under_evolution(self):
        sigma = quench_state(t=0.0)
        evolved = quench_state(t=2.7)
        assert gaussian_entropy(evolved) == pytest.approx(gaussian_entropy(sigma), abs=1e-9)


class TestGaussianDiscord:
    def test_product_state_is_zero(self):
        sigma = direct_sum(thermal_covariance(1.0, 1.0), thermal_covariance(0.5, 2.0))
        assert gaussian_discord(sigma) == pytest.approx(0.0, abs=1e-12)
        assert minimize_gaussian_measurement(sigma) == pytest.approx(0.0, abs=1e-9)

    def test_uncoupled_quench_stays_zero(self):
        assert gaussian_discord(quench_state(lam=0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_quench_state_positive_and_matches_oracle(self):
        sigma = quench_state()
        closed = gaussian_discord(sigma)
        assert closed > 1e-3
        assert closed == pytest.approx(minimize_gaussian_measurement(sigma), abs=1e-6)

    def test_closed_form_matches_oracle_on_random_states(self):
        for seed in range(60):
            sigma = random_covariance(seed)
            for mode in (1, 2):
                closed = gaussian_discord(sigma, mode)
                searched = minimize_gaussian_measurement(sigma, mode)
                assert closed == pytest.approx(searched, abs=1e-6)

    def test_symmetric_state_mode_independent(self):
        sigma = quench_state()
        assert minimize_gaussian_measurement(sigma, 1) == pytest.approx(
            minimize_gaussian_measurement(sigma, 2), abs=1e-8
        )
        assert gaussian_discord(sigma, 1) == pytest.approx(gaussian_discord(sigma, 2), abs=1e-10)

    def test_discord_decays_with_temperature(self):
        temps = np.linspace(0.1, 5.0, 25)
        values = [gaussian_discord(quench_state(beta=1.0 / t)) for t in temps]
        peak = int(np.argmax(values))
        for earlier, later in zip(values[peak:], values[peak + 1 :]):
            assert later <= earlier + 1e-12
        assert values[-1] < 0.5 * max(values)
        assert gaussian_discord(quench_state(beta=0.02)) < 0.05 * max(values)

    def test_unphysical_input_rejected(self):
        sigma = CovarianceMatrix(0.5 * np.eye(4))
        shrunk = sigma.sigma.copy()
        with pytest.raises(ValidationError):
            CovarianceMatrix(shrunk * 0.8)


def tmsv(r: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with squeezing r."""
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    z = np.diag([1.0, -1.0])
    return CovarianceMatrix(np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]]))


def reference_conditional(sigma: np.ndarray, mode: int, u: float, phi: float) -> np.ndarray:
    """Conditional covariance of the unmeasured mode after the seeded
    measurement R(phi) diag(e^u / 2, e^-u / 2) R(phi)^T, by 2x2 matrix
    products: the measured block is rotated, the seed added and the sum
    inverted analytically."""
    meas, unmeas, cross = gaussian._split_blocks(sigma, mode)
    s = math.exp(min(max(u, -34.5), 34.5))
    c, sn = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -sn], [sn, c]])
    m_rot = rot.T @ meas @ rot
    cross_rot = rot.T @ cross
    m00 = m_rot[0, 0] + s / 2.0
    m11 = m_rot[1, 1] + 1.0 / (2.0 * s)
    m01 = m_rot[0, 1]
    inv = np.array([[m11, -m01], [-m01, m00]]) / (m00 * m11 - m01 * m01)
    return unmeas - cross_rot.T @ inv @ cross_rot


def reference_homodyne_conditional(sigma: np.ndarray, mode: int, phi: float) -> np.ndarray:
    """Limit u -> infinity of :func:`reference_conditional`: homodyne
    detection of the quadrature along w = (-sin phi, cos phi)."""
    meas, unmeas, cross = gaussian._split_blocks(sigma, mode)
    w = np.array([-math.sin(phi), math.cos(phi)])
    x = cross.T @ w
    return unmeas - np.outer(x, x) / float(w @ meas @ w)


ORACLE_STATES = [random_covariance(seed) for seed in range(10)] + [tmsv(r) for r in (0.0, 1.0, 3.9)]
EXTREME_U = [-34.5, -20.0, 0.0, 20.0, 34.5]
PHIS = np.linspace(0.0, math.pi, 12, endpoint=False) + 0.1


def disk_point(u: float, phi: float) -> tuple:
    """The seed (u, phi) on the Poincare disk, zeta = tanh(u/2) e^{2i phi}."""
    r = math.tanh(u / 2.0)
    return r * math.cos(2.0 * phi), r * math.sin(2.0 * phi)


class TestOracleObjectives:
    """The conditional determinant that :func:`minimize_gaussian_measurement`
    minimizes, on floats as the search evaluates it and on arrays of seeds,
    against the matrix-product reference. The determinant is held to 1e-13
    relative to ||sigma||^2, the size of the terms that cancel in it."""

    @pytest.mark.parametrize("index", range(len(ORACLE_STATES)))
    @pytest.mark.parametrize("mode", [1, 2])
    def test_finite_squeezing(self, index, mode):
        sigma = ORACLE_STATES[index].sigma
        tol = 1e-13 * (1.0 + np.linalg.norm(sigma, 2) ** 2)
        forms = gaussian._seed_forms(ORACLE_STATES[index], mode)[0]
        for u in EXTREME_U:
            x, y = np.array([disk_point(u, phi) for phi in PHIS]).T
            grid = gaussian._conditional_det(forms, x, y)
            for phi, point, from_grid in zip(PHIS, zip(x.tolist(), y.tolist()), grid):
                expected = float(np.linalg.det(reference_conditional(sigma, mode, u, phi)))
                assert gaussian._conditional_det(forms, *point) == pytest.approx(expected, rel=0, abs=tol)
                assert from_grid == pytest.approx(expected, rel=0, abs=tol)

    @pytest.mark.parametrize("index", range(len(ORACLE_STATES)))
    @pytest.mark.parametrize("mode", [1, 2])
    def test_homodyne(self, index, mode):
        """On the circle zeta = e^{2i phi}, the homodyne limit: on floats
        and on arrays."""
        sigma = ORACLE_STATES[index].sigma
        tol = 1e-13 * (1.0 + np.linalg.norm(sigma, 2) ** 2)
        forms = gaussian._seed_forms(ORACLE_STATES[index], mode)[0]
        grid = gaussian._conditional_det(forms, np.cos(2.0 * PHIS), np.sin(2.0 * PHIS))
        for phi, from_grid in zip(PHIS.tolist(), grid):
            expected = float(np.linalg.det(reference_homodyne_conditional(sigma, mode, phi)))
            assert from_grid == pytest.approx(expected, rel=0, abs=tol)
            on_circle = gaussian._conditional_det(forms, math.cos(2.0 * phi), math.sin(2.0 * phi))
            assert on_circle == pytest.approx(expected, rel=0, abs=tol)

    @pytest.mark.parametrize("index", range(len(ORACLE_STATES)))
    @pytest.mark.parametrize("mode", [1, 2])
    def test_expansions_against_the_reference(self, index, mode):
        """The (curvature, gradient at zeta = 0) of N and D that the oracle
        passes to its search, with their values k + (p + m) / 2 at zeta = 0
        from the forms, make N / D as (curv / 2) |zeta|^2 + g.zeta + const,
        which matches the matrix-product reference, inside the disk and on
        its circle."""
        sigma = ORACLE_STATES[index].sigma
        tol = 1e-13 * (1.0 + np.linalg.norm(sigma, 2) ** 2)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gaussian, "minimize", lambda ratio, *expansions: calls.append(expansions) or _newton.Result((0.0, 0.0), 1.0, 1, True))
            minimize_gaussian_measurement(ORACLE_STATES[index], mode)
        ((numerator, denominator),) = calls
        forms = gaussian._seed_forms(ORACLE_STATES[index], mode)[0]
        (n0, d0) = (k + (p + m) / 2.0 for k, p, m, _ in forms)

        def expanded(x, y):
            (n_curv, n1, n2), (d_curv, d1, d2) = numerator, denominator
            r2 = x * x + y * y
            return (n_curv / 2.0 * r2 + n1 * x + n2 * y + n0) / (d_curv / 2.0 * r2 + d1 * x + d2 * y + d0)

        for u in (-3.0, 0.0, 1.0, 4.0):
            for phi in PHIS:
                expected = float(np.linalg.det(reference_conditional(sigma, mode, u, phi)))
                assert expanded(*disk_point(u, phi)) == pytest.approx(expected, rel=0, abs=tol)
        for phi in PHIS:
            expected = float(np.linalg.det(reference_homodyne_conditional(sigma, mode, phi)))
            assert expanded(math.cos(2.0 * phi), math.sin(2.0 * phi)) == pytest.approx(expected, rel=0, abs=tol)

    def test_oracle_on_locally_squeezed_states(self):
        """Random states squeezed locally along the quadrature axes by up to
        e^2, so that M and Q reach condition numbers near e^8: the oracle
        keeps the closed form's digits, because the quadratics are summed
        from terms that do not cancel there."""
        rng = np.random.default_rng(2010)
        worst = 0.0
        for seed in range(300):
            r1, r2 = rng.uniform(-2.0, 2.0, 2)
            squeeze = np.diag(np.exp([r1, -r1, r2, -r2]))
            sigma = CovarianceMatrix(squeeze @ random_covariance(seed).sigma @ squeeze)
            for mode in (1, 2):
                worst = max(worst, abs(minimize_gaussian_measurement(sigma, mode) - gaussian_discord(sigma, mode)))
        assert worst < 5e-14

    def test_oracle_matches_closed_form_tightly(self):
        for seed in range(100, 120):
            sigma = random_covariance(seed)
            for mode in (1, 2):
                assert minimize_gaussian_measurement(sigma, mode) == pytest.approx(
                    gaussian_discord(sigma, mode), rel=0, abs=1e-9
                )


AGREEMENT_STATES = (
    [random_covariance(seed) for seed in range(200, 240)]
    + [
        quench_state(beta=1.0 / temp, lam=lam, t=t)
        for temp, lam, t in zip(np.linspace(0.1, 5.0, 12), np.linspace(0.5, 3.0, 12), np.linspace(3.0, 0.2, 12))
    ]
    + [tmsv(r) for r in np.linspace(0.0, 4.0, 12)]
)


def recorded_searches(sigma: CovarianceMatrix, mode: int) -> list:
    """Each call that ``minimize_gaussian_measurement(sigma, mode)`` makes of
    the bound ``gaussian.minimize``, as ``(result, evaluations)`` with the
    evaluations ``(|zeta|, N / D)`` in the order made."""
    calls, search = [], gaussian.minimize

    def recording(ratio, numerator, denominator):
        evaluations = []

        def traced(x, y):
            evaluations.append((math.hypot(x, y), ratio(x, y)))
            return evaluations[-1][1]

        calls.append((search(traced, numerator, denominator), evaluations))
        return calls[-1][0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gaussian, "minimize", recording)
        minimize_gaussian_measurement(sigma, mode)
    return calls


# a dense polar grid of the closed disk: 60 rings at |zeta| = tanh(u/2), u in [0, ln 1e8]
# (the last 2e-8 inside the circle), the circle itself, and 256 angles on each
DENSE_R = np.append(np.tanh(np.linspace(0.0, math.log(1e4), 60)), 1.0)
DENSE_ANGLE = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
DENSE_X = np.outer(DENSE_R, np.cos(DENSE_ANGLE)).ravel()
DENSE_Y = np.outer(DENSE_R, np.sin(DENSE_ANGLE)).ravel()


def assert_at_most_the_dense_grid(sigma: CovarianceMatrix, mode: int):
    """The oracle makes one search, and its minimum is at most the least
    conditional determinant of the dense grid, within 20 rounding units
    relative to it on the scale max(1, max |sigma_ij|)^2 that the rounding
    of N / D grows with; its run converges within ``MAXITER`` steps, each
    level below the one before, and evaluates no seed outside the closed
    disk."""
    ((result, evaluations),) = recorded_searches(sigma, mode)
    forms = gaussian._seed_forms(sigma, mode)[0]
    grid_min = float(gaussian._conditional_det(forms, DENSE_X, DENSE_Y).min())
    scale = max(1.0, float(abs(sigma.sigma).max())) ** 2
    assert result.fun - grid_min <= 20 * sys.float_info.epsilon * scale * grid_min
    levels = [value for _, value in evaluations]
    assert result.success and result.nfev == len(levels) <= _newton.MAXITER + 1
    assert all(later < earlier for earlier, later in zip(levels[:-2], levels[1:-1]))
    assert levels[-1] >= levels[-2] and result.fun == levels[-2]
    assert max(radius for radius, _ in evaluations) <= 1.0 + 1e-15
    return result


class TestDinkelbach:
    """The oracle's search (:func:`qcorr._newton.minimize_ratio`): the
    closed-form minimum of N - f D on the disk, and the iteration's levels,
    on quadratics with known minima and on the conditional determinant
    against a dense grid."""

    @pytest.mark.parametrize(
        "curv, g1, g2",
        [(3.0, 1.0, -0.5), (1.0, 2.0, 1.0), (0.5, -0.3, 0.4), (0.0, 0.3, -0.4), (-2.0, 0.5, 0.1),
         (-1e-3, 0.0, 2.0), (2.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-1.5, 0.0, 0.0)],
        ids=["inside", "outside", "on_the_circle", "flat", "concave", "barely_concave", "g0_convex", "g0_flat", "g0_concave"],
    )
    def test_step_is_the_least_point_of_a_dense_polar_grid(self, curv, g1, g2):
        """(curv / 2) |z|^2 + g.z at the step is the least of its values on a
        polar grid of the closed disk, circle included, and the step lies in
        the disk: inside where curv > |g|, on the circle elsewhere."""
        x, y = _newton._disk_minimum(curv, g1, g2)
        radii = np.linspace(0.0, 1.0, 401)[:, None]
        angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        grid = curv / 2.0 * radii**2 + radii * (g1 * np.cos(angles) + g2 * np.sin(angles))
        value = curv / 2.0 * (x * x + y * y) + g1 * x + g2 * y
        assert value <= grid.min() + 1e-15
        norm = math.hypot(g1, g2)
        assert math.hypot(x, y) == pytest.approx(norm / curv if curv > norm else 1.0, rel=0, abs=1e-15)

    @pytest.mark.parametrize("centre", [(0.3, -0.2), (2.0, 1.0), (-0.6, 0.8)])
    def test_a_constant_denominator_reaches_the_nearest_point_in_one_step(self, centre):
        """N / D = |z - c|^2 with D = 1 has its minimum on the closed disk at
        c, or at c / |c| when c is outside; the first step lands there, and
        the second finds no lower level."""
        cx, cy = centre
        result = _newton.minimize_ratio(lambda x, y: (x - cx) ** 2 + (y - cy) ** 2, (2.0, -2.0 * cx, -2.0 * cy), (0.0, 0.0, 0.0))
        assert result.success and result.nfev == 3
        assert result.x == pytest.approx(tuple(np.array(centre) / max(1.0, math.hypot(cx, cy))), rel=0, abs=1e-15)

    def test_stops_unconverged_at_the_iteration_cap(self, monkeypatch):
        """A search that needs more than one step, capped at one, returns its
        one step's level, unconverged, after two evaluations."""
        sigma = random_covariance(3)
        (full, _), = recorded_searches(sigma, 1)
        assert full.nfev > 3
        monkeypatch.setattr(_newton, "MAXITER", 1)
        (capped, evaluations), = recorded_searches(sigma, 1)
        assert not capped.success and capped.nfev == len(evaluations) == 2
        assert capped.fun == evaluations[1][1] > full.fun

    def test_at_most_a_dense_grid_on_two_thousand_pairs(self):
        """On 2102 (state, measured mode) pairs of random states, post-quench
        thermal states and two-mode squeezed vacua up to r = 4, the search
        is at most the dense grid's minimum within rounding (see
        :func:`assert_at_most_the_dense_grid`); its minimum lies on the
        circle, the homodyne limit, for some pairs and inside the disk for
        others."""
        states = [random_covariance(seed) for seed in range(800)]
        states += [
            quench_state(beta=1.0 / temp, lam=lam, t=t)
            for temp in np.linspace(0.1, 5.0, 10)
            for lam in np.linspace(0.5, 3.0, 5)
            for t in np.linspace(0.2, 3.0, 3)
        ]
        states += [tmsv(r) for r in np.linspace(0.0, 4.0, 101)]
        radii = [math.hypot(*assert_at_most_the_dense_grid(sigma, mode).x) for sigma in states for mode in (1, 2)]
        assert len(radii) == 2102
        assert any(abs(r - 1.0) <= 1e-12 for r in radii) and any(r < 1.0 - 1e-12 for r in radii)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_random_states_at_most_a_dense_grid_and_at_the_closed_form(self, seed, mode):
        sigma = random_covariance(seed)
        assert_at_most_the_dense_grid(sigma, mode)
        assert minimize_gaussian_measurement(sigma, mode) == pytest.approx(gaussian_discord(sigma, mode), rel=0, abs=1e-12)


class TestAgainstOracle:
    """Dinkelbach's iteration on the Poincare disk against the 24 x 16 grid
    plus Nelder-Mead search that Newton on the disk replaced before it
    (:mod:`tests.gaussian_oracle`), on 128 (state, measured mode) pairs:
    random states, post-quench thermal states and two-mode squeezed vacua
    up to r = 4."""

    def test_matches_the_grid_and_nelder_mead_search(self):
        for sigma in AGREEMENT_STATES:
            for mode in (1, 2):
                assert minimize_gaussian_measurement(sigma, mode) == pytest.approx(
                    gaussian_oracle.minimize_gaussian_measurement(sigma, mode), rel=0, abs=1e-12
                )


ROUTE_STATES = (
    [random_covariance(seed) for seed in range(300)]
    + [
        quench_state(beta=1.0 / temp, lam=lam, t=t)
        for temp in (0.1, 0.5, 2.0, 5.0)
        for lam in (0.5, 3.0)
        for t in (0.2, 1.7)
    ]
    + [tmsv(r) for r in (0.3, 1.0, 2.0)]
    + [
        direct_sum(thermal_covariance(math.inf, 1.0), other)
        for other in (thermal_covariance(0.5, 1.0), CovarianceMatrix(np.diag([2.0, 0.125])))
    ]
)


class TestHeldDeterminants:
    """A two-mode matrix holds det A, det B, det C and det sigma of its
    blocks ((A, C), (C^T, B)); the closed form and the oracle read them."""

    def test_bit_for_bit_those_of_the_blocks(self):
        for sigma in ROUTE_STATES:
            s = sigma.sigma
            det_a, det_b, det_c, det_ct, det_sigma = (
                float(np.linalg.det(block)) for block in (s[:2, :2], s[2:, 2:], s[:2, 2:], s[2:, :2], s)
            )
            block_dets, held_sigma = sigma._dets
            assert block_dets.tolist() == [[det_a, det_c], [det_ct, det_b]] and held_sigma == det_sigma
            assert local_invariants(sigma, 1) == (4.0 * det_b, 4.0 * det_a, 4.0 * det_c, 16.0 * det_sigma)
            assert local_invariants(sigma, 2) == (4.0 * det_a, 4.0 * det_b, 4.0 * det_ct, 16.0 * det_sigma)
            assert gaussian._seed_forms(sigma, 1)[1] == det_a and gaussian._seed_forms(sigma, 2)[1] == det_b
