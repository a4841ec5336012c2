import math

import numpy as np
import pytest

from qcorr import gaussian
from qcorr import (
    CovarianceMatrix,
    QuadraticHamiltonian,
    ValidationError,
    covariance_from_json,
    covariance_to_json,
    direct_sum,
    gaussian_discord,
    gaussian_entropy,
    minimize_gaussian_measurement,
    mode_entropy,
    normal_mode_frequencies,
    quench_hamiltonian_matrix,
    quench_propagator_closed_form,
    random_covariance,
    symplectic_eigenvalues,
    symplectic_evolution,
    symplectic_form,
    symplectic_propagator,
    thermal_covariance,
    thermal_variance,
)

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

    def test_refined_search_never_above_grid(self):
        from qcorr.gaussian import _conditional_entropy_factory, _LOG_S_RANGE

        sigma = random_covariance(11)
        finite, _ = _conditional_entropy_factory(sigma.sigma, 1)
        grid_best = min(
            finite(u, phi)
            for u in np.linspace(_LOG_S_RANGE[0], _LOG_S_RANGE[1], 24)
            for phi in np.linspace(0.0, math.pi, 16, endpoint=False)
        )
        searched = minimize_gaussian_measurement(sigma, 1)
        nu_minus, nu_plus = symplectic_eigenvalues(sigma)
        meas = sigma.sigma[:2, :2]
        unmeas = sigma.sigma[2:, 2:]
        info = (
            mode_entropy(math.sqrt(np.linalg.det(meas)))
            + mode_entropy(math.sqrt(np.linalg.det(unmeas)))
            - mode_entropy(nu_minus)
            - mode_entropy(nu_plus)
        )
        classical_from_grid = mode_entropy(math.sqrt(np.linalg.det(unmeas))) - grid_best
        assert searched <= info - classical_from_grid + 1e-12

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
    """Infinite-squeezing limit of :func:`reference_conditional`."""
    meas, unmeas, cross = gaussian._split_blocks(sigma, mode)
    v = np.array([math.cos(phi), math.sin(phi)])
    w = cross.T @ v
    return unmeas - np.outer(w, w) / float(v @ meas @ v)


def reference_entropy(conditional: np.ndarray) -> float:
    return mode_entropy(math.sqrt(max(float(np.linalg.det(conditional)), 0.25)))


ORACLE_STATES = [random_covariance(seed) for seed in range(10)] + [tmsv(r) for r in (0.0, 1.0, 3.9)]
EXTREME_U = [-34.5, -20.0, 0.0, 20.0, 34.5]
PHIS = np.linspace(0.0, math.pi, 12, endpoint=False) + 0.1


class TestOracleObjectives:
    """The scalar objectives and the array grid kernel of
    :func:`minimize_gaussian_measurement` against the matrix-product
    reference. The determinant is held to 1e-13 relative to ||sigma||^2,
    the size of the terms that cancel in it; the entropy to 30 times
    that, since f(sqrt(det)) has slope at most ln(1e12) < 30 in det above
    the support cutoff."""

    @pytest.mark.parametrize("index", range(len(ORACLE_STATES)))
    @pytest.mark.parametrize("mode", [1, 2])
    def test_finite_squeezing(self, index, mode):
        sigma = ORACLE_STATES[index].sigma
        tol = 1e-13 * (1.0 + np.linalg.norm(sigma, 2) ** 2)
        entries = gaussian._block_entries(sigma, mode)
        finite, _ = gaussian._conditional_entropy_factory(sigma, mode)
        for u in EXTREME_U:
            grid = gaussian._finite_conditional_det(entries, math.exp(u), np.cos(PHIS), np.sin(PHIS))
            for phi, from_grid in zip(PHIS, grid):
                conditional = reference_conditional(sigma, mode, u, phi)
                expected = float(np.linalg.det(conditional))
                scalar = gaussian._finite_conditional_det(entries, math.exp(u), math.cos(phi), math.sin(phi))
                assert scalar == pytest.approx(expected, rel=0, abs=tol)
                assert from_grid == pytest.approx(expected, rel=0, abs=tol)
                assert finite(u, phi) == pytest.approx(reference_entropy(conditional), rel=0, abs=30 * tol)

    @pytest.mark.parametrize("index", range(len(ORACLE_STATES)))
    @pytest.mark.parametrize("mode", [1, 2])
    def test_homodyne(self, index, mode):
        sigma = ORACLE_STATES[index].sigma
        tol = 1e-13 * (1.0 + np.linalg.norm(sigma, 2) ** 2)
        entries = gaussian._block_entries(sigma, mode)
        _, homodyne = gaussian._conditional_entropy_factory(sigma, mode)
        grid = gaussian._homodyne_conditional_det(entries, np.cos(PHIS), np.sin(PHIS))
        for phi, from_grid in zip(PHIS, grid):
            conditional = reference_homodyne_conditional(sigma, mode, phi)
            expected = float(np.linalg.det(conditional))
            scalar = gaussian._homodyne_conditional_det(entries, math.cos(phi), math.sin(phi))
            assert scalar == pytest.approx(expected, rel=0, abs=tol)
            assert from_grid == pytest.approx(expected, rel=0, abs=tol)
            assert homodyne(phi) == pytest.approx(reference_entropy(conditional), rel=0, abs=30 * tol)

    def test_oracle_matches_closed_form_tightly(self):
        for seed in range(100, 120):
            sigma = random_covariance(seed)
            for mode in (1, 2):
                assert minimize_gaussian_measurement(sigma, mode) == pytest.approx(
                    gaussian_discord(sigma, mode), rel=0, abs=1e-9
                )


class TestSerialization:
    def test_round_trip_bit_exact(self):
        sigma = random_covariance(2)
        recovered = covariance_from_json(covariance_to_json(sigma))
        assert np.array_equal(recovered.sigma, sigma.sigma)

    @pytest.mark.parametrize(
        "text", ["[[0.5, 0], [0.5]]", '[["half", 0], [0, 0.5]]', '{"dims": [2, 1]}', "[[0.5, 0]"]
    )
    def test_malformed_file_rejected(self, text):
        with pytest.raises(ValidationError, match="covariance matrix must be a JSON array of rows"):
            covariance_from_json(text)

    def test_loading_enforces_uncertainty_bound(self):
        text = covariance_to_json(CovarianceMatrix(0.5 * np.eye(4))).replace("0.5", "0.4")
        with pytest.raises(ValidationError, match="uncertainty"):
            covariance_from_json(text)
