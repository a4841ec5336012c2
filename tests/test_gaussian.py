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

from . import gaussian_oracle

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
        sigma = random_covariance(11)
        forms = gaussian._seed_forms(sigma.sigma, 1)[0]
        grid_best = float(gaussian._conditional_det(forms, gaussian._GRID_X, gaussian._GRID_Y).min())
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
        classical_from_grid = mode_entropy(math.sqrt(np.linalg.det(unmeas))) - mode_entropy(math.sqrt(grid_best))
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


def central_differences(fun, x, step):
    """Gradient and Hessian (h11, h12, h22) of the objective ``fun`` at x
    by central differences of its value and of its gradient."""
    def shifted(k, sign):
        y = list(x)
        y[k] += sign * step
        return fun(tuple(y))

    pairs = [(shifted(k, 1.0), shifted(k, -1.0)) for k in range(len(x))]
    grad = [(up[0] - down[0]) / (2.0 * step) for up, down in pairs]
    rows = [[(up[1][j] - down[1][j]) / (2.0 * step) for j in range(len(x))] for up, down in pairs]
    return grad, rows


class TestOracleObjectives:
    """The conditional determinant that :func:`minimize_gaussian_measurement`
    minimizes, as a scalar objective with derivatives and as the array
    grid kernel, against the matrix-product reference. The determinant is
    held to 1e-13 relative to ||sigma||^2, the size of the terms that
    cancel in it."""

    @pytest.mark.parametrize("index", range(len(ORACLE_STATES)))
    @pytest.mark.parametrize("mode", [1, 2])
    def test_finite_squeezing(self, index, mode):
        sigma = ORACLE_STATES[index].sigma
        tol = 1e-13 * (1.0 + np.linalg.norm(sigma, 2) ** 2)
        forms = gaussian._seed_forms(sigma, mode)[0]
        objective = gaussian._finite_objective(forms)
        for u in EXTREME_U:
            x, y = np.array([disk_point(u, phi) for phi in PHIS]).T
            grid = gaussian._conditional_det(forms, x, y)
            for phi, point, from_grid in zip(PHIS, zip(x, y), grid):
                expected = float(np.linalg.det(reference_conditional(sigma, mode, u, phi)))
                assert objective(point)[0] == pytest.approx(expected, rel=0, abs=tol)
                assert from_grid == pytest.approx(expected, rel=0, abs=tol)

    @pytest.mark.parametrize("index", range(len(ORACLE_STATES)))
    @pytest.mark.parametrize("mode", [1, 2])
    def test_homodyne(self, index, mode):
        """On the circle zeta = e^{2i phi}: the homodyne objective, the disk
        objective and the array kernel."""
        sigma = ORACLE_STATES[index].sigma
        tol = 1e-13 * (1.0 + np.linalg.norm(sigma, 2) ** 2)
        forms = gaussian._seed_forms(sigma, mode)[0]
        objective = gaussian._homodyne_objective(forms)
        finite = gaussian._finite_objective(forms)
        grid = gaussian._conditional_det(forms, np.cos(2.0 * PHIS), np.sin(2.0 * PHIS))
        for phi, from_grid in zip(PHIS, grid):
            expected = float(np.linalg.det(reference_homodyne_conditional(sigma, mode, phi)))
            assert objective((phi,))[0] == pytest.approx(expected, rel=0, abs=tol)
            assert from_grid == pytest.approx(expected, rel=0, abs=tol)
            on_circle = finite((math.cos(2.0 * phi), math.sin(2.0 * phi)))[0]
            assert on_circle == pytest.approx(expected, rel=0, abs=tol)

    @pytest.mark.parametrize("index", range(len(ORACLE_STATES)))
    @pytest.mark.parametrize("mode", [1, 2])
    def test_derivatives_against_central_differences(self, index, mode):
        """The closed-form gradient and Hessian in (x, y), also at
        |zeta| = 1 - 1e-6, and in phi on the homodyne line, to 1e-7 of the
        scale the differences resolve."""
        forms = gaussian._seed_forms(ORACLE_STATES[index].sigma, mode)[0]
        finite = gaussian._finite_objective(forms)
        homodyne = gaussian._homodyne_objective(forms)
        edge = 2.0 * math.atanh(1.0 - 1e-6)
        points = [(disk_point(u, phi), finite) for u in (-6.0, -1.0, 0.0, 0.7, 3.0, 8.0, edge) for phi in PHIS[::3]]
        points += [((phi,), homodyne) for phi in PHIS]
        for x, fun in points:
            value, grad, hess = fun(x)
            fd_grad, fd_hess = central_differences(fun, x, 1e-5)
            scale = 1e-7 * (abs(value) + max(abs(g) for g in grad) + max(abs(h) for h in hess))
            assert grad[: len(x)] == pytest.approx(fd_grad, rel=0, abs=scale)
            exact = [[hess[0], hess[1]], [hess[1], hess[2]]]
            for k in range(len(x)):
                assert exact[k][: len(x)] == pytest.approx(fd_hess[k], rel=0, abs=scale)

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


NO_DERIVATIVES = ((0.0, 0.0), (0.0, 0.0, 0.0))


def test_disk_steps_from_inside_stop_on_the_circle():
    _, _, move = gaussian._disk((0.5, 0.0), *NO_DERIVATIVES)
    assert move(0.25, 0.5) == ((0.75, 0.5), 0.25, 0.5)
    assert move(1.0, 0.0) == ((1.0, 0.0), 0.5, 0.0)
    _, _, move = gaussian._disk((0.0, 0.0), *NO_DERIVATIVES)
    (x, y), d1, d2 = move(1.2, 1.6)
    assert (x, y, d1, d2) == pytest.approx((0.6, 0.8, 0.6, 0.8), rel=0, abs=1e-15)
    # a sideways step from near the circle stops where its line meets the circle
    (x, y), d1, d2 = gaussian._disk((0.0, -0.999), *NO_DERIVATIVES)[2](1.0, 0.0)
    assert math.hypot(x, y) == pytest.approx(1.0, rel=0, abs=1e-15)
    assert (d1, d2) == pytest.approx((x, 0.0), rel=0, abs=1e-15)


def test_disk_steps_from_the_circle_slide_along_it():
    """At (0.6, 0.8) with f = -2 (x + y) + |zeta|^2, whose minimum (1, 1) is
    outside the disk, the Newton step (0.4, 0.2) leaves it, so the chart is
    the arc: slope g.t along the tangent t = (-0.8, 0.6) and curvature
    t.H.t - g.z, and a step moves along the circle."""
    z = (0.6, 0.8)
    grad, hess, move = gaussian._disk(z, (-0.8, -0.4), (2.0, 0.0, 2.0))
    assert grad == pytest.approx((0.4, 0.0), rel=0, abs=1e-15)
    assert hess == pytest.approx((2.8, 0.0, 0.0), rel=0, abs=1e-15)
    (x, y), d1, d2 = move(0.1, 0.0)
    assert (d1, d2) == (0.1, 0.0)
    assert math.hypot(x, y) == pytest.approx(1.0, rel=0, abs=1e-15)
    assert math.atan2(y, x) == pytest.approx(math.atan2(0.8, 0.6) + math.atan(0.1), rel=0, abs=1e-15)
    # a Newton step from the circle that stays inside is taken as asked
    _, _, move = gaussian._disk(z, (0.6, 0.8), (1.0, 0.0, 1.0))
    assert move(-0.6, -0.8) == ((0.0, 0.0), -0.6, -0.8)


@pytest.mark.parametrize("centre", [(0.3, -0.2), (2.0, 1.0), (-0.6, 0.8)])
def test_newton_on_the_disk_reaches_the_nearest_point(centre):
    """f = |zeta - c|^2 has its minimum on the closed disk at c, or at
    c / |c| when c is outside; from the centre and from a point on the
    circle the runs converge there in a few steps."""
    cx, cy = centre
    nearest = np.array(centre) / max(1.0, math.hypot(cx, cy))

    def fun(z):
        return (z[0] - cx) ** 2 + (z[1] - cy) ** 2, (2.0 * (z[0] - cx), 2.0 * (z[1] - cy)), (2.0, 0.0, 2.0)

    for start in [(0.0, 0.0), (0.0, -1.0)]:
        result = gaussian.minimize(fun, [start], gaussian._disk)
        assert result.success and result.nfev <= 8
        assert result.x == pytest.approx(tuple(nearest), rel=0, abs=1e-8)
        assert math.hypot(*result.x) <= 1.0 + 1e-15


AGREEMENT_STATES = (
    [random_covariance(seed) for seed in range(200, 240)]
    + [
        quench_state(beta=1.0 / temp, lam=lam, t=t)
        for temp, lam, t in zip(np.linspace(0.1, 5.0, 12), np.linspace(0.5, 3.0, 12), np.linspace(3.0, 0.2, 12))
    ]
    + [tmsv(r) for r in np.linspace(0.0, 4.0, 12)]
)


class TestAgainstOracle:
    """Newton on the Poincare disk against the 24 x 16 grid plus Nelder-Mead
    search it replaced (:mod:`tests.gaussian_oracle`), on 128 (state,
    measured mode) pairs: random states, post-quench thermal states and
    two-mode squeezed vacua up to r = 4."""

    def test_matches_the_grid_and_nelder_mead_search(self):
        for sigma in AGREEMENT_STATES:
            for mode in (1, 2):
                assert minimize_gaussian_measurement(sigma, mode) == pytest.approx(
                    gaussian_oracle.minimize_gaussian_measurement(sigma, mode), rel=0, abs=1e-12
                )

    def test_both_refinements_win_and_finite_runs_converge_in_the_disk(self, monkeypatch):
        """Across the set, the homodyne refinement ends strictly below the
        Newton runs on the disk on some pair and above them on another; no
        run on the disk evaluates outside the closed disk, and every one
        converges instead of walking toward the homodyne limit."""
        runs, finite_radii = [], []
        refine = gaussian.minimize

        def recording(fun, starts, chart):
            def traced(x):
                if chart is gaussian._disk:
                    finite_radii.append(math.hypot(*x))
                return fun(x)

            runs.append(refine(traced, starts, chart))
            return runs[-1]

        monkeypatch.setattr(gaussian, "minimize", recording)
        for sigma in AGREEMENT_STATES:
            for mode in (1, 2):
                minimize_gaussian_measurement(sigma, mode)
        assert len(runs) == 2 * 2 * len(AGREEMENT_STATES)
        pairs = list(zip(runs[0::2], runs[1::2]))  # (finite, homodyne) of each call
        assert all(len(finite.x) == 2 and len(homodyne.x) == 1 for finite, homodyne in pairs)
        assert any(homodyne.fun < finite.fun for finite, homodyne in pairs)
        assert any(finite.fun < homodyne.fun for finite, homodyne in pairs)
        assert max(finite_radii) <= 1.0 + 1e-15
        assert all(finite.success for finite, _ in pairs)


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
