import importlib
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from qcorr import (
    ConsistencyError,
    DensityMatrix,
    MeasurementBasis,
    ValidationError,
    classical_correlations_at,
    discord,
    discord_swapped,
    max_classical_correlations,
    quantum_mutual_information,
    random_density_matrix,
    tensor_product,
)
from qcorr.discord import PHI_POINTS, THETA_POINTS, _grid_classical_correlations

from .conftest import bell_density, random_classical_state, random_unitary, werner_state

LN2 = 0.6931471805599453
# Werner(1/2) values, evaluated independently at 30-digit precision
WERNER_C = 0.13081203594113697
WERNER_I = 0.3127515147113674
WERNER_D = 0.18193947877023048
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# correlation vectors c of the four Bell states; Bell-diagonal states fill this tetrahedron
BELL_TETRAHEDRON = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]])


def one_way_classical_state() -> DensityMatrix:
    """Classical on A only: the conditional B states do not commute."""
    plus = np.full((2, 2), 0.5)
    mat = 0.5 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + 0.5 * np.kron(
        np.diag([0.0, 1.0]), plus
    )
    return DensityMatrix(mat, (2, 2))


def bell_diagonal(c) -> DensityMatrix:
    """The state (1 + sum_i c_i sigma_i (x) sigma_i) / 4."""
    mat = np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, PAULIS))
    return DensityMatrix(mat / 4.0, (2, 2))


def luo_bell_diagonal(c):
    """Mutual information and discord of :func:`bell_diagonal` ``(c)`` in nats,
    by Luo's closed form (PRA 77, 042303, 2008)."""
    c1, c2, c3 = c
    spectrum = [
        (1 - c1 - c2 - c3) / 4, (1 - c1 + c2 + c3) / 4, (1 + c1 - c2 + c3) / 4, (1 + c1 + c2 - c3) / 4
    ]
    info = 2 * LN2 + sum(x * math.log(x) for x in spectrum if x > 0)
    top = max(abs(x) for x in c)
    classical = sum((1 + s * top) / 2 * math.log(1 + s * top) for s in (1, -1) if 1 + s * top > 0)
    return info, info - classical


class TestMeasurementBasis:
    def test_range_validation(self):
        with pytest.raises(ValidationError):
            MeasurementBasis(theta=4.0, phi=0.0)
        with pytest.raises(ValidationError):
            MeasurementBasis(theta=1.0, phi=7.0)

    def test_canonical_folding(self):
        basis = MeasurementBasis.canonical(-0.3, 9.0)
        assert 0.0 <= basis.theta <= math.pi
        assert 0.0 <= basis.phi < 2.0 * math.pi

    def test_vectors_are_orthonormal(self):
        basis = MeasurementBasis(1.1, 2.3)
        n, n_perp = basis.vectors()
        assert abs(np.vdot(n, n)) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(n_perp, n_perp)) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(n, n_perp)) == pytest.approx(0.0, abs=1e-14)


class TestClassicalCorrelationsAt:
    def test_product_state_any_basis(self, rng):
        rho = tensor_product(
            random_density_matrix((2, 1), 2, seed=1), random_density_matrix((2, 1), 2, seed=2)
        )
        for _ in range(10):
            basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert classical_correlations_at(rho, basis) == pytest.approx(0.0, abs=1e-10)

    def test_bell_z_basis(self):
        assert classical_correlations_at(bell_density(), MeasurementBasis(0.0, 0.0)) == (
            pytest.approx(LN2, abs=1e-12)
        )

    def test_werner_half(self):
        value = classical_correlations_at(werner_state(0.5), MeasurementBasis(0.0, 0.0))
        assert value == pytest.approx(WERNER_C, abs=1e-12)

    def test_wrong_dimensions_rejected(self):
        with pytest.raises(ValidationError, match="2"):
            classical_correlations_at(
                random_density_matrix((2, 3), 2, seed=0), MeasurementBasis(0.0, 0.0)
            )

    def test_grid_kernel_matches_scalar_route(self, rng):
        for seed in range(10):
            rho = random_density_matrix((2, 2), int(1 + seed % 4), seed=seed)
            thetas = rng.uniform(0.0, math.pi, 5)
            phis = rng.uniform(0.0, 2.0 * math.pi, 5)
            grid = _grid_classical_correlations(rho, thetas, phis)
            for i, theta in enumerate(thetas):
                for j, phi in enumerate(phis):
                    scalar = classical_correlations_at(rho, MeasurementBasis(theta, phi))
                    assert grid[i, j] == pytest.approx(scalar, abs=1e-12)

    def test_antipodal_directions_agree(self, rng):
        """C(n) = C(-n): the hemisphere grid of the search relies on it."""
        for seed in range(20):
            rho = random_density_matrix((2, 2), int(1 + seed % 4), seed=seed)
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
            antipode = MeasurementBasis(math.pi - theta, (phi + math.pi) % (2.0 * math.pi))
            assert classical_correlations_at(rho, MeasurementBasis(theta, phi)) == pytest.approx(
                classical_correlations_at(rho, antipode), abs=1e-12
            )


class TestMaxClassicalCorrelations:
    def test_classical_diagonal_state(self):
        rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        value, basis = max_classical_correlations(rho)
        assert value == pytest.approx(LN2, abs=1e-9)
        assert basis.theta == pytest.approx(0.0, abs=1e-3)

    def test_bell_value_is_basis_independent(self):
        rho = bell_density()
        thetas = np.linspace(0.0, math.pi, 16)
        phis = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        grid = _grid_classical_correlations(rho, thetas, phis)
        assert float(grid.max() - grid.min()) < 1e-9
        value, _ = max_classical_correlations(rho)
        assert value == pytest.approx(LN2, abs=1e-9)

    def test_werner_maximum(self):
        value, _ = max_classical_correlations(werner_state(0.5))
        assert value == pytest.approx(WERNER_C, abs=1e-9)

    def test_hemisphere_grid_has_the_full_grid_maximum(self):
        thetas = np.linspace(0.0, math.pi, THETA_POINTS)
        hemisphere = np.linspace(0.0, math.pi, PHI_POINTS, endpoint=False)
        full = np.linspace(0.0, 2.0 * math.pi, 2 * PHI_POINTS, endpoint=False)
        assert THETA_POINTS * PHI_POINTS == 4096
        for seed in range(20):
            rho = random_density_matrix((2, 2), int(1 + seed % 4), seed=seed)
            assert _grid_classical_correlations(rho, thetas, hemisphere).max() == pytest.approx(
                _grid_classical_correlations(rho, thetas, full).max(), abs=1e-12
            )

    def test_refinement_never_below_grid(self):
        for seed in range(20):
            rho = random_density_matrix((2, 2), 4, seed=seed)
            thetas = np.linspace(0.0, math.pi, 64)
            phis = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
            grid_best = float(_grid_classical_correlations(rho, thetas, phis).max())
            value, _ = max_classical_correlations(rho)
            assert value >= grid_best - 1e-12

    def test_multistart_refinement_agrees(self, rng):
        for seed in range(5):
            rho = random_density_matrix((2, 2), 4, seed=seed)
            value, _ = max_classical_correlations(rho)

            def negated(z):
                return -float(
                    _grid_classical_correlations(
                        rho, np.array([z[0] % math.pi]), np.array([z[1] % (2 * math.pi)])
                    )[0, 0]
                )

            for _ in range(8):
                start = [rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)]
                res = minimize(
                    negated,
                    start,
                    method="Nelder-Mead",
                    options={"xatol": 1e-8, "fatol": 1e-13, "maxiter": 800},
                )
                assert -res.fun <= value + 1e-7


class TestDiscord:
    def test_classical_states_have_zero_discord(self, rng):
        for _ in range(20):
            result = discord(random_classical_state(rng))
            assert result.discord == pytest.approx(0.0, abs=1e-6)

    def test_bell_state(self):
        result = discord(bell_density())
        assert result.mutual_info == pytest.approx(2 * LN2, abs=1e-10)
        assert result.classical_corr == pytest.approx(LN2, abs=1e-9)
        assert result.discord == pytest.approx(LN2, abs=1e-6)
        assert result.trace.converged

    def test_werner_half(self):
        result = discord(werner_state(0.5))
        assert result.mutual_info == pytest.approx(WERNER_I, abs=1e-10)
        assert result.classical_corr == pytest.approx(WERNER_C, abs=1e-9)
        assert result.discord == pytest.approx(WERNER_D, abs=1e-6)

    def test_result_invariants_on_random_states(self):
        for seed in range(500):
            result = discord(random_density_matrix((2, 2), int(1 + seed % 4), seed=seed))
            assert result.discord >= 0.0
            assert result.discord <= result.mutual_info + 1e-9
            assert result.discord == pytest.approx(
                result.mutual_info - result.classical_corr, abs=1e-9
            )

    def test_maximum_matches_povm_route_at_optimal_basis(self):
        for seed in range(100):
            rho = random_density_matrix((2, 2), int(1 + seed % 4), seed=seed)
            result = discord(rho)
            assert result.classical_corr == pytest.approx(
                classical_correlations_at(rho, result.optimal_basis), abs=1e-12
            )

    def test_evaluations_count_grid_and_refinement(self, monkeypatch):
        module = importlib.import_module("qcorr.discord")
        nfev = []

        def recording_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            nfev.append(int(result.nfev))
            return result

        monkeypatch.setattr(module, "minimize", recording_minimize)
        result = discord(random_density_matrix((2, 2), 3, seed=5))
        assert result.trace.evaluations == THETA_POINTS * PHI_POINTS + nfev[0]

    def test_luo_closed_form_on_bell_diagonal_states(self):
        rng = np.random.default_rng(2008)
        cases = [(bell_diagonal(c), c) for c in rng.dirichlet(np.ones(4), 24) @ BELL_TETRAHEDRON]
        cases += [(werner_state(w), (w, -w, w)) for w in (0.1, 0.3, 0.5, 0.8, 1.0)]
        for rho, c in cases:
            info, disc = luo_bell_diagonal(c)
            for result in (discord(rho), discord_swapped(rho)):
                assert result.mutual_info == pytest.approx(info, abs=1e-9)
                assert result.discord == pytest.approx(disc, abs=1e-9)

    def test_local_unitary_invariance(self, rng):
        for seed in range(10):
            rho = random_density_matrix((2, 2), 4, seed=seed)
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            rotated = DensityMatrix(u @ rho.elements @ u.conj().T, (2, 2))
            assert discord(rotated).discord == pytest.approx(
                discord(rho).discord, abs=1e-6
            )

    def test_wrong_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            discord(random_density_matrix((3, 1), 2, seed=0))


class TestDiscordSwapped:
    def test_bell_is_symmetric(self):
        assert discord_swapped(bell_density()).discord == pytest.approx(LN2, abs=1e-6)

    def test_product_state(self):
        rho = tensor_product(
            random_density_matrix((2, 1), 2, seed=3), random_density_matrix((2, 1), 2, seed=4)
        )
        assert discord_swapped(rho).discord == pytest.approx(0.0, abs=1e-9)

    def test_one_way_classical_state_is_asymmetric(self):
        rho = one_way_classical_state()
        assert discord(rho).discord == pytest.approx(0.0, abs=1e-6)
        assert discord_swapped(rho).discord > 1e-3

    def test_swap_matches_manual_permutation(self):
        perm = [0, 2, 1, 3]
        states = [werner_state(0.3)] + [
            random_density_matrix((2, 2), int(1 + seed % 4), seed=seed) for seed in range(24)
        ]
        for rho in states:
            manual = discord(DensityMatrix(rho.elements[np.ix_(perm, perm)], (2, 2)))
            swapped = discord_swapped(rho)
            for field in ("mutual_info", "classical_corr", "discord"):
                assert getattr(swapped, field) == pytest.approx(getattr(manual, field), abs=1e-12)
