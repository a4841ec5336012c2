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
from qcorr import _newton
from qcorr.discord import (
    GRID,
    PHI_POINTS,
    THETA_POINTS,
    _bloch,
    _directions,
    _grid_values,
    _maximize_classical_correlations,
    _negated_objective,
    _outcomes,
    _point,
    _qubit_entropy,
    _start_cells,
)

from . import discord_oracle
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


def _abt(k: np.ndarray) -> tuple:
    """(a, b, T) of a Bloch matrix K = [[1, b^T], [a, T]], as the oracle takes them."""
    return k[1:, 0], k[0, 1:], k[1:, 1:]


def _s_b(k: np.ndarray) -> float:
    """S(rho_B) = h(|b|) from a Bloch matrix, as the search takes it."""
    return _qubit_entropy(float(k[0, 1:] @ k[0, 1:]))


def _grid_classical_correlations(rho: DensityMatrix, thetas, phis) -> np.ndarray:
    """C on the (theta, phi) grid, theta-major, by the search's vectorized
    kernel; the tests compare it with the Povm route of classical_correlations_at."""
    k = _bloch(rho)
    values = _grid_values(k, _s_b(k), _outcomes(_directions(thetas, phis)))
    return values.reshape(len(thetas), len(phis))


def _ket(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _hilbert_schmidt(rng, rank: int, dim: int = 4) -> np.ndarray:
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    g = x @ x.conj().T
    return g / np.trace(g).real


def _x_state(rng) -> np.ndarray:
    """Diagonal plus anti-diagonal coherences, each at a random fraction of its bound."""
    p = rng.dirichlet(np.ones(4))
    m = np.diag(p).astype(complex)
    m[0, 3] = math.sqrt(p[0] * p[3]) * rng.random() * np.exp(2j * math.pi * rng.random())
    m[1, 2] = math.sqrt(p[1] * p[2]) * rng.random() * np.exp(2j * math.pi * rng.random())
    m[3, 0], m[2, 1] = np.conj(m[0, 3]), np.conj(m[1, 2])
    return m


def _classical_quantum(rng) -> np.ndarray:
    """p |e0><e0| (x) rho_0 + (1 - p) |e1><e1| (x) rho_1 with {e0, e1} a random basis of A."""
    e0 = _ket(rng)
    e1 = np.array([-np.conj(e0[1]), np.conj(e0[0])])
    p = rng.random()
    return sum(w * np.kron(np.outer(e, e.conj()), _hilbert_schmidt(rng, 2, 2)) for w, e in ((p, e0), (1 - p, e1)))


def seeded_states(per_kind: int, seed: int) -> list:
    """``per_kind`` states of each of nine kinds: Hilbert-Schmidt random
    states of ranks 1-4, Werner, Bell-diagonal, X, classical-quantum and
    pure product states."""
    rng = np.random.default_rng(seed)
    kinds = [lambda rank=rank: _hilbert_schmidt(rng, rank) for rank in (1, 2, 3, 4)] + [
        lambda: werner_state(rng.random()).elements,
        lambda: bell_diagonal(rng.dirichlet(np.ones(4)) @ BELL_TETRAHEDRON).elements,
        lambda: _x_state(rng),
        lambda: _classical_quantum(rng),
        lambda: np.kron(*(np.outer(k, k.conj()) for k in (_ket(rng), _ket(rng)))),
    ]
    return [DensityMatrix(kind(), (2, 2)) for _ in range(per_kind) for kind in kinds]


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
        """The search's grid holds each direction of the hemisphere grid
        once, and its maximum is that of the grid over all phi."""
        thetas = np.linspace(0.0, math.pi, THETA_POINTS)
        full = np.linspace(0.0, 2.0 * math.pi, 2 * PHI_POINTS, endpoint=False)
        assert len(GRID) == (THETA_POINTS - 2) * PHI_POINTS + 1 == 49
        assert np.abs(GRID @ GRID.T - np.eye(len(GRID))).max() < 1.0 - 1e-3  # no repeats, no antipodes
        for seed in range(20):
            rho = random_density_matrix((2, 2), int(1 + seed % 4), seed=seed)
            k = _bloch(rho)
            assert _grid_values(k, _s_b(k), _outcomes(GRID)).max() == pytest.approx(
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

    @pytest.mark.parametrize("ket", [np.full(4, 0.5), np.eye(4)[0]], ids=["plus_plus", "zero_zero"])
    def test_value_is_the_povm_route_at_its_basis_near_pure_states(self, ket):
        """400 seeded states within eps in [1e-14, 1e-10] of |++><++| and of
        |00><00|: the search's eta and the Povm route drop the same
        rounding-level eigenvalues, so C at the returned basis is the value
        returned. With the Povm route cut at 1e-12 and the search at 1e-15
        they differed by up to 2.7e-11."""
        rng = np.random.default_rng(2001)
        pure = np.outer(ket, ket).astype(complex)
        worst = 0.0
        for eps in 10.0 ** rng.uniform(-14.0, -10.0, 400):
            rho = DensityMatrix((1.0 - eps) * pure + eps * _hilbert_schmidt(rng, 4), (2, 2))
            value, basis = max_classical_correlations(rho)
            worst = max(worst, abs(value - classical_correlations_at(rho, basis)))
        assert worst <= 1e-13

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
        """Evaluations are the grid points plus the Newton evaluations of
        every run, each counted once by the objective it calls; a random
        state of rank 3 takes one :func:`minimize` call, which reads one of
        its starts and makes one run."""
        module = importlib.import_module("qcorr.discord")
        calls, runs = [], []
        refine = module.minimize

        def recording_minimize(fun, starts, retract):
            assert retract is module._retract
            taken = []

            def counted(n):
                calls.append(n)
                return fun(n)

            def taking(starts):
                for start in starts:
                    taken.append(start)
                    yield start

            result = refine(counted, taking(starts), retract)
            runs.append((len(taken), result.nfev))
            return result

        monkeypatch.setattr(module, "minimize", recording_minimize)
        result = discord(random_density_matrix((2, 2), 3, seed=5))
        assert runs == [(1, len(calls))]
        assert result.trace.evaluations == len(GRID) + len(calls)
        assert 1 < len(calls) < 20

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
        """discord_swapped reads K^T; the discord of the matrix with its
        parties exchanged reads K of that matrix, its transpose to rounding.
        C comes from K alone; I and D also from the spectrum, which eigvalsh
        rounds differently on the permuted matrix (a few ulps of S(rho))."""
        perm = [0, 2, 1, 3]
        states = [werner_state(0.3)] + [
            random_density_matrix((2, 2), int(1 + seed % 4), seed=seed) for seed in range(24)
        ]
        for rho in states:
            exchanged = DensityMatrix(rho.elements[np.ix_(perm, perm)], (2, 2))
            assert np.abs(_bloch(exchanged) - _bloch(rho).T).max() <= 1e-15
            manual, swapped = discord(exchanged), discord_swapped(rho)
            assert abs(swapped.classical_corr - manual.classical_corr) <= 1e-15
            for field in ("mutual_info", "discord"):
                assert abs(getattr(swapped, field) - getattr(manual, field)) <= 1e-14


class TestBlochMatrix:
    """K = [[1, b^T], [a, T]] of :func:`_bloch`, one real product of the
    matrix elements, against its definition K_mn = Tr[rho sigma_m (x) sigma_n]."""

    PAULI4 = (np.eye(2, dtype=complex), *PAULIS)
    STATES = [random_density_matrix((2, 2), rank, seed) for rank in (1, 2, 3, 4) for seed in range(10)]

    def test_entries_are_the_pauli_traces(self):
        for rho in self.STATES:
            k = _bloch(rho)
            expected = [[np.trace(rho.elements @ np.kron(sm, sn)) for sn in self.PAULI4] for sm in self.PAULI4]
            assert k.dtype == np.float64 and k.shape == (4, 4) and k.flags.c_contiguous
            assert np.abs(k - np.array(expected)).max() <= 1e-15

    def test_corner_is_exactly_one(self):
        assert all(_bloch(rho)[0, 0] == 1.0 for rho in self.STATES)
        traces = [rho.elements.trace().real for rho in self.STATES]
        assert any(trace != 1.0 for trace in traces)  # the corner is set, not summed


class TestAgainstOracle:
    """Newton on the sphere against the 64 x 64 grid plus Nelder-Mead search
    it replaced (:mod:`tests.discord_oracle`)."""

    def test_maximum_and_mutual_information_on_seeded_states(self):
        states = seeded_states(222, seed=2011)
        cases = [(rho, i % 2 == 1) for i, rho in enumerate(states)]
        cases += [(one_way_classical_state(), False), (one_way_classical_state(), True)]
        assert len(cases) >= 2000
        worst_c = worst_i = 0.0
        for rho, swapped in cases:
            k = _bloch(rho)
            result = (discord_swapped if swapped else discord)(rho)
            expected, _, _, _ = discord_oracle._maximize_classical_correlations(_abt(k.T if swapped else k))
            assert result.trace.converged
            worst_c = max(worst_c, abs(result.classical_corr - expected))
            worst_i = max(worst_i, abs(result.mutual_info - quantum_mutual_information(rho)))
        assert worst_c <= 1e-12
        assert worst_i <= 1e-12


class TestStartRule:
    """The search's starts, an argmin and a lazily found second, are the
    first two cells of a stable argsort of the rounded keys
    rint((max - C) / FTOL): the earliest of the largest values, then the
    earliest of the largest of the rest."""

    @staticmethod
    def _argsorted(grid: np.ndarray) -> list:
        return np.rint((grid.max() - grid) / _newton.FTOL).argsort(kind="stable")[:2].tolist()

    @staticmethod
    def _started(grid: np.ndarray) -> list:
        first, later = _start_cells(grid)
        return [int(first), *map(int, later)]

    def test_planted_ties(self):
        """Synthetic grids of 49 values with ties planted at the top, in the
        second place and within rounding of each other."""
        rng = np.random.default_rng(38)
        ftol = _newton.FTOL
        grids = [np.zeros(49), np.full(49, 0.3)]
        for _ in range(200):
            grid = rng.random(49) * rng.choice([1e-14, 1e-3, 1.0])
            top, second = rng.choice(49, size=2, replace=False)
            grid[rng.choice(49, size=rng.integers(1, 5))] = grid.max()  # ties at the maximum
            grid[rng.choice(49, size=rng.integers(0, 5))] = np.sort(grid)[-2]  # ties behind it
            grid[top] += rng.choice([0.0, 0.2 * ftol, 0.6 * ftol, 2.0 * ftol])  # within or beyond rounding
            grid[second] = grid[top] - rng.choice([0.0, 0.4 * ftol, 1.5 * ftol])
            grids.append(grid)
        for grid in grids:
            assert self._started(grid) == self._argsorted(grid)

    def test_states_where_many_cells_tie(self):
        """Werner, pure and product states, on which C is constant or
        nearly so over the grid, and random states, measured on either side."""
        rng = np.random.default_rng(2011)
        states = [werner_state(w) for w in (0.0, 0.3, 0.5, 1.0)] + [bell_density()]
        states += seeded_states(3, seed=38)
        states += [tensor_product(*(DensityMatrix(np.outer(v, v.conj()), (2, 1)) for v in (_ket(rng), _ket(rng))))]
        ties = 0
        for rho in states:
            k = _bloch(rho)
            for side in (k, k.T):
                grid = _grid_values(side, _s_b(side), _outcomes(GRID))
                keys = np.rint((grid.max() - grid) / _newton.FTOL)
                ties += int((keys == keys.min()).sum() > 1)
                assert self._started(grid) == self._argsorted(grid)
        assert ties >= 10

    def test_second_cell_found_only_when_asked(self):
        grid = np.zeros(49)
        first, later = _start_cells(grid)
        assert int(first) == 0
        assert [int(cell) for cell in later] == [1]
        assert list(later) == []  # one second start at most


class TestSecondStart:
    """The search runs Newton from the best grid cell, and from the second
    best only where that first run evaluates its start alone: at a critical
    point of C, such as the pole of X, Bell-diagonal and Werner states."""

    def test_hidden_basin_behind_a_critical_pole(self):
        """An X state whose best grid cell is the pole, a critical point
        where the first run stops after one evaluation, 5.7e-4 below the
        maximum on the equator. The grid has no theta = pi / 2 row, and its
        second-best cell is next to the pole, so a rule that skipped
        adjacent cells would return the pole's value."""
        rho = seeded_states(222, seed=2011)[1770]
        k = _bloch(rho)
        grid = _grid_values(k, _s_b(k), _outcomes(GRID))
        assert int(grid.argmax()) == 0 and tuple(GRID[0]) == (0.0, 0.0, 1.0)
        expected, _, _, _ = discord_oracle._maximize_classical_correlations(_abt(k))
        assert expected - float(grid.max()) > 5e-4
        result = discord(rho)
        assert abs(result.classical_corr - expected) <= 1e-12
        assert result.optimal_basis.theta == pytest.approx(math.pi / 2, abs=1e-6)

    def test_bell_diagonal_states_at_the_crossover(self):
        """Bell-diagonal states with |c1| = |c3| (1 + delta), where the
        optimal axis switches between z and x (Maziero et al., PRA 80,
        044102, 2009), against Luo's closed form. At delta <= 0 the best
        grid cell is the pole, a critical point, and the second run starts;
        at delta > 0 it is a cell next to the equator, and one run does."""
        cases = 0
        for c3 in (0.2, 0.45, -0.3):
            for delta in (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.1, -0.1):
                for sign, c2 in ((1, 0.0), (1, 0.1 * c3), (-1, -0.1 * c3)):
                    c = (sign * c3 * (1.0 + delta), c2, c3)
                    info, disc = luo_bell_diagonal(c)
                    for result in (discord(bell_diagonal(c)), discord_swapped(bell_diagonal(c))):
                        assert result.mutual_info == pytest.approx(info, abs=1e-12)
                        assert result.discord == pytest.approx(disc, abs=1e-12)
                    cases += 1
        assert cases == 81

    def test_second_run_exactly_when_the_first_stops_at_its_start(self, monkeypatch):
        """One :func:`minimize` call per search, from the two best grid
        cells; its second Newton run starts exactly where the first
        evaluates its start alone."""
        module = importlib.import_module("qcorr.discord")
        refine, descend, searches, runs = module.minimize, _newton._descend, [], []

        def recording_minimize(fun, starts, retract):
            searches.append(retract)
            return refine(fun, starts, retract)

        def recording_descend(fun, x, retract):
            run = descend(fun, x, retract)
            runs.append((x[0], run[2]))
            return run

        monkeypatch.setattr(module, "minimize", recording_minimize)
        monkeypatch.setattr(_newton, "_descend", recording_descend)
        states = seeded_states(4, seed=31) + [bell_diagonal((0.3, 0.0, 0.3)), seeded_states(222, seed=2011)[1770]]
        seen = set()
        for rho in states:
            for search in (discord, discord_swapped):
                searches.clear()
                runs.clear()
                result = search(rho)
                assert searches == [module._retract]
                first_nfev = runs[0][1]
                assert len(runs) == (2 if first_nfev == 1 else 1)
                assert result.trace.evaluations == len(GRID) + sum(nfev for _, nfev in runs)
                if len(runs) == 2:
                    assert runs[1][0] != runs[0][0]
                seen.add(len(runs))
        assert seen == {1, 2}


def _riemannian_by_differences(objective, n, e1, e2, step):
    """Central differences of the objective along the retraction
    normalize(n + x e1 + y e2): the gradient and Hessian at x = y = 0."""

    def f(x, y):
        return objective(_point(np.asarray(n) + x * np.asarray(e1) + y * np.asarray(e2)))[0]

    f0 = f(0.0, 0.0)
    grad = ((f(step, 0) - f(-step, 0)) / (2 * step), (f(0, step) - f(0, -step)) / (2 * step))
    h11 = (f(step, 0) - 2 * f0 + f(-step, 0)) / step**2
    h22 = (f(0, step) - 2 * f0 + f(0, -step)) / step**2
    h12 = (f(step, step) - f(step, -step) - f(-step, step) + f(-step, -step)) / (4 * step**2)
    return grad, (h11, h12, h22)


class TestDerivatives:
    def test_riemannian_gradient_and_hessian_match_differences(self):
        """At random directions, where both conditional states are mixed, on
        the seeded states of rank 2 and more, measured on either side."""
        rng = np.random.default_rng(52108)
        states = [s for s in seeded_states(6, seed=7) if np.linalg.matrix_rank(s.elements, 1e-6) > 1]
        checked = 0
        for rho in states:
            k = _bloch(rho)
            for side in (k, k.T):
                objective = _negated_objective(side, _s_b(side))
                for _ in range(4):
                    n, e1, e2 = _point(rng.standard_normal(3))
                    value, grad, hess = objective((n, e1, e2))
                    assert np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()
                    fd_grad, _ = _riemannian_by_differences(objective, n, e1, e2, 1e-6)
                    _, fd_hess = _riemannian_by_differences(objective, n, e1, e2, 1e-4)
                    assert grad == pytest.approx(fd_grad, abs=1e-8)
                    assert hess == pytest.approx(fd_hess, rel=1e-5, abs=1e-6)
                    checked += 1
        assert checked >= 300

    def test_riemannian_hessian_on_a_nearly_pure_state(self):
        """A pure entangled state with 1e-10 of a mixed one: every
        conditional state is nearly pure and C nearly constant, so lambda-
        is about 1e-10 everywhere. Against central differences of C at
        50 digits, the Hessian keeps its digits, which a sum of terms of
        order 1 / lambda- would lose."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2011)
        pure, mixed = _hilbert_schmidt(rng, 1), _hilbert_schmidt(rng, 4)
        k = _bloch(DensityMatrix((1 - 1e-10) * pure + 1e-10 * mixed, (2, 2)))
        objective = _negated_objective(k, _s_b(k))
        a, b, t = ([[mpmath.mpf(float(x)) for x in row] for row in np.atleast_2d(m)] for m in _abt(k))
        a, b = a[0], b[0]

        def exact(m):
            m = [x / mpmath.sqrt(sum(y * y for y in m)) for x in m]
            total = 0
            for sign in (1, -1):
                q = 1 + sign * sum(x * y for x, y in zip(a, m))
                u = [b[j] + sign * sum(t[i][j] * m[i] for i in range(3)) for j in range(3)]
                w = mpmath.sqrt(sum(x * x for x in u))
                total += sum(x * mpmath.log(x) for x in ((q + w) / 2, (q - w) / 2)) / 2 - q * mpmath.log(q) / 2
            return -total

        with mpmath.workdps(50):
            for _ in range(4):
                n, e1, e2 = _point(rng.standard_normal(3))
                _, _, hess = objective((n, e1, e2))
                step = mpmath.mpf("1e-6")

                def f(x, y):
                    return exact([mpmath.mpf(c) + x * mpmath.mpf(d) + y * mpmath.mpf(e) for c, d, e in zip(n, e1, e2)])

                h11 = (f(step, 0) - 2 * f(0, 0) + f(-step, 0)) / step**2
                h22 = (f(0, step) - 2 * f(0, 0) + f(0, -step)) / step**2
                h12 = (f(step, step) - f(step, -step) - f(-step, step) + f(-step, -step)) / (4 * step**2)
                expected = [float(x) for x in (h11, h12, h22)]
                scale = max(abs(x) for x in expected)
                assert 1e-12 < scale < 1e-8
                assert hess == pytest.approx(expected, abs=1e-4 * scale)

    def test_hessian_rotates_with_the_tangent_basis(self):
        """The objective reads the tangent basis only through dot products:
        rotating (e1, e2) by an angle rotates (g1, g2) and the 2x2 Hessian
        with it, on seeded mixed states, measured on either side. (On pure
        states C is constant and its derivatives are rounding.)"""
        rng = np.random.default_rng(2008)
        for rank in (2, 3, 4):
            k = _bloch(random_density_matrix((2, 2), rank, seed=11))
            for side in (k, k.T):
                objective = _negated_objective(side, _s_b(side))
                for _ in range(5):
                    n, e1, e2 = (np.asarray(v) for v in _point(rng.standard_normal(3)))
                    _, grad, (h11, h12, h22) = objective((n, e1, e2))
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    rot = np.array([[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]])
                    f1, f2 = rot @ np.array([e1, e2])
                    _, rotated_grad, (r11, r12, r22) = objective((n.tolist(), f1.tolist(), f2.tolist()))
                    hess = np.array([[h11, h12], [h12, h22]])
                    scale = max(np.abs(grad).max(), np.abs(hess).max())
                    assert rotated_grad == pytest.approx(rot @ grad, abs=1e-13 * scale)
                    expected = rot @ hess @ rot.T
                    assert (r11, r12, r22) == pytest.approx(
                        (expected[0, 0], expected[0, 1], expected[1, 1]), abs=1e-13 * scale
                    )


class TestDegenerateInputs:
    """C is constant on pure and Werner states, and its Hessian diverges
    where a conditional state is pure: the search returns finite values,
    reports convergence and raises nothing."""

    def _search(self, rho, swapped=False):
        result = (discord_swapped if swapped else discord)(rho)
        for field in ("mutual_info", "classical_corr", "discord"):
            assert math.isfinite(getattr(result, field))
        assert result.trace.converged
        return result

    def test_pure_states(self):
        for seed in range(20):
            rho = random_density_matrix((2, 2), 1, seed=seed)
            for swapped in (False, True):
                result = self._search(rho, swapped)
                # C = S(rho_B) and D = S(rho_A) = S(rho_B) for every pure state
                assert result.classical_corr == pytest.approx(result.mutual_info / 2, abs=1e-12)
        assert self._search(bell_density()).discord == pytest.approx(LN2, abs=1e-12)

    def test_werner_states(self):
        for weight in (0.0, 0.05, 0.5, 0.9, 1.0):
            _, expected = luo_bell_diagonal((weight, -weight, weight))
            assert self._search(werner_state(weight)).discord == pytest.approx(expected, abs=1e-12)

    def test_pure_conditional_state_at_the_optimum(self):
        """Measuring A of the one-way classical state along z leaves B in |0>
        or |+>, and is optimal; product pure states leave B pure along every
        direction."""
        rho = one_way_classical_state()
        result = self._search(rho)
        assert result.discord == pytest.approx(0.0, abs=1e-12)
        assert min(result.optimal_basis.theta, math.pi - result.optimal_basis.theta) < 1e-6
        k = _bloch(rho)
        objective = _negated_objective(k, _s_b(k))
        for n in ([0.0, 0.0, 1.0], [1e-9, 0.0, 1.0]):
            _, grad, hess = objective(_point(n))
            assert np.isfinite(grad).all() and np.isfinite(hess).all()
        assert self._search(rho, swapped=True).discord > 1e-3
        rng = np.random.default_rng(3)
        for _ in range(10):
            kets = [_ket(rng), _ket(rng)]
            product = DensityMatrix(np.kron(*(np.outer(k, k.conj()) for k in kets)), (2, 2))
            assert self._search(product).classical_corr == pytest.approx(0.0, abs=1e-12)

    def test_near_pure_marginals_at_the_support_cutoff(self):
        """diag(1 - eps, 0, 0, eps) is classical with marginals of smallest
        eigenvalue eps. Its three entropies in the mutual information and
        the C of the search share the one eta of qcorr.probability, zero at
        or below ZERO_PROBABILITY, as quantum_mutual_information does; with
        the 1e-12 support cutoff in I and not in C, D read 2.8e-11 at
        eps = 1e-12. What is left is the rounding of (1 - |a|)/2, up to
        about 1e-15 (as with partial traces)."""
        for eps in [1e-13, 1e-12, 1e-11, *np.logspace(-15, -10, 51)]:
            rho = DensityMatrix(np.diag([1.0 - eps, 0.0, 0.0, eps]).astype(complex), (2, 2))
            for swapped in (False, True):
                result = self._search(rho, swapped)
                assert abs(result.mutual_info - quantum_mutual_information(rho)) <= 1e-12
                assert result.discord <= 1e-14

    def test_mutual_information_never_negative(self):
        """(1 - eps)|00><00| + eps rho_2 at eps = 1.5e-15 has a joint
        eigenvalue (1.09e-15) above ZERO_PROBABILITY whose entropy counts and
        marginal eigenvalues below it that do not: the three entropies give
        I = -3.7e-14 (with the cutoff at 1e-12, eps = 1.5e-12 gave -3.0e-11).
        Values down to -NEGATIVE_CLAMP are read as 0, so 0 <= C <= I holds."""
        pure = np.zeros((4, 4), dtype=complex)
        pure[0, 0] = 1.0
        mixed = random_density_matrix((2, 2), 2, seed=2).elements
        for eps in [1.5e-15, 1.5e-12, *np.logspace(-16, -10, 61)]:
            rho = DensityMatrix((1.0 - eps) * pure + eps * mixed, (2, 2))
            info = quantum_mutual_information(rho)
            assert info >= 0.0
            for swapped in (False, True):
                result = self._search(rho, swapped)
                assert 0.0 <= result.classical_corr <= result.mutual_info
                assert result.mutual_info == pytest.approx(info, rel=0, abs=1e-12)
                assert result.discord >= 0.0

    def test_nearly_pure_product_states_in_closed_form(self):
        """rho = (1 - eps)|ab><ab| + eps|a'b'><a'b'|, with a' and b' orthogonal
        to the kets a and b, is classical on both sides: measuring along a
        (or b) leaves the other qubit in b or b', so I = C = h(eps) =
        -eps ln eps - (1 - eps) ln(1 - eps) and D = 0 in both roles. The
        Povm route at the basis returned reads h(eps) too; dividing the
        conditional block by a rounding-level outcome probability made it
        raise on such states. Every route drops eps only at or below
        ZERO_PROBABILITY (1e-15), so the draws start at 1e-14; with the
        entropies of I cut at 1e-12 and C's eta not, they were off by up
        to 2.7e-11 below it."""
        rng = np.random.default_rng(1981)

        def perp(k):
            return np.array([-np.conj(k[1]), np.conj(k[0])])

        for eps in np.logspace(-14, -1, 53):
            h = -eps * math.log(eps) - (1.0 - eps) * math.log1p(-eps)
            ka, kb = _ket(rng), _ket(rng)
            kets = (np.kron(ka, kb), np.kron(perp(ka), perp(kb)))
            mat = (1 - eps) * np.outer(kets[0], kets[0].conj()) + eps * np.outer(kets[1], kets[1].conj())
            swapped = mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            rho = DensityMatrix(mat, (2, 2))
            for result, measured_a in ((discord(rho), rho), (discord_swapped(rho), DensityMatrix(swapped, (2, 2)))):
                assert abs(result.classical_corr - h) <= 1e-13
                assert abs(result.mutual_info - h) <= 1e-13
                assert result.discord <= 1e-13
                assert abs(classical_correlations_at(measured_a, result.optimal_basis) - h) <= 1e-13

    def test_nearly_pure_states(self):
        """Pure states with a small admixture: entangled ones, where C is
        nearly constant, and local rotations of (1 - eps)|00><00| + eps|11><11|,
        where the conditional states at the optimum are nearly pure. Every
        search converges and agrees with the oracle."""
        rng = np.random.default_rng(1008)

        def perp(k):
            return np.array([-np.conj(k[1]), np.conj(k[0])])

        worst = 0.0
        for eps in np.logspace(-13, -5, 17):
            ka, kb = _ket(rng), _ket(rng)
            states = [
                (1 - eps) * _hilbert_schmidt(rng, 1) + eps * _hilbert_schmidt(rng, 4),
                (1 - eps) * np.outer(np.kron(ka, kb), np.kron(ka, kb).conj())
                + eps * np.outer(np.kron(perp(ka), perp(kb)), np.kron(perp(ka), perp(kb)).conj()),
            ]
            for mat in states:
                rho = DensityMatrix(mat, (2, 2))
                k = _bloch(rho)
                for side in (k, k.T):
                    value, _, _, converged = _maximize_classical_correlations(side, _s_b(side))
                    assert converged
                    worst = max(worst, abs(value - discord_oracle._maximize_classical_correlations(_abt(side))[0]))
                self._search(rho)
                self._search(rho, swapped=True)
        assert worst <= 1e-12
