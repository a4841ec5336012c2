import math

import numpy as np
import pytest

from qcorr import (
    DensityMatrix,
    PureState,
    ValidationError,
    araki_lieb_check,
    density_from_pure,
    density_matrix_from_json,
    density_matrix_to_json,
    entanglement_entropy,
    partial_trace,
    quantum_mutual_information,
    quantum_relative_entropy,
    random_density_matrix,
    tensor_product,
    von_neumann_entropy,
)
from qcorr.states import eigh_phase_fixed

from .conftest import bell_density, bell_state, entangled_state, random_unitary

LN2 = 0.6931471805599453
BINARY_H_QUARTER = 0.5623351446188084  # -0.75 ln 0.75 - 0.25 ln 0.25


def _phase_fixed_by_columns(matrix):
    """The column-by-column gauge fixing that eigh_phase_fixed replaces."""
    vals, vecs = np.linalg.eigh(matrix)
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        phase = col[int(np.argmax(np.abs(col)))]
        vecs[:, k] = col * (phase.conjugate() / abs(phase))
    return vals, vecs


def _seeded_hermitian(rng, size):
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return m + m.conj().T


class TestEighPhaseFixed:
    def test_largest_component_real_and_positive_first_index_on_ties(self):
        """Real up to the rounding of phase * conj(phase) / |phase|. Pauli x
        and y have components of equal magnitude; the all-ones matrix a
        degenerate eigenspace."""
        rng = np.random.default_rng(5)
        matrices = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.ones((3, 3))]
        matrices += [_seeded_hermitian(rng, size) for size in (2, 3, 4, 5, 6)]
        for matrix in matrices:
            vals, vecs = eigh_phase_fixed(matrix)
            assert vals == pytest.approx(np.linalg.eigvalsh(matrix), abs=1e-14)
            for col in vecs.T:
                pivot = col[np.flatnonzero(np.abs(col) == np.abs(col).max())[0]]
                assert abs(pivot.imag) <= 1e-16 and pivot.real > 0.0

    def test_bit_identical_to_the_column_loop(self):
        rng = np.random.default_rng(2000)
        for k in range(500):
            matrix = _seeded_hermitian(rng, 2 + k % 5)
            vals, vecs = eigh_phase_fixed(matrix)
            expected_vals, expected_vecs = _phase_fixed_by_columns(matrix)
            assert vals.tobytes() == expected_vals.tobytes()
            assert vecs.tobytes() == expected_vecs.tobytes()


class TestConstruction:
    def test_trace_violation_names_trace_and_value(self):
        with pytest.raises(ValidationError, match=r"trace.*0\.98"):
            DensityMatrix(np.diag([0.49, 0.49]), (2, 1))

    def test_non_hermitian_rejected(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(mat, (2, 1))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError, match="semidefinite"):
            DensityMatrix(np.diag([1.2, -0.2]), (2, 1))

    def test_tiny_negative_eigenvalue_clamped(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]), (2, 1))
        assert rho.spectrum().min() == 0.0

    def test_dims_must_match_size(self):
        with pytest.raises(ValidationError, match="dims"):
            DensityMatrix(np.eye(4) / 4.0, (3, 2))

    @pytest.mark.parametrize("dims", [(2.0, 2), ("2", 2), (2.5, 2), (4,), (1, 2, 2), 4])
    def test_dims_must_be_a_pair_of_integers(self, dims):
        # no float or string is truncated or parsed into a dimension
        with pytest.raises(ValidationError, match="dims must be a pair of integers"):
            DensityMatrix(np.eye(4) / 4.0, dims)

    def test_numpy_integer_dims_accepted(self):
        assert DensityMatrix(np.eye(4) / 4.0, np.array([2, 2])).dims == (2, 2)

    def test_pure_state_norm_checked(self):
        with pytest.raises(ValidationError, match="norm"):
            PureState([1.0, 0.5], (2, 1))


class TestSpectrumAndEigenbasis:
    """The spectrum comes from eigvalsh at construction; the phase-fixed
    eigenbasis from eigh_phase_fixed on the first eigenbasis() call."""

    def test_spectrum_matches_the_phase_fixed_eigenvalues(self):
        for seed in range(40):
            rho = random_density_matrix((2, 2), 1 + seed % 4, seed=seed)
            vals = np.clip(eigh_phase_fixed(rho.elements)[0], 0.0, None)
            assert np.max(np.abs(rho.spectrum() - vals)) <= 1e-15

    def test_eigenbasis_is_the_phase_fixed_basis_cached_and_read_only(self):
        for seed in range(40):
            rho = random_density_matrix((2, 2), 1 + seed % 4, seed=seed)
            basis = rho.eigenbasis()
            assert basis.tobytes() == eigh_phase_fixed(rho.elements)[1].tobytes()
            assert rho.eigenbasis() is basis
            assert not basis.flags.writeable
            with pytest.raises(ValueError):
                basis[:] = np.eye(4)


class TestDensityFromPure:
    def test_ground_state(self):
        rho = density_from_pure(PureState([1.0, 0.0], (2, 1)))
        assert np.allclose(rho.elements, np.diag([1.0, 0.0]))

    def test_bell_corners(self):
        rho = bell_density()
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(rho.elements, expected)

    def test_rank_one_spectrum(self):
        rho = density_from_pure(entangled_state(math.pi / 3.0))
        spectrum = np.sort(rho.spectrum())
        assert spectrum[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(spectrum[:-1] < 1e-12)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        reduced = partial_trace(bell_density(), "A")
        assert np.allclose(reduced.elements, np.eye(2) / 2.0, atol=1e-12)

    def test_product_state_recovers_factor(self, rng):
        rho_a = random_density_matrix((2, 1), 2, seed=11)
        rho_b = random_density_matrix((3, 1), 3, seed=12)
        product = tensor_product(rho_a, rho_b)
        assert np.allclose(partial_trace(product, "A").elements, rho_a.elements, atol=1e-12)
        assert np.allclose(partial_trace(product, "B").elements, rho_b.elements, atol=1e-12)

    def test_entangled_theta_pi_over_3(self):
        reduced = partial_trace(density_from_pure(entangled_state(math.pi / 3.0)), "A")
        assert np.allclose(reduced.elements, np.diag([0.75, 0.25]), atol=1e-12)

    def test_monopartite_rejected(self):
        with pytest.raises(ValidationError, match="bipartite"):
            partial_trace(random_density_matrix((2, 1), 2, seed=1), "A")

    def test_trace_preserved(self, rng):
        for seed in range(5):
            rho = random_density_matrix((2, 3), 4, seed=seed)
            for keep in ("A", "B"):
                assert np.trace(partial_trace(rho, keep).elements).real == pytest.approx(
                    1.0, abs=1e-12
                )


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(bell_density()) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_is_positive_zero(self):
        """The negated sum of zeros is -0.0, which prints as -0."""
        for rho in (bell_density(), DensityMatrix(np.diag([1.0, 0.0]), (2, 1))):
            assert math.copysign(1.0, von_neumann_entropy(rho)) == 1.0

    @pytest.mark.parametrize("dim", [4, 16])
    def test_nearly_pure_states_match_mpmath(self, dim):
        """(1 - eps)|psi><psi| + eps I/d for eps in [1e-15, 1e-9] has the
        spectrum {1 - eps + eps/d, eps/d (d - 1 times)}. Eigenvalues eps/d
        are counted from ZERO_PROBABILITY (1e-15) up, so the entropy is
        within 1e-12 of the exact one; cut at 1e-12 it was off by up to
        6.6e-11 (d = 4) and 2.6e-10 (d = 16)."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = np.random.default_rng(dim)
        for eps in np.logspace(-15, -9, 25):
            ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            ket /= np.linalg.norm(ket)
            rho = DensityMatrix((1.0 - eps) * np.outer(ket, ket.conj()) + eps * np.eye(dim) / dim, (dim, 1))
            e = mpmath.mpf(float(eps))
            large, small = 1 - e + e / dim, e / dim
            exact = -(large * mpmath.log(large) + (dim - 1) * small * mpmath.log(small))
            assert abs(von_neumann_entropy(rho) - float(exact)) <= 1e-12

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2.0, (2, 1))
        assert von_neumann_entropy(rho) == pytest.approx(LN2, abs=1e-14)

    def test_reduced_entangled_state(self):
        reduced = partial_trace(density_from_pure(entangled_state(math.pi / 3.0)), "A")
        assert von_neumann_entropy(reduced) == pytest.approx(BINARY_H_QUARTER, abs=1e-12)

    def test_unitary_invariance(self, rng):
        for seed in range(20):
            rho = random_density_matrix((4, 1), 3, seed=seed)
            u = random_unitary(4, rng)
            rotated = DensityMatrix(u @ rho.elements @ u.conj().T, (4, 1))
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-10
            )


class TestQuantumRelativeEntropy:
    def test_identical_states(self):
        rho = random_density_matrix((2, 1), 2, seed=3)
        assert quantum_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        pure = DensityMatrix(np.diag([1.0, 0.0]), (2, 1))
        mixed = DensityMatrix(np.eye(2) / 2.0, (2, 1))
        assert quantum_relative_entropy(pure, mixed) == pytest.approx(LN2, abs=1e-12)

    def test_support_violation_is_infinite(self):
        mixed = DensityMatrix(np.eye(2) / 2.0, (2, 1))
        pure = DensityMatrix(np.diag([1.0, 0.0]), (2, 1))
        assert quantum_relative_entropy(mixed, pure) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            quantum_relative_entropy(
                random_density_matrix((2, 1), 2, seed=0), random_density_matrix((3, 1), 3, seed=0)
            )

    def test_klein_inequality(self, rng):
        for seed in range(40):
            sigma = random_density_matrix((4, 1), 4, seed=seed)
            rho = random_density_matrix((4, 1), 4, seed=seed + 1000)
            assert quantum_relative_entropy(sigma, rho) >= -1e-10


class TestQuantumMutualInformation:
    def test_product_state(self):
        rho = tensor_product(
            random_density_matrix((2, 1), 2, seed=4), random_density_matrix((2, 1), 2, seed=5)
        )
        assert quantum_mutual_information(rho) == pytest.approx(0.0, abs=1e-10)

    def test_bell_state_doubles_classical_cap(self):
        info = quantum_mutual_information(bell_density())
        assert info == pytest.approx(2.0 * LN2, abs=1e-12)
        assert info > LN2 + 0.5  # strictly above the classical two-outcome maximum

    def test_partially_entangled(self):
        rho = density_from_pure(entangled_state(math.pi / 3.0))
        assert quantum_mutual_information(rho) == pytest.approx(
            2.0 * BINARY_H_QUARTER, abs=1e-11
        )

    def test_agrees_with_relative_entropy_form(self, rng):
        for seed in range(25):
            rho = random_density_matrix((2, 2), 4, seed=seed)
            product = tensor_product(partial_trace(rho, "A"), partial_trace(rho, "B"))
            assert quantum_mutual_information(rho) == pytest.approx(
                quantum_relative_entropy(rho, product), abs=1e-9
            )


class TestArakiLieb:
    def test_bell_state(self):
        lower, middle, upper = araki_lieb_check(bell_density())
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert middle == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(2.0 * LN2, abs=1e-12)

    def test_product_of_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (2, 2))
        lower, middle, upper = araki_lieb_check(rho)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert middle == pytest.approx(2.0 * LN2, abs=1e-12)
        assert upper == pytest.approx(2.0 * LN2, abs=1e-12)

    def test_sandwich_on_random_2x3_states(self):
        for seed in range(200):
            rho = random_density_matrix((2, 3), int(1 + seed % 6), seed=seed)
            lower, middle, upper = araki_lieb_check(rho)
            assert lower - 1e-9 <= middle <= upper + 1e-9


class TestEntanglementEntropy:
    def test_separable(self):
        assert entanglement_entropy(entangled_state(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_bell(self):
        assert entanglement_entropy(bell_state()) == pytest.approx(LN2, abs=1e-12)

    def test_theta_pi_over_3(self):
        assert entanglement_entropy(entangled_state(math.pi / 3.0)) == pytest.approx(
            BINARY_H_QUARTER, abs=1e-12
        )

    def test_both_marginals_agree(self, rng):
        for _ in range(50):
            raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            psi = PureState(raw / np.linalg.norm(raw), (2, 3))
            rho = density_from_pure(psi)
            s_a = von_neumann_entropy(partial_trace(rho, "A"))
            s_b = von_neumann_entropy(partial_trace(rho, "B"))
            assert s_a == pytest.approx(s_b, abs=1e-10)
            assert entanglement_entropy(psi) == pytest.approx(s_a, abs=1e-12)


class TestRandomDensityMatrix:
    def test_rank_one_is_pure(self):
        rho = random_density_matrix((2, 1), 1, seed=7)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_full_rank_invariants(self):
        rho = random_density_matrix((2, 2), 4, seed=1)
        assert np.trace(rho.elements).real == pytest.approx(1.0, abs=1e-12)
        assert rho.spectrum().min() > 0.0

    def test_deterministic_given_seed(self):
        first = random_density_matrix((2, 2), 3, seed=42)
        second = random_density_matrix((2, 2), 3, seed=42)
        assert np.array_equal(first.elements, second.elements)

    def test_invalid_rank(self):
        with pytest.raises(ValidationError, match="rank"):
            random_density_matrix((2, 2), 5, seed=0)

    @pytest.mark.parametrize("dims", [(2.7, 2), ("2", 2), (2, 2, 1)])
    def test_dims_must_be_a_pair_of_integers(self, dims):
        # the constructor's rule: a float is rejected, not truncated
        with pytest.raises(ValidationError, match="dims must be a pair of integers"):
            random_density_matrix(dims, 2, seed=1)

    def test_dims_must_be_positive(self):
        with pytest.raises(ValidationError, match="dims must be positive"):
            random_density_matrix((-2, -2), 2, seed=1)


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        rho = random_density_matrix((2, 2), 3, seed=9)
        recovered = density_matrix_from_json(density_matrix_to_json(rho))
        assert np.array_equal(recovered.elements, rho.elements)
        assert recovered.dims == rho.dims

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "not valid JSON"),
            ("[[0.5, 0.0], [0.0, 0.5]]", "JSON object with 'dims' and 'matrix'; got list"),
            ('{"dims": [2, 1]}', "JSON object with 'dims' and 'matrix'; got dict"),
            ('{"dims": [2, 1], "matrix": [[1, 0, 0], [0, 0], [0, 0], [0, 0]]}', r"\[re, im\] number pairs"),
            ('{"dims": [2, 1], "matrix": [["1", 0], [0, 0], [0, 0], [0, 0]]}', r"\[re, im\] number pairs"),
            ('{"dims": ["a", 1], "matrix": [[1, 0], [0, 0], [0, 0], [0, 0]]}', "pair of integers"),
        ],
    )
    def test_malformed_file_rejected(self, text, message):
        with pytest.raises(ValidationError, match=message):
            density_matrix_from_json(text)

    def test_loading_enforces_invariants(self):
        text = density_matrix_to_json(bell_density()).replace("0.4999999999999999", "0.4", 1)
        with pytest.raises(ValidationError):
            density_matrix_from_json(text)
