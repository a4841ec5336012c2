import math

import numpy as np
import pytest

from qcorr import (
    DensityMatrix,
    JointDistribution,
    Observable,
    Povm,
    StochasticMap,
    ValidationError,
    apply_local_map,
    born_distribution,
    computational_basis_observable,
    density_from_pure,
    everett_state,
    joint_born_distribution,
    measurement_mutual_information,
    mutual_information,
    povm_outcome,
    quantum_mutual_information,
    random_density_matrix,
    shannon_entropy,
    tensor_product,
    von_neumann_entropy,
)

from .conftest import bell_density, random_channel, random_unitary, werner_state

LN2 = 0.6931471805599453
# mutual information of the joint Born table of the half-overlap pointer
# state, evaluated independently at 30-digit precision
EVERETT_MI_HALF = 0.38039566584857787

PAULI_Z = np.diag([1.0, -1.0])
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def z_basis_povm() -> Povm:
    return Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


class TestObservable:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_outcomes_sorted_ascending(self):
        obs = Observable(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(obs.outcome_values, [-1.0, 2.0, 3.0])

    def test_degenerate_eigenspaces_merged(self):
        obs = Observable(np.kron(PAULI_Z, np.eye(2)))
        assert len(obs.projectors) == 2
        assert all(np.trace(p).real == pytest.approx(2.0) for p in obs.projectors)

    def test_projectors_resolve_identity(self, rng):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = Observable(raw + raw.conj().T)
        assert np.allclose(sum(obs.projectors), np.eye(4), atol=1e-10)


class TestPovmAndChannel:
    def test_povm_completeness_enforced(self):
        with pytest.raises(ValidationError, match="identity"):
            Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))

    def test_povm_positivity_enforced(self):
        with pytest.raises(ValidationError, match="PSD"):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))

    def test_channel_trace_preservation_enforced(self):
        with pytest.raises(ValidationError, match="trace preserving"):
            StochasticMap((np.diag([0.5, 0.5]),))


class TestValidatedRecordsAreFrozen:
    """A validated Observable, Povm or StochasticMap holds read-only copies:
    a write raises, and a later write to the caller's array changes nothing."""

    def test_map_ignores_later_writes_to_the_callers_array(self):
        x = PAULI_X.astype(complex)  # complex, so that a conversion without a copy would share it
        flip = StochasticMap((x,))
        x[:] = np.eye(2)
        rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        assert np.array_equal(apply_local_map(rho, flip, "A").elements, np.diag([0.0, 0.5, 0.5, 0.0]))

    @pytest.mark.parametrize(
        "arrays",
        [
            lambda: StochasticMap((PAULI_X,)).kraus_ops,
            lambda: z_basis_povm().elements,
            lambda: (Observable(PAULI_Z).outcome_values, *Observable(np.kron(PAULI_Z, np.eye(2))).projectors),
        ],
        ids=["kraus_ops", "povm_elements", "observable_outcomes_and_projectors"],
    )
    def test_writes_raise(self, arrays):
        for array in arrays():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


class TestEverettState:
    def test_zero_overlap_is_bell(self):
        psi = everett_state(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15)

    def test_unit_overlap_is_product(self):
        alpha, beta = 0.6, 0.8
        psi = everett_state(alpha, beta, 1.0)
        assert np.allclose(psi.amplitudes, [alpha, 0.0, beta, 0.0], atol=1e-15)
        rho = density_from_pure(psi)
        assert quantum_mutual_information(rho) == pytest.approx(0.0, abs=1e-10)

    def test_half_overlap_amplitudes(self):
        psi = everett_state(1 / math.sqrt(2), 1 / math.sqrt(2), 0.5)
        expected = [0.70710678118654752, 0.0, 0.35355339059327376, 0.61237243569579452]
        assert np.allclose(psi.amplitudes, expected, atol=1e-14)

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            everett_state(1.0, 0.5, 0.0)

    def test_overlap_range_enforced(self):
        with pytest.raises(ValidationError, match="overlap"):
            everett_state(1.0, 0.0, 1.5)


class TestBornDistributions:
    def test_maximally_mixed_any_observable(self, rng):
        rho = DensityMatrix(np.eye(2) / 2.0, (2, 1))
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        obs = Observable(raw + raw.conj().T)
        assert born_distribution(rho, obs).probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_eigenstate_is_deterministic(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]), (2, 1))
        assert born_distribution(rho, Observable(PAULI_Z)).probs == pytest.approx(
            [0.0, 1.0], abs=1e-12
        )

    def test_complementary_basis_is_uniform(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]), (2, 1))
        assert born_distribution(rho, Observable(PAULI_X)).probs == pytest.approx(
            [0.5, 0.5], abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            born_distribution(bell_density(), Observable(PAULI_Z))


class TestJointBorn:
    def test_bell_computational_bases(self):
        obs = computational_basis_observable(2)
        table = joint_born_distribution(bell_density(), obs, obs)
        assert np.allclose(table.table, np.diag([0.5, 0.5]), atol=1e-12)

    def test_product_state_gives_product_table(self):
        rho = tensor_product(
            random_density_matrix((2, 1), 2, seed=21), random_density_matrix((2, 1), 2, seed=22)
        )
        obs = computational_basis_observable(2)
        table = joint_born_distribution(rho, obs, obs).table
        assert np.allclose(table, np.outer(table.sum(axis=1), table.sum(axis=0)), atol=1e-12)

    def test_half_overlap_pointer_table(self):
        psi = everett_state(1 / math.sqrt(2), 1 / math.sqrt(2), 0.5)
        obs = computational_basis_observable(2)
        table = joint_born_distribution(density_from_pure(psi), obs, obs)
        assert np.allclose(table.table, [[0.5, 0.0], [0.125, 0.375]], atol=1e-14)

    def test_marginals_match_reduced_born(self, rng):
        from qcorr import partial_trace

        for seed in range(10):
            rho = random_density_matrix((2, 2), 3, seed=seed)
            raw_a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            raw_b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            obs_a, obs_b = Observable(raw_a + raw_a.conj().T), Observable(raw_b + raw_b.conj().T)
            joint = joint_born_distribution(rho, obs_a, obs_b)
            marg_a = born_distribution(partial_trace(rho, "A"), obs_a)
            marg_b = born_distribution(partial_trace(rho, "B"), obs_b)
            assert joint.marginal_x().probs == pytest.approx(marg_a.probs, abs=1e-12)
            assert joint.marginal_y().probs == pytest.approx(marg_b.probs, abs=1e-12)


class TestMeasurementMutualInformation:
    def test_distinct_pointers_reach_ln2(self):
        obs = computational_basis_observable(2)
        rho = density_from_pure(everett_state(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0))
        assert measurement_mutual_information(rho, obs, obs) == pytest.approx(LN2, abs=1e-12)

    def test_identical_pointers_give_zero(self):
        obs = computational_basis_observable(2)
        rho = density_from_pure(everett_state(1 / math.sqrt(2), 1 / math.sqrt(2), 1.0))
        assert measurement_mutual_information(rho, obs, obs) == pytest.approx(0.0, abs=1e-12)

    def test_half_overlap_value(self):
        obs = computational_basis_observable(2)
        rho = density_from_pure(everett_state(1 / math.sqrt(2), 1 / math.sqrt(2), 0.5))
        assert measurement_mutual_information(rho, obs, obs) == pytest.approx(
            EVERETT_MI_HALF, abs=1e-12
        )

    def test_monotone_in_pointer_overlap(self):
        obs = computational_basis_observable(2)
        values = []
        for eps in np.linspace(0.0, 1.0, 11):
            rho = density_from_pure(everett_state(1 / math.sqrt(2), 1 / math.sqrt(2), eps))
            values.append(measurement_mutual_information(rho, obs, obs))
        assert all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:]))


class TestLocalMaps:
    def test_identity_map_is_identity(self):
        channel = StochasticMap((np.eye(2),))
        rho = bell_density()
        assert np.allclose(apply_local_map(rho, channel, "A").elements, rho.elements)

    def test_full_depolarization(self):
        kraus = tuple(
            0.5 * np.array(m)
            for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
        )
        out = apply_local_map(bell_density(), StochasticMap(kraus), "A")
        assert np.allclose(out.elements, np.eye(4) / 4.0, atol=1e-12)

    def test_dephasing_scales_bell_corners(self):
        p = 0.3
        kraus = (math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * PAULI_Z)
        out = apply_local_map(bell_density(), StochasticMap(kraus), "A")
        assert out.elements[0, 3] == pytest.approx(0.5 * (1 - 2 * p), abs=1e-14)
        assert out.elements[3, 0] == pytest.approx(0.2, abs=1e-14)

    @pytest.mark.parametrize(
        "kraus_dim, side, message",
        [
            (3, "A", "Kraus dimension 3 does not match d_a = 2"),
            (2, "B", "Kraus dimension 2 does not match d_b = 3"),
            (3, "C", "side must be 'A' or 'B'; got 'C'"),
            (2, None, "side must be 'A' or 'B'; got None"),
        ],
    )
    def test_mismatch_and_bad_side_rejected(self, kraus_dim, side, message):
        rho = random_density_matrix((2, 3), 2, seed=0)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            apply_local_map(rho, StochasticMap((np.eye(kraus_dim),)), side)

    def test_each_side_embeds_its_factor(self):
        rho = random_density_matrix((2, 3), 6, seed=1)
        flip_a = StochasticMap((np.array([[0.0, 1.0], [1.0, 0.0]]),))
        cycle_b = StochasticMap((np.roll(np.eye(3), 1, axis=0),))
        for channel, side, unitary in ((flip_a, "A", np.kron(flip_a.kraus_ops[0], np.eye(3))),
                                       (cycle_b, "B", np.kron(np.eye(2), cycle_b.kraus_ops[0]))):
            out = apply_local_map(rho, channel, side)
            assert np.array_equal(out.elements, DensityMatrix(unitary @ rho.elements @ unitary.conj().T, (2, 3)).elements)

    def test_data_processing_quantum(self, rng):
        for seed in range(500):
            rho = random_density_matrix((2, 2), int(1 + seed % 4), seed=seed)
            side = "A" if seed % 2 else "B"
            channel = random_channel(2, int(2 + seed % 3), rng)
            degraded = apply_local_map(rho, channel, side)
            assert quantum_mutual_information(degraded) <= (
                quantum_mutual_information(rho) + 1e-9
            )

    def test_data_processing_classical_post_processing(self, rng):
        obs = computational_basis_observable(2)
        for seed in range(100):
            rho = random_density_matrix((2, 2), 4, seed=seed)
            table = joint_born_distribution(rho, obs, obs).table
            stochastic = rng.random((2, 2)) + 0.05
            stochastic /= stochastic.sum(axis=0, keepdims=True)
            degraded = JointDistribution(table @ stochastic.T)
            assert mutual_information(degraded) <= mutual_information(
                JointDistribution(table)
            ) + 1e-9


class TestObservableUncertaintyBound:
    def test_single_observable_carries_more_uncertainty(self, rng):
        for seed in range(100):
            rho = random_density_matrix((4, 1), int(1 + seed % 4), seed=seed)
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            obs = Observable(raw + raw.conj().T)
            measured = shannon_entropy(born_distribution(rho, obs))
            assert measured >= von_neumann_entropy(rho) - 1e-9

    def test_equality_for_commuting_observable(self):
        for seed in range(20):
            rho = random_density_matrix((3, 1), 3, seed=seed)
            # same eigenbasis, distinct eigenvalues: commutes with rho
            obs = Observable(
                rho.eigenbasis() @ np.diag([0.0, 1.0, 2.0]) @ rho.eigenbasis().conj().T
            )
            measured = shannon_entropy(born_distribution(rho, obs))
            assert measured == pytest.approx(von_neumann_entropy(rho), abs=1e-9)


class TestPovmOutcome:
    def test_bell_projective_outcome(self):
        prob, conditional = povm_outcome(bell_density(), z_basis_povm(), 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(conditional.elements, np.diag([1.0, 0.0]), atol=1e-12)

    def test_product_state_is_undisturbed(self, rng):
        rho_b = random_density_matrix((2, 1), 2, seed=31)
        rho = tensor_product(random_density_matrix((2, 1), 2, seed=30), rho_b)
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        obs = Observable(raw + raw.conj().T)
        povm = Povm(tuple(obs.projectors))
        for j in range(2):
            prob, conditional = povm_outcome(rho, povm, j)
            assert np.allclose(conditional.elements, rho_b.elements, atol=1e-10)

    def test_werner_conditional_state(self):
        prob, conditional = povm_outcome(werner_state(0.5), z_basis_povm(), 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(conditional.elements, np.diag([0.75, 0.25]), atol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        for seed in range(20):
            rho = random_density_matrix((2, 2), 4, seed=seed)
            basis = random_unitary(2, rng)
            povm = Povm(tuple(np.outer(basis[:, j], basis[:, j].conj()) for j in range(2)))
            total = sum(povm_outcome(rho, povm, j)[0] for j in range(2))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_small_probability_outcome_of_a_nearly_pure_state(self, rng):
        """(1 - eps)|ab><ab| + eps|a'b'><a'b'| at outcome a' = a_perp, with eps
        log-uniform in [1e-12, 1e-6]: the conditional state is |b'><b'| up to
        the rounding of rho's entries divided by p (at most 4 eps_mach / p;
        0.48 measured). Dividing the block by p before the positivity check
        rejected 83 of these 200 draws."""

        def ket():
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            return v / np.linalg.norm(v)

        def perp(v):
            return np.array([-v[1].conjugate(), v[0].conjugate()])

        for _ in range(200):
            a, b, eps = ket(), ket(), 10.0 ** rng.uniform(-12.0, -6.0)
            ab, flipped = np.kron(a, b), np.kron(perp(a), perp(b))
            rho = DensityMatrix((1.0 - eps) * np.outer(ab, ab.conj()) + eps * np.outer(flipped, flipped.conj()), (2, 2))
            povm = Povm((np.outer(a, a.conj()), np.outer(perp(a), perp(a).conj())))
            prob, conditional = povm_outcome(rho, povm, 1)
            assert prob == pytest.approx(eps, rel=1e-3)
            assert abs(np.trace(conditional.elements) - 1.0) <= 1e-15
            error = np.max(np.abs(conditional.elements - np.outer(perp(b), perp(b).conj())))
            assert error <= 4.0 * np.finfo(float).eps / prob

    def test_zero_probability_outcome_raises(self):
        rho = tensor_product(
            DensityMatrix(np.diag([1.0, 0.0]), (2, 1)), DensityMatrix(np.eye(2) / 2, (2, 1))
        )
        with pytest.raises(ValidationError, match="probability"):
            povm_outcome(rho, z_basis_povm(), 1)


@pytest.mark.parametrize("dim", [2.5, "2", None])
def test_computational_basis_observable_names_a_non_integer_dim(dim):
    """A float dim was truncated by np.arange (2.5 gave a 3-outcome observable)."""
    with pytest.raises(ValidationError, match="^dim must be an integer"):
        computational_basis_observable(dim)


def test_computational_basis_observable_of_a_numpy_integer():
    assert computational_basis_observable(np.int64(3)).outcome_values.tolist() == [0.0, 1.0, 2.0]
