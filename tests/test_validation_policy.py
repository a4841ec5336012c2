"""Boundary tests of the Hermiticity/symmetry gate of each validated matrix type.

Each case adds a defect ``delta`` to one off-diagonal entry, so that the
max entrywise defect ``|M - M^dagger|`` is exactly ``delta``: half the
type's tolerance is accepted, twice it rejected, and a NaN or infinite
defect is rejected as non-finite. The tolerances are written out here,
not imported from ``qcorr.errors``, so that moving a gate fails these
tests. The uncertainty bound nu >= 1/2 - 1e-9 is pinned the same way,
for the covariance constructor and for ``mode_entropy``, which must
never reject what the constructor accepted, and so is the gap within
which an observable's eigenvalues merge into one outcome.
"""

import numpy as np
import pytest

from qcorr import (
    CovarianceMatrix,
    DensityMatrix,
    Distribution,
    Observable,
    Povm,
    QuadraticHamiltonian,
    QuenchParams,
    ValidationError,
    everett_state,
    gaussian_entropy,
    mode_entropy,
    quench_hamiltonian_matrix,
    symplectic_eigenvalues,
)


def with_defect(base: np.ndarray, delta: float) -> np.ndarray:
    mat = np.array(base, dtype=float)
    mat[0, 1] += delta
    return mat


# name -> (tolerance, word in the rejection message, builder of an instance with defect d)
CASES = {
    "density_matrix": (
        1e-10, "Hermitian", lambda d: DensityMatrix(with_defect(np.diag([0.5, 0.5]), d), (2, 1))
    ),
    "observable": (
        1e-10, "Hermitian", lambda d: Observable(with_defect(np.diag([1.0, -1.0]), d))
    ),
    # opposite defects keep the elements summing to the identity
    "povm": (
        1e-10,
        "Hermitian",
        lambda d: Povm((with_defect(np.diag([1.0, 0.0]), d), with_defect(np.diag([0.0, 1.0]), -d))),
    ),
    "covariance": (
        1e-10, "symmetric", lambda d: CovarianceMatrix(with_defect(0.6 * np.eye(4), d))
    ),
    "hamiltonian": (
        1e-12, "symmetric", lambda d: QuadraticHamiltonian(with_defect(np.eye(4), d))
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_half_tolerance_accepted(name):
    tol, _, build = CASES[name]
    build(0.5 * tol)


@pytest.mark.parametrize("name", sorted(CASES))
def test_double_tolerance_rejected(name):
    tol, word, build = CASES[name]
    with pytest.raises(ValidationError, match=word):
        build(2.0 * tol)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", sorted(CASES))
def test_non_finite_entry_rejected(name, value):
    _, _, build = CASES[name]
    with pytest.raises(ValidationError, match="must be finite"):
        build(value)


def test_non_finite_diagonal_rejected():
    with pytest.raises(ValidationError, match="density matrix must be finite"):
        DensityMatrix(np.diag([float("nan"), 0.5, 0.25, 0.25]), (2, 2))


PHYSICALITY_SLACK = 1e-9


def test_covariance_at_half_slack_accepted_downstream():
    sigma = CovarianceMatrix((0.5 - 0.5 * PHYSICALITY_SLACK) * np.eye(4))
    assert gaussian_entropy(sigma) == 0.0
    assert symplectic_eigenvalues(sigma) == pytest.approx((0.5, 0.5), abs=1e-9)


def test_covariance_at_double_slack_rejected():
    with pytest.raises(ValidationError, match="uncertainty"):
        CovarianceMatrix((0.5 - 2.0 * PHYSICALITY_SLACK) * np.eye(4))


@pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
def test_mode_entropy_half_slack_accepted(as_array):
    nu = 0.5 - 0.5 * PHYSICALITY_SLACK
    value = mode_entropy(np.array([nu]) if as_array else nu)
    assert np.array_equal(value, [0.0] if as_array else 0.0)


@pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
def test_mode_entropy_double_slack_rejected(as_array):
    nu = 0.5 - 2.0 * PHYSICALITY_SLACK
    with pytest.raises(ValidationError, match="below the vacuum value"):
        mode_entropy(np.array([nu, 1.0]) if as_array else nu)


@pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
def test_mode_entropy_nan_rejected(as_array):
    # NaN compares false both ways, so the gate must accept only nu >= bound
    nu = float("nan")
    with pytest.raises(ValidationError, match="below the vacuum value"):
        mode_entropy(np.array([nu, 1.0]) if as_array else nu)


DEGENERACY_TOL = 1e-9


@pytest.mark.parametrize("top", [1.0, 1e3])
@pytest.mark.parametrize("factor, outcomes", [(0.5, 1), (2.0, 2)], ids=["half", "double"])
def test_degenerate_eigenvalues_merge_within_tolerance(top, factor, outcomes):
    # the gap scales with max(1, max |eigenvalue|): half of it merges, twice it splits
    gap = factor * DEGENERACY_TOL * max(1.0, top)
    observable = Observable(np.diag([-1.0, top - gap, top]))
    assert len(observable.outcome_values) == outcomes + 1


# each rejection measures or echoes a numpy scalar
NUMPY_SCALAR_REJECTIONS = {
    "negative eigenvalue": lambda: DensityMatrix(np.diag([1.1, -0.1]), (2, 1)),
    "negative entry": lambda: Distribution(np.array([1.1, -0.1])),
    "zero total": lambda: Distribution.normalized(np.zeros(2)),
    "quench beta": lambda: QuenchParams(beta=np.float64(-1.0)),
    "omega": lambda: quench_hamiltonian_matrix(np.float64(-1.0), 1.0),
    "pointer overlap": lambda: everett_state(1.0, 0.0, np.float64(2.0)),
}


@pytest.mark.parametrize("name", sorted(NUMPY_SCALAR_REJECTIONS))
def test_messages_print_plain_numbers(name):
    with pytest.raises(ValidationError) as info:
        NUMPY_SCALAR_REJECTIONS[name]()
    assert "np.float64" not in str(info.value)
