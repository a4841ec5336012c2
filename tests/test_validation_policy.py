"""Boundary tests of the Hermiticity/symmetry gate of each validated matrix type.

Each case adds a defect ``delta`` to one off-diagonal entry, so that the
max entrywise defect ``|M - M^dagger|`` is exactly ``delta``: half the
type's tolerance is accepted, twice it rejected, and a NaN or infinite
defect is rejected as non-finite. The tolerances are written out here,
not imported from ``qcorr.errors``, so that moving a gate fails these
tests.
"""

import numpy as np
import pytest

from qcorr import (
    CovarianceMatrix,
    DensityMatrix,
    Observable,
    Povm,
    QuadraticHamiltonian,
    ValidationError,
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
