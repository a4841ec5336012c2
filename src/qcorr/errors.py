"""Exception types and the validation policy shared across the package:
every accept/reject tolerance and zero cutoff, defined once below."""

import numpy as np


class ValidationError(ValueError):
    """An input value violates a documented invariant.

    The message names the first violated invariant and includes the
    measured value.
    """


class ConsistencyError(RuntimeError):
    """Two internally redundant computations disagree beyond tolerance."""


# -- tolerance table ----------------------------------------------------
#
# Hermiticity/symmetry defect, trace defect, eigenvalue floor and completeness of matrices.
MATRIX_TOL = 1e-10
# Symmetry defect of a quadratic Hamiltonian's coefficient matrix.
HAMILTONIAN_TOL = 1e-12
# Unit-sum defect of a distribution; unit-norm defect of a state vector or amplitude pair.
NORM_TOL = 1e-12
# Unit-sum defect of Born probabilities beyond which they are rejected, not renormalized.
BORN_SUM_TOL = 1e-9
# Observable eigenvalues closer than this times max(1, max |eigenvalue|) merge into one outcome.
DEGENERACY_TOL = 1e-9
# Probabilities at or below this are exact zeros in p ln p and when conditioning.
ZERO_PROBABILITY = 1e-15
# Measurement outcomes at or below this weight are impossible: no conditional state.
ZERO_WEIGHT = 1e-14
# Eigenvalues and mode occupations nu - 1/2 at or below this are zeros inside logarithms.
SUPPORT_CUTOFF = 1e-12
# Classical correlations or discord down to -NEGATIVE_CLAMP are rounding and clamp to zero.
NEGATIVE_CLAMP = 1e-9
# Both sides of a work identity (w_irr = w_avg - df, two excess-work routes) agree within this.
IDENTITY_TOL = 1e-12
# Excess dissipated work below this is rejected as negative.
OMEGA_FLOOR = -1e-9
# Covariance matrices and mode entropies admit symplectic eigenvalues down to 1/2 - PHYSICALITY_SLACK.
PHYSICALITY_SLACK = 1e-9
# Gaussian discord treats a measured mode with det - 1 below this as pure (doubled convention).
PURE_MODE_CUTOFF = 1e-9
# Relative width of the boundary between the closed Gaussian discord's two branches.
BRANCH_BOUNDARY_WIDTH = 1e-9


def hermitian_part(matrix, what: str, dtype=complex, tol: float = MATRIX_TOL, even: bool = False):
    """Validated Hermitian part ``(M + M^dagger) / 2`` of a square matrix.

    Raises :class:`ValidationError` naming the matrix ``what`` unless it is
    non-empty and square (of even size if ``even``), finite, and has max
    entrywise defect ``|M - M^dagger|`` at most ``tol``. A real ``dtype``
    makes this the symmetric part and a symmetry check.
    """
    mat = np.asarray(matrix, dtype=dtype)
    if not (mat.ndim == 2 and mat.shape[0] == mat.shape[1] > 0) or (even and mat.shape[0] % 2):
        size = "non-empty square of even size" if even else "non-empty square"
        raise ValidationError(f"{what} must be {size}; got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValidationError(f"{what} must be finite; got a NaN or infinite entry")
    adjoint = mat.conj().T
    defect = float(np.max(np.abs(mat - adjoint)))
    if defect > tol:
        kind = "Hermitian" if np.iscomplexobj(mat) else "symmetric"
        raise ValidationError(f"{what} is not {kind}: max entrywise defect {defect!r}")
    return (mat + adjoint) / 2.0
