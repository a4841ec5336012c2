"""Exception types and the validation policy shared across the package:
every accept/reject tolerance, zero cutoff and argument check
(:func:`require_real`, :func:`require_finite`, :func:`require_integer`,
:func:`require_seed`, :func:`hermitian_part`), the one gate through which
every array of numbers enters the package (:func:`number_array`), and the
one test that an operator sum is the identity, defined once below."""

import math
import operator

import numpy as np


class ValidationError(ValueError):
    """An input value violates a documented invariant.

    The message names the first violated invariant and includes the
    measured value.

    Domain: any arguments, as for ValueError; qcorr raises it with one message string.
    """


class ConsistencyError(RuntimeError):
    """Two internally redundant computations disagree beyond tolerance.

    Domain: any arguments, as for RuntimeError; qcorr raises it with one message string.
    """


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
# The rounding floor of a probability or eigenvalue: at or below it, x is an exact zero in every
# x ln x (the one eta of qcorr.probability) and when conditioning.
ZERO_PROBABILITY = 1e-15
# Measurement outcomes at or below this weight are impossible: no conditional state.
ZERO_WEIGHT = 1e-14
# Support tests only: eigenvalues (quantum_relative_entropy) and mode occupations nu - 1/2
# (mode_entropy) at or below this are outside the support; no x ln x reads it.
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
# Local invariants a, b, d (doubled) below the vacuum's 1 by up to this are rounding of their determinants.
INVARIANT_SLACK = 1e-7
# Relative width of the boundary between the closed Gaussian discord's two branches.
BRANCH_BOUNDARY_WIDTH = 1e-9
# |det S - 1| beyond which a propagator S = exp(Omega G t) has lost its accuracy: about 300 times the
# worst value, 3.5e-13, of the dense t sweep of [0, 25] at lambda0 = 30 in test_gaussian.py::TestPadeExpm.
PROPAGATOR_DET_TOL = 1e-10
# Largest |entry| of a validated matrix: M + M^dagger and every 2 x 2 minor of it stay finite.
MATRIX_ENTRY_MAX = 1e150


def require_real(name: str, value) -> bool:
    """Whether ``value`` is finite; raises naming ``name`` unless it is a real number (NaN and inf are).

    Domain: any value; one that ``math.isfinite`` rejects, a complex number, string or None included, and an integer beyond the float range raise ValidationError naming ``name``, the integer without its digits."""
    try:
        return math.isfinite(value)
    except OverflowError:  # formatting the integer could itself fail, beyond 4300 digits
        raise ValidationError(f"{name} must be finite; got an integer beyond the float range") from None
    except TypeError:
        raise ValidationError(f"{name} must be a real number; got {value!r}") from None


def require_finite(name: str, value) -> None:
    """Raises naming ``name`` unless ``value`` is a finite real number.

    Domain: as :func:`require_real`, and NaN and inf raise ValidationError naming ``name`` too."""
    if not require_real(name, value):
        raise ValidationError(f"{name} must be finite; got {value}")


def require_integer(name: str, value) -> int:
    """``value`` through ``operator.index``: a Python or numpy integer, never a float or string.

    Domain: any value; one that ``operator.index`` rejects, a float, string or None included, raises ValidationError naming ``name`` (a bool passes as 0 or 1)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer; got {value!r}") from None


def _integer_text(value: int) -> str:
    """An integer for a message: its digits, or words for one beyond the float range, whose digits
    may not print at all (beyond 4300 digits)."""
    try:
        float(value)
    except OverflowError:
        return "an integer beyond the float range"
    return str(value)


def _require_array_size(name: str, count: int, itemsize: int, square: bool = False) -> None:
    """Raises naming ``name`` where the integer ``count`` sizes an array of ``itemsize``-byte entries, ``count`` of
    them or ``count`` squared if ``square``, beyond numpy's largest in bytes, which numpy refuses with its own ValueError."""
    largest = math.isqrt(np.iinfo(np.intp).max // itemsize) if square else np.iinfo(np.intp).max // itemsize
    if count > largest:
        raise ValidationError(f"{name} must be at most {largest} for numpy to size its {'square ' * square}array of "
                              f"{itemsize}-byte entries; got {_integer_text(count)}")


def require_seed(value) -> int:
    """A random ensemble's seed: a non-negative integer through :func:`require_integer`.

    Domain: as :func:`require_integer`, and a negative integer raises ValidationError naming the seed."""
    seed = require_integer("seed", value)
    if seed < 0:
        raise ValidationError(f"seed must be non-negative; got {_integer_text(seed)}")
    return seed


def require_identity(total: np.ndarray, what: str):
    """Raises naming ``what`` unless the square ``total`` equals the identity
    within ``MATRIX_TOL`` entrywise; a NaN defect fails too.

    Domain: a square numpy array, else not checked: numpy broadcasts another shape against the identity or raises its ValueError."""
    defect = float(np.max(np.abs(total - np.eye(len(total)))))
    if not defect <= MATRIX_TOL:
        raise ValidationError(f"{what}: defect {defect!r}")


def _as_numbers(values, what: str, dtype) -> np.ndarray:
    """``np.asarray(values, dtype)``, raising naming ``what`` where numpy cannot convert."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, strings, integers beyond the float range
        raise ValidationError(f"{what} must be a rectangular array of numbers: {exc}") from None


def number_array(values, what: str, dtype) -> np.ndarray:
    """``values`` as a numpy array of ``dtype`` with only finite entries: the one gate of array input.

    Domain: any ``values``; a ragged or non-numeric one, an integer beyond the float range, or a NaN or infinite entry raises ValidationError naming ``what``."""
    arr = _as_numbers(values, what, dtype)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite; got a NaN or infinite entry")
    return arr


def hermitian_part(matrix, what: str, dtype=complex, tol: float = MATRIX_TOL, even: bool = False):
    """Validated Hermitian part ``(M + M^dagger) / 2`` of a square matrix.

    Raises :class:`ValidationError` naming the matrix ``what`` unless it is
    a finite array of numbers (:func:`number_array`), non-empty and square
    (of even size if ``even``), has no entry larger than
    ``MATRIX_ENTRY_MAX`` in magnitude, and has max entrywise defect
    ``|M - M^dagger|`` at most ``tol``. A real ``dtype`` makes this the
    symmetric part and a symmetry check, and rejects a nonzero imaginary
    part (an all-zero one is dropped). The messages come in that order; the
    largest |entry| serves the overflow test and, as NaN and inf fail it too,
    the finite one, which only then calls :func:`number_array` for its message.

    Domain: any ``matrix``; input that fails any of these raises ValidationError naming ``what``.
    """
    # a real dtype reads everything but a real array as complex, so that no imaginary part is dropped
    cast = complex if getattr(getattr(matrix, "dtype", None), "kind", "c") == "c" else dtype
    mat = _as_numbers(matrix, what, cast)
    largest = abs(mat).max() if mat.size else 0.0
    if not largest <= MATRIX_ENTRY_MAX:
        number_array(mat, what, cast)  # raises on a NaN or infinite entry
    if not (mat.ndim == 2 and mat.shape[0] == mat.shape[1] > 0) or (even and mat.shape[0] % 2):
        size = "non-empty square of even size" if even else "non-empty square"
        raise ValidationError(f"{what} must be {size}; got shape {mat.shape}")
    if not largest <= MATRIX_ENTRY_MAX:
        raise ValidationError(f"{what} overflows: max |entry| {float(largest)!r} exceeds {MATRIX_ENTRY_MAX}")
    if cast is not dtype:
        imaginary = abs(mat.imag).max()
        if imaginary:
            raise ValidationError(f"{what} must be real: max |imaginary part| {float(imaginary)!r}")
        mat = mat.real
    adjoint = mat.conj().T
    defect = abs(mat - adjoint).max()
    if defect > tol:
        kind = "Hermitian" if np.iscomplexobj(mat) else "symmetric"
        raise ValidationError(f"{what} is not {kind}: max entrywise defect {float(defect)!r}")
    return (mat + adjoint) / 2.0
