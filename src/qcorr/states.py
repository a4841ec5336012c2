"""Finite-dimensional quantum states and von Neumann entropic quantities.

States are bipartite by convention: a :class:`DensityMatrix` carries a
dimension split ``dims = (d_a, d_b)`` with subsystem A as the slow
(leftmost) index under row-major flattening. Monopartite states use
``d_b = 1``. All entropies are in nats.

A :class:`DensityMatrix` computes its spectrum at construction, which
validation and every entropy read; its phase-fixed eigenbasis, which
only :func:`quantum_relative_entropy` reads, is computed anew on each
:meth:`~DensityMatrix.eigenbasis` call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import MATRIX_TOL, NEGATIVE_CLAMP, NORM_TOL, SUPPORT_CUTOFF, ValidationError, hermitian_part, number_array
from .errors import require_integer, require_seed
from .probability import _plogp


def eigh_phase_fixed(matrix: np.ndarray):
    """Hermitian eigendecomposition with a deterministic eigenvector gauge.

    Eigenvalues come out ascending (as from ``numpy.linalg.eigh``); each
    eigenvector is rephased so that its largest-magnitude component is
    real and positive, making the decomposition reproducible.

    Domain: not checked; a square Hermitian array, of which numpy's eigh reads the lower triangle: other shapes raise numpy's LinAlgError, and a NaN entry gives NaN eigenvalues.
    """
    vals, vecs = np.linalg.eigh(matrix)
    phases = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]  # first index on ties
    # numpy scalar division per column: the array ufunc rounds some factors differently
    return vals, vecs * np.array([phase.conjugate() / abs(phase) for phase in phases])


def _validate_dims(dims, size: int | None = None) -> tuple:
    """``dims`` as a pair of positive integers whose product is ``size``
    (any product when ``size`` is None)."""
    try:
        d_a, d_b = map(operator.index, dims)  # integers only: no float or str coercion
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"dims must be a pair of integers; got {dims!r}") from exc
    if d_a < 1 or d_b < 1:
        raise ValidationError(f"dims must be positive; got {dims!r}")
    if size is not None and d_a * d_b != size:
        raise ValidationError(f"dims {dims!r} incompatible with total dimension {size}")
    return (d_a, d_b)


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector with a bipartite dimension split.

    Domain: finite numbers of unit norm within ``NORM_TOL`` (flattened), and dims a pair of positive integers whose product is their count; anything else, ragged, non-numeric, NaN and infinite input included, raises ValidationError naming the violated invariant."""

    amplitudes: np.ndarray
    dims: tuple

    def __post_init__(self):
        amp = number_array(self.amplitudes, "state vector", complex).ravel().copy()
        dims = _validate_dims(self.dims, amp.size)
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"state norm is {norm!r}; expected 1 within {NORM_TOL}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def is_bipartite(self) -> bool:
        return self.dims[1] > 1


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, positive semidefinite, unit-trace matrix.

    Parameters
    ----------
    elements : array_like
        Complex square matrix. Hermiticity, unit trace and positivity
        are checked at construction to ``MATRIX_TOL``; eigenvalues in
        ``[-MATRIX_TOL, 0)`` are clamped to zero.
    dims : pair of int
        Subsystem dimensions ``(d_a, d_b)`` with product equal to the
        matrix size. Use ``d_b = 1`` for monopartite states.

    Domain: a non-empty square array of finite numbers, none larger than ``MATRIX_ENTRY_MAX`` in magnitude, Hermitian, of unit trace and positive semidefinite within ``MATRIX_TOL``, and dims a pair of positive integers whose product is its size; anything else, ragged or non-numeric input included, raises ValidationError naming the violated invariant.
    """

    elements: np.ndarray
    dims: tuple

    def __post_init__(self):
        raw = number_array(self.elements, "density matrix", complex)
        mat = hermitian_part(raw, "density matrix")
        dims = _validate_dims(self.dims, len(mat))
        trace = complex(raw.trace())
        if abs(trace - 1.0) > MATRIX_TOL:
            raise ValidationError(f"trace must be 1 within {MATRIX_TOL}; got trace {trace.real!r}")
        vals = np.linalg.eigvalsh(mat)  # ascending
        if vals[0] < -MATRIX_TOL:
            raise ValidationError(f"matrix is not positive semidefinite: smallest eigenvalue {float(vals[0])!r}")
        np.maximum(vals, 0.0, out=vals)
        mat.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "elements", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_spectrum", vals)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    @property
    def is_bipartite(self) -> bool:
        return self.dims[1] > 1

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending, clamped to be non-negative."""
        return self._spectrum

    def eigenbasis(self) -> np.ndarray:
        """Phase-fixed eigenvector columns matching :meth:`spectrum`, computed
        on each call: a fresh array, so writing into it changes no later result."""
        return eigh_phase_fixed(self.elements)[1]


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi|.

    Domain: a :class:`PureState`; anything else escapes as AttributeError."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims)


def tensor_product(rho_a: DensityMatrix, rho_b: DensityMatrix) -> DensityMatrix:
    """Product state rho_a (x) rho_b with dims (dim_a, dim_b).

    Domain: two :class:`DensityMatrix` objects; anything else escapes as AttributeError."""
    return DensityMatrix(np.kron(rho_a.elements, rho_b.elements), (rho_a.dim, rho_b.dim))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduced state of one subsystem of a bipartite density matrix.

    Parameters
    ----------
    rho : DensityMatrix
        Bipartite state.
    keep : {"A", "B"}
        Which subsystem survives the trace.

    Domain: a bipartite :class:`DensityMatrix` (d_b > 1) and keep "A" or "B", else ValidationError; anything but a DensityMatrix escapes as AttributeError.
    """
    if not rho.is_bipartite:
        raise ValidationError("partial trace requires a bipartite state (d_b > 1)")
    d_a, d_b = rho.dims
    four = rho.elements.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        reduced = np.einsum("abcb->ac", four)
        return DensityMatrix(reduced, (d_a, 1))
    if keep == "B":
        reduced = np.einsum("abad->bd", four)
        return DensityMatrix(reduced, (d_b, 1))
    raise ValidationError(f"keep must be 'A' or 'B'; got {keep!r}")


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr[rho ln rho] in nats, in [0, ln d]; eigenvalues
    at or below ``ZERO_PROBABILITY`` are zeros, as in :mod:`qcorr.probability`.

    Domain: a :class:`DensityMatrix`; anything else escapes as AttributeError."""
    return 0.0 - float(np.sum(_plogp(rho.spectrum())))  # +0.0, not -0.0, for a pure state


def quantum_relative_entropy(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """Relative entropy Tr[sigma (ln sigma - ln rho)] in nats.

    Computed in the eigenbases of the two states. Returns ``math.inf``
    when the support of ``sigma`` is not contained in the support of
    ``rho`` (support detected at the ``SUPPORT_CUTOFF`` eigenvalue
    threshold). Non-negative by Klein's inequality.

    Domain: two :class:`DensityMatrix` objects of one dimension, else ValidationError; anything but a DensityMatrix escapes as AttributeError.
    """
    if sigma.dim != rho.dim:
        raise ValidationError(f"dimension mismatch: {sigma.dim} vs {rho.dim}")
    s_vals = sigma.spectrum()
    r_vals, r_vecs = rho.spectrum(), rho.eigenbasis()
    # weights of sigma in rho's eigenbasis
    weights = np.real(np.einsum("ik,ij,jk->k", r_vecs.conj(), sigma.elements, r_vecs))
    weights = np.clip(weights, 0.0, None)
    dead = r_vals <= SUPPORT_CUTOFF
    if np.any(weights[dead] > SUPPORT_CUTOFF):
        return math.inf
    live = ~dead
    tr_sigma_ln_rho = float(np.sum(weights[live] * np.log(r_vals[live])))
    tr_sigma_ln_sigma = float(np.sum(_plogp(s_vals)))
    return tr_sigma_ln_sigma - tr_sigma_ln_rho


def quantum_mutual_information(rho: DensityMatrix) -> float:
    """Quantum mutual information S(rho_A) + S(rho_B) - S(rho_AB), nats.

    Also expressible as the relative entropy from ``rho`` to the product
    of its marginals; the two forms are checked against each other in
    the test suite. Values in ``[-NEGATIVE_CLAMP, 0)`` are rounding, or
    eigenvalues on different sides of ``ZERO_PROBABILITY`` in the three
    spectra, and read as zero.

    Domain: a bipartite :class:`DensityMatrix` (d_b > 1), else ValidationError; anything but a DensityMatrix escapes as AttributeError.
    """
    if not rho.is_bipartite:
        raise ValidationError("mutual information requires a bipartite state")
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    info = s_a + s_b - von_neumann_entropy(rho)
    return 0.0 if -NEGATIVE_CLAMP <= info < 0.0 else info


def araki_lieb_check(rho: DensityMatrix):
    """The triple (|S_A - S_B|, S_AB, S_A + S_B) in nats.

    For every valid bipartite state the middle value is sandwiched by
    the outer two.

    Domain: a bipartite :class:`DensityMatrix` (d_b > 1), else ValidationError; anything but a DensityMatrix escapes as AttributeError.
    """
    if not rho.is_bipartite:
        raise ValidationError("Araki-Lieb bounds require a bipartite state")
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    return (abs(s_a - s_b), von_neumann_entropy(rho), s_a + s_b)


def entanglement_entropy(psi: PureState) -> float:
    """Entanglement entropy of a bipartite pure state.

    The von Neumann entropy of either reduced state; both subsystems
    give the same value for a globally pure state.

    Domain: a bipartite :class:`PureState` (d_b > 1), else ValidationError; anything but a PureState escapes as AttributeError.
    """
    if not psi.is_bipartite:
        raise ValidationError("entanglement entropy requires a bipartite state")
    return von_neumann_entropy(partial_trace(density_from_pure(psi), "A"))


def random_density_matrix(dims, rank: int, seed: int) -> DensityMatrix:
    """Random state from the Hilbert-Schmidt-style Gram-matrix ensemble.

    Draws a complex Gaussian ``d x rank`` matrix X with the given seed
    and returns ``X X^dagger / Tr[X X^dagger]``. Deterministic for a
    fixed seed.

    Domain: dims a pair of positive integers, rank an integer in [1, d_a d_b] and seed a non-negative integer; anything else raises ValidationError naming the argument.
    """
    d_a, d_b = _validate_dims(dims)
    dim = d_a * d_b
    rank = require_integer("rank", rank)
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must be in [1, {dim}]; got {rank}")
    rng = np.random.default_rng(require_seed(seed))
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    gram = x @ x.conj().T
    return DensityMatrix(gram / np.trace(gram).real, (d_a, d_b))

