"""Finite-dimensional quantum states and von Neumann entropic quantities.

States are bipartite by convention: a :class:`DensityMatrix` carries a
dimension split ``dims = (d_a, d_b)`` with subsystem A as the slow
(leftmost) index under row-major flattening. Monopartite states use
``d_b = 1``. All entropies are in nats.

A :class:`DensityMatrix` computes its spectrum at construction, which
validation and every entropy read; its phase-fixed eigenbasis, which
only :func:`quantum_relative_entropy` reads, is computed on the first
:meth:`~DensityMatrix.eigenbasis` call and kept.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import MATRIX_TOL, NEGATIVE_CLAMP, NORM_TOL, SUPPORT_CUTOFF, ValidationError, hermitian_part
from .probability import _plogp


def eigh_phase_fixed(matrix: np.ndarray):
    """Hermitian eigendecomposition with a deterministic eigenvector gauge.

    Eigenvalues come out ascending (as from ``numpy.linalg.eigh``); each
    eigenvector is rephased so that its largest-magnitude component is
    real and positive, making the decomposition reproducible.
    """
    vals, vecs = np.linalg.eigh(matrix)
    phases = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]  # first index on ties
    # numpy scalar division per column: the array ufunc rounds some factors differently
    return vals, vecs * np.array([phase.conjugate() / abs(phase) for phase in phases])


def _validate_dims(dims, size: int | None = None) -> tuple:
    """``dims`` as a pair of positive integers whose product is ``size``
    (any product when ``size`` is None)."""
    try:
        d_a, d_b = (operator.index(d) for d in dims)  # integers only: no float or str coercion
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"dims must be a pair of integers; got {dims!r}") from exc
    if d_a < 1 or d_b < 1:
        raise ValidationError(f"dims must be positive; got {dims!r}")
    if size is not None and d_a * d_b != size:
        raise ValidationError(
            f"dims {dims!r} incompatible with total dimension {size}"
        )
    return (d_a, d_b)


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector with a bipartite dimension split."""

    amplitudes: np.ndarray
    dims: tuple

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).ravel().copy()
        dims = _validate_dims(self.dims, amp.size)
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
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
    """

    elements: np.ndarray
    dims: tuple

    def __post_init__(self):
        raw = np.asarray(self.elements, dtype=complex)
        mat = hermitian_part(raw, "density matrix")
        dims = _validate_dims(self.dims, mat.shape[0])
        trace = complex(np.trace(raw))
        if abs(trace - 1.0) > MATRIX_TOL:
            raise ValidationError(
                f"trace must be 1 within {MATRIX_TOL}; got trace {trace.real!r}"
            )
        vals = np.linalg.eigvalsh(mat)  # ascending
        if vals[0] < -MATRIX_TOL:
            raise ValidationError(
                f"matrix is not positive semidefinite: smallest eigenvalue {float(vals[0])!r}"
            )
        vals = np.maximum(vals, 0.0)
        mat.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "elements", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_spectrum", vals)
        object.__setattr__(self, "_basis", None)

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
        """Phase-fixed eigenvector columns matching :meth:`spectrum`, read-only;
        computed on the first call and kept."""
        if self._basis is None:
            vecs = eigh_phase_fixed(self.elements)[1]
            vecs.flags.writeable = False
            object.__setattr__(self, "_basis", vecs)
        return self._basis


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi|."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims)


def tensor_product(rho_a: DensityMatrix, rho_b: DensityMatrix) -> DensityMatrix:
    """Product state rho_a (x) rho_b with dims (dim_a, dim_b)."""
    return DensityMatrix(np.kron(rho_a.elements, rho_b.elements), (rho_a.dim, rho_b.dim))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduced state of one subsystem of a bipartite density matrix.

    Parameters
    ----------
    rho : DensityMatrix
        Bipartite state.
    keep : {"A", "B"}
        Which subsystem survives the trace.
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
    at or below ``ZERO_PROBABILITY`` are zeros, as in :mod:`qcorr.probability`."""
    return 0.0 - float(np.sum(_plogp(rho.spectrum())))  # +0.0, not -0.0, for a pure state


def quantum_relative_entropy(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """Relative entropy Tr[sigma (ln sigma - ln rho)] in nats.

    Computed in the eigenbases of the two states. Returns ``math.inf``
    when the support of ``sigma`` is not contained in the support of
    ``rho`` (support detected at the ``SUPPORT_CUTOFF`` eigenvalue
    threshold). Non-negative by Klein's inequality.
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
    """
    if not psi.is_bipartite:
        raise ValidationError("entanglement entropy requires a bipartite state")
    return von_neumann_entropy(partial_trace(density_from_pure(psi), "A"))


def random_density_matrix(dims, rank: int, seed: int) -> DensityMatrix:
    """Random state from the Hilbert-Schmidt-style Gram-matrix ensemble.

    Draws a complex Gaussian ``d x rank`` matrix X with the given seed
    and returns ``X X^dagger / Tr[X X^dagger]``. Deterministic for a
    fixed seed.
    """
    d_a, d_b = _validate_dims(dims)
    dim = d_a * d_b
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must be in [1, {dim}]; got {rank}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    gram = x @ x.conj().T
    return DensityMatrix(gram / np.trace(gram).real, (d_a, d_b))


# -- JSON serialization -------------------------------------------------
#
# A density matrix is stored as {"dims": [d_a, d_b], "matrix": [[re, im],
# ...]} with the matrix flattened row-major. Plain float serialization
# round-trips 64-bit values exactly.

def _matrix_to_pairs(mat: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in mat.ravel()]


def _pairs_to_matrix(pairs) -> np.ndarray:
    try:
        flat = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix must be a list of [re, im] number pairs: {exc}") from exc
    dim = math.isqrt(flat.size)
    if dim * dim != flat.size:
        raise ValidationError(f"matrix length {flat.size} is not a perfect square")
    return flat.reshape(dim, dim)


def density_matrix_to_json(rho: DensityMatrix) -> str:
    return json.dumps({"dims": [rho.dims[0], rho.dims[1]], "matrix": _matrix_to_pairs(rho.elements)})


def density_matrix_from_json(text: str) -> DensityMatrix:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"density matrix file is not valid JSON: {exc}") from exc
    try:
        dims = payload["dims"]
        pairs = payload["matrix"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            f"density matrix must be a JSON object with 'dims' and 'matrix'; got {type(payload).__name__}"
        ) from exc
    return DensityMatrix(_pairs_to_matrix(pairs), dims)
