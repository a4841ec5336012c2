"""Observables, Born-rule statistics, pointer-basis measurement models,
POVMs and local stochastic (Kraus) maps.

Measurement outcomes are always ordered by ascending eigenvalue, and
projectors onto degenerate eigenspaces are merged into a single outcome,
so the distributions produced here are reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import BORN_SUM_TOL, DEGENERACY_TOL, MATRIX_TOL, NORM_TOL, ZERO_WEIGHT, ValidationError, hermitian_part
from .errors import number_array, require_identity, require_integer, require_real
from .probability import Distribution, JointDistribution, mutual_information
from .states import DensityMatrix, PureState, eigh_phase_fixed


def _merge_degenerate(vals: np.ndarray, vecs: np.ndarray):
    """Group eigenvectors whose eigenvalues coincide within tolerance.

    Returns (outcome_values, projectors) ordered by ascending eigenvalue.
    """
    gap_tol = DEGENERACY_TOL * max(1.0, float(np.max(np.abs(vals))))
    outcomes, projectors = [], []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > gap_tol:
            block = vecs[:, start:k]
            projectors.append(block @ block.conj().T)
            outcomes.append(float(np.mean(vals[start:k])))
            start = k
    return np.array(outcomes), projectors


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian operator with cached spectral data.

    The eigenprojectors (merged over degenerate eigenvalues) resolve the
    identity and define the measurement outcomes.

    Domain: a non-empty square array of numbers, none NaN or larger than ``MATRIX_ENTRY_MAX`` in magnitude, Hermitian within ``MATRIX_TOL``; anything else, ragged or non-numeric input included, raises ValidationError naming the observable.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = hermitian_part(self.matrix, "observable")
        vals, vecs = eigh_phase_fixed(mat)
        outcomes, projectors = _merge_degenerate(vals, vecs)
        require_identity(sum(projectors), "eigenprojectors fail to resolve identity")
        for array in (mat, outcomes, *projectors):
            array.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_outcomes", outcomes)
        object.__setattr__(self, "_projectors", projectors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def outcome_values(self) -> np.ndarray:
        return self._outcomes

    @property
    def projectors(self) -> list:
        return list(self._projectors)


def computational_basis_observable(dim: int) -> Observable:
    """Observable whose eigenbasis is the computational basis, with
    outcome k carrying eigenvalue k.

    Domain: a Python or numpy integer dim >= 1; a float, string or None raises ValidationError naming dim, and dim <= 0 one naming the empty observable."""
    return Observable(np.diag(np.arange(require_integer("dim", dim), dtype=float)))


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measure: PSD elements summing to identity.

    Domain: a non-empty iterable of square matrices of one shape, each valid as an :class:`Observable`'s matrix and PSD within ``MATRIX_TOL``, summing to the identity within ``MATRIX_TOL``; any other such input raises ValidationError naming the element or the sum, and a non-iterable escapes as TypeError.
    """

    elements: tuple

    def __post_init__(self):
        mats = tuple(hermitian_part(e, f"element {idx}") for idx, e in enumerate(self.elements))
        if not mats:
            raise ValidationError("a POVM needs at least one element")
        dim = mats[0].shape[0]
        for idx, e in enumerate(mats):
            if e.shape != (dim, dim):
                raise ValidationError(f"element {idx} has shape {e.shape}; expected ({dim}, {dim})")
            low = float(np.linalg.eigvalsh(e).min())
            if low < -MATRIX_TOL:
                raise ValidationError(f"element {idx} is not PSD: eigenvalue {low!r}")
        require_identity(sum(mats), "elements do not sum to identity")
        for e in mats:
            e.flags.writeable = False
        object.__setattr__(self, "elements", mats)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class StochasticMap:
    """A trace-preserving quantum operation given by Kraus operators.

    Domain: a non-empty iterable of finite, non-empty 2-D arrays of numbers of one shape whose sum of K^dagger K is the identity within ``MATRIX_TOL``; anything else, a non-iterable included (read as operator 0), raises ValidationError naming the Kraus operator or the sum.
    """

    kraus_ops: tuple

    def __post_init__(self):
        kraus = self.kraus_ops if isinstance(self.kraus_ops, Iterable) else (self.kraus_ops,)  # then operator 0, of no shape
        # copies: the caller's arrays stay the caller's
        ops = tuple(number_array(k, f"Kraus operator {idx}", complex).copy() for idx, k in enumerate(kraus))
        if not ops:
            raise ValidationError("a stochastic map needs at least one Kraus operator")
        for idx, k in enumerate(ops):
            if k.ndim != 2 or k.size == 0 or k.shape != ops[0].shape:
                need = f"shape {ops[0].shape}" if idx else "a non-empty 2-D array"
                raise ValidationError(f"Kraus operator {idx} has shape {k.shape}; expected {need}")
        require_identity(sum(k.conj().T @ k for k in ops), "Kraus operators are not trace preserving")
        for k in ops:
            k.flags.writeable = False
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[1]


def everett_state(alpha: complex, beta: complex, eps: float) -> PureState:
    """Post-measurement system-pointer state with pointer overlap eps.

    Builds ``alpha |0>|m1> + beta |1>|m2>`` where the pointer states live
    in a two-dimensional device space with ``|m1> = |0>`` and
    ``|m2> = eps |0> + sqrt(1 - eps^2) |1>``, so ``<m1|m2> = eps``.
    ``eps = 0`` gives perfectly distinguishable pointers and ``eps = 1``
    a product state. The output is normalized automatically because the
    system kets are orthogonal.

    Domain: amplitudes that ``complex()`` accepts with |alpha|^2 + |beta|^2 = 1 within ``NORM_TOL``, and a real 0 <= eps <= 1; else ValidationError naming the norm or the pointer overlap, while an amplitude that ``complex()`` rejects escapes as its TypeError, ValueError or OverflowError.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    weight = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(weight - 1.0) > NORM_TOL:
        raise ValidationError(f"|alpha|^2 + |beta|^2 = {weight!r}; expected 1 within {NORM_TOL}")
    require_real("pointer overlap", eps)
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"pointer overlap must lie in [0, 1]; got {eps}")
    amplitudes = np.array(
        [alpha, 0.0, beta * eps, beta * math.sqrt(max(1.0 - eps * eps, 0.0))],
        dtype=complex,
    )
    return PureState(amplitudes, (2, 2))


def born_distribution(rho: DensityMatrix, obs: Observable) -> Distribution:
    """Outcome distribution Tr[rho P_i] over the observable's
    eigenprojectors, ordered by ascending eigenvalue.

    The computed probabilities inherit the state's trace defect (up to
    ``MATRIX_TOL`` by construction), so they are renormalized rather
    than rejected; a defect beyond ``BORN_SUM_TOL`` signals a broken
    projector resolution.

    Domain: a :class:`~qcorr.states.DensityMatrix` and an :class:`Observable` of its dimension, else ValidationError; other types escape as AttributeError.
    """
    if rho.dim != obs.dim:
        raise ValidationError(f"dimension mismatch: state {rho.dim} vs observable {obs.dim}")
    probs = np.array(
        [float(np.real(np.trace(rho.elements @ proj))) for proj in obs.projectors]
    )
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > BORN_SUM_TOL:
        raise ValidationError(f"outcome probabilities sum to {float(probs.sum())!r}")
    return Distribution.normalized(probs)


def joint_born_distribution(
    rho: DensityMatrix, obs_a: Observable, obs_b: Observable
) -> JointDistribution:
    """Joint outcome table Tr[rho (P_i (x) Q_j)] for local observables.

    Marginals reproduce the Born distributions of the reduced states.

    Domain: a bipartite :class:`~qcorr.states.DensityMatrix` (d_b > 1) and two :class:`Observable` objects of its dims (d_a, d_b), else ValidationError; other types escape as AttributeError.
    """
    if not rho.is_bipartite:
        raise ValidationError("joint distribution requires a bipartite state")
    d_a, d_b = rho.dims
    if obs_a.dim != d_a or obs_b.dim != d_b:
        raise ValidationError(
            f"observables of dimensions ({obs_a.dim}, {obs_b.dim}) do not match dims {rho.dims}"
        )
    table = np.empty((len(obs_a.projectors), len(obs_b.projectors)))
    for i, p in enumerate(obs_a.projectors):
        for j, q in enumerate(obs_b.projectors):
            table[i, j] = float(np.real(np.trace(rho.elements @ np.kron(p, q))))
    table = np.clip(table, 0.0, None)
    if abs(table.sum() - 1.0) > BORN_SUM_TOL:
        raise ValidationError(f"joint outcome probabilities sum to {float(table.sum())!r}")
    return JointDistribution.normalized(table)


def measurement_mutual_information(
    rho: DensityMatrix, obs_a: Observable, obs_b: Observable
) -> float:
    """Shannon mutual information of the joint Born table, in nats.

    Domain: as :func:`joint_born_distribution`."""
    return mutual_information(joint_born_distribution(rho, obs_a, obs_b))


def apply_local_map(rho: DensityMatrix, channel: StochasticMap, side: str) -> DensityMatrix:
    """Apply a stochastic map to one subsystem: sum_k K' rho K'^dagger with K' = K (x) I on side "A", I (x) K on "B".

    Domain: a bipartite :class:`~qcorr.states.DensityMatrix` (d_b > 1), side "A" or "B" and a :class:`StochasticMap` of that side's dimension, else ValidationError; other types escape as AttributeError."""
    if not rho.is_bipartite:
        raise ValidationError("local maps act on bipartite states")
    if side not in ("A", "B"):
        raise ValidationError(f"side must be 'A' or 'B'; got {side!r}")
    at = "AB".index(side)
    if channel.dim != rho.dims[at]:
        raise ValidationError(f"Kraus dimension {channel.dim} does not match d_{side.lower()} = {rho.dims[at]}")
    factors = [np.eye(d) for d in rho.dims]
    embedded = [np.kron(*factors[:at], k, *factors[at + 1 :]) for k in channel.kraus_ops]
    out = sum(k @ rho.elements @ k.conj().T for k in embedded)
    return DensityMatrix(out, rho.dims)


def povm_outcome(rho: DensityMatrix, povm: Povm, j: int):
    """Probability and conditional state of B for POVM outcome j on A.

    The POVM acts on subsystem A (elements are d_a x d_a, embedded as
    ``E_j (x) I``). Returns ``(p_j, rho_B_given_j)``. Raises when the
    requested outcome has probability at or below ``ZERO_WEIGHT``, since
    the conditional state is then undefined.

    Positivity is checked on the unnormalized block Tr_A[(E_j (x) I) rho],
    at the scale of ``rho``, to ``MATRIX_TOL``; the conditional state is
    then built from the block's clamped spectrum divided by its sum. Dividing
    the block by p_j first would scale its rounding by 1 / p_j and reject
    outcomes of small but valid probability.

    Domain: a bipartite :class:`~qcorr.states.DensityMatrix` (d_b > 1), a :class:`Povm` of dimension d_a and an integer 0 <= j < len(povm) whose outcome has probability above ``ZERO_WEIGHT`` and a PSD block within ``MATRIX_TOL``, else ValidationError; other types escape as AttributeError.
    """
    if not rho.is_bipartite:
        raise ValidationError("POVM conditioning requires a bipartite state")
    d_a, d_b = rho.dims
    if povm.dim != d_a:
        raise ValidationError(f"POVM dimension {povm.dim} does not match d_a = {d_a}")
    j = require_integer("outcome index", j)
    if not 0 <= j < len(povm):
        raise ValidationError(f"outcome index {j} out of range for {len(povm)} elements")
    effect = povm.elements[j]
    four = rho.elements.reshape(d_a, d_b, d_a, d_b)
    # Tr_A[(E_j (x) I) rho], a d_b x d_b block
    block = np.einsum("ab,bcad->cd", effect, four)
    prob = float(np.real(np.trace(block)))
    if prob <= ZERO_WEIGHT:
        raise ValidationError(
            f"outcome {j} has probability {prob!r}; conditional state undefined"
        )
    vals, vecs = np.linalg.eigh((block + block.conj().T) / 2.0)
    if vals[0] < -MATRIX_TOL:
        raise ValidationError(
            f"outcome {j} block is not positive semidefinite: smallest eigenvalue {float(vals[0])!r}"
        )
    vals = np.maximum(vals, 0.0)
    conditional = DensityMatrix((vecs * (vals / vals.sum())) @ vecs.conj().T, (d_b, 1))
    return prob, conditional
