"""Shannon information measures over finite discrete distributions.

All entropies are returned in nats (natural logarithm). Every x ln x
here and in :mod:`qcorr.states` and :mod:`qcorr.discord` is :func:`_eta`
(or :func:`_plogp`), which reads x at or below ``ZERO_PROBABILITY``, the
rounding floor of a probability or eigenvalue, as an exact zero.

Distributions are validated at construction and rejected, not
renormalized, when the normalization is off by more than ``NORM_TOL``
(both tolerances are defined in :mod:`qcorr.errors`); use
:meth:`Distribution.normalized` to build a distribution from raw
non-negative weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NORM_TOL, ZERO_PROBABILITY, ValidationError


def _as_prob_array(values, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"{what} must be a non-empty {ndim}-d array; got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite; got a NaN or infinite entry")
    if np.any(arr < 0.0):
        raise ValidationError(f"{what} has a negative entry: {float(arr.min())!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValidationError(f"{what} entries sum to {total!r}; expected 1 within {NORM_TOL}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _eta(x: float) -> float:
    """x ln x of a float, zero for x at or below ``ZERO_PROBABILITY``."""
    return x * math.log(x) if x > ZERO_PROBABILITY else 0.0


def _plogp(p: np.ndarray) -> np.ndarray:
    """Entrywise :func:`_eta` of an array."""
    live = p > ZERO_PROBABILITY
    return np.where(live, p * np.log(np.where(live, p, 1.0)), 0.0)


def _normalized(cls, weights):
    """Build a distribution by normalizing raw non-negative weights.

    Finite weights whose sum overflows are first divided by the largest
    of them; any other input is divided by its sum alone.
    """
    w = np.asarray(weights, dtype=float)
    if not np.isfinite(w).all():
        raise ValidationError("weights must be finite; got a NaN or infinite entry")
    with np.errstate(over="ignore"):
        total = w.sum()
    if total == math.inf:
        w = w / w.max()
        total = w.sum()
    if total <= 0:
        raise ValidationError(f"weights must have positive total; got {float(total)!r}")
    return cls(w / total)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A finite discrete probability distribution.

    Parameters
    ----------
    probs : array_like
        Non-negative reals summing to 1 within ``NORM_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_prob_array(self.probs, 1, "distribution"))

    normalized = classmethod(_normalized)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A joint distribution of two finite variables.

    Rows index outcomes of X, columns outcomes of Y. Row sums give the
    X marginal and column sums the Y marginal.
    """

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _as_prob_array(self.table, 2, "joint table"))

    normalized = classmethod(_normalized)

    def marginal_x(self) -> Distribution:
        return Distribution(self.table.sum(axis=1))

    def marginal_y(self) -> Distribution:
        return Distribution(self.table.sum(axis=0))

    def transpose(self) -> "JointDistribution":
        return JointDistribution(self.table.T)


def _coerce_dist(d) -> Distribution:
    return d if isinstance(d, Distribution) else Distribution(d)


def _coerce_joint(j) -> JointDistribution:
    return j if isinstance(j, JointDistribution) else JointDistribution(j)


def shannon_entropy(d) -> float:
    """Shannon entropy S = -sum_i p_i ln p_i, in nats.

    Lies in [0, ln n] for an n-outcome distribution.
    """
    d = _coerce_dist(d)
    return 0.0 - float(_plogp(d.probs).sum())  # 0.0 - 0.0 is +0.0, where -(0.0) would be -0.0


def joint_entropy(j) -> float:
    """Entropy of the joint table, -sum_ij p_ij ln p_ij, in nats."""
    j = _coerce_joint(j)
    return 0.0 - float(_plogp(j.table).sum())


def conditional_entropy(j) -> float:
    """Conditional entropy S_X(Y) = -sum_ij p(x_i, y_j) ln[p(x_i, y_j)/p(x_i)].

    Measures the residual uncertainty in Y once X is known. Rows whose
    marginal probability is zero contribute nothing.
    """
    j = _coerce_joint(j)
    px = j.table.sum(axis=1)
    total = 0.0
    for i, row_p in enumerate(px):
        if row_p <= ZERO_PROBABILITY:
            continue
        row = j.table[i]
        live = row > ZERO_PROBABILITY
        total -= float(np.sum(row[live] * np.log(row[live] / row_p)))
    return total


def mutual_information(j) -> float:
    """Shannon mutual information I = S(X) + S(Y) - S(X, Y), in nats.

    Equals S(Y) - S_X(Y) and S(X) - S_Y(X), is non-negative, and is
    symmetric under transposition of the table.
    """
    j = _coerce_joint(j)
    sx = shannon_entropy(j.marginal_x())
    sy = shannon_entropy(j.marginal_y())
    return sx + sy - joint_entropy(j)


def relative_entropy(p, q) -> float:
    """Relative entropy (Kullback-Leibler divergence) sum_i p_i ln(p_i/q_i).

    Returns ``math.inf`` when the support of ``p`` is not contained in
    the support of ``q``. Non-negative, and zero exactly when p = q.
    """
    p = _coerce_dist(p)
    q = _coerce_dist(q)
    if len(p) != len(q):
        raise ValidationError(f"length mismatch: {len(p)} vs {len(q)}")
    total = 0.0
    for pi, qi in zip(p.probs, q.probs):
        if pi <= ZERO_PROBABILITY:
            continue
        if qi <= ZERO_PROBABILITY:
            return math.inf
        total += pi * math.log(pi / qi)
    return total


def mutual_information_as_divergence(j) -> float:
    """Mutual information computed as the divergence from the joint
    distribution to the product of its marginals.

    Agrees with :func:`mutual_information` to high accuracy; the two
    routes are kept separate so they can be checked against each other.
    """
    j = _coerce_joint(j)
    product = np.outer(j.marginal_x().probs, j.marginal_y().probs)
    return relative_entropy(Distribution(j.table.ravel()), Distribution(product.ravel()))
