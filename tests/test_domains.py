"""Domain contracts, property-tested: every draw inside a function's
stated domain matches an independent reference, and every draw outside it
raises :class:`ValidationError` naming the violated invariant.

Two-qubit discord: ``discord``, ``discord_swapped`` and
``max_classical_correlations`` take a :class:`DensityMatrix` with dims
(2, 2). Inside, states are Gram matrices G G^dagger / Tr of ranks 1 to 4
with Hypothesis-drawn entries, and nearly pure mixtures (1 - eps) pure +
eps mixed with eps log-uniform in [1e-13, 1e-5]; the reference is the
64 x 64 grid plus Nelder-Mead search of :mod:`tests.discord_oracle` for
C, and :func:`quantum_mutual_information` for I.

Quench sweep: ``sweep_temperature`` takes an integer ``points`` >= 2, a
Python or numpy integer; a float, even an integral one, or a string
raises naming ``points``. A string or None where ``QuenchParams``, the
sweep, ``report_at`` or ``at_temperature`` take a real number raises
naming that field.

Gaussian frequencies and temperatures: ``thermal_variance`` (and so
``thermal_covariance``) takes beta > 0, hbar > 0 and 0 < omega < inf, and
``normal_mode_frequencies``, ``quench_hamiltonian_matrix`` and
``quench_propagator_closed_form`` take 0 < omega < inf; NaN fails every
``not x > 0`` guard. ``symplectic_propagator`` and
``symplectic_evolution`` take a finite real ``t`` whose propagator is
finite. Each violation raises naming the argument.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcorr import (
    DensityMatrix,
    QuenchParams,
    ValidationError,
    discord,
    direct_sum,
    discord_swapped,
    max_classical_correlations,
    normal_mode_frequencies,
    quench_hamiltonian_matrix,
    quench_propagator_closed_form,
    symplectic_evolution,
    symplectic_propagator,
    thermal_covariance,
    thermal_variance,
    quantum_mutual_information,
    report_at,
    sweep_temperature,
)
from qcorr.discord import _bloch

from . import discord_oracle

TOL = 1e-12
# the same draws on every run: no example database replays earlier failures
INSIDE = settings(derandomize=True, database=None, max_examples=30, deadline=None)
OUTSIDE = settings(derandomize=True, database=None, max_examples=10, deadline=None)  # per (search, invariant) pair

unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


def _gram(draw, dim: int, rank: int) -> np.ndarray:
    """G G^dagger / Tr for a dim x rank complex G with drawn entries."""
    parts = draw(arrays(float, (dim, rank, 2), elements=unit_floats))
    assume(np.sum(parts**2) > 1e-2)
    g = parts[..., 0] + 1j * parts[..., 1]
    gram = g @ g.conj().T
    return gram / np.trace(gram).real


@st.composite
def two_qubit_states(draw):
    """A state of rank 1 to 4, or a nearly pure mixture."""
    mat = _gram(draw, 4, draw(st.integers(1, 4)))
    if draw(st.booleans()):
        eps = 10.0 ** draw(st.floats(-13.0, -5.0))
        mat = (1.0 - eps) * _gram(draw, 4, 1) + eps * mat
    return DensityMatrix(mat, (2, 2))


def _oracle_bloch(rho: DensityMatrix, swapped: bool = False):
    a, b, t = _bloch(rho)
    return (b, a, t.T) if swapped else (a, b, t)


class TestInsideTheDomain:
    @INSIDE
    @given(two_qubit_states(), st.booleans())
    def test_discord_matches_the_oracle(self, rho, swapped):
        """C is read no higher than I, as discord reads it: near the support
        cutoff the oracle's C counts eigenvalues that I drops."""
        result = (discord_swapped if swapped else discord)(rho)
        info = quantum_mutual_information(rho)
        c = min(discord_oracle._maximize_classical_correlations(_oracle_bloch(rho, swapped))[0], info)
        assert abs(result.classical_corr - c) <= TOL
        assert abs(result.mutual_info - info) <= TOL
        assert abs(result.discord - max(info - c, 0.0)) <= TOL

    @INSIDE
    @given(two_qubit_states())
    def test_max_classical_correlations_matches_the_oracle(self, rho):
        """The basis returned attains the value, read by the oracle's C."""
        value, basis = max_classical_correlations(rho)
        bloch = _oracle_bloch(rho)
        s_b = discord_oracle._qubit_entropy(float(bloch[1] @ bloch[1]))
        assert abs(value - discord_oracle._maximize_classical_correlations(bloch)[0]) <= TOL
        assert abs(discord_oracle._grid_values(bloch, s_b, [basis.theta], [basis.phi])[0, 0] - value) <= TOL


SEARCHES = [discord, discord_swapped, max_classical_correlations]


@st.composite
def states_of_other_dims(draw):
    """A valid state whose dims are not (2, 2)."""
    dims = draw(st.sampled_from([(4, 1), (1, 4), (2, 1), (3, 1), (2, 3), (3, 2), (2, 4)]))
    dim = dims[0] * dims[1]
    return DensityMatrix(_gram(draw, dim, dim), dims)


# each way a 4 x 4 matrix can fail to be a state, with the words its ValidationError must contain
INVARIANTS = {
    "nan": "finite",
    "non_hermitian": "not Hermitian",
    "trace": "trace must be 1",
    "negative": "not positive semidefinite",
}


@st.composite
def invalid_two_qubit_matrices(draw, kind):
    """A 4 x 4 matrix breaking the invariant ``kind`` of a state."""
    mat = _gram(draw, 4, 4)
    i = draw(st.integers(0, 3))
    if kind == "nan":
        mat[i, draw(st.integers(0, 3))] = math.nan
        return mat
    if kind == "non_hermitian":  # off the diagonal, where a real change breaks Hermiticity too
        change = draw(st.sampled_from([1.0, 1j])) * 10.0 ** draw(st.floats(-8.0, 0.0))
        mat[i, (i + draw(st.integers(1, 3))) % 4] += change
        return mat
    if kind == "trace":
        factor = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-8.0, -0.5))
        return mat * factor
    # a negative eigenvalue at unit trace: the smallest weight moved below zero
    vals, vecs = np.linalg.eigh(mat)
    delta = 10.0 ** draw(st.floats(-8.0, -0.5))
    vals = np.concatenate([[-delta], vals[1:] * (1.0 + delta) / vals[1:].sum()])
    return (vecs * vals) @ vecs.conj().T


class TestOutsideTheDomain:
    @pytest.mark.parametrize("search", SEARCHES)
    @OUTSIDE
    @given(rho=states_of_other_dims())
    def test_wrong_dims(self, search, rho):
        with pytest.raises(ValidationError, match=r"requires a 2 \(x\) 2 state"):
            search(rho)

    @pytest.mark.parametrize("kind", INVARIANTS)
    @pytest.mark.parametrize("search", SEARCHES)
    @OUTSIDE
    @given(data=st.data())
    def test_invalid_matrix(self, search, kind, data):
        mat = data.draw(invalid_two_qubit_matrices(kind))
        with pytest.raises(ValidationError, match=INVARIANTS[kind]):
            search(DensityMatrix(mat, (2, 2)))

    @pytest.mark.parametrize("search", SEARCHES)
    def test_a_raw_array_is_not_a_state(self, search):
        with pytest.raises(ValidationError, match=r"requires a 2 \(x\) 2 state"):
            search(np.eye(4) / 4.0)


class TestSweepPoints:
    @pytest.mark.parametrize("points", [2.5, 3.0, "3", None])
    def test_non_integer_points_rejected(self, points):
        with pytest.raises(ValidationError, match="points must be an integer"):
            sweep_temperature(QuenchParams(), 0.1, 5.0, points)

    @pytest.mark.parametrize("points", [3, np.int64(3), np.int32(3)])
    def test_integer_points_accepted(self, points):
        assert len(sweep_temperature(QuenchParams(), 0.1, 5.0, points)) == 3


class TestQuenchInputTypes:
    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda: QuenchParams(omega="1"), "omega"),
            (lambda: QuenchParams(lambda0=None), "lambda0"),
            (lambda: sweep_temperature(QuenchParams(), "0.1", 5.0, 3), "t_min"),
            (lambda: sweep_temperature(QuenchParams(), 0.1, None, 3), "t_max"),
            (lambda: report_at(QuenchParams(), None), "evolution_time"),
            (lambda: sweep_temperature(QuenchParams(), 0.1, 5.0, 3, evolution_time="x"), "evolution_time"),
            (lambda: QuenchParams().at_temperature("1"), "temperature"),
        ],
        ids=["omega", "lambda0", "t_min", "t_max", "report_at", "evolution_time", "at_temperature"],
    )
    def test_wrong_type_rejected(self, call, field):
        with pytest.raises(ValidationError, match=f"{field}.* real number"):
            call()


class TestFrequenciesAndTemperatures:
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: thermal_variance(math.nan, 1.0), "beta"),
            (lambda: thermal_variance(0.0, 1.0), "beta"),
            (lambda: thermal_variance(1.0, math.nan), "omega"),
            (lambda: thermal_variance(1.0, -1.0), "omega"),
            (lambda: thermal_variance(1.0, math.inf), "omega"),
            (lambda: thermal_variance(1.0, 1.0, math.nan), "hbar"),
            (lambda: thermal_covariance(math.nan, 1.0), "beta"),
            (lambda: normal_mode_frequencies(-1.0, 1.0), "omega"),
            (lambda: normal_mode_frequencies(math.nan, 1.0), "omega"),
            (lambda: normal_mode_frequencies(0.0, 1.0), "omega"),
            (lambda: quench_propagator_closed_form(-1.0, 1.0, 1.0), "omega"),
            (lambda: quench_propagator_closed_form(math.nan, 1.0, 1.0), "omega"),
            (lambda: quench_hamiltonian_matrix(math.nan, 1.0), "omega"),
            (lambda: quench_hamiltonian_matrix(math.inf, 1.0), "omega"),
        ],
        ids=[
            "thermal_variance_beta_nan", "thermal_variance_beta_zero", "thermal_variance_omega_nan",
            "thermal_variance_omega_negative", "thermal_variance_omega_inf", "thermal_variance_hbar_nan",
            "thermal_covariance_beta_nan", "normal_modes_omega_negative", "normal_modes_omega_nan",
            "normal_modes_omega_zero", "closed_form_omega_negative", "closed_form_omega_nan",
            "hamiltonian_omega_nan", "hamiltonian_omega_inf",
        ],
    )
    def test_rejected_naming_the_argument(self, call, name):
        with pytest.raises(ValidationError, match=f"^{name} must be positive"):
            call()

    def test_zero_temperature_is_the_vacuum(self):
        assert thermal_variance(math.inf, 1.0) == 0.5


class TestEvolutionTime:
    HAM = quench_hamiltonian_matrix(1.0, 0.5)

    @pytest.mark.parametrize(
        "t, message",
        [
            (math.nan, "t must be finite"),
            (math.inf, "t must be finite"),
            (-math.inf, "t must be finite"),
            ("1", "t must be a real number"),
            (None, "t must be a real number"),
            (1j, "t must be a real number"),
            (1e300, "t = 1e\\+300 overflows the propagator"),
        ],
    )
    def test_rejected_naming_t(self, t, message):
        vacuum = direct_sum(thermal_covariance(math.inf, 1.0), thermal_covariance(math.inf, 1.0))
        for call in (lambda: symplectic_propagator(self.HAM, t), lambda: symplectic_evolution(vacuum, self.HAM, t)):
            with pytest.raises(ValidationError, match=message):
                call()

    @pytest.mark.parametrize("t", [0.0, -2.5, 3, np.float64(20.0)])
    def test_finite_real_t_accepted(self, t):
        s = symplectic_propagator(self.HAM, t)
        assert abs(np.linalg.det(s) - 1.0) <= 1e-9
