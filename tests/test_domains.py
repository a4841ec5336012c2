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
sweep or ``report_at`` take a real number raises naming that field.

Gaussian frequencies and temperatures: ``thermal_variance`` (and so
``thermal_covariance``) takes beta > 0 and 0 < omega < inf, and
``normal_mode_frequencies``, ``quench_hamiltonian_matrix`` and the oracle
``quench_propagator_closed_form`` take 0 < omega < inf with omega^2,
2 lambda0^2 / omega^2 and omega^2 + 2 lambda0^2 nonzero and finite, the
rule of ``QuenchParams``; ``thermal_variance`` also needs
beta omega / 2 > 0 in floating point. NaN fails every ``not x > 0``
guard. ``symplectic_propagator`` and ``symplectic_evolution`` take a
finite real ``t`` whose propagator is finite with |det S - 1| at most
``PROPAGATOR_DET_TOL``. A covariance matrix has entries of at most
``MATRIX_ENTRY_MAX`` and a finite det sigma, and
``discord_from_invariants`` takes a, b and d finite and at least 1 within
``INVARIANT_SLACK``, the rounding of the determinants they are held as, a
finite c, and symplectic eigenvalues in the domain of ``mode_entropy``
(finite, and at least 1/2 within ``PHYSICALITY_SLACK``), all six real
scalars; invariants whose closed-form terms overflow to a NaN or infinite
minimal conditional determinant raise naming all four, through
``gaussian_discord`` too. The sweep's discord column has no invariants and
stays finite beyond where they overflowed. A string, None or float where
these helpers take a real number or an integer raises too.

Operators, angles and seeds: ``StochasticMap`` takes non-empty, finite 2-D
Kraus operators of one shape; ``MeasurementBasis`` and ``everett_state``
take real angles and overlap; ``random_density_matrix`` and
``random_covariance`` take a non-negative integer seed.

Matrices: ``CovarianceMatrix``, ``QuadraticHamiltonian``, ``Observable``,
``Povm``, ``DensityMatrix``, ``StochasticMap``, ``Distribution`` and
``JointDistribution`` take finite rectangular arrays of numbers,
``PureState`` one of unit norm, all through the one gate of
:mod:`qcorr.errors`, and the first two real ones: a complex matrix is
accepted as its real part only when every imaginary part is zero. ``symplectic_form`` takes an integer n_modes >= 0.
The Gaussian helpers take a ``CovarianceMatrix`` (``symplectic_evolution``
also a ``QuadraticHamiltonian``); a bare array or None raises naming its
type. An integer beyond the float range, in an array or as a scalar
argument, raises too, never the OverflowError of its conversion nor, past
4300 digits, the ValueError of formatting it.

Each violation raises naming the argument, the invariant, the operator
index or the broken rule.
"""

import importlib
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcorr import (
    CovarianceMatrix,
    DensityMatrix,
    Distribution,
    JointDistribution,
    MeasurementBasis,
    Observable,
    Povm,
    PureState,
    QuadraticHamiltonian,
    StochasticMap,
    QuenchParams,
    ValidationError,
    classical_partition,
    discord,
    direct_sum,
    discord_swapped,
    everett_state,
    gaussian_discord,
    gaussian_entropy,
    max_classical_correlations,
    minimize_gaussian_measurement,
    mode_entropy,
    normal_mode_frequencies,
    povm_outcome,
    quantum_partition,
    quench_hamiltonian_matrix,
    symplectic_evolution,
    symplectic_form,
    symplectic_propagator,
    thermal_covariance,
    thermal_variance,
    quantum_mutual_information,
    random_covariance,
    random_density_matrix,
    report_at,
    sweep_temperature,
    symplectic_eigenvalues,
)
from qcorr import gaussian, quench, states
from qcorr.discord import _bloch
from qcorr.gaussian import discord_from_invariants, local_invariants

from . import discord_oracle
from .quench_oracle import quench_discord_mp, quench_propagator_closed_form

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
    """(a, b, T) of the Bloch matrix K = [[1, b^T], [a, T]], or of its transpose, that of the swapped state."""
    k = _bloch(rho).T if swapped else _bloch(rho)
    return k[1:, 0], k[0, 1:], k[1:, 1:]


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
        ],
        ids=["omega", "lambda0", "t_min", "t_max", "report_at", "evolution_time"],
    )
    def test_wrong_type_rejected(self, call, field):
        with pytest.raises(ValidationError, match=f"{field}.* real number"):
            call()


class TestIntegerArguments:
    """A float where ``random_density_matrix``, ``random_covariance`` and
    ``povm_outcome`` take an integer, or a negative seed, raises
    ValidationError naming the argument, not a TypeError or numpy's ValueError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: random_density_matrix((2, 2), 2.5, 1), "rank must be an integer; got 2.5"),
            (lambda: povm_outcome(DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2)),
                                  Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))), 0.5),
             "outcome index must be an integer; got 0.5"),
            (lambda: random_density_matrix((2, 2), 2, 2.5), "seed must be an integer; got 2.5"),
            (lambda: random_density_matrix((2, 2), 2, -1), "seed must be non-negative; got -1"),
            (lambda: random_covariance(2.5), "seed must be an integer; got 2.5"),
            (lambda: random_covariance(-1), "seed must be non-negative; got -1"),
        ],
        ids=["random_density_matrix_rank", "povm_outcome_index", "random_density_matrix_seed_float",
             "random_density_matrix_seed_negative", "random_covariance_seed_float", "random_covariance_seed_negative"],
    )
    def test_rejected_naming_the_argument(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()


class TestOperatorsAndAngles:
    """A Kraus operator that is not a non-empty 2-D array, does not share the
    first one's shape or is not finite, and an angle or pointer overlap that
    is not a real number, raise ValidationError naming the operator index or
    the argument, not numpy's IndexError or ValueError or a TypeError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: StochasticMap((np.array([1.0, 0.0]),)),
             r"Kraus operator 0 has shape \(2,\); expected a non-empty 2-D array"),
            (lambda: StochasticMap((np.eye(2), np.eye(3))), r"Kraus operator 1 has shape \(3, 3\); expected shape \(2, 2\)"),
            (lambda: StochasticMap((np.zeros((0, 0)),)),
             r"Kraus operator 0 has shape \(0, 0\); expected a non-empty 2-D array"),
            (lambda: StochasticMap((np.eye(2), np.full((2, 2), math.nan))),
             "Kraus operator 1 must be finite; got a NaN or infinite entry"),
            (lambda: MeasurementBasis("1", 0.0), "theta must be a real number; got '1'"),
            (lambda: MeasurementBasis(0.0, None), "phi must be a real number; got None"),
            (lambda: everett_state(1.0, 0.0, "0.5"), "pointer overlap must be a real number; got '0.5'"),
        ],
        ids=["kraus_1d", "kraus_shapes_differ", "kraus_empty", "kraus_nan", "basis_theta_str", "basis_phi_none",
             "everett_eps_str"],
    )
    def test_rejected_naming_the_operator_or_argument(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()


RATIO = r"omega\^2 must be nonzero and finite, and so must 2 lambda0\^2 / omega\^2"


class TestFrequenciesAndTemperatures:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: thermal_variance(math.nan, 1.0), "beta must be positive"),
            (lambda: thermal_variance(0.0, 1.0), "beta must be positive"),
            (lambda: thermal_variance(1.0, math.nan), "omega must be positive"),
            (lambda: thermal_variance(1.0, -1.0), "omega must be positive"),
            (lambda: thermal_variance(1.0, math.inf), "omega must be positive"),
            (lambda: thermal_covariance(math.nan, 1.0), "beta must be positive"),
            (lambda: normal_mode_frequencies(-1.0, 1.0), "omega must be positive"),
            (lambda: normal_mode_frequencies(math.nan, 1.0), "omega must be positive"),
            (lambda: normal_mode_frequencies(0.0, 1.0), "omega must be positive"),
            (lambda: quench_propagator_closed_form(-1.0, 1.0, 1.0), "omega must be positive"),
            (lambda: quench_propagator_closed_form(math.nan, 1.0, 1.0), "omega must be positive"),
            (lambda: quench_hamiltonian_matrix(math.nan, 1.0), "omega must be positive"),
            (lambda: quench_hamiltonian_matrix(math.inf, 1.0), "omega must be positive"),
            (lambda: thermal_variance(1e-200, 1e-200), "beta omega / 2 underflows"),
            (lambda: thermal_variance(1e-155, 1e-155), "beta omega / 2 underflows"),
            (lambda: normal_mode_frequencies(1.0, 1e200), RATIO),
            (lambda: quench_propagator_closed_form(1.0, 1e200, 1.0), RATIO),
            (lambda: quench_hamiltonian_matrix(1e-200, 1.0), RATIO),
            (lambda: quench_hamiltonian_matrix(1e-100, 1e100), RATIO),
            (lambda: normal_mode_frequencies(1.3e154, 0.5e154), RATIO),
            (lambda: report_at(QuenchParams(omega=1.3e154, lambda0=0.5e154)), RATIO),
            (lambda: thermal_variance("1", 1.0), "beta must be a real number; got '1'"),
            (lambda: thermal_variance(1.0, None), "omega must be a real number; got None"),
            (lambda: thermal_covariance(None, 1.0), "beta must be a real number; got None"),
            (lambda: normal_mode_frequencies(1.0, "1"), "coupling must be a real number; got '1'"),
            (lambda: quench_hamiltonian_matrix("1", 1.0), "omega must be a real number; got '1'"),
            (lambda: classical_partition(QuenchParams(), "1"), "coupling must be a real number; got '1'"),
            (lambda: quantum_partition(QuenchParams(), "1"), "coupling must be a real number; got '1'"),
        ],
        ids=[
            "thermal_variance_beta_nan", "thermal_variance_beta_zero", "thermal_variance_omega_nan",
            "thermal_variance_omega_negative", "thermal_variance_omega_inf",
            "thermal_covariance_beta_nan", "normal_modes_omega_negative", "normal_modes_omega_nan",
            "normal_modes_omega_zero", "closed_form_omega_negative", "closed_form_omega_nan",
            "hamiltonian_omega_nan", "hamiltonian_omega_inf", "thermal_variance_underflow",
            "thermal_variance_subnormal",
            "normal_modes_ratio_overflow", "closed_form_ratio_overflow", "hamiltonian_omega_square_underflow",
            "hamiltonian_ratio_overflow", "normal_modes_sum_overflow", "report_at_sum_overflow",
            "thermal_variance_beta_str", "thermal_variance_omega_none",
            "thermal_covariance_beta_none", "normal_modes_coupling_str", "hamiltonian_omega_str",
            "classical_partition_coupling_str", "quantum_partition_coupling_str",
        ],
    )
    def test_rejected_naming_the_argument(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            call()

    def test_zero_temperature_is_the_vacuum(self):
        assert thermal_variance(math.inf, 1.0) == 0.5


class TestPartitionRange:
    """Z_C and Z_Q name beta omega or beta w / 2 where they are not positive
    finite floats, at both edges, and are just inside them."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: classical_partition(QuenchParams(beta=1e-160), 1.0), "beta omega = 1e-160 puts Z_C = inf"),
            (lambda: classical_partition(QuenchParams(omega=1e-80, lambda0=0.0, beta=1e-80), 0.0), "beta omega = 1e-160 puts Z_C = inf"),
            (lambda: classical_partition(QuenchParams(omega=1e-150, lambda0=0.0, beta=1e-300), 0.0), "beta omega = 0.0 puts Z_C = inf"),
            (lambda: classical_partition(QuenchParams(beta=1e200), 1.0), "beta omega = 1e+200 puts Z_C = 0.0"),
            (lambda: quantum_partition(QuenchParams(beta=1e-200), 1.0), "beta w / 2 = 5e-201 and 8.660254037844386e-201"),
            (lambda: quantum_partition(QuenchParams(beta=1e-320), 0.0), "beta w / 2 = 5e-321 and 5e-321"),
            (lambda: quantum_partition(QuenchParams(beta=800.0), 0.0), "beta w / 2 = 400.0 and 400.0"),
            (lambda: quantum_partition(QuenchParams(beta=2000.0), 1.0), "beta w / 2 = 1000.0 and 1732.0508075688772"),
        ],
        ids=["classical_small", "classical_small_product", "classical_product_underflow", "classical_large", "quantum_small", "quantum_subnormal",
             "quantum_product_overflow", "quantum_sinh_overflow"],
    )
    def test_outside_the_float_range(self, call, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            call()

    def test_finite_just_inside(self):
        for beta in (1e-154, 1e150):
            assert 0.0 < classical_partition(QuenchParams(beta=beta), 1.0) < math.inf
        for beta, lam in ((1e-150, 1.0), (700.0, 0.0), (400.0, 1.0)):
            assert 0.0 < quantum_partition(QuenchParams(beta=beta), lam) < math.inf


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
            (1e15, "t = 1000000000000000.0 is beyond the propagator's accuracy"),
            (1e20, "t = 1e\\+20 is beyond the propagator's accuracy"),
            (1e25, "t = 1e\\+25 is beyond the propagator's accuracy"),
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


class TestCovarianceOverflow:
    """A covariance matrix with an entry beyond MATRIX_ENTRY_MAX (1e150), or
    whose det sigma overflows, raises naming the overflow: no numpy error or
    RuntimeWarning escapes, and nothing is accepted with an infinite held
    determinant."""

    def test_huge_entry_rejected(self):
        with pytest.raises(ValidationError, match=r"^covariance matrix overflows: max \|entry\| 1e\+308 exceeds 1e\+150"):
            thermal_covariance(1e-308, 1.0)

    def test_overflowing_determinant_rejected(self):
        mode = thermal_covariance(1e-100, 1.0)  # nu = 1e100, so det sigma = 1e400
        with pytest.raises(ValidationError, match="^covariance matrix determinant overflows: ln det sigma = 921.03"):
            direct_sum(mode, mode)

    def test_largest_entries_accepted(self):
        assert thermal_covariance(1e-149, 1.0).sigma[0, 0] == pytest.approx(1e149, rel=1e-12)
        pair = direct_sum(thermal_covariance(1e-76, 1.0), thermal_covariance(1e-76, 1.0))
        assert pair._dets[1] == pytest.approx(1e304, rel=1e-12)


class TestIntegersBeyondTheFloatRange:
    """An integer too large for a float, where an entry point takes a number
    or an array of numbers, raises ValidationError naming the argument, not
    the OverflowError of its conversion to float; also beyond 4300 digits,
    where formatting the integer into the message would itself raise. An
    integer count (rank, seed, n_modes, points, dims) out of its range, or
    sizing an array beyond numpy's largest in bytes, is named with words for
    the integer, not its digits. The counts tested here all size arrays
    beyond np.intp in bytes, which numpy refuses before allocating."""

    ARRAY = "must be a rectangular array of numbers: int too large to convert to float"
    BEYOND = "must be finite; got an integer beyond the float range"
    COUNT = "got an integer beyond the float range"  # an integer count, out of its range
    FLOATS = f"must be at most {np.iinfo(np.intp).max // 8} for numpy to size its array of 8-byte entries"
    SQUARE_FLOATS = f"must be at most {math.isqrt(np.iinfo(np.intp).max // 8)} for numpy to size its square array of 8-byte entries"
    SQUARE_COMPLEX = f"must be at most {math.isqrt(np.iinfo(np.intp).max // 16)} for numpy to size its square array of 16-byte entries"

    @pytest.mark.parametrize("huge", [10**400, 10**5000], ids=["401_digits", "5001_digits"])
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda h: DensityMatrix([[h, 0], [0, 0]], (2, 1)), f"density matrix {ARRAY}"),
            (lambda h: PureState([h, 0], (2, 1)), f"state vector {ARRAY}"),
            (lambda h: CovarianceMatrix([[h, 0], [0, 0.5]]), f"covariance matrix {ARRAY}"),
            (lambda h: QuadraticHamiltonian([[h, 0], [0, 1]]), f"Hamiltonian matrix {ARRAY}"),
            (lambda h: Distribution([h, 0]), f"distribution {ARRAY}"),
            (lambda h: JointDistribution([[h, 0], [0, 0]]), f"joint table {ARRAY}"),
            (lambda h: Distribution.normalized([h, 1]), f"weights {ARRAY}"),
            (lambda h: Observable([[h, 0], [0, 1]]), f"observable {ARRAY}"),
            (lambda h: Povm(([[h, 0], [0, 1]],)), f"element 0 {ARRAY}"),
            (lambda h: StochasticMap(([[h, 0], [0, 1]],)), f"Kraus operator 0 {ARRAY}"),
            (lambda h: mode_entropy(h), f"symplectic eigenvalue {BEYOND}"),
            (lambda h: discord_from_invariants(h, 2.0, 0.5, 3.0, 0.6, 0.7), f"invariant a {BEYOND}"),
            (lambda h: QuenchParams(omega=h), f"omega {BEYOND}"),
            (lambda h: thermal_variance(h, 1.0), f"beta {BEYOND}"),
            (lambda h: MeasurementBasis(h, 0.0), f"theta {BEYOND}"),
            (lambda h: normal_mode_frequencies(1.0, h), f"coupling {BEYOND}"),
            (lambda h: symplectic_propagator(quench_hamiltonian_matrix(1.0, 1.0), h), f"t {BEYOND}"),
            (lambda h: report_at(QuenchParams(), h), f"evolution_time {BEYOND}"),
            (lambda h: sweep_temperature(QuenchParams(), 0.1, h, 3), f"t_max {BEYOND}"),
            (lambda h: everett_state(1.0, 0.0, h), f"pointer overlap {BEYOND}"),
            (lambda h: random_density_matrix((2, 2), h, 0), rf"rank must be in \[1, 4\]; {COUNT}"),
            (lambda h: random_density_matrix((2, 2), 1, -h), f"seed must be non-negative; {COUNT}"),
            (lambda h: symplectic_form(-h), f"n_modes must be non-negative; {COUNT}"),
            (lambda h: sweep_temperature(QuenchParams(), 0.1, 5.0, -h), f"need at least 2 grid points; {COUNT}"),
            (lambda h: sweep_temperature(QuenchParams(), 0.1, 5.0, h), f"points {FLOATS}; {COUNT}"),
            (lambda h: symplectic_form(h), f"2 n_modes {SQUARE_FLOATS}; {COUNT}"),
            (lambda h: random_density_matrix((h, 1), 1, 0), f"d_a d_b {SQUARE_COMPLEX}; {COUNT}"),
            (lambda h: random_density_matrix((-h, 1), 1, 0), rf"dims must be positive; got \(an integer beyond the float range, 1\)"),
            (lambda h: random_density_matrix((h, 1.5), 1, 0),
             rf"dims must be a pair of integers; got \(an integer beyond the float range, 1.5\)"),
        ],
        ids=["DensityMatrix", "PureState", "CovarianceMatrix", "QuadraticHamiltonian", "Distribution",
             "JointDistribution", "Distribution.normalized", "Observable", "Povm", "StochasticMap", "mode_entropy",
             "discord_from_invariants", "QuenchParams", "thermal_variance", "MeasurementBasis", "normal_mode_frequencies",
             "symplectic_propagator", "report_at", "sweep_temperature", "everett_state", "random_density_matrix.rank",
             "random_density_matrix.seed", "symplectic_form", "sweep_temperature.points", "sweep_temperature.points_large",
             "symplectic_form.large", "random_density_matrix.dims_large", "random_density_matrix.dims_negative",
             "random_density_matrix.dims_not_integers"],
    )
    def test_rejected_naming_the_argument(self, call, message, huge):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call(huge)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: sweep_temperature(QuenchParams(), 0.1, 5.0, 2**62), f"points {FLOATS}; got {2**62}"),
            (lambda: symplectic_form(2**40), f"2 n_modes {SQUARE_FLOATS}; got {2**41}"),
            (lambda: random_density_matrix((2**61, 1), 1, 0), f"d_a d_b {SQUARE_COMPLEX}; got {2**61}"),
            (lambda: random_density_matrix((2**30, 2**31), 1, 0), f"d_a d_b {SQUARE_COMPLEX}; got {2**61}"),
        ],
        ids=["sweep_temperature.points", "symplectic_form", "random_density_matrix.dims", "random_density_matrix.dims_product"],
    )
    def test_counts_within_intp_whose_arrays_numpy_cannot_size(self, call, message):
        """Counts within np.intp whose arrays exceed it in bytes, where numpy's
        "array is too big" used to escape."""
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()


def test_one_copy_of_the_array_conversion():
    """Numpy's conversion errors become a ValidationError in the one gate of
    qcorr.errors, and in the CLI's reader of decoded JSON, nowhere else."""
    sources = Path(states.__file__).parent.glob("*.py")
    catching = sorted(path.name for path in sources if "except (TypeError, ValueError, OverflowError)" in path.read_text())
    assert catching == ["cli.py", "errors.py"]


class TestGaussianArgumentTypes:
    """Each Gaussian helper that reads a :class:`CovarianceMatrix` names the
    type of anything else in a ValidationError, where it used to escape as
    AttributeError."""

    HAM = quench_hamiltonian_matrix(1.0, 1.0)

    @pytest.mark.parametrize("value", [np.eye(4), None], ids=["array", "None"])
    @pytest.mark.parametrize(
        "call, name",
        [
            (symplectic_eigenvalues, "sigma"),
            (gaussian_entropy, "sigma"),
            (gaussian_discord, "sigma"),
            (minimize_gaussian_measurement, "sigma"),
            (local_invariants, "sigma"),
            (direct_sum, "blocks"),
            (lambda sigma: symplectic_evolution(sigma, TestGaussianArgumentTypes.HAM, 1.0), "sigma and ham"),
        ],
        ids=["symplectic_eigenvalues", "gaussian_entropy", "gaussian_discord", "minimize_gaussian_measurement",
             "local_invariants", "direct_sum", "symplectic_evolution"],
    )
    def test_rejected_naming_the_type(self, call, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be .*CovarianceMatrix.*; got {type(value).__name__}"):
            call(value)

    def test_a_later_block_of_another_type_named(self):
        with pytest.raises(ValidationError, match="^blocks must be CovarianceMatrix objects; got list"):
            direct_sum(thermal_covariance(1.0, 1.0), [[0.5, 0.0], [0.0, 0.5]])

    def test_a_hamiltonian_of_another_type_named(self):
        pair = direct_sum(thermal_covariance(1.0, 1.0), thermal_covariance(1.0, 1.0))
        with pytest.raises(ValidationError, match="^sigma and ham must be .*; got CovarianceMatrix and ndarray"):
            symplectic_evolution(pair, self.HAM.matrix, 1.0)


class TestMatrixInput:
    """A ragged or non-numeric matrix, vector or distribution, a real matrix
    given with a nonzero imaginary part and a bad ``symplectic_form`` size
    raise ValidationError naming the matrix or n_modes, not numpy's
    ValueError or TypeError, and no imaginary part is dropped with only a
    ComplexWarning."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: CovarianceMatrix([[1.0, 0.0], [0.0]]), "covariance matrix must be a rectangular array of numbers"),
            (lambda: QuadraticHamiltonian([["a", "b"], ["c", "d"]]), "Hamiltonian matrix must be a rectangular array of numbers"),
            (lambda: Observable([[1.0, 0.0], [0.0]]), "observable must be a rectangular array of numbers"),
            (lambda: Povm(([[1.0, 0.0], [0.0, "x"]],)), "element 0 must be a rectangular array of numbers"),
            (lambda: DensityMatrix([[1.0, 0.0], [0.0]], (2, 1)), "density matrix must be a rectangular array of numbers"),
            (lambda: DensityMatrix([[1.0, 0.0], [0.0, "x"]], (2, 1)), "density matrix must be a rectangular array of numbers"),
            (lambda: PureState([1.0, [0.0]], (2, 1)), "state vector must be a rectangular array of numbers"),
            (lambda: PureState([math.nan, 0.0], (2, 1)), "state vector must be finite; got a NaN or infinite entry$"),
            (lambda: StochasticMap(([[1.0, 0.0], [0.0]],)), "Kraus operator 0 must be a rectangular array of numbers"),
            (lambda: Distribution([0.5, "x"]), "distribution must be a rectangular array of numbers"),
            (lambda: JointDistribution([[0.5], [0.25, 0.25]]), "joint table must be a rectangular array of numbers"),
            (lambda: Distribution.normalized([1.0, [2.0]]), "weights must be a rectangular array of numbers"),
            (lambda: CovarianceMatrix(np.eye(2) * (1 + 0.5j)), r"covariance matrix must be real: max \|imaginary part\| 0.5$"),
            (lambda: QuadraticHamiltonian(1j * np.eye(2)), r"Hamiltonian matrix must be real: max \|imaginary part\| 1.0$"),
            (lambda: CovarianceMatrix([[0.5, 1e-20j], [-1e-20j, 0.5]]), r"covariance matrix must be real: max \|imaginary part\| 1e-20$"),
            (lambda: symplectic_form(-1), "n_modes must be non-negative; got -1$"),
            (lambda: symplectic_form(2.5), "n_modes must be an integer; got 2.5$"),
            (lambda: symplectic_form(None), "n_modes must be an integer; got None$"),
        ],
        ids=["covariance_ragged", "hamiltonian_strings", "observable_ragged", "povm_ragged", "density_ragged",
             "density_strings", "pure_ragged", "pure_nan", "stochastic_map_ragged", "distribution_strings", "joint_ragged",
             "weights_ragged", "covariance_complex", "hamiltonian_complex", "covariance_complex_list",
             "symplectic_form_negative", "symplectic_form_float", "symplectic_form_none"],
    )
    def test_rejected_naming_the_matrix(self, call, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{message}"):
                call()

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_imaginary_part_accepted_as_the_real_matrix(self, seed):
        sigma = random_covariance(seed).sigma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for given in (sigma + 0j, (sigma + 0j).tolist()):
                accepted = CovarianceMatrix(given)
                assert accepted.sigma.dtype == float and accepted.sigma.tobytes() == sigma.tobytes()
                assert accepted._dets[0].tobytes() == random_covariance(seed)._dets[0].tobytes()
                assert accepted._dets[1] == random_covariance(seed)._dets[1]
                assert accepted._spectrum.tobytes() == random_covariance(seed)._spectrum.tobytes()
                assert QuadraticHamiltonian(given).matrix.tobytes() == QuadraticHamiltonian(sigma).matrix.tobytes()

    def test_zero_modes_accepted(self):
        assert symplectic_form(0).shape == (0, 0)
        assert symplectic_form(np.int64(2)).tobytes() == symplectic_form(2).tobytes()


class TestInvariants:
    """``discord_from_invariants`` rejects an a, b or d that is not finite or
    lies below the vacuum's 1 by more than INVARIANT_SLACK (1e-7), a c that
    is not finite, and an infinite symplectic eigenvalue, naming the first
    such invariant and its value, and anything but a real scalar naming the
    argument."""

    @pytest.mark.parametrize(
        "invariants, name, value",
        [
            ((4.0, 0.5, 3.0, 1.0), "b", "0.5"),  # the measured mode's determinant below the doubled vacuum's
            ((4.0, 0.0, 3.0, 1.0), "b", "0.0"),  # the closed form divides by b
            ((math.nan, 2.0, 1.0, 2.0), "a", "nan"),
            ((2.0, 2.0, 1.0, math.inf), "d", "inf"),
            ((2.0, 2.0, 1.0, 1.0 - 2e-7), "d", "0.9999998"),
        ],
        ids=["b_below_vacuum", "b_zero", "a_nan", "d_inf", "d_below_slack"],
    )
    def test_rejected_naming_the_invariant(self, invariants, name, value):
        with pytest.raises(ValidationError, match=f"^invariant {name} must be finite .*; got {value}$"):
            discord_from_invariants(*invariants, 0.5, 0.5)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_non_finite_c_rejected_naming_c(self, c):
        with pytest.raises(ValidationError, match=f"^invariant c must be finite; got {c!r}$"):
            discord_from_invariants(2.0, 2.0, c, 2.0, 0.5, 0.5)

    @pytest.mark.parametrize("which", [4, 5], ids=["nu_minus", "nu_plus"])
    def test_infinite_symplectic_eigenvalue_rejected(self, which):
        args = [2.0, 2.0, 0.0, 2.0, 0.5, 0.5]
        args[which] = math.inf
        with pytest.raises(ValidationError, match="^symplectic eigenvalue inf is not finite$"):
            discord_from_invariants(*args)

    def test_mode_entropy_of_inf_rejected(self):
        with pytest.raises(ValidationError, match="^symplectic eigenvalue inf is not finite$"):
            mode_entropy(math.inf)

    def test_overflowing_invariants_named(self):
        """a b = inf makes the minimal conditional determinant NaN: one error names
        the invariants, not the NaN symplectic eigenvalue derived from them."""
        with pytest.raises(ValidationError, match=r"^invariants a = 1e\+200, b = 1e\+200, c = 0.0, d = 1.0 overflow the closed form$"):
            discord_from_invariants(1e200, 1e200, 0.0, 1.0, 0.5, 0.5)

    def test_accepted_state_whose_invariants_overflow(self):
        mode = thermal_covariance(3e-77, 1.0)  # nu = 3.3e76: entries and det sigma finite
        with pytest.raises(ValidationError, match=r"^invariants a = 4.44.*e\+153, .* overflow the closed form$"):
            gaussian_discord(direct_sum(mode, mode))

    def test_det_sigma_whose_d_overflows_named(self):
        """det sigma = 1e308 is finite, so the matrix is accepted, but d = 16 det sigma is not: the
        error names det sigma, not an invariant d the caller never passed."""
        mode = thermal_covariance(1e-77, 1.0)  # nu = 1e77
        pair = direct_sum(mode, mode)
        for call in (lambda: gaussian_discord(pair), lambda: local_invariants(pair)):
            with pytest.raises(ValidationError, match=r"^det sigma = 1.0000000000000136e\+308 overflows the invariant d = 16 det sigma$"):
                call()

    def test_numpy_scalars_and_integers_read_as_floats(self):
        """np.float64 and integers give the bits of the same floats; numpy scalars whose products
        overflow raise the one overflow error, with no numpy warning."""
        inside = (3.0, 2.5, 1.2, 4.0, 0.7, 1.1)
        assert discord_from_invariants(*map(np.float64, inside)) == discord_from_invariants(*inside)
        assert discord_from_invariants(3, np.int64(2), 1, 4.0, 0.7, np.float32(1.5)) == discord_from_invariants(3.0, 2.0, 1.0, 4.0, 0.7, 1.5)
        assert mode_entropy(np.float64(0.7)) == mode_entropy(0.7) and mode_entropy(1) == mode_entropy(1.0)
        a, b, d = 10.0 ** np.random.default_rng(0).uniform(0.0, 308.0, 3)  # 1.53e196, 1.24e83, 4.17e12
        with pytest.raises(ValidationError, match=r"^invariants a = 1.528268617151872e\+196, .* overflow the closed form$"):
            discord_from_invariants(a, b, np.float64(-1.49), d, np.float64(0.5), np.float64(0.5))

    @pytest.mark.parametrize("value", [np.array([2.0, 3.0]), np.array(2.0), np.array([2.0]), "2.0", None, 2.0 + 0j],
                             ids=["array", "zero_dim_array", "one_entry_array", "string", "None", "complex"])
    def test_anything_but_a_real_scalar_named(self, value):
        with pytest.raises(ValidationError, match=f"^invariant b must be a real number; got {re.escape(repr(value))}$"):
            discord_from_invariants(2.0, value, 0.5, 3.0, 0.6, 0.7)
        with pytest.raises(ValidationError, match=f"^symplectic eigenvalue must be a real number; got {re.escape(repr(value))}$"):
            discord_from_invariants(2.0, 2.0, 0.5, 3.0, 0.6, value)
        with pytest.raises(ValidationError, match="^symplectic eigenvalue must be a real number"):
            mode_entropy(value)

    def test_sweep_column_stays_within_reach_of_the_exact_discord(self):
        """From T = 4e30 to 1e39 (lambda0 = omega = 1, t = 1), where the closed form on float
        invariants overflowed, the sweep's column and report_at are finite, non-negative and
        within 1e-13 of the 250-digit Adesso-Datta discord."""
        pytest.importorskip("mpmath")
        reports = sweep_temperature(QuenchParams(), 4e30, 1e39, 3) + [report_at(QuenchParams(beta=1e-39))]
        for report in reports:
            exact = quench_discord_mp(QuenchParams(beta=1.0 / report.temperature))
            assert math.isfinite(report.gaussian_discord) and report.gaussian_discord >= 0.0
            assert report.gaussian_discord == pytest.approx(exact, rel=0.0, abs=1e-13)

    def test_vacuum_within_the_slack_accepted(self):
        low = 1.0 - 0.5e-7
        assert discord_from_invariants(low, low, 0.0, low, 0.5, 0.5) == 0.0

    def test_rounding_of_held_determinants_accepted(self):
        """Two-mode squeezed vacua with r < 4 hold d = 16 det sigma below 1 by
        rounding alone, by up to 1.2e-9 on this grid (beyond PURE_MODE_CUTOFF);
        the closed form takes them and stays within 1e-9 of the analytic discord
        cosh^2 r ln cosh^2 r - sinh^2 r ln sinh^2 r (measured 8.9e-10)."""
        for r in np.linspace(0.05, 3.99, 400).tolist():
            c, s = math.cosh(2.0 * r) / 2.0, math.sinh(2.0 * r) / 2.0
            z = np.diag([1.0, -1.0])
            sigma = CovarianceMatrix(np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]]))
            ch, sh = math.cosh(r) ** 2, math.sinh(r) ** 2
            exact = ch * math.log(ch) - sh * math.log(sh)
            for mode in (1, 2):
                assert gaussian_discord(sigma, mode) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize(
    "module, count",
    [
        (quench, 14), (gaussian, 18), (importlib.import_module("qcorr.discord"), 7), (states, 12),
        (importlib.import_module("qcorr.measurement"), 10), (importlib.import_module("qcorr.probability"), 8),
        (importlib.import_module("qcorr.errors"), 9),
    ],
    ids=["quench", "gaussian", "discord", "states", "measurement", "probability", "errors"],
)
def test_every_public_name_states_its_domain(module, count):
    """Each class and function that a qcorr module defines, the module's
    own public names, carries exactly one ``Domain:`` line in its
    docstring: in qcorr.errors the two exceptions, the six checks and the array gate."""
    defined = [obj for name, obj in vars(module).items()
               if not name.startswith("_") and callable(obj) and obj.__module__ == module.__name__]
    assert len(defined) == count
    lacking = [obj.__qualname__ for obj in defined
               if [line.strip().startswith("Domain:") for line in (obj.__doc__ or "").splitlines()].count(True) != 1]
    assert lacking == []
