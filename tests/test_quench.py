import gc
import hashlib
import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from qcorr import gaussian, quench
from qcorr._newton import _descend, _newton_step
from qcorr import (
    ConsistencyError,
    CovarianceMatrix,
    QuenchParams,
    QuenchReport,
    ValidationError,
    classical_avg_work,
    classical_free_energy_change,
    classical_irr_work,
    classical_partition,
    discord,
    discord_swapped,
    excess_dissipated_work,
    gaussian_discord,
    minimize_gaussian_measurement,
    normal_mode_frequencies,
    quantum_avg_work,
    quantum_free_energy_change,
    quantum_irr_work,
    quantum_partition,
    quench_hamiltonian_matrix,
    random_covariance,
    random_density_matrix,
    report_at,
    reports_to_csv,
    sweep_temperature,
    symplectic_propagator,
    thermal_variance,
)
from qcorr.gaussian import local_invariants

from .quench_oracle import (
    classical_partition_quadrature,
    monte_carlo_classical_work,
    quantum_avg_work_fock,
    quantum_partition_fock,
    quench_discord,
    quench_discord_mp,
    quench_propagator_closed_form,
)

# frozen from 30-digit evaluations of the closed forms
DFC_UNIT = 0.5493061443340549       # (1/2) ln 3
WQ_UNIT = 1.0819767068693265        # (1/2) coth(1/2)
DFQ_UNIT = 0.6299972058733052       # ln[sinh(sqrt(3)/2) / sinh(1/2)]
OMEGA_UNIT = 0.0012856453300760637
WQ_BETA10 = 0.5000454019910097
DFQ_BETA10 = 0.3660299408757909
OMEGA_BETA10 = 0.08894607554862431
ZQ_UNIT_LAM0 = 0.9206735942077923   # (1/4) csch^2(1/2)
ZQ_UNIT_LAM1 = 0.49034457776158163

UNIT = QuenchParams()
BETA10 = QuenchParams(beta=10.0)


class TestParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValidationError, match="beta"):
            QuenchParams(beta=-1.0)
        with pytest.raises(ValidationError, match="lambda0"):
            QuenchParams(lambda0=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["omega", "lambda0", "beta"])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            QuenchParams(**{field: value})

    @pytest.mark.parametrize(
        "omega, lambda0",
        [(1.0, 1e300), (1e200, 1.0), (1e-200, 1.0), (1.0, 1e154), (1e154, 1e154)],
    )
    def test_overflowing_squares_rejected(self, omega, lambda0):
        # the closed forms need omega^2 > 0 and a finite 2 lambda0^2 / omega^2
        with pytest.raises(ValidationError, match="omega.*lambda0"):
            QuenchParams(omega=omega, lambda0=lambda0)

    @pytest.mark.parametrize("omega, lambda0", [(1.0, 1e153), (1e-150, 0.0), (1e150, 1e150), (1e-100, 1e-100)])
    def test_largest_and_smallest_squares_accepted(self, omega, lambda0):
        QuenchParams(omega=omega, lambda0=lambda0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_evolution_time_rejected(self, t):
        with pytest.raises(ValidationError, match="evolution_time must be finite"):
            report_at(UNIT, t)
        with pytest.raises(ValidationError, match="evolution_time must be finite"):
            sweep_temperature(UNIT, 0.1, 5.0, 3, t)
        with pytest.raises(ValidationError, match="evolution_time must be finite"):
            quench_discord(UNIT, t)


class TestClassicalPartition:
    # h = 2 pi hbar = 1: the library takes hbar omega and hbar lambda
    HBAR = 1.0 / (2.0 * math.pi)

    def test_uncoupled_natural_units(self):
        params = QuenchParams(omega=self.HBAR * 1.0)
        assert classical_partition(params, 0.0) == pytest.approx(
            (2.0 * math.pi) ** 2, abs=1e-10
        )

    def test_coupling_equal_to_frequency(self):
        params = QuenchParams(beta=1.0, omega=self.HBAR * 1.0)
        expected = (2.0 * math.pi) ** 2 / math.sqrt(3.0)
        assert classical_partition(params, self.HBAR * 1.0) == pytest.approx(expected, abs=1e-10)

    def test_quadrature_oracle_agreement(self):
        params = QuenchParams(beta=2.0, omega=1.3)
        closed = classical_partition(params, 0.7)
        quad = classical_partition_quadrature(params, 0.7)
        assert abs(quad - closed) / closed < 1e-8

    def test_quadrature_oracle_at_random_parameters(self, rng):
        for _ in range(5):
            params = QuenchParams(beta=rng.uniform(0.3, 3.0), omega=rng.uniform(0.5, 2.0))
            rng.uniform(0.5, 2.0)  # a mass, which cancels; drawn to keep the sample stream
            lam = rng.uniform(0.0, params.omega)
            closed = classical_partition(params, lam)
            quad = classical_partition_quadrature(params, lam)
            assert abs(quad - closed) / closed < 1e-8


class TestClassicalWork:
    def test_unit_parameters(self):
        assert classical_avg_work(UNIT) == pytest.approx(1.0, abs=1e-15)

    def test_no_quench_no_work(self):
        assert classical_avg_work(replace(UNIT, lambda0=0.0)) == 0.0

    def test_independent_of_mass_and_hbar(self):
        # hbar = 3 on the unit inputs: hbar omega = hbar lambda0 = 3
        assert classical_avg_work(replace(UNIT, omega=3.0, lambda0=3.0)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_monte_carlo_oracle(self):
        mean, stderr = monte_carlo_classical_work(UNIT, seed=0)
        assert abs(mean - 1.0) < 4.0 * stderr

    def test_free_energy_change(self):
        assert classical_free_energy_change(UNIT) == pytest.approx(DFC_UNIT, abs=1e-12)
        assert classical_free_energy_change(replace(UNIT, lambda0=0.0)) == 0.0

    def test_free_energy_matches_partition_ratio(self, rng):
        for _ in range(10):
            params = QuenchParams(
                beta=rng.uniform(0.2, 5.0),
                omega=rng.uniform(0.5, 2.0),
                lambda0=rng.uniform(0.0, 3.0),
            )
            ratio = -math.log(
                classical_partition(params, params.lambda0) / classical_partition(params, 0.0)
            ) / params.beta
            assert classical_free_energy_change(params) == pytest.approx(ratio, abs=1e-12)

    def test_irreversible_work(self):
        assert classical_irr_work(UNIT) == pytest.approx(1.0 - DFC_UNIT, abs=1e-12)
        assert classical_irr_work(BETA10) == pytest.approx(0.1 - DFC_UNIT / 10.0, abs=1e-12)
        assert classical_irr_work(replace(UNIT, lambda0=0.0)) == 0.0


class TestQuantumPartition:
    def test_uncoupled_unit_parameters(self):
        assert quantum_partition(UNIT, 0.0) == pytest.approx(ZQ_UNIT_LAM0, abs=1e-12)

    def test_unit_coupling(self):
        assert quantum_partition(UNIT, 1.0) == pytest.approx(ZQ_UNIT_LAM1, abs=1e-12)

    def test_ground_state_asymptotics(self):
        params = QuenchParams(beta=20.0)
        w2 = math.sqrt(3.0)
        asymptote = math.exp(-20.0 * (1.0 + w2) / 2.0)
        assert quantum_partition(params, 1.0) == pytest.approx(asymptote, rel=0.01)

    def test_fock_trace_oracle(self):
        closed = quantum_partition(UNIT, 1.0)
        fock = quantum_partition_fock(UNIT, 1.0)
        assert abs(fock - closed) < 1e-10


class TestCouplingDomain:
    """The closed forms, their oracles and the oscillator helpers share
    one coupling domain."""

    @pytest.mark.parametrize(
        "partition",
        [classical_partition, classical_partition_quadrature, quantum_partition, quantum_partition_fock],
    )
    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_rejected_by_every_partition_function(self, partition, lam):
        with pytest.raises(ValidationError, match="coupling"):
            partition(UNIT, lam)

    @pytest.mark.parametrize(
        "helper",
        [
            normal_mode_frequencies,
            quench_hamiltonian_matrix,
            lambda omega, lam: quench_propagator_closed_form(omega, lam, 1.0),
        ],
        ids=["normal_mode_frequencies", "quench_hamiltonian_matrix", "quench_propagator_closed_form"],
    )
    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_rejected_by_every_oscillator_helper(self, helper, lam):
        with pytest.raises(ValidationError, match="coupling"):
            helper(1.0, lam)


class TestRemovedOptions:
    """Options whose every caller used one value are constants now; a
    call still passing one fails loudly instead of shifting arguments."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: QuenchParams(mass=1.0),
            lambda: QuenchParams(h_ref=1.0),
            lambda: QuenchParams(1.0),
            lambda: quench_hamiltonian_matrix(1.0, 1.0, hbar=2.0),
            lambda: symplectic_propagator(quench_hamiltonian_matrix(1.0, 1.0), 1.0, 2.0),
            lambda: monte_carlo_classical_work(UNIT, 7),
            lambda: random_covariance(1, 3.0),
            lambda: QuenchParams(hbar=1.0),
            lambda: QuenchParams(kb=1.0),
            lambda: thermal_variance(1.0, 1.0, 1.0),
        ],
        ids=["mass", "h_ref", "positional_params", "hbar", "propagator_hbar", "positional_seed", "nu_max",
             "params_hbar", "params_kb", "thermal_variance_hbar"],
    )
    def test_raises_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_params_have_exactly_three_fields(self):
        assert [f.name for f in fields(QuenchParams)] == ["omega", "lambda0", "beta"]


class TestQuantumWork:
    def test_unit_parameters(self):
        assert quantum_avg_work(UNIT) == pytest.approx(WQ_UNIT, abs=1e-12)

    def test_high_temperature_limit(self):
        params = QuenchParams(beta=0.01)
        classical = classical_avg_work(params)
        assert quantum_avg_work(params) == pytest.approx(classical, rel=1e-4)

    def test_beta_ten(self):
        assert quantum_avg_work(BETA10) == pytest.approx(WQ_BETA10, abs=1e-12)

    def test_fock_trace_oracle(self):
        assert abs(quantum_avg_work_fock(UNIT) - WQ_UNIT) < 1e-10

    def test_fock_oracles_at_random_parameters(self, rng):
        """The library on hbar omega and hbar lambda0 against the Fock traces
        with hbar explicit."""
        for _ in range(10):
            rng.uniform(0.5, 2.0)  # a mass, which cancels; drawn to keep the sample stream
            omega, lambda0, beta, hbar = (rng.uniform(*bounds) for bounds in ((0.5, 2.0), (0.1, 3.0), (0.3, 5.0), (0.5, 2.0)))
            physical = QuenchParams(omega=omega, lambda0=lambda0, beta=beta)
            params = QuenchParams(omega=hbar * omega, lambda0=hbar * lambda0, beta=beta)
            work = quantum_avg_work(params)
            assert abs(quantum_avg_work_fock(physical, hbar=hbar) - work) < 1e-9 * max(1.0, work)
            partition = quantum_partition(params, params.lambda0)
            fock = quantum_partition_fock(physical, lambda0, hbar=hbar)
            assert abs(fock - partition) < 1e-10 * max(1.0, partition)

    def test_quantum_dominates_classical(self, rng):
        for _ in range(20):
            params = QuenchParams(
                beta=rng.uniform(0.05, 10.0),
                omega=rng.uniform(0.5, 2.0),
                lambda0=rng.uniform(0.1, 3.0),
            )
            assert quantum_avg_work(params) >= classical_avg_work(params) - 1e-12


class TestQuantumFreeEnergy:
    def test_no_quench(self):
        assert quantum_free_energy_change(replace(UNIT, lambda0=0.0)) == 0.0

    def test_unit_parameters(self):
        assert quantum_free_energy_change(UNIT) == pytest.approx(DFQ_UNIT, abs=1e-12)

    def test_beta_ten(self):
        assert quantum_free_energy_change(BETA10) == pytest.approx(DFQ_BETA10, abs=1e-12)

    def test_matches_partition_ratio(self, rng):
        for _ in range(10):
            params = QuenchParams(
                beta=rng.uniform(0.2, 5.0),
                omega=rng.uniform(0.5, 2.0),
                lambda0=rng.uniform(0.0, 3.0),
            )
            ratio = -math.log(
                quantum_partition(params, params.lambda0) / quantum_partition(params, 0.0)
            ) / params.beta
            assert quantum_free_energy_change(params) == pytest.approx(ratio, abs=1e-12)

    def test_irreversible_work(self):
        assert quantum_irr_work(UNIT) == pytest.approx(WQ_UNIT - DFQ_UNIT, abs=1e-12)
        assert quantum_irr_work(BETA10) == pytest.approx(WQ_BETA10 - DFQ_BETA10, abs=1e-12)
        assert quantum_irr_work(replace(UNIT, lambda0=0.0)) == 0.0
        assert quantum_irr_work(UNIT) >= 0.0


class TestExcessWork:
    def test_unit_parameters(self):
        assert excess_dissipated_work(UNIT) == pytest.approx(OMEGA_UNIT, abs=1e-9)

    def test_beta_ten(self):
        assert excess_dissipated_work(BETA10) == pytest.approx(OMEGA_BETA10, abs=1e-9)

    def test_classical_limit(self):
        assert abs(excess_dissipated_work(QuenchParams(beta=0.01))) < 1e-5

    def test_non_negative_on_parameter_grid(self):
        for beta in np.linspace(0.05, 20.0, 100):
            for lam in np.linspace(0.0, 5.0, 100):
                value = excess_dissipated_work(QuenchParams(beta=float(beta), lambda0=float(lam)))
                assert value >= -1e-12

    def test_floor_checked_as_in_reports(self):
        """At beta = 2.5e-7 the difference route reads -2.8e-9, below
        OMEGA_FLOOR: the excess work raises as report_at does."""
        params = QuenchParams(beta=2.5e-7)
        for evaluate in (excess_dissipated_work, report_at):
            with pytest.raises(ValidationError, match="omega_excess .* is negative"):
                evaluate(params)

    def test_routes_agree_via_consistency_guard(self, rng):
        # excess_dissipated_work raises internally if the difference route
        # and the closed form separate by more than 1e-12
        for _ in range(50):
            beta, omega, lambda0, hbar = (rng.uniform(*bounds) for bounds in ((0.05, 20.0), (0.5, 2.0), (0.0, 5.0), (0.5, 2.0)))
            excess_dissipated_work(QuenchParams(beta=beta, omega=hbar * omega, lambda0=hbar * lambda0))


class TestQuenchDiscord:
    def test_no_quench_no_discord(self):
        assert quench_discord(replace(UNIT, lambda0=0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_time_no_discord(self):
        assert quench_discord(UNIT, t=0.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_parameters_match_measurement_oracle(self):
        from qcorr import direct_sum, quench_hamiltonian_matrix, symplectic_evolution, thermal_covariance

        value = quench_discord(UNIT, t=1.0)
        assert value > 1e-3
        one = thermal_covariance(1.0, 1.0)
        state = symplectic_evolution(
            direct_sum(one, one), quench_hamiltonian_matrix(1.0, 1.0), 1.0
        )
        assert value == pytest.approx(minimize_gaussian_measurement(state), abs=1e-6)
        assert value == pytest.approx(gaussian_discord(state), abs=1e-12)


    def test_high_temperature_state_is_accepted(self):
        # S sigma S^T at nu = 1e7 is asymmetric by rounding far above the
        # absolute symmetry tolerance for input matrices; the state is a
        # thermal one of nu = (1/2) coth(5e-8) = 1e7 and nearly classical
        assert quench_discord(replace(UNIT, beta=1e-7)) == pytest.approx(0.0, abs=1e-6)


class TestDiscordColumnAccuracy:
    """The sweep's discord column (:func:`qcorr.quench._thermal_quench_discord`)
    against the Adesso-Datta closed form on the exact invariants at 250 digits
    (:func:`quench_discord_mp`), at t = 1: within 1e-13 relative at 21
    log-spaced temperatures in [0.01, 1] omega, where the closed form on
    float invariants lost 2.2e-7 to the cancellation of s - 1, and within
    1e-13 absolute from T = 1e3 to 1e30 omega, where it read up to 64 for a
    discord below 1e-13. Measured: 1.9e-14 and 1.4e-14."""

    @pytest.mark.parametrize("lambda0", [0.5, 1.0, 3.0, 30.0])
    def test_cold_band_relative(self, lambda0):
        pytest.importorskip("mpmath")
        temperatures = np.logspace(-2.0, 0.0, 21)
        column = quench._thermal_quench_discord(QuenchParams(lambda0=lambda0), 1.0 / temperatures, 1.0)
        for temperature, value in zip(temperatures.tolist(), column.tolist()):
            exact = quench_discord_mp(QuenchParams(lambda0=lambda0, beta=1.0 / temperature))
            assert value == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("lambda0", [0.5, 1.0, 3.0, 30.0])
    def test_hot_band_absolute(self, lambda0):
        pytest.importorskip("mpmath")
        temperatures = np.logspace(3.0, 30.0, 28)
        column = quench._thermal_quench_discord(QuenchParams(lambda0=lambda0), 1.0 / temperatures, 1.0)
        for temperature, value in zip(temperatures.tolist(), column.tolist()):
            exact = quench_discord_mp(QuenchParams(lambda0=lambda0, beta=1.0 / temperature))
            assert value == pytest.approx(exact, rel=0.0, abs=1e-13)

    def test_report_at_the_former_spike(self):
        """The closed form on float invariants read 8.0 here."""
        assert 0.0 <= report_at(QuenchParams(lambda0=0.5, beta=1e-15)).gaussian_discord <= 1e-13

    def test_no_warning_over_the_closed_form_range(self):
        """n = exp(-x) / -expm1(-x) and F(0) = 0 stay finite with no RuntimeWarning (an error under
        this suite's filter) for beta omega from 1e-100 to 1e100, subnormal n and n = 0 included."""
        beta = np.array([1e-100, 1e-10, 1.0, 708.5, 720.0, 745.2, 800.0, 1e100])
        for lambda0 in (0.0, 1.0, 1e50):
            column = quench._thermal_quench_discord(QuenchParams(lambda0=lambda0), beta, 1.0)
            assert np.isfinite(column).all() and (column >= 0.0).all()


class TestReportAndSweep:
    def test_report_identities(self):
        report = report_at(UNIT)
        assert report.w_c_irr == report.w_c_avg - report.df_c
        assert report.w_q_irr == report.w_q_avg - report.df_q
        assert abs(report.omega_excess - (report.w_q_irr - report.w_c_irr)) <= 1e-12
        assert report.temperature == pytest.approx(1.0)

    @staticmethod
    def _patch_closed_forms(monkeypatch, lowered=(), disagree=()):
        """Lower w_q and the closed excess by 2e-9 at the rows ``lowered``,
        so both routes agree on an excess below ``OMEGA_FLOOR`` there, and
        shift only the closed excess at the rows ``disagree``."""
        original = quench._closed_forms

        def patched(params, beta):
            w_c, df_c, w_q, df_q, closed = original(params, beta)
            shift = np.zeros(np.shape(beta))
            shift[list(lowered)] = 2e-9
            split = np.zeros(np.shape(beta))
            split[list(disagree)] = 1e-6
            return w_c, df_c, w_q - shift, df_q, closed - shift + split

        monkeypatch.setattr(quench, "_closed_forms", patched)

    def test_excess_below_floor_is_rejected(self, monkeypatch):
        # at lambda0 = 0 every field is exactly 0, so the excess becomes -2e-9
        flat = replace(UNIT, lambda0=0.0)
        self._patch_closed_forms(monkeypatch, lowered=[0])
        with pytest.raises(ValidationError, match="omega_excess = -2e-09 is negative"):
            report_at(flat)
        self._patch_closed_forms(monkeypatch, lowered=[3, 6])
        with pytest.raises(ValidationError, match="omega_excess = -2e-09 is negative"):
            sweep_temperature(flat, 0.5, 2.0, 10)

    @pytest.mark.parametrize(
        "lowered, disagree, error, message",
        [
            (2, 5, ValidationError, "is negative"),
            (5, 2, ConsistencyError, "routes disagree"),
        ],
    )
    def test_first_failing_row_wins(self, monkeypatch, lowered, disagree, error, message):
        self._patch_closed_forms(monkeypatch, lowered=[lowered], disagree=[disagree])
        with pytest.raises(error, match=message):
            sweep_temperature(replace(UNIT, lambda0=0.0), 0.5, 2.0, 10)

    def test_sweep_validation(self):
        with pytest.raises(ValidationError):
            sweep_temperature(UNIT, 5.0, 0.1, 10)
        with pytest.raises(ValidationError):
            sweep_temperature(UNIT, 0.1, 5.0, 1)
        with pytest.raises(ValidationError):
            sweep_temperature(UNIT, 0.1, math.inf, 10)
        with pytest.raises(ValidationError, match="beta must be finite"):
            sweep_temperature(UNIT, 1e-320, 1.0, 10)  # 1 / t_min overflows

    def test_sweep_shape_and_decay(self):
        reports = sweep_temperature(UNIT, 0.1, 5.0, 50)
        assert len(reports) == 50
        omegas = [r.omega_excess for r in reports]
        discords = [r.gaussian_discord for r in reports]
        assert all(value >= 0.0 for value in omegas)
        assert all(value >= 0.0 for value in discords)
        tail = sweep_temperature(UNIT, 50.0, 60.0, 2)[0]
        for series, far in ((omegas, tail.omega_excess), (discords, tail.gaussian_discord)):
            peak = int(np.argmax(series))
            for earlier, later in zip(series[peak:], series[peak + 1 :]):
                assert later <= earlier + 1e-12
            assert series[-1] < 0.5 * max(series)
            assert far < 0.05 * max(series)

    def test_zero_amplitude_sweep_is_flat_zero(self):
        reports = sweep_temperature(replace(UNIT, lambda0=0.0), 0.5, 2.0, 5)
        for report in reports:
            for field in ("w_c_avg", "w_c_irr", "w_q_irr", "omega_excess", "gaussian_discord"):
                assert getattr(report, field) == pytest.approx(0.0, abs=1e-12)

    def test_grid_refinement_is_pointwise_stable(self):
        coarse = sweep_temperature(UNIT, 0.1, 5.0, 50)
        nested = sweep_temperature(UNIT, 0.1, 5.0, 99)  # doubles every interval
        fine = sweep_temperature(UNIT, 0.1, 5.0, 500)
        for i, report in enumerate(coarse):
            twin = nested[2 * i]
            assert twin.temperature == report.temperature
            assert twin.omega_excess == report.omega_excess
            assert twin.gaussian_discord == report.gaussian_discord
        assert fine[0].omega_excess == coarse[0].omega_excess
        assert fine[-1].omega_excess == coarse[-1].omega_excess

    def test_csv_rendering(self):
        reports = sweep_temperature(UNIT, 0.5, 1.0, 2)
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "temperature,w_c_avg,df_c,w_c_irr,w_q_avg,df_q,w_q_irr,"
            "omega_excess,gaussian_discord"
        )
        assert len(lines) == 3
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.5
        assert first[1] == reports[0].w_c_avg  # 17 significant digits round-trip

    def test_csv_matches_fstring_rendering(self):
        # the per-field f-string rendering that the one-% row format replaced
        fields = quench.CSV_FIELDS
        hand_built = [
            QuenchReport(*[value] * len(fields))
            for value in (-0.0, 5e-324, 1e-300, 1.7976931348623157e308, math.inf, math.nan)
        ]
        for reports in (
            sweep_temperature(UNIT, 0.1, 5.0, 1000),
            sweep_temperature(replace(UNIT, lambda0=0.0), 0.1, 5.0, 50),
            hand_built,
            [],
        ):
            rows = [",".join(f"{getattr(r, f):.17g}" for f in fields) for r in reports]
            assert reports_to_csv(reports) == "\n".join([",".join(fields), *rows]) + "\n"

class TestArraySweep:
    """The sweep evaluates every field over the array of inverse
    temperatures at once; these pin it to independent references."""

    @pytest.mark.parametrize("lambda0", [0.475, 1.0, 2.0, 3.15])
    def test_excess_matches_high_precision_reference(self, lambda0):
        mpmath = pytest.importorskip("mpmath")
        reports = sweep_temperature(QuenchParams(lambda0=lambda0), 0.1, 5.0, 100)
        with mpmath.workdps(40):
            lam = mpmath.mpf(lambda0)
            w2 = mpmath.sqrt(1 + 2 * lam**2)
            for report in reports:
                b = 1 / mpmath.mpf(report.temperature)
                quantum = lam**2 / 2 * mpmath.coth(b / 2) - mpmath.log(
                    mpmath.sinh(b * w2 / 2) / mpmath.sinh(b / 2)
                ) / b
                classical = lam**2 / b - mpmath.log(1 + 2 * lam**2) / (2 * b)
                reference = float(quantum - classical)
                assert abs(report.omega_excess - reference) <= 1e-8 * abs(reference)

    @pytest.mark.parametrize("t", [0.0, 0.4, 2.1])
    @pytest.mark.parametrize(
        "physical, hbar, kb",
        [(UNIT, 1.0, 1.0), (QuenchParams(lambda0=2.5, omega=1.3), 1.7, 0.8)],
        ids=["unit", "scaled"],
    )
    def test_discord_matches_expm_oracle(self, physical, hbar, kb, t):
        """The sweep on the converted inputs hbar omega, hbar lambda0, k_B T
        and t / hbar against the expm oracle with hbar explicit."""
        params = QuenchParams(omega=hbar * physical.omega, lambda0=hbar * physical.lambda0)
        for report in sweep_temperature(params, kb * 0.1, kb * 5.0, 25, t / hbar):
            oracle = quench_discord(replace(physical, beta=1.0 / report.temperature), t, hbar=hbar)
            assert abs(report.gaussian_discord - oracle) <= 1e-10

    @pytest.mark.parametrize("t", [0.0, 0.4, 2.1, 37.0])
    @pytest.mark.parametrize("lambda0", [0.0, 0.05, 0.5, 2.5, 30.0])
    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.3, 4.0])
    def test_closed_form_invariants_match_both_propagators(self, omega, lambda0, t):
        """The sweep's invariants (1 + kappa, 1 + kappa, -kappa, 1) of the
        evolved vacuum against the determinants of S S^T / 2, to 4e-12
        relative with S built from the normal modes and 4e-11 with S from
        expm; where kappa = 0 the cross determinant is rounding, below 1e-30."""
        kappa = quench._quench_kappa(omega, lambda0, t)
        closed = (1.0 + kappa, 1.0 + kappa, -kappa, 1.0)
        routes = [
            (quench_propagator_closed_form(omega, lambda0, t), 4e-12),
            (symplectic_propagator(quench_hamiltonian_matrix(omega, lambda0), t), 4e-11),
        ]
        for s, rel in routes:
            invariants = local_invariants(CovarianceMatrix(s @ s.T / 2.0))
            assert invariants == pytest.approx(closed, rel=rel, abs=1e-30)

    def test_report_at_is_the_sweep_row(self):
        hbar, kb = 0.9, 1.3  # lambda0 = 1.7 converted as the command line does
        params = QuenchParams(lambda0=hbar * 1.7, omega=hbar)
        reports = sweep_temperature(params, kb * 0.1, kb * 5.0, 50, 2.1 / hbar)
        temperatures = np.linspace(kb * 0.1, kb * 5.0, 50)
        for i in (0, 17, 49):
            single = report_at(replace(params, beta=1.0 / float(temperatures[i])), 2.1 / hbar)
            assert single == reports[i]

    def test_route_guard_raises_at_the_first_disagreement(self):
        params = QuenchParams(lambda0=3.0)
        with pytest.raises(ConsistencyError, match="at beta") as raised:
            sweep_temperature(params, 0.1, 1e3, 50)
        for temperature in np.linspace(0.1, 1e3, 50):
            try:
                report_at(replace(params, beta=1.0 / float(temperature)))
            except ConsistencyError as exc:
                assert str(exc) == str(raised.value)
                break
        else:
            pytest.fail("no single point raised")

    def test_hot_sweep_without_disagreement_returns(self):
        assert len(sweep_temperature(QuenchParams(lambda0=0.5), 0.1, 1e3, 1000)) == 1000

    def test_high_temperature_point_is_accepted(self):
        report = report_at(QuenchParams(beta=1e-7))
        assert report.gaussian_discord >= 0.0


# sha256 of reports_to_csv(sweep_temperature(QuenchParams(lambda0=lambda0), 0.1, 5.0, points, t)) by
# (points, lambda0, t), and the repr of report_at at lambda0 = 3, beta = 10, with the discord column in the
# thermal occupation (quench._thermal_quench_discord); at lambda0 = 3 the coldest rows have beta w2 / 2 = 21.8,
# the large-argument branch of ln sinh
SWEEP_SHA256 = {
    (50, 0.5, 1.0): "5f2604467463ca8f55030a08a1aa75d0f2a34f3b0580ccfe2b5f611e6ff4f51a",
    (50, 0.5, 2.5): "ef6d05959bcf52cafa99b5fd87ccc2bd6eb2ca3f77ec7b4bc196f24a427b0c3b",
    (50, 1.0, 1.0): "42d5719b908cc6e85e46ad526916a0a8159f3aca267272304e18ddfcf53a3187",
    (50, 1.0, 2.5): "84452dd7f4eb8b5339d0e49fb5fa280fe4b0246809e5c41a3c406d6caf605bd4",
    (50, 2.0, 1.0): "5eefef21f5cd6653057adca357572284df776e175e2e8713f4e98e3338476517",
    (50, 2.0, 2.5): "2e251a0653d6609e474e6a5c191cd16771fd1f71e85e60199eb5cd96f46218ba",
    (50, 3.0, 1.0): "3c8fdb041cf5349085424147d2294ddeab140cd458f0abc056e87a995b92947a",
    (50, 3.0, 2.5): "2243b50487a85cce59eef2aa0914ae11fa8d9c67cadcfad794b315775eb46402",
    (1000, 0.5, 1.0): "14967cd95f878f3d2752058249ebda085882ae8282de18475d1f4e0373a4acab",
    (1000, 0.5, 2.5): "fec4ed5a238b63e9bf55da178b1121dcbb1d82c8cfaf40f1d66076dceac49dbd",
    (1000, 1.0, 1.0): "9d22a8ec1e302e4e942e65b6eda6342c92ba0985028a6a1204c5b91fd0bba129",
    (1000, 1.0, 2.5): "777c83dc70a818d9702fbac8bcf6cc8a9d4cfc41fde22f54d7e00615425d0bfe",
    (1000, 2.0, 1.0): "76f15bbf40fed04296a6c910d9469d13ccd146496fb341d50d03f8c5aea54970",
    (1000, 2.0, 2.5): "2351e119e5f167be795f0a0842480563733825f2d77ed39721f16731da5e1d7f",
    (1000, 3.0, 1.0): "640ed5ba8889ef76c26ac7dbe2f83c4d688b47b2a5387606fe2ee65ca8cc5f92",
    (1000, 3.0, 2.5): "8710d884453bda5fc6f394aba2e5fbb52bc92b38261302dbf85bc467fad94bd4",
}
REPORT_LAMBDA3_BETA10 = (
    "QuenchReport(temperature=0.1, w_c_avg=0.9, df_c=0.14722194895832202, w_c_irr=0.7527780510416779, "
    "w_q_avg=4.500408617919088, df_q=1.6794540118663743, w_q_irr=2.8209546060527133, "
    "omega_excess=2.0681765550110356, gaussian_discord=1.0480528954514863)"
)


class TestPinnedBits:
    @pytest.mark.parametrize("points, lambda0, t", list(SWEEP_SHA256))
    def test_sweep_csv_bytes(self, points, lambda0, t):
        csv = reports_to_csv(sweep_temperature(QuenchParams(lambda0=lambda0), 0.1, 5.0, points, t))
        assert hashlib.sha256(csv.encode("ascii")).hexdigest() == SWEEP_SHA256[points, lambda0, t]

    def test_report_on_the_large_argument_branch(self):
        assert repr(report_at(QuenchParams(lambda0=3.0, beta=10.0))) == REPORT_LAMBDA3_BETA10


class TestSweepCost:
    """The Python-level calls of one sweep or one discord search, counted
    with ``sys.setprofile`` and attributed to a package by the module globals
    of each frame. Its ``call`` events are Python frames only: ufunc calls
    are invisible to the hook, and builtins show as ``c_call``, so the counts
    are of Python code, qcorr's own and numpy's Python-level wrappers. The
    garbage collector is off while counting, since the finalizers of other
    objects (such as a suspended generator) would run Python frames inside.

    The numpy counts are those of numpy 2.4: a numpy upgrade that moves them
    re-baselines them in its own recorded change."""

    @staticmethod
    def _python_calls(call):
        calls = []

        def hook(frame, event, arg):
            if event == "call":
                calls.append((frame.f_globals.get("__name__", "").partition(".")[0], frame.f_code))

        gc.collect()
        gc.disable()
        sys.setprofile(hook)
        try:
            call()
        finally:
            sys.setprofile(None)
            gc.enable()
        return calls

    @pytest.mark.parametrize("lambda0", [1.0, 3.0], ids=["one_branch", "both_branches"])
    def test_no_python_frame_per_row(self, lambda0):
        params = QuenchParams(lambda0=lambda0)
        sweep_temperature(params, 0.1, 5.0, 2)  # any lazy set-up runs before counting
        small, large = (self._python_calls(lambda: sweep_temperature(params, 0.1, 5.0, n)) for n in (50, 1000))
        assert [code.co_qualname for _, code in small] == [code.co_qualname for _, code in large]

    def test_no_quench_params_built(self):
        codes = [code for _, code in self._python_calls(lambda: sweep_temperature(UNIT, 0.1, 5.0, 50))]
        assert QuenchParams.__post_init__.__code__ not in codes

    def test_search_frames_pinned(self, monkeypatch):
        """One two-qubit search runs 4 numpy frames, whatever its evaluation
        count, and 30 qcorr frames at the 49 grid directions and one Newton
        run that evaluates its start alone, plus 3 for a second run that
        does the same (one :func:`minimize` call holds both runs; the start
        points are built at import), 4 per further evaluation and 1 per further Newton
        step: 5 per evaluation when every trial step is accepted, 4 for a
        trial that is halved (an impossible outcome, which no state here
        meets, would add three eta frames). One closed-form Gaussian discord
        runs 13 qcorr frames and no numpy frame: its own, the invariants with
        the held determinants (five), the spectrum, the closed form, its
        minimal conditional determinant and four entropies. The Gaussian oracle runs no
        numpy frame and 11 + 2 nfev qcorr frames: 12 for the search's own
        frame, the seed forms with the held determinants (five), the search
        loop, the spectrum and the four entropies, then one per evaluation
        of N / D and one per step, nfev - 1 steps."""
        discord(random_density_matrix((2, 2), 2, 0))  # any lazy set-up runs before counting
        halved, run_counts = 0, set()
        for rank in (1, 2, 3, 4):
            for seed in range(4):
                rho = random_density_matrix((2, 2), rank, seed)
                for search in (discord, discord_swapped):
                    result = []
                    calls = self._python_calls(lambda: result.append(search(rho)))
                    evaluations = result[0].trace.evaluations
                    steps = sum(code is _newton_step.__code__ for _, code in calls)
                    runs = sum(code is _descend.__code__ for _, code in calls)
                    packages = [package for package, _ in calls]
                    assert packages.count("numpy") == 4
                    assert packages.count("qcorr") == 30 + 3 * (runs - 1) + 4 * (evaluations - 49 - runs) + (steps - runs)
                    halved += evaluations - 49 - steps  # Newton evaluations less steps: the halved trials
                    run_counts.add(runs)
        assert halved > 0 and run_counts == {1, 2}
        searches, search = [], gaussian.minimize
        monkeypatch.setattr(gaussian, "minimize", lambda *args: searches.append(search(*args)) or searches[-1])  # a frame of tests, not of qcorr
        for seed in range(4):
            sigma = random_covariance(seed)
            for mode in (1, 2):
                packages = [package for package, _ in self._python_calls(lambda: gaussian_discord(sigma, mode))]
                assert (packages.count("qcorr"), packages.count("numpy")) == (13, 0)
                packages = [package for package, _ in self._python_calls(lambda: minimize_gaussian_measurement(sigma, mode))]
                assert (packages.count("qcorr"), packages.count("numpy")) == (11 + 2 * searches[-1].nfev, 0)
        assert len(searches) == 8 and len({result.nfev for result in searches}) > 1
