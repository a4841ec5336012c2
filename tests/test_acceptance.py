"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.
"""

import numpy as np

from qcorr import (
    JointDistribution,
    QuenchParams,
    apply_local_map,
    araki_lieb_check,
    born_distribution,
    classical_avg_work,
    classical_free_energy_change,
    direct_sum,
    discord,
    excess_dissipated_work,
    gaussian_discord,
    minimize_gaussian_measurement,
    mutual_information,
    mutual_information_as_divergence,
    partial_trace,
    quantum_avg_work,
    quantum_free_energy_change,
    quantum_mutual_information,
    quantum_partition,
    quantum_relative_entropy,
    quench_hamiltonian_matrix,
    random_covariance,
    random_density_matrix,
    shannon_entropy,
    sweep_temperature,
    symplectic_evolution,
    tensor_product,
    thermal_covariance,
    von_neumann_entropy,
)
from qcorr.measurement import Observable
from qcorr.probability import conditional_entropy

from .conftest import bell_density, random_channel, random_classical_state
from .quench_oracle import monte_carlo_classical_work, quantum_avg_work_fock, quantum_partition_fock

LN2 = 0.6931471805599453


def _report(number: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_closed_form_identities():
    """Work and free-energy closed forms at unit natural parameters."""
    unit = QuenchParams()
    values = {
        "classical work": (classical_avg_work(unit), 1.0),
        "classical free energy": (classical_free_energy_change(unit), 0.5493061443340549),
        "quantum work": (quantum_avg_work(unit), 1.0819767068693265),
        "quantum free energy": (quantum_free_energy_change(unit), 0.6299972058733052),
    }
    ok = all(abs(got - expected) < 1e-6 for got, expected in values.values())
    detail = ", ".join(f"{name} {got:.9f}" for name, (got, _) in values.items())
    _report(1, ok, detail)


def test_criterion_2_classical_monte_carlo_oracle():
    """Seeded exact-Gaussian sampling of the classical work at 10 random points."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    ok = True
    for point in range(10):
        rng.uniform(0.5, 2.0)  # a mass, which cancels; drawn to keep the sample stream
        params = QuenchParams(
            omega=rng.uniform(0.5, 2.0),
            lambda0=rng.uniform(0.1, 3.0),
            beta=rng.uniform(0.2, 5.0),
        )
        mean, stderr = monte_carlo_classical_work(params, seed=1000 + point)
        pull = abs(mean - classical_avg_work(params)) / stderr
        worst = max(worst, pull)
        ok = ok and pull < 4.0
    _report(2, ok, f"worst Monte-Carlo pull {worst:.2f} standard errors (gate 4)")


def test_criterion_3_quantum_fock_oracles():
    """Truncated Fock-basis partition function and work trace at (1, 1, 1)."""
    unit = QuenchParams()
    dz = abs(quantum_partition_fock(unit, 1.0) - quantum_partition(unit, 1.0))
    dw = abs(quantum_avg_work_fock(unit) - quantum_avg_work(unit))
    ok = dz < 1e-10 and dw < 1e-10
    _report(3, ok, f"|dZ| = {dz:.2e}, |dW| = {dw:.2e} (gate 1e-10)")


def test_criterion_4_temperature_sweep_shape():
    """Excess work and discord both non-negative and decaying with T;
    excess work non-negative across the parameter grid and vanishing in
    the classical limit."""
    unit = QuenchParams()
    reports = sweep_temperature(unit, 0.1, 5.0, 50)
    tail = sweep_temperature(unit, 50.0, 60.0, 2)[0]
    checks = []
    for name in ("omega_excess", "gaussian_discord"):
        series = [getattr(r, name) for r in reports]
        nonneg = all(v >= -1e-12 for v in series)
        peak = int(np.argmax(series))
        monotone = all(
            later <= earlier + 1e-12
            for earlier, later in zip(series[peak:], series[peak + 1 :])
        )
        decays = series[-1] < 0.5 * max(series) and getattr(tail, name) < 0.05 * max(series)
        checks.append(nonneg and monotone and decays)
    grid_ok = True
    for beta in np.linspace(0.05, 20.0, 100):
        for lam in np.linspace(0.0, 5.0, 100):
            if excess_dissipated_work(QuenchParams(beta=float(beta), lambda0=float(lam))) < -1e-12:
                grid_ok = False
    classical_limit = abs(excess_dissipated_work(QuenchParams(beta=0.01)))
    ok = all(checks) and grid_ok and classical_limit < 1e-5
    _report(
        4,
        ok,
        f"sweep shape ok = {all(checks)}, grid non-negative = {grid_ok}, "
        f"|excess| at beta*omega = 0.01 is {classical_limit:.2e} (gate 1e-5)",
    )


def test_criterion_5_gaussian_discord_oracle_agreement():
    """Closed-form Gaussian discord against the measurement search on 200
    random physical covariance matrices and the quench state."""
    worst = 0.0
    for seed in range(200):
        sigma = random_covariance(seed)
        mode = 1 + seed % 2
        worst = max(worst, abs(gaussian_discord(sigma, mode) - minimize_gaussian_measurement(sigma, mode)))
    one = thermal_covariance(1.0, 1.0)
    quenched = symplectic_evolution(
        direct_sum(one, one), quench_hamiltonian_matrix(1.0, 1.0), 1.0
    )
    worst = max(worst, abs(gaussian_discord(quenched) - minimize_gaussian_measurement(quenched)))
    _report(5, worst < 1e-6, f"worst |closed - search| = {worst:.3e} (gate 1e-6)")


def test_criterion_6_entropic_suite():
    """Bell mutual information and discord, classical zero-discord states,
    Araki-Lieb, data processing, and the observable-uncertainty bound."""
    rng = np.random.default_rng(77)
    bell = bell_density()
    bell_info_ok = abs(quantum_mutual_information(bell) - 2 * LN2) < 1e-10
    bell_discord_ok = abs(discord(bell).discord - LN2) < 1e-6

    classical_worst = max(
        discord(random_classical_state(rng)).discord for _ in range(100)
    )

    araki_ok, processing_ok = True, True
    for seed in range(500):
        rho = random_density_matrix((2, 2), 1 + seed % 4, seed=seed)
        lower, middle, upper = araki_lieb_check(rho)
        araki_ok = araki_ok and (lower - 1e-9 <= middle <= upper + 1e-9)
        degraded = apply_local_map(rho, random_channel(2, 2 + seed % 3, rng), "A" if seed % 2 else "B")
        processing_ok = processing_ok and (
            quantum_mutual_information(degraded)
            <= quantum_mutual_information(rho) + 1e-9
        )

    bound_ok, commuting_ok = True, True
    for seed in range(200):
        rho = random_density_matrix((4, 1), 1 + seed % 4, seed=seed)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = Observable(raw + raw.conj().T)
        bound_ok = bound_ok and (
            shannon_entropy(born_distribution(rho, obs))
            >= von_neumann_entropy(rho) - 1e-9
        )
        commuting = Observable(
            rho.eigenbasis() @ np.diag(np.arange(4.0)) @ rho.eigenbasis().conj().T
        )
        commuting_ok = commuting_ok and abs(
            shannon_entropy(born_distribution(rho, commuting)) - von_neumann_entropy(rho)
        ) < 1e-9

    ok = (
        bell_info_ok
        and bell_discord_ok
        and classical_worst < 1e-6
        and araki_ok
        and processing_ok
        and bound_ok
        and commuting_ok
    )
    _report(
        6,
        ok,
        f"Bell I = 2ln2: {bell_info_ok}, Bell D = ln2: {bell_discord_ok}, "
        f"max classical-state discord {classical_worst:.2e} (gate 1e-6), "
        f"Araki-Lieb: {araki_ok}, data processing: {processing_ok}, "
        f"observable bound: {bound_ok}, commuting equality: {commuting_ok}",
    )


def test_criterion_7_equivalence_of_mutual_information_forms():
    """Three classical mutual-information routes to 1e-12 and the two
    quantum routes to 1e-9, on 1000 random instances each."""
    rng = np.random.default_rng(4096)
    worst_classical = 0.0
    for _ in range(1000):
        shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        j = JointDistribution.normalized(rng.random(shape) + 1e-9)
        entropic = mutual_information(j)
        conditional = shannon_entropy(j.marginal_y()) - conditional_entropy(j)
        divergence = mutual_information_as_divergence(j)
        worst_classical = max(
            worst_classical, abs(entropic - conditional), abs(entropic - divergence)
        )

    worst_quantum = 0.0
    for index in range(1000):
        dims = (2, 2) if index % 2 else (2, 3)
        total = dims[0] * dims[1]
        rho = random_density_matrix(dims, 2 + index % (total - 1), seed=index)
        product = tensor_product(partial_trace(rho, "A"), partial_trace(rho, "B"))
        worst_quantum = max(
            worst_quantum,
            abs(quantum_mutual_information(rho) - quantum_relative_entropy(rho, product)),
        )
    ok = worst_classical < 1e-12 and worst_quantum < 1e-9
    _report(
        7,
        ok,
        f"classical route spread {worst_classical:.2e} (gate 1e-12), "
        f"quantum route spread {worst_quantum:.2e} (gate 1e-9)",
    )
