"""Classical and quantum correlation measures, two-qubit and Gaussian
discord, and sudden-quench thermodynamics of coupled oscillators."""

from .discord import (
    DiscordResult,
    MeasurementBasis,
    OptimizerTrace,
    classical_correlations_at,
    discord,
    discord_swapped,
    max_classical_correlations,
)
from .errors import ConsistencyError, ValidationError
from .gaussian import (
    CovarianceMatrix,
    QuadraticHamiltonian,
    direct_sum,
    gaussian_discord,
    gaussian_entropy,
    minimize_gaussian_measurement,
    mode_entropy,
    normal_mode_frequencies,
    quench_hamiltonian_matrix,
    random_covariance,
    symplectic_eigenvalues,
    symplectic_evolution,
    symplectic_form,
    symplectic_propagator,
    thermal_covariance,
    thermal_variance,
)
from .measurement import (
    Observable,
    Povm,
    StochasticMap,
    apply_local_map,
    born_distribution,
    computational_basis_observable,
    everett_state,
    joint_born_distribution,
    measurement_mutual_information,
    povm_outcome,
)
from .probability import (
    Distribution,
    JointDistribution,
    conditional_entropy,
    joint_entropy,
    mutual_information,
    mutual_information_as_divergence,
    relative_entropy,
    shannon_entropy,
)
from .quench import (
    QuenchParams,
    QuenchReport,
    classical_avg_work,
    classical_free_energy_change,
    classical_irr_work,
    classical_partition,
    excess_dissipated_work,
    quantum_avg_work,
    quantum_free_energy_change,
    quantum_irr_work,
    quantum_partition,
    report_at,
    reports_to_csv,
    sweep_temperature,
)
from .states import (
    DensityMatrix,
    PureState,
    araki_lieb_check,
    density_from_pure,
    entanglement_entropy,
    partial_trace,
    quantum_mutual_information,
    quantum_relative_entropy,
    random_density_matrix,
    tensor_product,
    von_neumann_entropy,
)

__version__ = "0.1.0"
