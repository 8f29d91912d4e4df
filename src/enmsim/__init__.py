"""Covariant qubit decoherence channels and the correlations they preserve.

The package simulates qubit open-system dynamics generated by
time-dependent decoherence matrices, provides the family of phase-covariant
channels whose eternally non-Markovian member optimally preserves
correlations and coherence, and computes the associated correlation,
coherence, Fisher-information and process-spectrum quantities.
"""

from .correlations import (
    CorrelationPoint,
    DiscordResult,
    DiscordWitness,
    XState,
    asymptotic_discord,
    asymptotic_mutual_information,
    binary_entropy,
    correlation_point,
    correlation_table,
    discord_brute_force,
    geometric_discord,
    l1_coherence,
    mutual_information,
    negativity,
    xstate_discord,
    xstate_discord_details,
)
from .covariant import (
    CovariantChannelAt,
    CovariantRates,
    RateIntegrals,
    asymptotic_image,
    channel_at,
    choi_state,
    cptp_conditions,
    decoherence_matrix,
    evolve_bloch,
    gamma_matrix,
    optimal_dephasing_integral,
    optimal_dephasing_rate,
    rate_integrals,
)
from .lindblad import (
    DecayRecord,
    DecoherenceMatrix,
    IntermediateMap,
    PropagatedMap,
    apply_generator,
    apply_to_subsystem,
    bloch_generator,
    choi_of_map,
    closest_product_state,
    correlation_decay_report,
    intermediate_map,
    is_cp_divisible,
    propagate,
)
from .metrology import (
    PhaseEstimationSetup,
    bloch_phase_derivative,
    bloch_with_phase,
    cramer_rao_bound,
    fisher_from_coherence,
    fisher_information,
    fisher_information_bloch,
)
from .qstate import (
    BELL_PROJECTOR,
    PAULI,
    PAULI_G,
    QubitState,
    bloch_to_density,
    density_to_bloch,
    partial_trace,
    partial_transpose,
    trace_norm,
    von_neumann_entropy,
)
from .tomography import (
    OpticalModel,
    ProcessMatrix,
    basis_decomposition,
    beam_splitter_map,
    channel_from_exponent,
    decoherence_factor,
    f_matrix,
    optical_channel,
    spectrum_moduli,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
