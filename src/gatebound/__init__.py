"""Numerical laboratory for minimum-energy requirements on gate control systems.

The package stress-tests the conjectured lower bound E ~ hbar/(eps T) on the
energy a control system needs to drive a controlled sign flip in time T with
failure probability below eps: exact and perturbative gate simulations on a
truncated bosonic mode, closed-form field-pulse and squeezed-field bounds,
semiclassical collision chains, and a heuristic single-particle estimate.
"""

from .collision import (
    FreeCollisionConfig,
    HarmonicCollisionConfig,
    PotentialLaw,
    classical_return_mismatch,
    dipole_leading_ratio,
    error_variance_free,
    error_variance_harmonic,
    free_chain,
    free_energy_bound,
    harmonic_energy_bound,
    mismatch_norm,
    optimal_wavepacket,
    phase_integral_free,
    powerlaw_log_derivative,
    squeezing_consistency_probe,
)
from .envelopes import (
    Envelope,
    LinearDrive,
    envelope_drive,
    gaussian,
    multi_envelope_drive,
    piecewise_constant_drive,
    raised_cosine,
    triangle,
)
from .errors import (
    CutoffError,
    DegenerateConfigError,
    DimensionMismatchError,
    IntegrationError,
    NumericalInconsistencyError,
    SamplingError,
    UncertaintyError,
)
from .fock import (
    ControlState,
    coherent_required_cutoff,
    coherent_state,
    evolve,
    mean_photon_number,
    number_state,
    overlap,
    quadrature_variance,
    squeezed_coherent_state,
)
from .gate import (
    GateOutcome,
    GateScenario,
    coherent_drive_scenario,
    counterexample_always_on,
    displacement_oracle,
    drive_integrals,
    failure_probability_exact,
    failure_probability_perturbative,
    pi_phase_drive,
    switch_off_check,
)
from .heuristic import (
    HeuristicConfig,
    collision_crosscheck,
    displacement_estimates,
    heuristic_energy_bound,
    misoverlap,
    misoverlap_optimal,
)
from .pulses import (
    PulseSpec,
    adversarial_pulse_search,
    energy_bound_check,
    linewidth_combined_bound,
    min_photon_number,
    optimize_squeezing,
    random_feasible_ratios,
    single_mode_equality_pulse,
    squeezed_energy,
)
from .report import BoundReport

__version__ = "0.1.0"
