"""Quantum-correlation quantifiers for a spin-1/2 exchange dimer, computed
from neutron-diffraction quantities and cross-checked against brute-force
density-matrix oracles."""

from .spin_core import (
    DimerModel,
    EigenSystem,
    SINGLET,
    TRIPLET_MINUS,
    TRIPLET_PLUS,
    TRIPLET_ZERO,
    bell_diagonal_state,
    build_hamiltonian,
    eigensystem,
    fano_decompose,
    fano_reconstruct,
    thermal_state,
)
from .scattering import (
    exclusive_structure_factor,
    integrated_structure_factor,
    scalar_structure_factor,
    scattering_phase,
)
from .quantifiers import (
    TSIRELSON_BOUND,
    bell_mean,
    bell_violation_window,
    concurrence,
    concurrence_window,
    entanglement_of_formation,
    geometric_discord,
    real_correlation,
    susceptibility,
    witness,
    witness_from_susceptibility,
    witness_window,
)
from .oracle import (
    chsh_direct_search,
    chsh_max,
    correlation_oracle,
    random_bell_diagonal_state,
    random_density_matrix,
    trace_norm_discord,
    werner_state,
    wootters_concurrence,
)
from .verify import closed_form_vs_oracle, implied_state, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "DimerModel",
    "EigenSystem",
    "SINGLET",
    "TRIPLET_MINUS",
    "TRIPLET_PLUS",
    "TRIPLET_ZERO",
    "TSIRELSON_BOUND",
    "bell_diagonal_state",
    "bell_mean",
    "bell_violation_window",
    "build_hamiltonian",
    "chsh_direct_search",
    "chsh_max",
    "closed_form_vs_oracle",
    "concurrence",
    "concurrence_window",
    "correlation_oracle",
    "eigensystem",
    "entanglement_of_formation",
    "exclusive_structure_factor",
    "fano_decompose",
    "fano_reconstruct",
    "geometric_discord",
    "implied_state",
    "integrated_structure_factor",
    "random_bell_diagonal_state",
    "random_density_matrix",
    "real_correlation",
    "run_all_checks",
    "scalar_structure_factor",
    "scattering_phase",
    "susceptibility",
    "thermal_state",
    "trace_norm_discord",
    "werner_state",
    "witness",
    "witness_from_susceptibility",
    "witness_window",
    "wootters_concurrence",
]
