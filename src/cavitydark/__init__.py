"""Dark states of two-level atoms in a single-mode cavity.

Numerical and analytic spectra of the coupled atom-photon system,
operational dark-state detection, and a Monte-Carlo simulation of the
shift-jump preparation protocol with its parameter sweeps.
"""

from .darkstates import (
    DarknessReport,
    analytic_spectrum,
    dark_state_degenerate,
    find_dark_states,
    is_dark,
    singlet_ensemble,
    with_photon_amplitude,
)
from .model import (
    AtomParams,
    CavityModel,
    ModelFormatError,
    apply_zs_shift,
    build_full_hamiltonian,
    coupling_from_position,
    half_wavelength,
    load_model,
    parse_model,
    single_excitation_block,
    single_excitation_indices,
)
from .numerics import (
    NonHermitianError,
    RandomSource,
    Spectrum,
    evolve,
    herm_eig,
    null_space,
)
from .protocol import (
    CycleRecord,
    SweepResult,
    TrialRecord,
    ZSJumpConfig,
    dark_amplitude,
    mean_yield,
    pds_curve,
    pds_max,
    run_trials,
    simulate_cycles,
    success_after_k,
    sweep,
)

__version__ = "0.1.0"
