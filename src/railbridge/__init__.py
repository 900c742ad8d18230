"""Truncated-Fock simulation and loss-aware tomography of a post-selected
optical interface between polarisation and photon-number qubits."""

__version__ = "0.1.0"

from .fock import (
    DensityMatrix,
    ModeRegister,
    NullOutcomeError,
    PureState,
    density_from_json_dict,
    density_to_json_dict,
    loss_channel,
    normalize,
    project,
    project_density,
    tensor,
    to_density,
    vacuum,
)
from .elements import (
    coherent_state,
    half_wave_plate,
    two_mode_squeezer,
)
from .protocol import (
    INPUT_STATES,
    QubitSpec,
    SourceParams,
    click_pattern_distribution,
    ideal_swap_target_qubit,
    ideal_teleport_target,
    swap_entanglement,
    swap_qubit_sector,
    teleport,
    teleport_fidelity,
    triple_budget,
)
from .homodyne import (
    QuadratureDataset,
    phase_estimate,
    sample,
)
from .tomography import (
    ReconstructionOptions,
    ReconstructionResult,
    entanglement_witness,
    fidelity,
    joint_reconstruct_swapped,
    maxlik_reconstruct,
    wigner,
)
from .rates import (
    EfficiencyBudget,
    RateModel,
    calibration_report,
    estimate_eta_d,
    estimate_gamma,
    predict_triple_rate,
)
from .config import Config, ConfigError, load_config
