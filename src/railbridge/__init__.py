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
    partial_trace,
    project,
    project_density,
    tensor,
    to_density,
    vacuum,
)
from .elements import (
    beam_splitter,
    coherent_state,
    half_wave_plate,
    phase_shift,
    polarising_bs,
    quarter_wave_plate,
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
    quadrature_pdf,
    sample,
)
from .tomography import (
    ReconstructionOptions,
    ReconstructionResult,
    entanglement_witness,
    fidelity,
    joint_reconstruct_swapped,
    maxlik_reconstruct,
    quadrature_povm,
    wigner,
)
from .rates import (
    EfficiencyBudget,
    RateModel,
    calibration_report,
    efficiency_budget,
    estimate_eta_d,
    estimate_gamma,
    predict_triple_rate,
)
from .config import Config, ConfigError, default_config, load_config
