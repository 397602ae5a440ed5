"""Free-electron qubit toolkit.

Simulates an electron's photon-quantized energy-ladder state under laser
interactions and dispersive free flight, encodes a qubit in the even/odd comb
amplitudes, compiles arbitrary 1-qubit gates into pulse-and-drift schedules,
and reconstructs states from simulated spectroscopy data.
"""

from .compiler import (
    Circuit,
    Gate,
    Schedule,
    compile_circuit,
    compile_gate,
    effective_qubit_gate,
    euler_xyx,
    gate_fidelity,
    parse_circuit,
    simulate_schedule,
    unparse,
)
from .errors import (
    CircuitParseError,
    ConfigurationError,
    FequbitError,
    TruncationError,
    WindowError,
)
from .ladder import (
    BeamParameters,
    LadderState,
    TruncationPolicy,
    basis_state,
    derive_beam,
    occupied_levels,
    support_leakage,
)
from .operators import (
    FspPhase,
    PinemPulse,
    apply_fsp,
    apply_pinem,
    apply_pinem_bessel,
    apply_pinem_matexp,
    eigenphases,
    pinem_kernel,
)
from .qubit import (
    QubitState,
    closure_check,
    pinem_rotation,
    project_period_p,
    project_qubit,
    qubit_gate,
)
from .tomography import (
    ReconstructionResult,
    Spectrogram,
    Spectrum,
    add_shot_noise,
    eels_spectrum,
    readout_qubit,
    reconstruct_state,
    spectrogram,
)

__version__ = "0.1.0"
