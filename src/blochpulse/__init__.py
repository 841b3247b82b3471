"""blochpulse: drive synthesis for prescribed two-level Bloch trajectories.

Prescribe how the Bloch components of a qubit should move, closed or open;
this package reverse-engineers the physical drive (envelope, detuning,
carrier phase) that realizes the motion, simulates it in the lab frame, the
co-rotating frame, the master equation, and the damped component equations,
and verifies tracking, frame agreement, and rotating-wave breakdown.

Internal units: time in ps, angular frequency in rad/ps, rates in 1/ps.
"""

from .errors import (
    BlochPulseError,
    CarrierSingularityError,
    IntegrationError,
    NumericalError,
    SingularPrescriptionError,
    ValidationError,
)
from .states import (
    bloch_from_density,
    coherence,
    density_from_bloch,
    fidelity,
    purity,
    trace_distance,
    validate_density,
    validate_grid,
)
from .rates import Rates, equilibrium_inversion, inversion_decay_rate, transverse_rate
from .trajectories import (
    Oscillatory,
    RabiDecay,
    Transfer,
    TrajectorySamples,
    complete_v_closed,
    eval_components,
    solve_consistent_v_open,
)
from .synthesis import (
    ControlField,
    omega_delta_from_components,
    phase_from_detuning,
    rabi_from_phase,
    synthesize_pulse,
)
from .odeint import IntegrationStats, integrate_adaptive
from .dynamics import (
    SimResult,
    dissipator_action,
    frame_transform,
    integrate_bloch_effective,
    integrate_interaction,
    integrate_lab,
    integrate_lindblad,
)
from .verify import (
    GeneratorCoefficients,
    TrackingReport,
    generator_oracle,
    rwa_deviation,
    tracking_error,
)
from .scenario import (
    ScenarioConfig,
    ScenarioRun,
    TransitionSpec,
    Window,
    export_all,
    export_csv,
    export_field_csv,
    export_svg,
    load_scenario,
    preset,
    preset_names,
    preset_note,
    run_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BlochPulseError", "ValidationError", "NumericalError",
    "SingularPrescriptionError", "CarrierSingularityError", "IntegrationError",
    "validate_grid", "validate_density", "bloch_from_density", "density_from_bloch",
    "purity", "coherence", "fidelity", "trace_distance",
    "Rates", "transverse_rate", "inversion_decay_rate", "equilibrium_inversion",
    "Transfer", "Oscillatory", "RabiDecay", "TrajectorySamples",
    "eval_components", "complete_v_closed", "solve_consistent_v_open",
    "ControlField", "omega_delta_from_components", "phase_from_detuning",
    "rabi_from_phase", "synthesize_pulse",
    "IntegrationStats", "integrate_adaptive",
    "SimResult", "dissipator_action", "frame_transform",
    "integrate_lab", "integrate_interaction", "integrate_lindblad",
    "integrate_bloch_effective",
    "TrackingReport", "tracking_error", "rwa_deviation",
    "GeneratorCoefficients", "generator_oracle",
    "ScenarioConfig", "ScenarioRun", "TransitionSpec", "Window",
    "scenario_from_dict", "scenario_to_dict", "load_scenario", "save_scenario",
    "preset", "preset_names", "preset_note", "run_scenario",
    "export_csv", "export_field_csv", "export_svg", "export_all",
    "__version__",
]
