"""Junk in any numeric argument of a public constructor or entry point.

Every such argument is read through one of the three checkers in
``blochpulse.states``, so a bad number ends in a ``ValidationError`` that
names the argument (or, for a number the physics rejects, a
``NumericalError``), never in a ``TypeError``, ``ValueError``,
``OverflowError`` or a numpy warning. Arguments that take package objects
(``rates``, ``field``, ``samples``, ``spec``) are not in the table.
"""

import re
from functools import partial
from itertools import product

import numpy as np
import pytest

from blochpulse import (
    ControlField,
    NumericalError,
    SimResult,
    Oscillatory,
    RabiDecay,
    Rates,
    ScenarioConfig,
    Transfer,
    TransitionSpec,
    ValidationError,
    Window,
    bloch_from_density,
    density_from_bloch,
    dissipator_action,
    eval_components,
    fidelity,
    frame_transform,
    integrate_adaptive,
    integrate_bloch_effective,
    integrate_interaction,
    integrate_lab,
    integrate_lindblad,
    omega_delta_from_components,
    phase_from_detuning,
    preset,
    rabi_from_phase,
    rwa_deviation,
    solve_consistent_v_open,
    synthesize_pulse,
    tracking_error,
    validate_density,
)

_SPEC = Transfer(-0.5, 0.5, 0.01, 0.4, 100.0)
_GRID = np.linspace(-20.0, 20.0, 11)
_FIELD = synthesize_pulse(_SPEC, Rates(), 5e-3, _GRID)
_ZEROS = np.zeros(11)
_R0 = [0.0, 0.0, 1.0]
_SIM = dict(r0=_R0, grid=_GRID, rtol=1e-8, atol=1e-10)
_TRANSFER = dict(inversion_start=0.0, inversion_stop=0.0, switch_rate=1.0, coherence_peak=1.0,
                 peak_width=1.0, peak_time=0.0)

# name -> (callable, valid keyword arguments); each argument listed is numeric
_ENTRY_POINTS = {
    "Transfer": (Transfer, _TRANSFER),
    "Oscillatory": (Oscillatory, {**_TRANSFER, "ripple_amplitude": 0.03,
                                  "ripple_frequency": 0.08}),
    "RabiDecay": (RabiDecay, dict(inversion_amplitude=0.9, decay_curvature=0.0,
                                  inversion_frequency=0.01, chirp_rate=0.0,
                                  coherence_amplitude=0.3, coherence_frequency=0.01)),
    "Rates": (Rates, dict(dephasing=0.0, thermal=0.0, occupancy=0.0)),
    "TransitionSpec": (TransitionSpec, dict(start=1.0, stop=1.0)),
    "Window": (Window, dict(start=0.0, stop=2.0, samples=3)),
    "ScenarioConfig": (partial(ScenarioConfig, "junk", _SPEC, Rates(), TransitionSpec(5e-3, 5e-3),
                               Window(-20.0, 20.0, 11)), dict(rtol=1e-10, atol=1e-12)),
    "synthesize_pulse": (partial(synthesize_pulse, _SPEC, Rates()),
                         dict(omega0=5e-3, grid=_GRID)),
    "synthesize_pulse-open": (partial(synthesize_pulse, _SPEC, Rates(dephasing=1e-3)),
                              dict(omega0=np.full(11, 5e-3), grid=_GRID)),
    "phase_from_detuning": (phase_from_detuning,
                            dict(omega0=5e-3, delta=_ZEROS, grid=_GRID, zero_time=0.0)),
    "rabi_from_phase": (rabi_from_phase, dict(omega=_ZEROS, phi=_ZEROS, times=_GRID)),
    "omega_delta_from_components": (partial(omega_delta_from_components, rates=Rates()),
                                    dict(u=_ZEROS, w=_ZEROS, du=_ZEROS, dw=_ZEROS,
                                         v=np.ones(11))),
    "ControlField": (ControlField, dict(t=_GRID, omega=_ZEROS, delta=_ZEROS, phi=_ZEROS,
                                        omega_r=_ZEROS, omega0=_ZEROS)),
    "ControlField.scaled": (_FIELD.scaled, dict(factor=2.0)),
    "integrate_lab": (partial(integrate_lab, _FIELD), _SIM),
    "integrate_interaction": (partial(integrate_interaction, _FIELD), _SIM),
    "integrate_lindblad": (partial(integrate_lindblad, _FIELD, Rates(dephasing=1e-3)), _SIM),
    "integrate_bloch_effective": (partial(integrate_bloch_effective, _FIELD, Rates()), _SIM),
    "rwa_deviation": (partial(rwa_deviation, _FIELD), dict(r0=_R0, grid=_GRID, scale=0.5)),
    "frame_transform": (frame_transform, dict(states=np.eye(2) / 2.0, phi=0.3)),
    "density_from_bloch": (density_from_bloch, dict(r=_R0)),
    "solve_consistent_v_open": (partial(solve_consistent_v_open, eval_components(_SPEC, _GRID),
                                        Rates(dephasing=1e-3)), dict(v0=0.5)),
    "preset": (preset, dict(name="fig1_L1")),
    # beyond the constructors and the pipeline's entry points
    "TransitionSpec.values": (TransitionSpec(1e-3, 5e-3).values, dict(grid=_GRID)),
    "eval_components": (partial(eval_components, _SPEC), dict(grid=_GRID)),
    "integrate_adaptive": (partial(integrate_adaptive, lambda t, y: -y),
                           dict(t_span=(0.0, 1.0), y0=[1.0], t_eval=[0.0, 1.0], rtol=1e-8,
                                atol=1e-10, max_step=0.5)),
    "tracking_error": (partial(tracking_error, SimResult("lab", _GRID, np.tile(_R0, (11, 1)))),
                       dict(u=_ZEROS, v=_ZEROS, w=np.ones(11))),
    "dissipator_action": (partial(dissipator_action, rates=Rates(dephasing=1e-3, thermal=1e-3)),
                          dict(rho=np.eye(2) / 2.0)),
    "validate_density": (validate_density, dict(rho=np.eye(2) / 2.0)),
    "bloch_from_density": (bloch_from_density, dict(rho=np.eye(2) / 2.0)),
    "fidelity": (fidelity, dict(rho=np.eye(2) / 2.0, sigma=np.eye(2) / 2.0)),
}
_ARGUMENTS = [(entry, arg) for entry, (_, kwargs) in _ENTRY_POINTS.items() for arg in kwargs]

# 10**5000 has more digits than Python will print, so its repr raises
_JUNK = [
    "a", "", "1.5", "-120", b"1", np.array(["1"]), None, [None], [0.5, None], {}, {"value": 1.0},
    [], [[1.0, 2.0], [3.0]], [1.0, [2.0]], 10**400, -10**400, [0.0, 10**400], 10**5000,
    [0.0, 10**5000], 1j, 1.0 + 0.0j, np.complex128(2.0j), np.array([0.5 + 1.0j]), np.nan, np.inf,
    -np.inf, np.array([np.nan]),
]


def _call(entry: str, arg: str, junk):
    fn, kwargs = _ENTRY_POINTS[entry]
    return fn(**{**kwargs, arg: junk})


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_the_table_holds_valid_calls(entry):
    fn, kwargs = _ENTRY_POINTS[entry]
    fn(**kwargs)  # so any error below comes from the junk argument


# every (argument, junk) pair, on every run: the space is finite and small
@pytest.mark.parametrize("call, junk", [
    pytest.param(call, junk, id=f"{'-'.join(call)}-{i}-{type(junk).__name__}")
    for call, (i, junk) in product(_ARGUMENTS, enumerate(_JUNK))])
def test_junk_numbers_raise_only_package_errors(call, junk):
    try:
        _call(*call, junk)
    except (ValidationError, NumericalError):
        pass


@pytest.mark.parametrize("entry, arg, junk, name", [
    ("Transfer", "inversion_start", "a", "Transfer.inversion_start"),
    ("TransitionSpec", "start", None, "TransitionSpec.start"),
    ("Window", "start", [0, 1], "window start"),
    ("ScenarioConfig", "rtol", "a", "rtol"),
    ("synthesize_pulse", "omega0", 10**400, "omega0"),
    ("preset", "name", ["fig1_L1"], "preset name"),
    # an int too long to print, named by its type
    pytest.param("Transfer", "peak_width", 10**5000, "Transfer.peak_width", id="Transfer-huge"),
    pytest.param("preset", "name", 10**5000, "preset name", id="preset-huge"),
])
def test_junk_number_errors_name_the_argument(entry, arg, junk, name):
    with pytest.raises(ValidationError, match=re.escape(name)):
        _call(entry, arg, junk)
