"""Propagators: analytic rotations, picture cross-checks, dissipator algebra.

Oracles: free precession and resonant Rabi flopping in closed form, two
exact reductions with all rates off (the master equation driven by the design
coupling collapses onto the damped component equations, the one driven by the
carrier-resolved coupling onto the co-rotating propagator), and an
independent density-matrix reference: each picture's 2x2 Hamiltonian built
from the Pauli matrices plus the matrix dissipator, integrated by scipy.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from blochpulse import (
    ControlField,
    ControlInterpolant,
    Rates,
    Transfer,
    ValidationError,
    bloch_from_density,
    complete_v_closed,
    density_from_bloch,
    dissipator_action,
    eval_components,
    frame_transform,
    integrate_bloch_effective,
    integrate_interaction,
    integrate_lab,
    integrate_lindblad,
    preset,
    synthesize_pulse,
)
from blochpulse.states import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z


def _constant_field(t, omega=0.0, delta=0.0, phi=0.0, omega_r=0.0, omega0=0.0):
    full = np.full_like
    return ControlField(t=t, omega=full(t, omega), delta=full(t, delta),
                        phi=full(t, phi), omega_r=full(t, omega_r),
                        omega0=full(t, omega0))


def _random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_frame_round_trip_is_identity():
    rng = np.random.default_rng(41)
    states = np.stack([_random_density(rng) for _ in range(20)])
    phi = rng.uniform(-10.0, 10.0, size=20)
    back = frame_transform(frame_transform(states, phi), phi, direction="to_lab")
    assert np.max(np.abs(back - states)) < 1e-15


def test_frame_transform_sign_frozen():
    # u = 1 in the lab reads as v = -1 in a frame a quarter turn ahead
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rotated = frame_transform(rho, np.pi / 2)
    assert rotated[0, 1] == pytest.approx(0.5j, abs=1e-15)


def test_frame_transform_rejects_bad_direction():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValidationError):
        frame_transform(rho, 0.1, direction="sideways")


def test_free_precession_lab_frame():
    t = np.linspace(0.0, 20.0, 201)
    field = _constant_field(t, omega0=0.7)
    res = integrate_lab(field, density_from_bloch([0.8, 0.0, 0.6]), t)
    u, v, w = res.bloch.T
    assert np.max(np.abs(u - 0.8 * np.cos(0.7 * t))) < 1e-9
    assert np.max(np.abs(v - 0.8 * np.sin(0.7 * t))) < 1e-9
    assert np.max(np.abs(w - 0.6)) < 1e-10


def test_resonant_rabi_under_rwa():
    t = np.linspace(0.0, 100.0, 401)
    # nonzero carrier phase must be irrelevant once the oscillating term is dropped
    field = _constant_field(t, omega_r=0.05, phi=0.3)
    res = integrate_interaction(field, density_from_bloch([0.0, 0.0, 1.0]), t, rwa=True)
    u, v, w = res.bloch.T
    assert np.max(np.abs(w - np.cos(0.05 * t))) < 1e-9
    assert np.max(np.abs(v + np.sin(0.05 * t))) < 1e-9
    assert np.max(np.abs(u)) < 1e-10
    assert res.picture == "interaction-rwa"
    full = integrate_interaction(field, density_from_bloch([0.0, 0.0, 1.0]), t)
    assert np.max(np.abs(full.bloch - res.bloch)) > 1e-3


_SPEC = Transfer(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
                 coherence_peak=0.4, peak_width=100.0)
_GRID = np.linspace(-120.0, 120.0, 601)


def _start_state():
    samples = eval_components(_SPEC, _GRID)
    v = complete_v_closed(samples)
    r0 = np.array([samples.u[0], v[0], samples.w[0]])
    return r0, density_from_bloch(r0)


def test_design_lindblad_without_rates_matches_effective():
    field = synthesize_pulse(_SPEC, Rates(), 5e-3, _GRID)
    r0, rho0 = _start_state()
    master = integrate_lindblad(field, Rates(), rho0, _GRID)
    effective = integrate_bloch_effective(field, Rates(), r0, _GRID)
    assert np.max(np.abs(master.bloch - effective.bloch)) < 1e-8


def test_field_lindblad_without_rates_matches_interaction():
    field = synthesize_pulse(_SPEC, Rates(), 5e-3, _GRID)
    _, rho0 = _start_state()
    master = integrate_lindblad(field, Rates(), rho0, _GRID, hamiltonian="field")
    rotating = integrate_interaction(field, rho0, _GRID)
    assert np.max(np.abs(master.states - rotating.states)) < 1e-12


def _master_equation_reference(hamiltonian, rates, rho0, t):
    """Bloch vectors from d rho/dt = -i [H, rho] + D(rho), solved by DOP853."""
    def rhs(tt, y):
        rho = y.reshape(2, 2)
        h = hamiltonian(tt)
        return (-1j * (h @ rho - rho @ h) + dissipator_action(rho, rates)).ravel()

    sol = solve_ivp(rhs, (t[0], t[-1]), rho0.ravel().astype(complex), method="DOP853",
                    t_eval=t, rtol=1e-12, atol=1e-14)
    assert sol.success
    return np.array([bloch_from_density(y.reshape(2, 2)) for y in sol.y.T])


def test_pictures_match_density_matrix_reference():
    cfg = preset("fig1_L3")
    t = cfg.window.grid()
    field = synthesize_pulse(cfg.trajectory, Rates(), cfg.transition.values(t), t)
    omega, delta, phi, omega_r, omega0 = (
        CubicSpline(t, x) for x in (field.omega, field.delta, field.phi,
                                    field.omega_r, field.omega0))
    open_rates = Rates(dephasing=2e-3, thermal=1e-3, occupancy=0.5)
    _, rho0 = _start_state()

    def carrier(tt, rwa=False):
        om_c = omega_r(tt) * (1.0 if rwa else 1.0 + np.exp(-2.0j * phi(tt)))
        return 0.5 * (-delta(tt) * SIGMA_Z + om_c * SIGMA_MINUS + np.conj(om_c) * SIGMA_PLUS)

    cases = [
        (integrate_lab(field, rho0, t), Rates(),
         lambda tt: 0.5 * omega0(tt) * SIGMA_Z + omega_r(tt) * np.cos(phi(tt)) * SIGMA_X),
        (integrate_interaction(field, rho0, t), Rates(), carrier),
        (integrate_interaction(field, rho0, t, rwa=True), Rates(),
         lambda tt: carrier(tt, rwa=True)),
        (integrate_lindblad(field, open_rates, rho0, t), open_rates,
         lambda tt: 0.5 * (-delta(tt) * SIGMA_Z + omega(tt) * SIGMA_X)),
        (integrate_lindblad(field, open_rates, rho0, t, hamiltonian="field"), open_rates,
         carrier),
    ]
    for res, rates, hamiltonian in cases:
        ref = _master_equation_reference(hamiltonian, rates, rho0, t)
        assert np.max(np.abs(res.bloch - ref)) < 1e-8, res.picture


def test_lindblad_rejects_unknown_hamiltonian():
    field = synthesize_pulse(_SPEC, Rates(), 5e-3, _GRID)
    _, rho0 = _start_state()
    with pytest.raises(ValidationError):
        integrate_lindblad(field, Rates(), rho0, _GRID, hamiltonian="bogus")


def test_dissipator_frozen_rates():
    # emission from the excited state at 2 Gamma; dephasing decays u at gamma
    excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = dissipator_action(excited, Rates(thermal=0.05))
    assert out[0, 0] == pytest.approx(-0.1, abs=1e-15)
    assert out[1, 1] == pytest.approx(0.1, abs=1e-15)
    coherent = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    out = dissipator_action(coherent, Rates(dephasing=0.1))
    assert out[0, 1] == pytest.approx(-0.03, abs=1e-15)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_dissipator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rho = _random_density(rng)
        rates = Rates(dephasing=rng.uniform(0, 0.1), thermal=rng.uniform(0, 0.1),
                      occupancy=rng.uniform(0, 2.0))
        out = dissipator_action(rho, rates)
        assert abs(np.trace(out)) < 1e-14
        assert np.max(np.abs(out - out.conj().T)) < 1e-14


def test_single_point_grid_returns_initial_state():
    t = np.linspace(0.0, 10.0, 11)
    field = _constant_field(t, omega_r=0.05, omega0=0.7)
    rho0 = density_from_bloch([0.6, 0.0, 0.8])
    res = integrate_lab(field, rho0, [5.0])
    assert res.stats is None
    assert np.max(np.abs(res.states[0] - rho0)) == 0.0
    eff = integrate_bloch_effective(field, Rates(), [0.6, 0.0, 0.8], [5.0])
    assert np.max(np.abs(eff.bloch[0] - [0.6, 0.0, 0.8])) == 0.0


def test_grid_outside_control_window_rejected():
    t = np.linspace(0.0, 10.0, 11)
    field = _constant_field(t, omega_r=0.05)
    rho0 = density_from_bloch([0.0, 0.0, 1.0])
    with pytest.raises(ValidationError):
        integrate_lab(field, rho0, np.linspace(0.0, 12.0, 13))


def test_control_interpolant_node_exact():
    field = synthesize_pulse(_SPEC, Rates(), 5e-3, _GRID)
    ctrl = ControlInterpolant(field)
    assert np.max(np.abs(ctrl.omega(_GRID) - field.omega)) < 1e-14
    assert np.max(np.abs(ctrl.phi(_GRID) - field.phi)) < 1e-14
    assert ctrl.fastest_scale() >= np.max(np.abs(field.omega0))


def test_stats_reported_and_within_tolerance():
    t = np.linspace(0.0, 100.0, 401)
    field = _constant_field(t, omega_r=0.05)
    res = integrate_interaction(field, density_from_bloch([0.0, 0.0, 1.0]), t, rwa=True)
    assert res.stats is not None
    assert res.stats.accepted > 0
    assert res.stats.rhs_evals > res.stats.accepted
    assert 0.0 <= res.stats.max_error_ratio <= 1.0


def test_populations_and_bloch_views_agree():
    t = np.linspace(0.0, 50.0, 201)
    field = _constant_field(t, omega_r=0.05)
    res = integrate_interaction(field, density_from_bloch([0.0, 0.0, 1.0]), t)
    pops = res.populations
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs((pops[:, 0] - pops[:, 1]) - res.bloch[:, 2])) < 1e-12
