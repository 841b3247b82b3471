"""Propagators: analytic rotations, picture cross-checks, dissipator algebra.

Oracles: free precession and resonant Rabi flopping in closed form, an exact
reduction with all rates off (the master equation collapses onto the
co-rotating propagator), and an independent density-matrix reference: each
picture's 2x2 Hamiltonian built from the Pauli matrices plus the matrix
dissipator, integrated by scipy. Each accepted step of the batched Bloch
controller is also replayed through the generic step kernel with the per-call
right-hand side it replaced, and each whole run checked against the generic
integrator.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PPoly

from blochpulse import (
    ControlField,
    Rates,
    SimResult,
    Transfer,
    ValidationError,
    bloch_from_density,
    complete_v_closed,
    density_from_bloch,
    dissipator_action,
    eval_components,
    frame_transform,
    integrate_adaptive,
    integrate_bloch_effective,
    integrate_interaction,
    integrate_lab,
    integrate_lindblad,
    preset,
    synthesize_pulse,
)
from blochpulse import dynamics, odeint
from blochpulse.dynamics import PHASE_PER_STEP
from blochpulse.odeint import ATOL, RTOL, SPAN_SLACK
from blochpulse.rates import inversion_decay_rate, transverse_rate
from blochpulse.states import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z


def _constant_field(t, omega=0.0, delta=0.0, phi=0.0, omega_r=0.0, omega0=0.0):
    full = np.full_like
    return ControlField(t=t, omega=full(t, omega), delta=full(t, delta),
                        phi=full(t, phi), omega_r=full(t, omega_r),
                        omega0=full(t, omega0))


def _table(field):
    """The field's channel table as a scipy ``PPoly``, an oracle that reads its buffer."""
    knots, coef = field._coefficients
    return PPoly(np.frombuffer(coef).reshape(-1, 5, 4).transpose(2, 0, 1), knots)


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


@pytest.mark.parametrize("phi", [np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.zeros((1, 3))])
def test_frame_transform_rejects_phi_of_another_shape(phi):
    with pytest.raises(ValidationError, match="one angle per state"):
        frame_transform(np.tile(np.eye(2), (3, 1, 1)), phi)
    assert frame_transform(np.tile(np.eye(2), (3, 1, 1)), np.zeros(3)).shape == (3, 2, 2)


def test_free_precession_lab_frame():
    t = np.linspace(0.0, 20.0, 201)
    field = _constant_field(t, omega0=0.7)
    res = integrate_lab(field, [0.8, 0.0, 0.6], t)
    u, v, w = res.bloch.T
    assert np.max(np.abs(u - 0.8 * np.cos(0.7 * t))) < 1e-9
    assert np.max(np.abs(v - 0.8 * np.sin(0.7 * t))) < 1e-9
    assert np.max(np.abs(w - 0.6)) < 1e-10


def test_resonant_rabi_under_rwa():
    t = np.linspace(0.0, 100.0, 401)
    # nonzero carrier phase must be irrelevant once the oscillating term is dropped
    field = _constant_field(t, omega_r=0.05, phi=0.3)
    res = integrate_interaction(field, [0.0, 0.0, 1.0], t, rwa=True)
    u, v, w = res.bloch.T
    assert np.max(np.abs(w - np.cos(0.05 * t))) < 1e-9
    assert np.max(np.abs(v + np.sin(0.05 * t))) < 1e-9
    assert np.max(np.abs(u)) < 1e-10
    assert res.picture == "interaction-rwa"
    full = integrate_interaction(field, [0.0, 0.0, 1.0], t)
    assert np.max(np.abs(full.bloch - res.bloch)) > 1e-3


_SPEC = Transfer(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
                 coherence_peak=0.4, peak_width=100.0)
_GRID = np.linspace(-120.0, 120.0, 601)


def _start_state():
    samples = eval_components(_SPEC, _GRID)
    v = complete_v_closed(samples)
    return np.array([samples.u[0], v[0], samples.w[0]])


def test_field_lindblad_without_rates_matches_interaction():
    field = synthesize_pulse(_SPEC, Rates(), 5e-3, _GRID)
    r0 = _start_state()
    master = integrate_lindblad(field, Rates(), r0, _GRID)
    rotating = integrate_interaction(field, r0, _GRID)
    assert np.array_equal(master.bloch, rotating.bloch)


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


def _fig1_l3_field():
    cfg = preset("fig1_L3")
    t = cfg.window.grid()
    return t, synthesize_pulse(cfg.trajectory, Rates(), cfg.transition.values(t), t)


def test_pictures_match_density_matrix_reference():
    t, field = _fig1_l3_field()
    omega, delta, phi, omega_r, omega0 = (
        CubicSpline(t, x) for x in (field.omega, field.delta, field.phi,
                                    field.omega_r, field.omega0))
    open_rates = Rates(dephasing=2e-3, thermal=1e-3, occupancy=0.5)
    r0 = _start_state()

    def carrier(tt, rwa=False):
        om_c = omega_r(tt) * (1.0 if rwa else 1.0 + np.exp(-2.0j * phi(tt)))
        return 0.5 * (-delta(tt) * SIGMA_Z + om_c * SIGMA_MINUS + np.conj(om_c) * SIGMA_PLUS)

    cases = [
        (integrate_lab(field, r0, t), Rates(),
         lambda tt: 0.5 * omega0(tt) * SIGMA_Z + omega_r(tt) * np.cos(phi(tt)) * SIGMA_X),
        (integrate_interaction(field, r0, t), Rates(), carrier),
        (integrate_interaction(field, r0, t, rwa=True), Rates(),
         lambda tt: carrier(tt, rwa=True)),
        (integrate_bloch_effective(field, open_rates, r0, t), open_rates,
         lambda tt: 0.5 * (-delta(tt) * SIGMA_Z + omega(tt) * SIGMA_X)),
        (integrate_lindblad(field, open_rates, r0, t), open_rates, carrier),
    ]
    for res, rates, hamiltonian in cases:
        ref = _master_equation_reference(hamiltonian, rates, density_from_bloch(r0), t)
        assert np.max(np.abs(res.bloch - ref)) < 1e-8, res.picture


# The per-call right-hand side the Bloch controller replaced: one scalar read of the
# channel table through scipy and one float field per stage, for the generic kernel.
_FLOAT_FIELDS = {
    "lab": lambda om, de, ph, om_r, om0: (2.0 * om_r * math.cos(ph), 0.0, om0),
    "carrier": lambda om, de, ph, om_r, om0: (om_r * (1.0 + math.cos(2.0 * ph)),
                                              -om_r * math.sin(2.0 * ph), -de),
    "rwa": lambda om, de, ph, om_r, om0: (om_r, 0.0, -de),
    "design": lambda om, de, ph, om_r, om0: (om, 0.0, -de),
}


def _per_call_rhs(field, field_at, rates):
    g_t, g_1, pump = transverse_rate(rates), inversion_decay_rate(rates), -2.0 * rates.thermal
    table = _table(field)

    def rhs(tt, r):
        u, v, w = r
        bx, by, bz = field_at(*table(tt).tolist())
        return np.array([by * w - bz * v - g_t * u,
                         bz * u - bx * w - g_t * v,
                         bx * v - by * u - g_1 * w + pump])
    return rhs


def _per_call_reference(field, field_at, rates, r0, t):
    rhs = _per_call_rhs(field, field_at, rates)
    max_step = min(PHASE_PER_STEP / field.fastest_scale, (t[-1] - t[0]) / 8.0)
    return integrate_adaptive(rhs, (t[0], t[-1]), r0, t, max_step=max_step)


def _signed_zero_field():
    # omega0 constant, delta all zero, and omega, omega_r a cubic that is -0.0 at
    # the knot t = 0 with all three slopes negative there: a read that drops
    # scipy's leading 0.0 + turns that -0.0 into a differing sign bit
    t = np.linspace(-2.0, 3.0, 11)
    cubic = -(t + t ** 2 + t ** 3)
    return t, ControlField(t=t, omega=cubic, delta=np.zeros_like(t), phi=0.3 * t,
                           omega_r=cubic, omega0=np.full_like(t, 0.7))


@pytest.mark.parametrize("make", [_fig1_l3_field, _signed_zero_field])
def test_field_reads_are_bit_identical_to_the_channel_table(make):
    t, field = make()
    rng = np.random.default_rng(17)
    times = np.concatenate([rng.uniform(t[0], t[-1], 200), t,
                            [t[0] - SPAN_SLACK, t[-1] + SPAN_SLACK]])
    table = _table(field)
    old_rows = table(times).tolist()
    assert 0.0 in times and np.signbit(table(0.0)).tolist() == [False] * 5
    for name, field_at in (("lab", dynamics._lab_field), ("carrier", dynamics._carrier_field),
                           ("rwa", dynamics._rwa_field), ("design", dynamics._design_field)):
        want = [_FLOAT_FIELDS[name](*row) for row in old_rows]
        got = np.column_stack(np.broadcast_arrays(*field_at(field)(times)))
        assert got.dtype == np.float64 and got.shape == (times.size, 3)
        # == on the bytes, so that -0.0 against 0.0 fails too
        assert got.tobytes() == np.array(want).tobytes(), name


def test_bloch_kernel_matches_per_call_rhs(monkeypatch):
    # every accepted step, replayed alone from the state the batched plan gives it,
    # ends where the plan's scan puts the next one and passes the error test
    t, field = _fig1_l3_field()
    open_rates = Rates(dephasing=2e-3, thermal=1e-3, occupancy=0.5)
    r0 = _start_state()
    calls = []
    emit = odeint._dense_output
    monkeypatch.setattr(odeint, "_dense_output", lambda *args: calls.append(args) or emit(*args))
    cases = [
        (lambda: integrate_lab(field, r0, t), "lab", Rates()),
        (lambda: integrate_interaction(field, r0, t), "carrier", Rates()),
        (lambda: integrate_interaction(field, r0, t, rwa=True), "rwa", Rates()),
        (lambda: integrate_bloch_effective(field, open_rates, r0, t), "design", open_rates),
        (lambda: integrate_lindblad(field, open_rates, r0, t), "carrier", open_rates),
    ]
    for run, name, rates in cases:
        res = run()
        *_, y_end, ts, hs, ys, _ = calls[-1]
        assert ts.size == res.stats.accepted, name
        rhs = _per_call_rhs(field, _FLOAT_FIELDS[name], rates)
        step = odeint._numpy_kernel(rhs, RTOL, ATOL)
        for tt, h, y, end in zip(ts, hs, ys, np.append(ys[1:], [y_end], axis=0)):
            y_new, _, _, ratio = step(tt, h, y, rhs(tt, y))
            assert np.max(np.abs(y_new - end)) < 1e-14, name
            assert ratio <= 1.0 + 1e-9, name
        ref, _ = _per_call_reference(field, _FLOAT_FIELDS[name], rates, r0, t)
        assert np.max(np.abs(res.bloch - ref)) < 1e-9, name


@pytest.mark.parametrize("rtol, atol", [(0.0, 0.0), (-1.0, -1.0), (np.nan, 1e-12)])
def test_bad_tolerances_rejected(rtol, atol):
    t, field = _fig1_l3_field()
    with pytest.raises(ValidationError, match="tolerances"):
        integrate_interaction(field, _start_state(), t, rtol=rtol, atol=atol)


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


def test_single_point_grid_rejected():
    t = np.linspace(0.0, 10.0, 11)
    field = _constant_field(t, omega_r=0.05, omega0=0.7)
    with pytest.raises(ValidationError):
        integrate_lab(field, [0.6, 0.0, 0.8], [5.0])
    with pytest.raises(ValidationError):
        integrate_bloch_effective(field, Rates(), [0.6, 0.0, 0.8], [5.0])


def test_grid_outside_control_window_rejected():
    t = np.linspace(0.0, 10.0, 11)
    field = _constant_field(t, omega_r=0.05)
    with pytest.raises(ValidationError):
        integrate_lab(field, [0.0, 0.0, 1.0], np.linspace(0.0, 12.0, 13))


@pytest.mark.parametrize("r0", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                                [0.8, 0.8, 0.8], [0.0, 1.0], np.eye(2) / 2])
def test_bad_initial_state_rejected_before_integrating(r0):
    t = np.linspace(0.0, 10.0, 11)
    field = _constant_field(t, omega_r=0.05, omega0=0.7)
    for integrate in (lambda r: integrate_bloch_effective(field, Rates(), r, t),
                      lambda r: integrate_lab(field, r, t),
                      lambda r: integrate_interaction(field, r, t),
                      lambda r: integrate_lindblad(field, Rates(), r, t)):
        with pytest.raises(ValidationError):
            integrate(r0)


def test_control_field_channels_node_exact():
    field = synthesize_pulse(_SPEC, Rates(), 5e-3, _GRID)
    table = _table(field)
    assert np.max(np.abs(table(_GRID)[:, 0] - field.omega)) < 1e-14
    assert np.max(np.abs(table(_GRID)[:, 2] - field.phi)) < 1e-14
    assert field.fastest_scale >= np.max(np.abs(field.omega0))
    # the one table matches a spline per channel exactly, values and slopes
    off_node = 0.5 * (_GRID[1:] + _GRID[:-1])
    channels = (field.omega, field.delta, field.phi, field.omega_r, field.omega0)
    for col, channel in enumerate(channels):
        alone = CubicSpline(_GRID, channel)
        for nu in (0, 1):
            assert np.max(np.abs(table(off_node, nu)[:, col] - alone(off_node, nu))) == 0.0
            assert table(off_node[7], nu)[col] == alone(off_node[7], nu)


def test_stats_reported_and_within_tolerance():
    t = np.linspace(0.0, 100.0, 401)
    field = _constant_field(t, omega_r=0.05)
    res = integrate_interaction(field, [0.0, 0.0, 1.0], t, rwa=True)
    assert res.stats is not None
    assert res.stats.accepted > 0
    assert res.stats.rhs_evals > res.stats.accepted
    assert 0.0 <= res.stats.max_error_ratio <= 1.0


def test_populations_and_bloch_views_agree():
    t = np.linspace(0.0, 50.0, 201)
    field = _constant_field(t, omega_r=0.05)
    res = integrate_interaction(field, [0.0, 0.0, 1.0], t)
    pops = res.populations
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs((pops[:, 0] - pops[:, 1]) - res.bloch[:, 2])) < 1e-12


def test_derived_views_never_validate():
    # a loose-tolerance run may leave the sphere by more than roundoff
    bloch = np.array([[0.0, 0.0, 1.0 + 1e-6], [0.6, 0.0, 0.8]])
    res = SimResult(picture="test", t=np.array([0.0, 1.0]), bloch=bloch)
    assert res.states.shape == (2, 2, 2)
    assert np.max(np.abs(bloch_from_density(res.states) - bloch)) < 1e-15
    assert res.populations[0, 0] > 1.0
