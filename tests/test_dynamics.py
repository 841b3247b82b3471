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

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PPoly

from blochpulse import (
    ControlField,
    IntegrationError,
    NumericalError,
    Rates,
    ScenarioConfig,
    SimResult,
    Transfer,
    TransitionSpec,
    ValidationError,
    Window,
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
    preset_names,
    run_scenario,
    rwa_deviation,
    synthesize_pulse,
)
from blochpulse import dynamics, odeint, scenario, verify
from blochpulse.dynamics import PHASE_PER_STEP
from blochpulse.odeint import ATOL, RTOL, SPAN_SLACK
from blochpulse.rates import inversion_decay_rate, transverse_rate
from blochpulse.scenario import PICTURES
from blochpulse.states import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z, _onto_sphere


def _constant_field(t, omega=0.0, delta=0.0, phi=0.0, omega_r=0.0, omega0=0.0):
    full = np.full_like
    return ControlField(t=t, omega=full(t, omega), delta=full(t, delta),
                        phi=full(t, phi), omega_r=full(t, omega_r),
                        omega0=full(t, omega0))


def _table(field):
    """The field's channel table as a scipy ``PPoly``, an oracle that reads its array."""
    return PPoly(field._coefficients.transpose(0, 2, 1), field.t)


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
        got = np.column_stack(np.broadcast_arrays(*field_at(*field._reader()(times))))
        assert got.dtype == np.float64 and got.shape == (times.size, 3)
        # == on the bytes, so that -0.0 against 0.0 fails too
        assert got.tobytes() == np.array(want).tobytes(), name


_VALUE = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=39), st.floats(-1e3, 1e3),
       st.data())
def test_field_reads_match_the_channel_table_on_any_grid(steps, start, data):
    # uneven grids of 2 to 40 knots, which include the slopes' line and parabola cases,
    # with random channels, read inside the window and past both ends
    t = start + np.cumsum([0.0, *steps])
    channels = data.draw(st.lists(st.lists(_VALUE, min_size=t.size, max_size=t.size),
                                  min_size=5, max_size=5))
    field = ControlField(t, *channels)
    inside = data.draw(st.lists(st.floats(t[0], t[-1]), min_size=1, max_size=20))
    times = np.array([t[0] - 1.0, t[0] - SPAN_SLACK, *inside, t[-1] + SPAN_SLACK, t[-1] + 1.0])
    rows = _table(field)(times).tolist()
    for name, field_at in (("lab", dynamics._lab_field), ("carrier", dynamics._carrier_field),
                           ("rwa", dynamics._rwa_field), ("design", dynamics._design_field)):
        want = [_FLOAT_FIELDS[name](*row) for row in rows]
        got = np.column_stack(np.broadcast_arrays(*field_at(*field._reader()(times))))
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
        for tt, h, y, end in zip(ts, hs, ys, np.append(ys[1:], [y_end], axis=0)):
            y_new, _, _, ratio = odeint._dp5_step(rhs, tt, h, y, rhs(tt, y), RTOL, ATOL)
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


# Every picture of one field runs in one lock-step batch of the Bloch controller; each
# picture's result and failure must be bit for bit what its public integrator gives alone.

def _alone(run, pictures):
    """``run``'s pictures integrated one by one by the public integrators, in order, as
    ``run_scenario`` ran them before it batched them."""
    cfg, field, grid = run.config, run.field, run.grid
    r0 = _onto_sphere(np.array([x[0] for x in run.prescribed]))
    tol = dict(rtol=cfg.rtol, atol=cfg.atol)
    out = {}
    for pic in pictures:
        if pic == "effective-bloch" or not cfg.rates.closed:
            out[pic] = integrate_bloch_effective(field, cfg.rates, r0, grid, **tol)
        elif pic == "interaction":
            out[pic] = integrate_interaction(field, r0, grid, **tol)
        else:
            out[pic] = integrate_lab(field, scenario._to_corotating(r0, -field.phi[0]), grid, **tol)
    return out


def _assert_same(batched: dict, alone: dict):
    assert list(batched) == list(alone)
    for pic, res in alone.items():
        assert batched[pic].bloch.tobytes() == res.bloch.tobytes(), pic
        assert batched[pic].stats == res.stats, pic


@pytest.mark.parametrize("name", [n for n in preset_names() if preset(n).rates.closed])
def test_a_closed_preset_runs_every_picture_as_alone(name, monkeypatch):
    run = run_scenario(preset(name))
    _assert_same(run.results, _alone(run, run.config.pictures))
    # rwa_deviation runs its two pictures in one batch too
    runs = []

    def spy(*args):
        runs.append(dynamics._propagate(*args))
        return runs[-1]

    monkeypatch.setattr(verify, "_propagate", spy)
    r0 = run.results["effective-bloch"].bloch[0]
    deviation = rwa_deviation(run.field, r0, run.grid)
    full, rwa = (integrate_interaction(run.field.scaled(1.0), r0, run.grid, rwa=rwa)
                 for rwa in (False, True))
    _assert_same(runs[0], {"interaction": full, "interaction-rwa": rwa})
    assert deviation == float(0.5 * np.max(np.linalg.norm(full.bloch - rwa.bloch, axis=1)))


@settings(max_examples=40, deadline=None)
@given(spec=st.builds(Transfer, inversion_start=st.floats(-0.9, 0.9),
                      inversion_stop=st.floats(-0.9, 0.9), switch_rate=st.floats(1e-3, 0.05),
                      coherence_peak=st.floats(0.05, 0.4), peak_width=st.floats(10, 200),
                      peak_time=st.floats(-50, 50)),
       omega0=st.floats(2e-3, 0.02), samples=st.integers(21, 241),
       pictures=st.permutations(PICTURES).flatmap(
           lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))))
def test_any_pictures_in_any_order_run_as_alone(spec, omega0, samples, pictures):
    cfg = ScenarioConfig(name="lockstep", trajectory=spec, rates=Rates(),
                         transition=TransitionSpec.constant(omega0),
                         window=Window(-100.0, 100.0, samples), pictures=pictures)
    try:
        synthesized = run_scenario(dataclasses.replace(cfg, pictures=()))
    except NumericalError:
        assume(False)
    try:
        alone, expected = _alone(synthesized, pictures), None
    except NumericalError as exc:
        expected = exc
    if expected is None:
        _assert_same(run_scenario(cfg).results, alone)
    else:
        with pytest.raises(type(expected)) as err:
            run_scenario(cfg)
        assert (str(err.value), err.value.t_first) == (str(expected), expected.t_first)


def _break_reader(monkeypatch, rows):
    """Make the table reader's channel ``row`` infinite after time ``start``, for each
    (row, start) in ``rows``: rows 0 and 1 (Omega, Delta) feed the design field, 1 to 3
    (Delta, phi, Omega_R) the carrier field, and 2 to 4 (phi, Omega_R, omega0) the lab's."""
    real = ControlField._reader

    def reader(field):
        values = real(field)

        def broken(times):
            out = values(times)
            for row, start in rows:
                out[row] = np.where(times > start, np.inf, out[row])
            return out
        return broken

    monkeypatch.setattr(ControlField, "_reader", reader)


@pytest.mark.parametrize("rows", [
    [(4, 0.0)],  # only the lab picture, the last, fails
    [(4, 0.0), (0, 50.0)],  # the lab picture fails first in time; the design picture raises
    [(0, 50.0), (3, -20.0)],  # the design picture fails after the carrier pictures
    [(3, 60.0)],  # the two carrier pictures fail; the earlier raises
])
def test_a_batched_run_raises_as_its_first_failing_picture_alone(monkeypatch, rows):
    run = run_scenario(preset("fig1_L3"))
    _break_reader(monkeypatch, rows)
    with pytest.raises(IntegrationError) as alone:
        _alone(run, run.config.pictures)
    with np.errstate(invalid="ignore"), pytest.raises(IntegrationError) as batched:
        run_scenario(preset("fig1_L3"))
    assert str(batched.value) == str(alone.value)
    assert batched.value.t_first == alone.value.t_first
