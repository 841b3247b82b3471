"""Synthesis algebra: inversion formulas, phase quadrature, carrier guard.

Oracles are hand arithmetic on single samples (the inversion formulas are
pointwise) and antiderivatives known in closed form. A cubic detuning is
reproduced exactly by the spline quadrature, which pins the integrator to
machine precision rather than a loose tolerance; on random grids the
closed-form phase is checked against scipy's spline antiderivative, and the
knot slopes and the channel table against scipy's ``CubicSpline``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, PPoly

import blochpulse
from blochpulse import synthesis
from blochpulse import (
    CarrierSingularityError,
    ControlField,
    NumericalError,
    Rates,
    SingularPrescriptionError,
    Transfer,
    ValidationError,
    omega_delta_from_components,
    phase_from_detuning,
    rabi_from_phase,
    synthesize_pulse,
)


def _one(val):
    return np.array([val], dtype=float)


def test_coupling_closed_frozen():
    omega, delta = omega_delta_from_components(
        _one(0.3), _one(0.0), _one(0.1), _one(0.2), _one(0.5), Rates())
    assert omega[0] == pytest.approx(0.4, abs=1e-15)   # 0.2 / 0.5
    assert delta[0] == pytest.approx(0.2, abs=1e-15)   # 0.1 / 0.5


def test_coupling_thermal_pump_frozen():
    # vacuum thermal channel adds 2 Gamma (1 + w) to the numerator
    omega, delta = omega_delta_from_components(
        _one(0.3), _one(0.0), _one(0.1), _one(0.2), _one(0.5), Rates(thermal=0.05))
    assert omega[0] == pytest.approx(0.6, abs=1e-15)   # (0.2 + 2*0.05) / 0.5
    assert delta[0] == pytest.approx(0.23, abs=1e-15)  # (0.05*0.3 + 0.1) / 0.5


def test_detuning_dephasing_frozen():
    omega, delta = omega_delta_from_components(
        _one(0.3), _one(0.0), _one(0.1), _one(0.2), _one(0.5), Rates(dephasing=0.2))
    assert delta[0] == pytest.approx(0.32, abs=1e-15)  # (0.2*0.3 + 0.1) / 0.5
    assert omega[0] == pytest.approx(0.4, abs=1e-15)


def test_coupling_rejects_small_v():
    with pytest.raises(SingularPrescriptionError):
        omega_delta_from_components(
            _one(0.0), _one(0.0), _one(0.0), _one(0.1), _one(1e-9), Rates())


def test_phase_vanishes_when_detuning_cancels_carrier():
    t = np.linspace(0.0, 10.0, 101)
    phi = phase_from_detuning(0.7, np.full_like(t, -0.7), t)
    assert np.all(phi == 0.0)


def test_phase_quadrature_exact_on_cubic():
    # not-a-knot spline reproduces a cubic, so its antiderivative is exact
    t = np.linspace(0.0, 2.0, 51)
    delta = t**3 - 2.0 * t**2
    phi = phase_from_detuning(0.3, delta, t)
    exact = t**4 / 4.0 - 2.0 * t**3 / 3.0 + 0.3 * t
    assert np.max(np.abs(phi - exact)) < 1e-12


def test_phase_quadrature_cosine():
    t = np.linspace(0.0, 3.0, 301)
    phi = phase_from_detuning(0.0, np.cos(t), t)
    assert np.max(np.abs(phi - np.sin(t))) < 1e-8


@st.composite
def _phase_inputs(draw):
    """A strictly increasing grid of 2 to 40 samples (2 and 3 are scipy's special
    cases), a detuning, omega0 as a scalar or per sample, and a gauge point."""
    n = draw(st.one_of(st.sampled_from([2, 3]), st.integers(2, 40)))
    t = draw(st.floats(-100.0, 100.0)) + np.cumsum(
        [0.0] + draw(st.lists(st.floats(0.01, 5.0), min_size=n - 1, max_size=n - 1)))
    values = st.floats(-10.0, 10.0)
    delta = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    omega0 = draw(st.one_of(values, st.lists(values, min_size=n, max_size=n).map(np.array)))
    zero_time = draw(st.one_of(st.sampled_from(t.tolist()),
                               st.floats(0.0, 1.0).map(lambda x: min(t[0] + x * (t[-1] - t[0]),
                                                                     t[-1]))))
    return t, delta, omega0, zero_time


@settings(max_examples=300, deadline=None)
@given(_phase_inputs())
# the only nonzero value is subnormal: the phase is the exact 5e-324, but scipy's
# coefficients underflow to 0, and so would a purely relative bound
@example((np.array([0.0, 2.0]), np.array([0.0, 5e-324]), 0.0, 0.0))
def test_phase_matches_the_scipy_spline_antiderivative(inputs):
    t, delta, omega0, zero_time = inputs
    spline = CubicSpline(t, omega0 + delta)
    anti = spline.antiderivative()
    phi = phase_from_detuning(omega0, delta, t, zero_time=zero_time)
    # relative to a bound on the integral of the spline's magnitude (a not-a-knot spline
    # overshoots its samples on uneven grids), summed over intervals from its coefficients,
    # and no smaller than the least normal float, below which roundoff is absolute
    h = np.diff(t)
    scale = np.sum(np.abs(spline.c) * h ** np.arange(4, 0, -1)[:, None])
    bound = max(1e-12 * scale, np.finfo(float).tiny)
    assert np.max(np.abs(phi - (anti(t) - anti(zero_time)))) <= bound


@st.composite
def _spline_inputs(draw):
    """An uneven, strictly increasing grid of 2 to 40 samples and five columns of values."""
    n = draw(st.one_of(st.sampled_from([2, 3, 4]), st.integers(2, 40)))
    t = draw(st.floats(-100.0, 100.0)) + np.cumsum(
        [0.0] + draw(st.lists(st.floats(0.01, 5.0), min_size=n - 1, max_size=n - 1)))
    row = st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5)
    return t, np.array(draw(st.lists(row, min_size=n, max_size=n)))


def _subnormal_draw():
    """A draw whose only nonzero value is subnormal: its slope error, 1.24e-322, exceeds
    a purely relative bound of 1.1e-322."""
    y = np.zeros((4, 5))
    y[3, 4] = 2.22507386e-313
    return np.array([0.0, 2.0, 4.0, 8.5]), y


@settings(max_examples=300, deadline=None)
@given(_spline_inputs())
@example(_subnormal_draw())
def test_spline_slopes_and_channel_table_match_scipy(inputs):
    t, y = inputs
    ref = CubicSpline(t, y)
    # a tolerance, not bit-identity, so that a change inside scipy does not fail this test:
    # slopes relative to each column's largest, the table by each term's size over its
    # interval, each bound no smaller than the least normal float, below which roundoff
    # is absolute
    tiny = np.finfo(float).tiny
    slopes = ref(t, 1)
    slope_tol = np.maximum(1e-9 * np.max(np.abs(slopes), axis=0), tiny)
    for cols in (slice(0, 1), slice(0, 2), slice(0, 5)):
        got = synthesis._spline_slopes(t, y[:, cols])
        assert got.shape == y[:, cols].shape
        assert np.all(np.abs(got - slopes[:, cols]) <= slope_tol[cols])
    got = synthesis._spline_slopes(t, y[:, 0])  # one column as a 1-D array
    assert got.shape == t.shape and np.all(np.abs(got - slopes[:, 0]) <= slope_tol[0])
    knots, coef = ControlField(t, *y.T)._coefficients
    table = PPoly(np.frombuffer(coef).reshape(-1, 5, 4).transpose(2, 0, 1), knots)
    assert table.c.shape == ref.c.shape and np.array_equal(table.x, t)
    h_pow = np.diff(t)[:, None] ** np.arange(3, -1, -1)[:, None, None]
    term_scale = np.max(np.abs(ref.c) * h_pow, axis=(0, 1))
    assert np.all(np.abs(table.c - ref.c) * h_pow <= np.maximum(1e-9 * term_scale, tiny))
    # and the table reads like scipy's, extrapolating past both ends
    x = np.concatenate([t[:1] - 1.0, 0.5 * (t[1:] + t[:-1]), t[-1:] + 1.0])
    for nu in (0, 1):
        want = ref(x, nu)
        assert np.all(np.abs(table(x, nu) - want)
                      <= np.maximum(1e-8 * np.max(np.abs(want), axis=0), tiny))


def test_spline_slopes_report_a_failed_solve(monkeypatch):
    # LAPACK's info > 0 is a zero pivot at knot info - 1; on a strictly increasing grid it
    # cannot occur, so a stand-in solver reports it
    t = np.linspace(0.0, 5.0, 6)
    monkeypatch.setattr(synthesis, "dgtsv", lambda dl, d, du, b, *overwrite: (dl, d, du, b, 3))
    with pytest.raises(NumericalError, match="gtsv info 3") as err:
        phase_from_detuning(1.0, np.zeros(6), t)
    assert err.value.t_first == t[2]


def test_phase_gauge_point():
    t = np.linspace(-5.0, 5.0, 201)
    phi = phase_from_detuning(0.2, np.zeros_like(t), t, zero_time=0.0)
    assert phi[100] == pytest.approx(0.0, abs=1e-14)
    assert phi[-1] == pytest.approx(1.0, rel=1e-12)


def test_phase_rejects_bad_inputs():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValidationError):
        phase_from_detuning(0.1, np.zeros(10), t)
    with pytest.raises(ValidationError):
        phase_from_detuning(0.1, np.zeros_like(t), t, zero_time=2.0)
    for zero_time in ("middle", np.nan):
        with pytest.raises(ValidationError):
            phase_from_detuning(0.1, np.zeros_like(t), t, zero_time=zero_time)
    with pytest.raises(ValidationError, match="omega0"):
        phase_from_detuning(np.full(5, 0.1), np.zeros_like(t), t)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="omega0"):
            phase_from_detuning(bad, np.zeros_like(t), t)
        with pytest.raises(ValidationError, match="delta"):
            phase_from_detuning(0.1, np.where(t > 0.5, bad, 0.0), t)


def test_rabi_envelope_frozen_points():
    omega = np.array([0.4, 0.4])
    phi = np.array([0.0, np.pi / 4])
    omega_r = rabi_from_phase(omega, phi, np.array([0.0, 1.0]))
    assert omega_r[0] == pytest.approx(0.2, abs=1e-15)  # denom = 2 at phi = 0
    assert omega_r[1] == pytest.approx(0.4, abs=1e-12)  # denom = 1 at phi = pi/4


def test_rabi_singularity_reports_time():
    omega = np.array([0.4, 0.4, 0.4])
    phi = np.array([0.0, np.pi / 2, 0.0])
    with pytest.raises(CarrierSingularityError) as err:
        rabi_from_phase(omega, phi, times=np.array([0.0, 1.5, 3.0]))
    assert err.value.t_first == pytest.approx(1.5)
    # a phase that overflowed leaves a non-finite carrier factor, not a silent NaN
    with pytest.raises(CarrierSingularityError) as err:
        rabi_from_phase(omega, np.array([0.0, np.nan, np.inf]), times=np.array([0.0, 1.5, 3.0]))
    assert err.value.t_first == pytest.approx(1.5)
    # one sample given as scalars
    with pytest.raises(CarrierSingularityError) as err:
        rabi_from_phase(0.4, np.pi / 2, 1.5)
    assert err.value.t_first == 1.5


def test_rabi_envelope_rejects_mismatched_shapes():
    two, three = np.zeros(2), np.array([0.0, 1.5, 3.0])
    for omega, phi, times in ((two, three, three), (three, two, three), (three, three, two),
                              (three, three, three[:, None])):
        with pytest.raises(ValidationError, match="share one shape"):
            rabi_from_phase(omega, phi, times)


def test_control_field_validation():
    t = np.linspace(0.0, 1.0, 5)
    good = dict(t=t, omega=np.ones(5), delta=np.zeros(5), phi=np.zeros(5),
                omega_r=np.ones(5), omega0=np.full(5, 0.2))
    ControlField(**good)
    with pytest.raises(ValidationError):
        ControlField(**{**good, "delta": np.zeros(4)})
    with pytest.raises(ValidationError):
        ControlField(**{**good, "omega_r": np.array([1.0, np.nan, 1.0, 1.0, 1.0])})
    # the field builds its channel spline from t, so t must be a valid grid
    for bad_t in (np.array([0.0, 0.25, 0.25, 0.75, 1.0]), t[::-1],
                  np.array([0.0, 0.25, np.nan, 0.75, 1.0]), t[:, None]):
        with pytest.raises(ValidationError, match="time grid"):
            ControlField(**{**good, "t": bad_t})


def test_control_field_takes_array_like_channels():
    field = synthesize_pulse(_SPEC, Rates(), 5e-3, np.linspace(-120.0, 120.0, 61))
    arrays = [getattr(field, name) for name in ("t", *synthesis._CHANNELS)]
    from_lists = ControlField(*(a.tolist() for a in arrays))
    assert from_lists._coefficients == field._coefficients  # knots and table bytes alike
    # float64 arrays pass through as the same objects
    assert all(getattr(ControlField(*arrays), name) is a
               for name, a in zip(synthesis._CHANNELS, arrays[1:]))
    t = arrays[0]
    with pytest.raises(ValidationError, match=r"^ControlField\.phi must be numeric"):
        ControlField(t, *arrays[1:3], ["a"] * t.size, *arrays[4:])


def test_table_reader_takes_channels_in_table_order_only():
    t = np.linspace(0.0, 4.0, 5)
    field = ControlField(t, t, 2.0 * t, 3.0 * t, 4.0 * t, 5.0 * t)  # channel k is k t
    assert field._reader(("omega", "delta"))(np.array([1.5])).tolist() == [[1.5], [3.0]]
    assert field._reader(("delta", "phi", "omega0"))(np.array([1.5])).tolist() == [[3.0], [4.5],
                                                                                  [7.5]]
    # the pictures unpack the values in table order, so a swapped pair would exchange
    # two channels silently; so would a repeated, unknown or dropped name shift them
    for names in (("delta", "omega"), ("phi", "delta", "omega_r"), ("omega0", "omega_r"),
                  ("omega", "omega"), ("omega", "theta"), ("omega",),
                  ("omega", "delta", "phi", "omega_r")):
        with pytest.raises(ValueError, match="two or three of .*, in that order"):
            field._reader(names)


def test_control_field_scaled_and_peak_ratio():
    t = np.linspace(0.0, 1.0, 5)
    field = ControlField(t=t, omega=np.ones(5), delta=np.full(5, 0.1),
                         phi=np.zeros(5), omega_r=np.full(5, 0.8),
                         omega0=np.full(5, 0.2))
    assert field.rabi_peak_ratio() == pytest.approx(4.0)
    doubled = field.scaled(2.0)
    assert np.all(doubled.omega == 2.0)
    assert np.all(doubled.omega_r == 1.6)
    assert np.all(doubled.delta == field.delta)
    assert np.all(doubled.phi == field.phi)


_SPEC = Transfer(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
                 coherence_peak=0.4, peak_width=100.0)


def test_synthesize_gauge_shift_is_constant():
    grid = np.linspace(-120.0, 120.0, 241)
    centered = synthesize_pulse(_SPEC, Rates(), 5e-3, grid)
    anchored = synthesize_pulse(_SPEC, Rates(), 5e-3, grid, phase_zero="start")
    shift = anchored.phi - centered.phi
    assert np.ptp(shift) < 1e-10
    assert shift[0] != 0.0
    assert np.max(np.abs(anchored.omega - centered.omega)) == 0.0
    assert np.max(np.abs(anchored.delta - centered.delta)) == 0.0


def test_synthesize_numeric_gauge_point():
    grid = np.linspace(-120.0, 120.0, 241)
    field = synthesize_pulse(_SPEC, Rates(), 5e-3, grid, phase_zero=-120.0)
    assert field.phi[0] == pytest.approx(0.0, abs=1e-14)


def test_synthesize_rejects_bad_gauge_point_and_omega0():
    grid = np.linspace(-120.0, 120.0, 241)
    for kwargs in ({"phase_zero": "middle"}, {"phase_zero": [0.0]},
                   {"phase_zero": 500.0}, {"phase_zero": np.nan}):
        with pytest.raises(ValidationError):
            synthesize_pulse(_SPEC, Rates(), 5e-3, grid, **kwargs)
    for omega0 in (np.full(5, 5e-3), "fast", [5e-3, "fast"]):
        with pytest.raises(ValidationError, match="omega0"):
            synthesize_pulse(_SPEC, Rates(), omega0, grid)


def test_synthesize_long_window_hits_carrier_pole():
    spec = Transfer(inversion_start=-1.0, inversion_stop=1.0, switch_rate=0.01,
                    coherence_peak=0.8, peak_width=100.0)
    grid = np.linspace(-600.0, 600.0, 1201)
    with pytest.raises(CarrierSingularityError):
        synthesize_pulse(spec, Rates(), 15e-3, grid)


@pytest.mark.parametrize("rates", [Rates(), Rates(dephasing=1e-3, thermal=1e-4)])
def test_one_synthesis_validates_its_grid_and_omega0_once(monkeypatch, rates):
    calls = []

    def spy(fn):
        def counted(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return counted

    validate = spy(blochpulse.states.validate_grid)
    for module in (blochpulse.states, blochpulse.trajectories, blochpulse.synthesis):
        monkeypatch.setattr(module, "validate_grid", validate)
    monkeypatch.setattr(blochpulse.synthesis, "_per_sample_omega0",
                        spy(blochpulse.synthesis._per_sample_omega0))
    synthesize_pulse(_SPEC, rates, 5e-3, np.linspace(-120.0, 120.0, 241))
    assert sorted(calls) == ["_per_sample_omega0", "validate_grid"]


def test_synthesize_open_matches_manual_pipeline():
    from blochpulse import eval_components, solve_consistent_v_open

    grid = np.linspace(-120.0, 120.0, 241)
    rates = Rates(dephasing=1e-3, thermal=1e-4)
    field = synthesize_pulse(_SPEC, rates, 5e-3, grid)
    samples = eval_components(_SPEC, grid)
    v = solve_consistent_v_open(samples, rates)
    omega, delta = omega_delta_from_components(
        samples.u, samples.w, samples.du, samples.dw, v, rates)
    assert np.max(np.abs(field.omega - omega)) < 1e-14
    assert np.max(np.abs(field.delta - delta)) < 1e-14
