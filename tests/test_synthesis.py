"""Synthesis algebra: inversion formulas, phase quadrature, carrier guard.

Oracles are hand arithmetic on single samples (the inversion formulas are
pointwise) and antiderivatives known in closed form. A cubic detuning is
reproduced exactly by the spline quadrature, which pins the integrator to
machine precision rather than a loose tolerance; on random grids the
closed-form phase is checked against scipy's spline antiderivative, and the
knot slopes and the channel table against scipy's ``CubicSpline``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, PPoly
from scipy.linalg import lapack

import blochpulse
from blochpulse import dynamics, synthesis
from blochpulse import (
    CarrierSingularityError,
    ControlField,
    NumericalError,
    RabiDecay,
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


def test_coupling_overflow_is_a_numerical_error():
    # finite components whose quotient overflows: Omega = 1e308 / 0.5 at sample 1
    with pytest.raises(NumericalError, match="not finite at sample 1$") as err:
        omega_delta_from_components(np.zeros(2), np.zeros(2), np.zeros(2),
                                    np.array([0.0, 1e308]), np.full(2, 0.5), Rates())
    assert err.value.t_first is None


@pytest.mark.parametrize("rates", [Rates(), Rates(dephasing=1e-12)])
def test_a_non_finite_drive_fails_at_its_first_time(rates):
    # from t = 1e9 ps on, exp(-decay_curvature t^2) is 0 and its slope's factor overflows,
    # so dw = 0 * inf is NaN while u and w stay finite: Omega is not finite from there
    spec = RabiDecay(0.5, 1e300, 1e-3, 0.0, 0.3, 1e-3)
    with pytest.raises(NumericalError,
                       match=r"^Omega or Delta is not finite at t = 1e\+09 ps$") as err:
        synthesize_pulse(spec, rates, 1.0, np.linspace(0.0, 4e9, 5))
    assert type(err.value) is NumericalError and err.value.t_first == 1e9


def test_an_envelope_that_overflows_is_a_numerical_error():
    # Omega is finite everywhere, but at t = 2 ps the carrier factor 1 + cos(2 phi) is
    # below 1, and Omega_R = Omega / (1 + cos(2 phi)) overflows there alone
    spec = RabiDecay(0.5, 0.0, 1e307, 0.0, 0.3, 1e-3)
    with pytest.raises(NumericalError, match=r"^Omega_R is not finite at t = 2 ps$") as err:
        synthesize_pulse(spec, Rates(), 1.5, np.linspace(0.0, 2.0, 21))
    assert type(err.value) is NumericalError and err.value.t_first == 2.0
    # the public envelope has the same check: 1e308 / (1 + cos(2 pi / 3)) = 2e308
    with pytest.raises(NumericalError, match=r"^Omega_R is not finite at t = 1.5 ps$") as err:
        rabi_from_phase([0.4, 1e308], [0.0, np.pi / 3], [0.0, 1.5])
    assert err.value.t_first == 1.5


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
        got = synthesis._spline_slopes(t, y[:, cols], np.diff(t))
        assert got.shape == y[:, cols].shape
        assert np.all(np.abs(got - slopes[:, cols]) <= slope_tol[cols])
    got = synthesis._spline_slopes(t, y[:, 0], np.diff(t))  # one column as a 1-D array
    assert got.shape == t.shape and np.all(np.abs(got - slopes[:, 0]) <= slope_tol[0])
    table = PPoly(ControlField(t, *y.T)._coefficients.transpose(0, 2, 1), t)
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
    monkeypatch.setattr(lapack, "dgtsv", lambda dl, d, du, b, *overwrite: (dl, d, du, b, 3))
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
    assert from_lists._coefficients.tobytes() == field._coefficients.tobytes()
    # float64 arrays pass through as the same objects
    assert all(getattr(ControlField(*arrays), name) is a
               for name, a in zip(synthesis._CHANNELS, arrays[1:]))
    t = arrays[0]
    with pytest.raises(ValidationError, match=r"^ControlField\.phi must be numeric"):
        ControlField(t, *arrays[1:3], ["a"] * t.size, *arrays[4:])


def test_channel_table_is_one_read_only_array():
    t = np.array([0.0, 0.5, 2.0, 2.25, 4.0])
    field = ControlField(t, t, 2.0 * t, 3.0 * t ** 2, 4.0 * t, 5.0 * t ** 3)
    table = field._coefficients
    assert type(table) is np.ndarray and table.dtype == np.float64
    assert table.shape == (4, 5, t.size - 1)
    # every picture of the field shares the cached table, so a write would change later reads
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 1.0


def test_table_reader_gives_all_five_channels_in_table_order():
    t = np.linspace(0.0, 4.0, 5)
    field = ControlField(t, t, 2.0 * t, 3.0 * t, 4.0 * t, 5.0 * t)  # channel k is k t
    # at a knot, between knots, and 1 ps past both ends, where the end pieces extend
    times = np.array([2.0, 1.5, -1.0, 5.0])
    values = field._reader()(times)
    assert values.shape == (5, times.size)
    assert values == pytest.approx(np.arange(1.0, 6.0)[:, None] * times, rel=1e-15)


def test_table_reader_copies_nothing():
    t = np.linspace(0.0, 1.0, 12001)
    field = ControlField(t, t, np.sin(t), t ** 2, np.cos(t), np.exp(t))
    field._coefficients  # built before the trace: the reader reads it, it copies none of it
    # the reader of all five rows, and each picture's reader of its own rows
    for rows in [slice(None)] + [rows for _, rows in dynamics._FIELDS.values()]:
        tracemalloc.start()
        try:
            field._reader(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, rows  # one coefficient row of one channel alone is 96 KB


def test_peak_ratio_without_a_transition_frequency_is_infinite():
    t = np.linspace(0.0, 1.0, 5)
    field = ControlField(t=t, omega=np.ones(5), delta=np.zeros(5), phi=np.zeros(5),
                         omega_r=np.full(5, 0.8), omega0=np.zeros(5))
    assert field.rabi_peak_ratio() == np.inf


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


@pytest.mark.parametrize("rates", [Rates(), Rates(dephasing=1e-3, thermal=1e-4)],
                         ids=["closed", "open"])
@pytest.mark.parametrize("samples", [241, 240], ids=["midpoint-knot", "midpoint-between"])
def test_synthesis_zeroes_the_phase_at_the_window_midpoint(rates, samples):
    t = np.linspace(-100.0, 140.0, samples)
    field = synthesize_pulse(_SPEC, rates, 5e-3, t)
    phi = phase_from_detuning(5e-3, field.delta, t, zero_time=0.5 * (t[0] + t[-1]))
    assert np.array_equal(field.phi, phi)


def test_synthesize_rejects_bad_omega0():
    grid = np.linspace(-120.0, 120.0, 241)
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


@pytest.mark.parametrize("rates", [Rates(), Rates(dephasing=1e-3, thermal=1e-4)])
def test_one_synthesis_checks_only_omega0_again(monkeypatch, rates):
    # every other array is checked where synthesis makes it, so no channel is re-checked
    calls = []
    for name in ("_finite", "_numeric"):
        def spy(x, what, *args, _check=getattr(synthesis, name)):
            calls.append(what)
            return _check(x, what, *args)
        monkeypatch.setattr(synthesis, name, spy)
    synthesize_pulse(_SPEC, rates, 5e-3, np.linspace(-120.0, 120.0, 241))
    assert calls == ["omega0"]


@pytest.mark.parametrize("rates", [Rates(), Rates(dephasing=1e-3, thermal=1e-4)],
                         ids=["closed", "open"])
def test_synthesized_field_equals_the_field_built_through_the_public_checks(rates):
    from blochpulse import complete_v_closed, eval_components, solve_consistent_v_open

    t = np.linspace(-100.0, 140.0, 241)
    omega0 = 5e-3 + 1e-6 * t
    field = synthesize_pulse(_SPEC, rates, omega0, t)
    samples = eval_components(_SPEC, t)
    v = complete_v_closed(samples) if rates.closed else solve_consistent_v_open(samples, rates)
    omega, delta = omega_delta_from_components(
        samples.u, samples.w, samples.du, samples.dw, v, rates)
    phi = phase_from_detuning(omega0, delta, t, zero_time=0.5 * (t[0] + t[-1]))
    checked = ControlField(t, omega, delta, phi, rabi_from_phase(omega, phi, t), omega0)
    for name in ("t", *synthesis._CHANNELS):
        got, want = getattr(field, name), getattr(checked, name)
        assert type(got) is np.ndarray and got.dtype == want.dtype == np.float64, name
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert field._coefficients.tobytes() == checked._coefficients.tobytes()


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
