"""Trajectory families: analytic derivatives, completion routes, guards.

Oracles: central finite differences for every analytic derivative (seeded
random parameter draws); sphere geometry for the closed completion
(u = 0.6, w = 0.48 gives v = 0.64 exactly); the open consistency equation has
the closed-form fixed point s* = Gamma / (2 transverse) when u = 0 and
w = -1/2 with a vacuum bath, i.e. v* = 1/2 when dephasing == thermal, and for
any held u = 0, w it relaxes to its fixed point as one exponential; for a held
w and any u, |r|^2 = u^2 + v^2 + w^2 does, since only w forces it. The open
completion's exact recurrence is checked against a DP5 completion (the
per-call right-hand side on the exact components, run through the generic
integrator) and against the same recurrence with the forcing read from the
analytic components and integrated by a finer Gauss-Legendre rule. Its
LAPACK bidiagonal solve of the recurrence is checked against the sequential
loop and, for accuracy, against exact rational arithmetic.
"""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blochpulse import (
    IntegrationError,
    NumericalError,
    Oscillatory,
    RabiDecay,
    Rates,
    SingularPrescriptionError,
    Transfer,
    ValidationError,
    complete_v_closed,
    eval_components,
    integrate_adaptive,
    preset,
    solve_consistent_v_open,
    synthesize_pulse,
)
from blochpulse import trajectories
from blochpulse.rates import inversion_decay_rate, transverse_rate
from blochpulse.trajectories import V_MIN

_RNG_DRAWS = 350  # per family; > 1000 derivative checks across the three


def _fd_check(spec, rng, t_lo, t_hi, rel=1e-6):
    t = np.sort(rng.uniform(t_lo, t_hi, size=7))
    h = 1e-5 * (t_hi - t_lo)
    u_p, w_p, _, _ = spec.components(t + h)
    u_m, w_m, _, _ = spec.components(t - h)
    _, _, du, dw = spec.components(t)
    scale_u = np.max(np.abs(du)) + 1e-9
    scale_w = np.max(np.abs(dw)) + 1e-9
    assert np.max(np.abs((u_p - u_m) / (2 * h) - du)) / scale_u < rel
    assert np.max(np.abs((w_p - w_m) / (2 * h) - dw)) / scale_w < rel


def test_transfer_derivatives_fd():
    rng = np.random.default_rng(31)
    for _ in range(_RNG_DRAWS):
        spec = Transfer(
            inversion_start=rng.uniform(-1, -0.02), inversion_stop=rng.uniform(0.02, 1),
            switch_rate=rng.uniform(0.002, 0.05), coherence_peak=rng.uniform(0.1, 0.9),
            peak_width=rng.uniform(20, 200), peak_time=rng.uniform(-50, 50))
        _fd_check(spec, rng, -150.0, 150.0)


def test_oscillatory_derivatives_fd():
    rng = np.random.default_rng(32)
    for _ in range(_RNG_DRAWS):
        spec = Oscillatory(
            inversion_start=rng.uniform(-1, -0.02), inversion_stop=rng.uniform(0.02, 1),
            switch_rate=rng.uniform(0.002, 0.05), coherence_peak=rng.uniform(0.1, 0.9),
            peak_width=rng.uniform(20, 200), ripple_amplitude=rng.uniform(-0.1, 0.1),
            ripple_frequency=rng.uniform(0.01, 0.2))
        _fd_check(spec, rng, -150.0, 150.0)


def test_rabi_decay_derivatives_fd():
    rng = np.random.default_rng(33)
    for _ in range(_RNG_DRAWS):
        spec = RabiDecay(
            inversion_amplitude=rng.uniform(0.1, 0.98), decay_curvature=rng.uniform(0, 1e-6),
            inversion_frequency=rng.uniform(1e-3, 0.02), chirp_rate=rng.uniform(-5e-6, 5e-6),
            coherence_amplitude=rng.uniform(0.1, 0.9), coherence_frequency=rng.uniform(1e-3, 0.02))
        _fd_check(spec, rng, 0.0, 3000.0)


def test_oscillatory_center_value_frozen():
    # sigmoid midpoint contributes (a_i + a_f) / 2 = 0, ripple adds its amplitude
    spec = Oscillatory(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
                       coherence_peak=0.4, peak_width=100.0,
                       ripple_amplitude=0.03, ripple_frequency=0.08)
    _, w, _, _ = spec.components(np.array([0.0]))
    assert w[0] == pytest.approx(0.03, abs=1e-15)


def test_transfer_asymptotics():
    spec = Transfer(inversion_start=-0.8, inversion_stop=0.6, switch_rate=0.01,
                    coherence_peak=0.5, peak_width=100.0)
    _, w, _, _ = spec.components(np.array([-1400.0, 1400.0]))
    assert abs(w[0] - (-0.8)) < 2e-6
    assert abs(w[1] - 0.6) < 2e-6


def test_complete_v_closed_frozen_value():
    spec = Transfer(inversion_start=0.48, inversion_stop=0.48, switch_rate=0.01,
                    coherence_peak=0.6, peak_width=1e6)
    samples = eval_components(spec, np.array([-1.0, 0.0, 1.0]))
    v = complete_v_closed(samples)
    assert v == pytest.approx([0.64, 0.64, 0.64], abs=1e-9)


def test_complete_v_closed_off_sphere():
    spec = Transfer(inversion_start=0.8, inversion_stop=0.8, switch_rate=0.01,
                    coherence_peak=0.8, peak_width=1e6)
    samples = eval_components(spec, np.linspace(-1.0, 1.0, 5))
    with pytest.raises(ValidationError):
        complete_v_closed(samples)


def test_complete_v_closed_singular_reports_first_time():
    spec = Transfer(inversion_start=1.0, inversion_stop=1.0, switch_rate=0.01,
                    coherence_peak=0.0, peak_width=100.0)
    samples = eval_components(spec, np.linspace(-5.0, 5.0, 11))
    with pytest.raises(SingularPrescriptionError) as err:
        complete_v_closed(samples)
    assert err.value.t_first == pytest.approx(-5.0)


def test_open_completion_reduces_to_closed_at_zero_rates():
    spec = Transfer(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
                    coherence_peak=0.4, peak_width=100.0)
    samples = eval_components(spec, np.linspace(-120.0, 120.0, 601))
    v_closed = complete_v_closed(samples)
    v_open = solve_consistent_v_open(samples, Rates())
    assert np.max(np.abs(v_open - v_closed)) < 1e-8


def test_open_completion_steady_state_frozen():
    # u = 0, w = -1/2, dephasing == thermal, vacuum bath: v -> 1/2 exactly
    rate = 2e-4
    spec = Transfer(inversion_start=-0.5, inversion_stop=-0.5, switch_rate=0.01,
                    coherence_peak=0.0, peak_width=100.0)
    t_end = 40.0 / (2.0 * 2.0 * rate)  # decay constant of s is 2 * transverse
    samples = eval_components(spec, np.linspace(0.0, t_end, 2001))
    v = solve_consistent_v_open(samples, Rates(dephasing=rate, thermal=rate), v0=0.9)
    assert abs(v[-1] - 0.5) < 1e-8


def test_open_completion_matches_exponential_relaxation():
    # u = 0 and a held w: ds/dt = -2 G s - 4 Gamma (1 + w + 2 n w) w, so s relaxes
    # from s0 to s_inf = -2 Gamma (1 + w + 2 n w) w / G as exp(-2 G t)
    rates = Rates(dephasing=2e-4, thermal=2e-4, occupancy=0.3)
    spec = Transfer(inversion_start=-0.5, inversion_stop=-0.5, switch_rate=0.01,
                    coherence_peak=0.0, peak_width=100.0)
    t = np.linspace(0.0, 5000.0, 1001)
    v = solve_consistent_v_open(eval_components(spec, t), rates, v0=0.6)
    g_t, w = transverse_rate(rates), -0.5
    s_inf = -2.0 * rates.thermal * (1.0 + w + 2.0 * rates.occupancy * w) * w / g_t
    s = s_inf + (0.36 - s_inf) * np.exp(-2.0 * g_t * t)
    assert np.max(np.abs(v - np.sqrt(s))) < 1e-12


def test_open_completion_keeps_the_squared_length_of_a_held_inversion():
    # a held w and a Gaussian u bump: d|r|^2/dt = -2 G |r|^2 + (2 G - 2 Gamma_1) w^2 - 4 Gamma w
    # has no drive and no u in it, so |r|^2 relaxes to its fixed point as one exponential
    # whatever u does
    rates = Rates(dephasing=1e-3, thermal=5e-4, occupancy=0.2)
    w = -0.3
    spec = Transfer(inversion_start=w, inversion_stop=w, switch_rate=0.01,
                    coherence_peak=0.5, peak_width=30.0, peak_time=100.0)
    t = np.linspace(0.0, 400.0, 801)
    samples = eval_components(spec, t)
    v = solve_consistent_v_open(samples, rates, v0=0.8)
    g_t = transverse_rate(rates)
    sigma_inf = ((2.0 * g_t - 2.0 * inversion_decay_rate(rates)) * w**2
                 - 4.0 * rates.thermal * w) / (2.0 * g_t)
    sigma_0 = 0.64 + samples.u[0] ** 2 + w**2
    want = sigma_inf + (sigma_0 - sigma_inf) * np.exp(-2.0 * g_t * t)
    assert np.ptp(samples.u) > 0.45  # the bump is there
    assert np.max(np.abs(samples.u**2 + v**2 + samples.w**2 - want)) < 1e-13


def _per_call_completion(samples, rates, s0):
    """The open completion by DP5: one call of the exact components and one numpy
    stage per RHS evaluation, through the public generic integrator at rtol 1e-12.
    (A cubic spline through the samples, as the replaced DP5 completion read them,
    misses the exact forcing by up to 1.1e-9 in v at 601 samples.)"""
    t, spec = samples.t, samples.spec
    g_t, gam_th, occ = transverse_rate(rates), rates.thermal, rates.occupancy

    def rhs(tt, s):
        u, w, du, dw = spec.components(tt)
        drive = (du + g_t * u) * u + (dw + 2.0 * gam_th * (1.0 + w + 2.0 * occ * w)) * w
        return -2.0 * g_t * s - 2.0 * drive

    return integrate_adaptive(rhs, (t[0], t[-1]), np.array([s0]), t, rtol=1e-12, atol=1e-14,
                              max_step=(t[-1] - t[0]) / 8.0)


def _analytic_completion(spec, t, rates, s0, panels=16):
    """v from the same recurrence, with the forcing read from ``spec.components``
    and integrated by composite 8-point Gauss-Legendre on ``panels`` per interval."""
    x, wq = np.polynomial.legendre.leggauss(8)
    g_t, h = transverse_rate(rates), np.diff(t)
    nodes = ((np.arange(panels)[:, None] + 0.5 * (1.0 + x)) / panels).ravel()
    u, w, du, dw = spec.components(t[:-1, None] + h[:, None] * nodes)
    gam_th, occ = rates.thermal, rates.occupancy
    q = -2.0 * ((du + g_t * u) * u + (dw + 2.0 * gam_th * (1.0 + w + 2.0 * occ * w)) * w)
    weights = np.exp(-2.0 * g_t * h[:, None] * (1.0 - nodes)) * np.tile(0.5 * wq / panels, panels)
    s = [s0]
    for a, b in zip(np.exp(-2.0 * g_t * h), h * np.sum(weights * q, axis=1)):
        s.append(a * s[-1] + b)
    return np.sqrt(np.clip(s, 0.0, None))


@pytest.mark.parametrize("rates, v0", [
    (preset("fig3").rates, None),
    # from the closed-sphere start, this bath pinches v at -188 ps; v0 = 0.9 keeps it regular
    (Rates(dephasing=2e-3, thermal=1e-3, occupancy=0.5), 0.9),
], ids=["fig3", "strong-bath"])
def test_open_completion_matches_its_references(rates, v0):
    cfg = preset("fig3")
    t = cfg.window.grid()
    samples = eval_components(cfg.trajectory, t)
    v = solve_consistent_v_open(samples, rates, v0=v0)
    s0 = 1.0 - samples.u[0] ** 2 - samples.w[0] ** 2 if v0 is None else v0**2
    ref, _ = _per_call_completion(samples, rates, s0)
    assert np.max(np.abs(v - np.sqrt(ref[:, 0]))) < 1e-10
    # the DP5 completion it replaced missed this one by 3.4e-11 on fig3
    assert np.max(np.abs(v - _analytic_completion(cfg.trajectory, t, rates, s0))) < 2e-12


@pytest.mark.parametrize("decay_per_sample", [1.0, 2.0, 4.0])
def test_open_completion_splits_heavily_damped_intervals(decay_per_sample):
    # 2 G h of 1 to 4 per sample: one 4-node panel per interval misses by 3e-8 to 6e-6
    spec = Oscillatory(-0.5, -0.5, 0.01, 0.2, 80.0, peak_time=200.0, ripple_amplitude=0.05,
                       ripple_frequency=0.05)
    t = np.linspace(0.0, 400.0, 401)
    g_t = decay_per_sample / 2.0  # h = 1 ps
    rates = Rates(dephasing=g_t / 2.0, thermal=g_t / 2.0)
    v = solve_consistent_v_open(eval_components(spec, t), rates, v0=0.5)
    assert np.max(np.abs(v - _analytic_completion(spec, t, rates, 0.25))) < 1e-9


@pytest.mark.parametrize("dephasing", [1e300, 1e308])
def test_open_completion_past_the_step_budget_raises_at_the_first_sample(dephasing):
    cfg = preset("fig3")
    samples = eval_components(cfg.trajectory, cfg.window.grid())
    with pytest.raises(IntegrationError) as err:
        solve_consistent_v_open(samples, Rates(dephasing=dephasing))
    assert err.value.t_first == samples.t[0]


def test_open_completion_memory_is_bounded_by_its_chunks():
    # fig3's grid at dephasing 300 takes 960k quadrature panels: 3.8M nodes, which
    # evaluated at once held about 216 MB. s collapses to its fixed point, below the floor.
    cfg = preset("fig3")
    samples = eval_components(cfg.trajectory, cfg.window.grid())
    tracemalloc.start()
    try:
        with pytest.raises(SingularPrescriptionError):
            solve_consistent_v_open(samples, Rates(dephasing=300.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("chunk", [1, 2**62], ids=["one-interval-per-chunk", "one-chunk"])
def test_open_completion_chunks_do_not_change_s(monkeypatch, chunk):
    cfg = preset("fig3")
    samples = eval_components(cfg.trajectory, cfg.window.grid())
    # 96k panels in 6 chunks, and fig3's own rates: 1 panel of 4 nodes per interval
    cases = [Rates(dephasing=30.0, thermal=1e-3, occupancy=0.2), cfg.rates]
    want = [trajectories._consistent_s(samples, rates, 0.5) for rates in cases]
    monkeypatch.setattr(trajectories, "_CHUNK_NODES", chunk)
    for rates, s in zip(cases, want):
        assert np.array_equal(trajectories._consistent_s(samples, rates, 0.5), s)


def _sequential_recurrence(s0, a, b, number=float):
    """s_0 = s0, s_{k+1} = a_k s_k + b_k, one interval at a time, in Python.
    ``number=Fraction`` computes it exactly."""
    s = [number(s0)]
    for ak, bk in zip(a.tolist(), b.tolist()):
        s.append(number(ak) * s[-1] + number(bk))
    return np.array([float(x) for x in s])


@st.composite
def _recurrences(draw):
    n = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # from total decay over one step to the near-1 factors of a lightly damped grid
    a = np.exp(-rng.uniform(0.0, draw(st.sampled_from([1e-4, 1e-2, 1.0, 50.0])), n))
    for exact in (0.0, 1.0):  # a reset to b_k, and an undamped step
        a[rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))] = exact
    b = rng.normal(0.0, draw(st.sampled_from([1e-6, 1e-3, 1.0])), n)
    return draw(st.floats(-2.0, 2.0)), a, b


@settings(max_examples=200, deadline=None)
@given(_recurrences())
@example((0.7, np.array([0.5]), np.array([0.25])))
@example((0.7, np.array([0.0, 1.0]), np.array([0.25, -0.5])))
@example((0.7, np.array([1.0, 0.0]), np.array([0.25, -0.5])))
def test_affine_scan_matches_the_sequential_recurrence(recurrence):
    s0, a, b = recurrence
    a_in, b_in = a.copy(), b.copy()
    s = trajectories._affine_recurrence(s0, a, b)
    assert np.array_equal(a, a_in) and np.array_equal(b, b_in)  # inputs untouched
    want = _sequential_recurrence(s0, a, b)
    assert s.shape == want.shape and s[0] == s0
    # both round each step's terms once; neither may drift past that, summed over the steps
    scale = abs(s0) + np.concatenate(([0.0], np.cumsum(np.abs(b))))
    assert np.all(np.abs(s - want) <= 4.0 * (a.size + 16) * np.finfo(float).eps * scale)
    reset = np.flatnonzero(a == 0.0)  # a zero factor forgets the past exactly
    assert np.array_equal(s[reset + 1], b[reset])


@pytest.mark.parametrize("n", [300, 600, 1200])
def test_affine_scan_is_as_accurate_as_the_sequential_loop(n):
    # s falls from 1 to 0.01 and back under light damping, the shape of an open
    # completion near a dip of v; each result against exact rational arithmetic
    t = np.linspace(0.0, 1.0, n + 1)
    path = 1.0 - 0.99 * np.sin(np.pi * t) ** 2
    a = np.exp(np.full(n, -0.2 / n))
    b = path[1:] - a * path[:-1]
    exact = _sequential_recurrence(1.0, a, b, Fraction)
    loop_error = np.max(np.abs(_sequential_recurrence(1.0, a, b) - exact))
    assert np.max(np.abs(trajectories._affine_recurrence(1.0, a, b) - exact)) <= 2.0 * loop_error


_TRANSFER = dict(inversion_start=st.floats(-1.0, -0.1), inversion_stop=st.floats(-0.2, 1.0),
                 switch_rate=st.floats(0.005, 0.03), coherence_peak=st.floats(0.05, 0.8),
                 peak_width=st.floats(40.0, 120.0), peak_time=st.floats(-20.0, 20.0))
# (spec, (start, stop, samples)) of every family, in the ranges the benchmark's sweep draws
_OPEN_SPECS = st.one_of(
    st.tuples(st.builds(Transfer, **_TRANSFER), st.just((-150.0, 150.0, 601))),
    st.tuples(st.builds(Oscillatory, **_TRANSFER, ripple_amplitude=st.floats(-0.05, 0.05),
                        ripple_frequency=st.floats(0.0, 0.1)), st.just((-150.0, 150.0, 601))),
    st.tuples(st.builds(RabiDecay, inversion_amplitude=st.floats(0.5, 0.98),
                        decay_curvature=st.floats(1e-8, 1e-7),
                        inversion_frequency=st.floats(1.5e-3, 4.7e-3),
                        chirp_rate=st.floats(5e-7, 1.5e-6), coherence_amplitude=st.floats(0.1, 0.4),
                        coherence_frequency=st.floats(1.2e-3, 5.7e-3)),
              st.just((0.0, 1200.0, 801))))


@settings(max_examples=40, deadline=None)
@given(spec_window=_OPEN_SPECS, dephasing=st.floats(0.0, 4.0), thermal=st.floats(0.0, 0.5),
       occupancy=st.floats(0.0, 0.5), v0=st.one_of(st.none(), st.floats(0.05, 1.0)))
# a spline through these samples misses the exact forcing by 1.1e-9 in v
@example(spec_window=(Transfer(-0.5, 0.0, 0.005859375, 0.712890625, 40.0),
                      (-150.0, 150.0, 601)),
         dephasing=0.296875, thermal=0.296875, occupancy=0.296875, v0=None)
def test_open_completion_agrees_with_the_per_call_completion(spec_window, dephasing, thermal,
                                                             occupancy, v0):
    spec, (start, stop, n) = spec_window
    t = np.linspace(start, stop, n)
    samples = eval_components(spec, t)
    assume(np.max(samples.u**2 + samples.w**2) <= 1.0)
    span = stop - start  # rates per window length, up to 2 G span of about 10
    rates = Rates(dephasing=dephasing / span, thermal=thermal / span, occupancy=occupancy)
    s0 = 1.0 - samples.u[0] ** 2 - samples.w[0] ** 2 if v0 is None else v0**2
    ref = np.sqrt(np.clip(_per_call_completion(samples, rates, max(s0, 0.0))[0][:, 0], 0.0, None))
    try:
        v = solve_consistent_v_open(samples, rates, v0=v0)
    except SingularPrescriptionError:
        v = None
    if v is not None and ref.min() >= V_MIN:
        assert np.max(np.abs(v - ref)) < 1e-9
    elif v is not None:  # only the reference dips below the floor
        assert v.min() - V_MIN < 1e-8
    elif ref.min() >= V_MIN:  # only the quadrature dips below it
        assert ref.min() - V_MIN < 1e-8


# far outside every window: Transfer's sigmoid exp overflows, RabiDecay's t**2 too
_TIMES = st.one_of(st.floats(-3000.0, 3000.0), st.floats(-1e300, 1e300))


@settings(max_examples=60, deadline=None)
@given(spec_window=_OPEN_SPECS, times=st.lists(_TIMES, min_size=1, max_size=16))
@example(spec_window=(Transfer(-0.5, 0.5, 0.01, 0.4, 100.0), (-150.0, 150.0, 601)),
         times=[-1e5, -710.0 / 0.01, 0.0, 1e5])
@example(spec_window=(RabiDecay(0.9, 1e-8, 3e-3, 1e-6, 0.3, 3e-3), (0.0, 1200.0, 801)),
         times=[0.0, 1.2e154, 1.5e154, -3e154])
def test_inversion_is_the_w_of_components(spec_window, times):
    # no warning either: the test run turns every warning into an error
    t = np.array(times)
    assert np.array_equal(spec_window[0].inversion(t), spec_window[0].components(t)[1],
                          equal_nan=True)


def test_non_finite_trajectory_values_are_reported_at_their_first_time():
    # t**2 overflows from about 1.34e154 ps on, so w is nan from the sample at 1.5e154 ps
    spec = RabiDecay(0.9, 1e-8, 3e-3, 1e-6, 0.3, 3e-3)
    t = np.linspace(0.0, 3e154, 11)
    samples = eval_components(spec, t)
    s = trajectories._consistent_s(samples, Rates(dephasing=1e-200), 0.5)
    assert np.isfinite(s[:5]).all() and np.isnan(s[5:]).all()  # none carried back
    first = trajectories._consistent_s(eval_components(spec, t[[0, 5]]), Rates(dephasing=1e-200),
                                       0.5)  # the first forcing already is not finite
    assert first[0] == pytest.approx(0.5) and np.isnan(first[1])
    for rates in (Rates(dephasing=1e-200), Rates()):
        with pytest.raises(NumericalError) as err:
            synthesize_pulse(spec, rates, 1.0, t)
        assert type(err.value) is NumericalError and err.value.t_first == 1.5e154


@pytest.mark.parametrize("s, error, t_first", [
    ([0.5, np.nan, 1e-14], NumericalError, 1.0),
    ([0.5, np.inf, 0.5], NumericalError, 1.0),
    ([0.5, 1e-14, np.nan], SingularPrescriptionError, 1.0),
    ([0.5, 0.5, -np.inf], SingularPrescriptionError, 2.0),
])
def test_the_first_offending_sample_names_the_error(s, error, t_first):
    with pytest.raises(NumericalError) as err:
        trajectories._root_above_floor(np.array(s), np.arange(3.0), "v")
    assert type(err.value) is error and err.value.t_first == t_first


def test_open_completion_respects_v0():
    spec = Transfer(inversion_start=-0.5, inversion_stop=-0.5, switch_rate=0.01,
                    coherence_peak=0.0, peak_width=100.0)
    samples = eval_components(spec, np.linspace(0.0, 10.0, 11))
    v = solve_consistent_v_open(samples, Rates(dephasing=1e-4, thermal=1e-4), v0=0.37)
    assert v[0] == pytest.approx(0.37, abs=1e-12)


@pytest.mark.parametrize("v0", [1e200, -0.1, 1.5, np.nan, np.inf])
def test_open_completion_rejects_v0_outside_unit_interval(v0):
    spec = Transfer(inversion_start=-0.5, inversion_stop=-0.5, switch_rate=0.01,
                    coherence_peak=0.0, peak_width=100.0)
    samples = eval_components(spec, np.linspace(0.0, 10.0, 11))
    with pytest.raises(ValidationError, match="v0"):
        solve_consistent_v_open(samples, Rates(dephasing=1e-4, thermal=1e-4), v0=v0)


def test_open_completion_detects_pinch():
    # thermal pumping against a held inversion drives s through zero fast
    spec = Transfer(inversion_start=0.9, inversion_stop=0.9, switch_rate=0.01,
                    coherence_peak=0.0, peak_width=100.0)
    samples = eval_components(spec, np.linspace(0.0, 2000.0, 501))
    with pytest.raises(SingularPrescriptionError):
        solve_consistent_v_open(samples, Rates(thermal=5e-3), v0=0.05)


@pytest.mark.parametrize("kwargs", [
    {"inversion_start": 1.5},
    {"inversion_stop": -1.5},
    {"switch_rate": 0.0},
    {"switch_rate": -0.01},
    {"peak_width": 0.0},
    {"coherence_peak": float("nan")},
])
def test_transfer_rejects_invalid(kwargs):
    base = dict(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
                coherence_peak=0.4, peak_width=100.0)
    base.update(kwargs)
    with pytest.raises(ValidationError):
        Transfer(**base)


def test_rabi_decay_rejects_invalid():
    with pytest.raises(ValidationError):
        RabiDecay(inversion_amplitude=1.2, decay_curvature=0.0, inversion_frequency=0.01,
                  chirp_rate=0.0, coherence_amplitude=0.3, coherence_frequency=0.01)
    with pytest.raises(ValidationError):
        RabiDecay(inversion_amplitude=0.9, decay_curvature=-1e-9, inversion_frequency=0.01,
                  chirp_rate=0.0, coherence_amplitude=0.3, coherence_frequency=0.01)


def test_eval_components_validates_grid():
    spec = Transfer(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
                    coherence_peak=0.4, peak_width=100.0)
    with pytest.raises(ValidationError):
        eval_components(spec, [3.0, 1.0])


def test_eval_components_rejects_an_unknown_family():
    with pytest.raises(ValidationError) as err:
        eval_components(object(), np.linspace(0.0, 1.0, 3))
    assert str(err.value) == "unknown trajectory family: object"


def test_open_synthesis_rejects_a_first_point_off_the_sphere():
    # u(-200) = 0.5 at the coherence peak and w(-200) = -0.982: off the sphere at the first sample
    spec = Transfer(-1.0, 0.0, 0.02, 0.5, 60.0, peak_time=-200.0)
    grid = np.linspace(-200.0, 200.0, 401)
    with pytest.raises(ValidationError) as err:
        synthesize_pulse(spec, Rates(dephasing=1e-3), np.full(grid.size, 0.05), grid)
    assert str(err.value) == "initial point leaves the Bloch sphere"


def test_oscillatory_is_a_transfer_with_a_keyword_only_ripple():
    kw = dict(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
              coherence_peak=0.4, peak_width=100.0, peak_time=5.0)
    flat = Oscillatory(**kw, ripple_amplitude=0.0, ripple_frequency=0.08)
    assert issubclass(Oscillatory, Transfer) and isinstance(flat, Transfer)
    assert [f.name for f in dataclasses.fields(Oscillatory) if f.kw_only] == \
        ["ripple_amplitude", "ripple_frequency"]
    t = np.linspace(-100.0, 100.0, 11)
    for got, want in zip(flat.components(t), Transfer(**kw).components(t)):
        assert np.array_equal(got, want)  # no ripple: the Transfer profile exactly
    for bad in ({"ripple_amplitude": np.nan, "ripple_frequency": 0.08},
                {"ripple_amplitude": 0.03, "ripple_frequency": -0.08},
                {**kw, "switch_rate": 0.0, "ripple_amplitude": 0.03, "ripple_frequency": 0.08}):
        with pytest.raises(ValidationError):
            Oscillatory(**{**kw, **bad})
    with pytest.raises(TypeError):  # both ripple fields are required
        Oscillatory(**kw, ripple_amplitude=0.03)
