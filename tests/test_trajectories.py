"""Trajectory families: analytic derivatives, completion routes, guards.

Oracles: central finite differences for every analytic derivative (seeded
random parameter draws); sphere geometry for the closed completion
(u = 0.6, w = 0.48 gives v = 0.64 exactly); the open consistency equation has
the closed-form fixed point s* = Gamma / (2 transverse) when u = 0 and
w = -1/2 with a vacuum bath, i.e. v* = 1/2 when dephasing == thermal.
"""

import dataclasses

import numpy as np
import pytest

from blochpulse import (
    Oscillatory,
    RabiDecay,
    Rates,
    SingularPrescriptionError,
    Transfer,
    ValidationError,
    complete_v_closed,
    eval_components,
    solve_consistent_v_open,
)

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
