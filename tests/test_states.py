"""State-space primitives: conversions, metrics, validation.

Oracle notes: round-trip identities are exact algebra; the frozen numbers
below (purity, coherence, fidelity extremes) follow from the closed forms
purity = (1 + |r|^2) / 2, coherence = sqrt(u^2 + v^2) / 2, and for pure
states F = |<a|b>|^2, D = sqrt(1 - F).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpulse import (
    ControlField,
    Rates,
    SimResult,
    Transfer,
    ValidationError,
    Window,
    bloch_from_density,
    coherence,
    density_from_bloch,
    eval_components,
    fidelity,
    frame_transform,
    integrate_adaptive,
    integrate_bloch_effective,
    omega_delta_from_components,
    phase_from_detuning,
    purity,
    rabi_from_phase,
    rwa_deviation,
    solve_consistent_v_open,
    trace_distance,
    tracking_error,
    validate_density,
    validate_grid,
)
from blochpulse.states import _bloch_fidelity, _density
from reference import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z


def random_bloch(rng, nmax=1.0):
    r = rng.normal(size=3)
    return r / np.linalg.norm(r) * rng.uniform(0.0, nmax)


def test_pauli_algebra():
    for sig in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(sig @ sig, IDENTITY)
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)


def test_bloch_density_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = random_bloch(rng)
        back = bloch_from_density(density_from_bloch(r))
        assert np.max(np.abs(back - r)) < 1e-15


def test_density_from_bloch_basis_order():
    # w = +1 must put all population on the excited state, index 0
    rho = density_from_bloch([0.0, 0.0, 1.0])
    assert rho[0, 0] == pytest.approx(1.0)
    assert rho[1, 1] == pytest.approx(0.0)


def test_density_sign_conventions():
    # u = 2 Re rho_eg, v = -2 Im rho_eg
    rho = density_from_bloch([0.6, 0.0, 0.8])
    assert rho[0, 1] == pytest.approx(0.3)
    rho = density_from_bloch([0.0, 0.6, 0.0])
    assert rho[0, 1] == pytest.approx(-0.3j)


def test_purity_frozen_values():
    assert purity(density_from_bloch([0.6, 0.0, 0.8])) == pytest.approx(1.0, abs=1e-15)
    assert purity(0.5 * IDENTITY) == pytest.approx(0.5, abs=1e-15)


def test_coherence_frozen_value():
    assert coherence(density_from_bloch([0.6, 0.0, 0.8])) == pytest.approx(0.3, abs=1e-15)


def test_fidelity_extremes():
    up = density_from_bloch([0.0, 0.0, 1.0])
    down = density_from_bloch([0.0, 0.0, -1.0])
    assert fidelity(up, up) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(up, down) == pytest.approx(0.0, abs=1e-12)
    mixed = 0.5 * IDENTITY
    assert fidelity(mixed, up) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_extremes():
    up = density_from_bloch([0.0, 0.0, 1.0])
    down = density_from_bloch([0.0, 0.0, -1.0])
    assert trace_distance(up, down) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(up, up) == pytest.approx(0.0, abs=1e-15)


_DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: sum(x * x for x in d) > 1e-6)


def _unit(direction):
    d = np.array(direction)
    return d / np.sqrt(d @ d)


@settings(max_examples=300, deadline=None)
@given(_DIRECTION, _DIRECTION, st.floats(0.0, 1.0 - 1e-6), st.floats(0.0, 1.0 - 1e-6))
def test_bloch_fidelity_matches_fidelity_of_the_density_matrices(a, b, len_a, len_b):
    # inside the ball by 1e-6; nearer the sphere, both forms lose digits to det's cancellation
    r, s = len_a * _unit(a), len_b * _unit(b)
    assert _bloch_fidelity(r, s) == pytest.approx(fidelity(_density(r), _density(s)), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(_DIRECTION)
def test_bloch_fidelity_of_identical_and_antipodal_pure_states(direction):
    r = _unit(direction)
    assert _bloch_fidelity(r, r) == pytest.approx(1.0, abs=1e-12)
    assert _bloch_fidelity(r, -r) == pytest.approx(0.0, abs=1e-12)


def test_pure_state_fidelity_trace_distance_relation():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = density_from_bloch(random_bloch(rng, 1.0) / 1.0)
        b = density_from_bloch(random_bloch(rng, 1.0))
        # project both onto the sphere for the pure-state identity
        ra = bloch_from_density(a)
        rb = bloch_from_density(b)
        a = density_from_bloch(ra / np.linalg.norm(ra))
        b = density_from_bloch(rb / np.linalg.norm(rb))
        f = fidelity(a, b)
        d = trace_distance(a, b)
        assert d == pytest.approx(np.sqrt(1.0 - f), abs=1e-12)


def test_validate_density_accepts_physical():
    rng = np.random.default_rng(13)
    for _ in range(20):
        validate_density(density_from_bloch(random_bloch(rng)))


def test_validate_density_rejects_non_hermitian():
    rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValidationError):
        validate_density(rho)


def test_validate_density_rejects_bad_trace():
    with pytest.raises(ValidationError):
        validate_density(0.7 * IDENTITY)


def test_validate_density_rejects_outside_ball():
    rho = 0.5 * (IDENTITY + 1.2 * SIGMA_Z)
    with pytest.raises(ValidationError):
        validate_density(rho)


def test_density_from_bloch_rejects_long_vector():
    with pytest.raises(ValidationError):
        density_from_bloch([0.8, 0.8, 0.8])


@pytest.mark.parametrize("r", [[np.nan, 0.0, 0.0], [0.0, 0.0, np.inf],
                               [[0.0, 0.0, 1.0], [0.0, np.nan, 0.0]], [0.0, 1.0]])
def test_density_from_bloch_rejects_non_finite_or_misshapen(r):
    with pytest.raises(ValidationError):
        density_from_bloch(r)


def test_conversions_accept_stacks_along_the_last_axis():
    rng = np.random.default_rng(14)
    r = np.array([[random_bloch(rng) for _ in range(3)] for _ in range(4)])
    rho = density_from_bloch(r)
    assert rho.shape == (4, 3, 2, 2)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(rho[idx], density_from_bloch(r[idx]))
        assert np.array_equal(bloch_from_density(rho)[idx], bloch_from_density(rho[idx]))
    assert np.max(np.abs(bloch_from_density(rho) - r)) < 1e-15


def test_validate_grid():
    g = validate_grid([0.0, 1.0, 2.5])
    assert g.dtype == np.float64
    with pytest.raises(ValidationError):
        validate_grid([0.0])
    with pytest.raises(ValidationError):
        validate_grid([0.0, 0.0, 1.0])
    with pytest.raises(ValidationError):
        validate_grid([0.0, np.nan])
    with pytest.raises(ValidationError):
        validate_grid([[0.0, 1.0]])


_T = np.linspace(0.0, 10.0, 11)


def _zero_field():
    return ControlField(_T, *[np.zeros(11)] * 5)


def _flat_result():
    return SimResult(picture="effective-bloch", t=_T, bloch=np.zeros((11, 3)))


def _integrate(t_span=(0.0, 1.0), y0=(1.0,), t_eval=(0.0, 1.0), max_step=np.inf):
    return integrate_adaptive(lambda tt, y: -y, t_span, y0, t_eval, max_step=max_step)


_WITH_NONE = [0.0] * 10 + [None]


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: frame_transform(np.eye(2), "abc"), "phi", id="frame-phi-str"),
    pytest.param(lambda: frame_transform(np.eye(2), 1j), "phi", id="frame-phi-complex"),
    pytest.param(lambda: frame_transform("x", 0.0), "states", id="frame-states-str"),
    pytest.param(lambda: rabi_from_phase(["a"], [0.0], [0.0]), "omega", id="rabi"),
    pytest.param(lambda: validate_grid(["a", "b"]), "time grid", id="grid-str"),
    pytest.param(lambda: validate_grid([1j, 2j]), "time grid", id="grid-complex"),
    pytest.param(lambda: density_from_bloch("abc"), "Bloch vectors", id="density-from-bloch"),
    pytest.param(lambda: validate_density([["a", 0], [0, "b"]]), "density matrix",
                 id="validate-density"),
    pytest.param(lambda: bloch_from_density([["a", 0], [0, "b"]]), "density matrices",
                 id="bloch-from-density"),
    pytest.param(lambda: phase_from_detuning(0.1, ["a", "b"], [0.0, 1.0]), "delta", id="phase"),
    pytest.param(lambda: omega_delta_from_components(["a"], [0.0], [0.0], [0.0], [0.5], Rates()),
                 "u", id="omega-delta"),
    pytest.param(lambda: Rates(dephasing="a"), "rate 'dephasing'", id="rates"),
    pytest.param(lambda: Window(0.0, "a", 3), "window stop", id="window"),
    # the step controller's arguments, which every picture passes through
    pytest.param(lambda: integrate_bloch_effective(_zero_field(), Rates(), [0.0, 0.0, 1.0],
                                                   _T, rtol="a"), "rtol", id="picture-rtol"),
    pytest.param(lambda: integrate_bloch_effective(_zero_field(), Rates(), [0.0, 0.0, 1.0],
                                                   _T, atol="a"), "atol", id="picture-atol"),
    pytest.param(lambda: _integrate(t_span="ab"), "t_span", id="integrate-t-span"),
    pytest.param(lambda: _integrate(y0=["a"]), "initial state", id="integrate-y0"),
    pytest.param(lambda: _integrate(t_eval=["a", "b"]), "t_eval", id="integrate-t-eval"),
    pytest.param(lambda: _integrate(max_step="a"), "max_step", id="integrate-max-step"),
    pytest.param(lambda: tracking_error(_flat_result(), ["a"] * 11, _T, _T), "u", id="track-u"),
    pytest.param(lambda: tracking_error(_flat_result(), _T, "v", _T), "v", id="track-v"),
    pytest.param(lambda: tracking_error(_flat_result(), _T, _T, [{}] * 11), "w",
                 id="track-w"),
    pytest.param(lambda: solve_consistent_v_open(
        eval_components(Transfer(-0.5, 0.5, 0.01, 0.4, 100.0), _T), Rates(dephasing=1e-3),
        v0="a"), "v0", id="open-v0"),
    pytest.param(lambda: rwa_deviation(_zero_field(), [0.0, 0.0, 1.0], _T, scale="a"), "scale",
                 id="rwa-scale"),
    pytest.param(lambda: _zero_field().scaled("a"), "factor", id="scaled"),
    pytest.param(lambda: purity("abc"), "rho", id="purity"),
    pytest.param(lambda: fidelity(np.eye(2), [["a", 0], [0, 1]]), "sigma", id="fidelity"),
    # a None, which a float or complex conversion turns into NaN
    pytest.param(lambda: tracking_error(_flat_result(), _WITH_NONE, _T, _T), "u",
                 id="none-track-u"),
    pytest.param(lambda: validate_grid([0.0, None, 2.0]), "time grid", id="none-grid"),
    pytest.param(lambda: rabi_from_phase([0.4, 0.4], [0.0, None], [0.0, 1.0]), "phi",
                 id="none-rabi"),
    pytest.param(lambda: phase_from_detuning(0.1, _WITH_NONE, _T), "delta", id="none-phase"),
    pytest.param(lambda: ControlField(_T, *[np.zeros(11)] * 3, _WITH_NONE, np.zeros(11)),
                 "ControlField.omega_r", id="none-control-field"),
    pytest.param(lambda: _integrate(t_eval=[0.0, None]), "t_eval", id="none-integrate-t-eval"),
    pytest.param(lambda: frame_transform([[0.5, None], [None, 0.5]], 0.0), "states",
                 id="none-frame-states"),
    # numeric strings and bytes, which a float conversion parses
    pytest.param(lambda: validate_grid(["0", "1.5", "3"]), "time grid", id="str-grid"),
    pytest.param(lambda: validate_grid([b"0", b"1"]), "time grid", id="bytes-grid"),
    pytest.param(lambda: validate_grid(np.array(["0", "1"])), "time grid", id="str-array-grid"),
    pytest.param(lambda: validate_grid(np.array([0.0, "1"], dtype=object)), "time grid",
                 id="str-object-grid"),
    pytest.param(lambda: rabi_from_phase(["0.4"], ["0"], ["1"]), "omega", id="str-rabi"),
    pytest.param(lambda: _integrate(max_step="0.5"), "max_step", id="str-integrate-max-step"),
    pytest.param(lambda: frame_transform(np.eye(2), b"0.5"), "phi", id="bytes-frame-phi"),
])
def test_non_numeric_input_raises_validation_error(call, name):
    # not the ValueError or TypeError of a numpy conversion, which names no argument
    with pytest.raises(ValidationError, match=f"^{name} must be numeric"):
        call()


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: coherence([1.0]), "rho", id="coherence"),
    pytest.param(lambda: purity(np.eye(2)[None]), "rho", id="purity-stack"),
    pytest.param(lambda: trace_distance(np.eye(3), np.eye(2)), "rho", id="trace-distance"),
    pytest.param(lambda: fidelity(np.eye(2), np.eye(3)), "sigma", id="fidelity"),
])
def test_metrics_reject_anything_but_a_2x2_matrix(call, name):
    with pytest.raises(ValidationError, match=rf"^{name} must have shape \(2, 2\)"):
        call()


def test_metrics_do_not_require_a_state():
    # shape is checked, physics is not: the identity has trace 2
    assert purity(np.eye(2)) == 2.0
    assert coherence([[0.0, 3.0], [3.0, 0.0]]) == 3.0
    assert trace_distance(np.eye(2), np.zeros((2, 2))) == 1.0
