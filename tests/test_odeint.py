"""The adaptive Runge-Kutta core against closed forms and an external solver.

Oracles: exponential decay and complex rotation have exact solutions; a
random linear system is cross-checked against scipy's solve_ivp at much
tighter tolerance.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from blochpulse import IntegrationStats, ValidationError, integrate_adaptive
from blochpulse.errors import IntegrationError


def test_exponential_decay_closed_form():
    lam = 0.37
    t = np.linspace(0.0, 10.0, 101)
    ys, stats = integrate_adaptive(lambda tt, y: -lam * y, (0.0, 10.0),
                                   np.array([2.0]), t, rtol=1e-11, atol=1e-13)
    exact = 2.0 * np.exp(-lam * t)
    assert np.max(np.abs(ys[:, 0] - exact)) < 1e-9
    assert stats.accepted > 0
    assert stats.max_error_ratio <= 1.0


def test_complex_rotation_dense_output():
    # y' = i w y, sampled between the points the stepper actually lands on
    w = 3.0
    t = np.linspace(0.0, 6.0, 977)  # awkward count to force dense evaluation
    ys, _ = integrate_adaptive(lambda tt, y: 1j * w * y, (0.0, 6.0),
                               np.array([1.0 + 0.0j]), t, rtol=1e-10, atol=1e-12)
    exact = np.exp(1j * w * t)
    assert np.max(np.abs(ys[:, 0] - exact)) < 1e-8
    assert np.max(np.abs(np.abs(ys[:, 0]) - 1.0)) < 1e-8


def test_matches_scipy_on_random_linear_system():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(4, 4)) * 0.5
    y0 = rng.normal(size=4)
    t = np.linspace(0.0, 3.0, 61)
    ys, _ = integrate_adaptive(lambda tt, y: a @ y, (0.0, 3.0), y0, t,
                               rtol=1e-10, atol=1e-12)
    ref = solve_ivp(lambda tt, y: a @ y, (0.0, 3.0), y0, t_eval=t,
                    rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(ys - ref.y.T)) < 1e-8


def test_max_step_is_respected():
    t = np.linspace(0.0, 10.0, 11)
    _, stats = integrate_adaptive(lambda tt, y: 0.0 * y, (0.0, 10.0),
                                  np.array([1.0]), t, rtol=1e-8, atol=1e-8,
                                  max_step=0.5)
    assert stats.accepted >= 20


def test_rejections_are_counted():
    # fast transient with a generous first step forces at least one rejection
    t = np.array([0.0, 1.0])
    _, stats = integrate_adaptive(lambda tt, y: -80.0 * y, (0.0, 1.0),
                                  np.array([1.0]), t, rtol=1e-12, atol=1e-14)
    assert stats.rejected > 0
    assert stats.rhs_evals > 6 * stats.accepted


def test_list_initial_state_matches_array():
    t = np.linspace(0.0, 2.0, 21)
    a = np.array([[0.0, 1.0], [-1.0, -0.1]])
    from_list, _ = integrate_adaptive(lambda tt, y: a @ y, (0.0, 2.0), [1.0, 0.0], t)
    from_array, _ = integrate_adaptive(lambda tt, y: a @ y, (0.0, 2.0),
                                       np.array([1.0, 0.0]), t)
    assert np.array_equal(from_list, from_array)


def test_emits_endpoints_and_interior():
    t = np.array([0.0, 0.5, 2.0])
    ys, _ = integrate_adaptive(lambda tt, y: y * 0.0 + 1.0, (0.0, 2.0),
                               np.array([0.0]), t, rtol=1e-10, atol=1e-12)
    assert ys[:, 0] == pytest.approx([0.0, 0.5, 2.0], abs=1e-12)


def test_blowup_underflows_step_size():
    # y' = y^2 from y(0) = 1 has a pole at t = 1 inside the span
    t = np.array([0.0, 2.0])
    with pytest.raises(IntegrationError, match="underflow"):
        integrate_adaptive(lambda tt, y: y**2, (0.0, 2.0),
                           np.array([1.0]), t, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("bad_kwargs", [
    {"t_span": (0.0, 0.0)},
    {"t_span": (1.0, 0.0)},
    {"t_eval": np.array([])},
    {"t_eval": np.array([0.5, 0.2])},
    {"t_eval": np.array([-1.0, 0.5])},
    {"max_step": 0.0},
])
def test_input_validation(bad_kwargs):
    kwargs = {"t_span": (0.0, 1.0), "t_eval": np.array([0.0, 1.0]), "max_step": np.inf}
    kwargs.update(bad_kwargs)
    with pytest.raises(ValidationError):
        integrate_adaptive(lambda tt, y: -y, kwargs["t_span"], np.array([1.0]),
                           kwargs["t_eval"], max_step=kwargs["max_step"])


def test_stats_dataclass_defaults():
    s = IntegrationStats()
    assert s.accepted == 0 and s.rejected == 0 and s.rhs_evals == 0
