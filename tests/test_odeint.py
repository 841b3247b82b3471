"""The adaptive Runge-Kutta core against closed forms and an external solver.

Oracles: exponential decay has an exact solution; a random linear system is
cross-checked against scipy's solve_ivp at much tighter tolerance; the
vectorised dense output is checked against the per-sample emission loop it
replaced, on the same accepted steps. Every state is a real vector, and a
complex one is rejected. The batched Bloch controller is checked against
closed forms under time-varying fields, against the sequential controller on
random polynomial fields, and on each of its three errors.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from blochpulse import IntegrationStats, ValidationError, integrate_adaptive, odeint
from blochpulse.errors import IntegrationError, _ps


def test_exponential_decay_closed_form():
    lam = 0.37
    t = np.linspace(0.0, 10.0, 101)
    ys, stats = integrate_adaptive(lambda tt, y: -lam * y, (0.0, 10.0),
                                   np.array([2.0]), t, rtol=1e-11, atol=1e-13)
    exact = 2.0 * np.exp(-lam * t)
    assert np.max(np.abs(ys[:, 0] - exact)) < 1e-9
    assert stats.accepted > 0
    assert stats.max_error_ratio <= 1.0


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
    {"t_span": (0.0, 1.0, 2.0)},
    {"t_eval": np.array([])},
    {"t_eval": np.array([0.5, 0.2])},
    {"t_eval": np.array([-1.0, 0.5])},
    {"t_eval": np.array([0.0, np.nan, 1.0])},
    {"t_eval": np.array([np.nan])},
    {"max_step": 0.0},
    {"max_step": np.nan},
    {"max_step": [0.1, 0.2]},
    {"rtol": 0.0, "atol": 0.0},
    {"rtol": -1.0, "atol": -1.0},
    {"rtol": np.nan},
    {"atol": np.inf},
])
def test_input_validation(bad_kwargs):
    kwargs = {"t_span": (0.0, 1.0), "t_eval": np.array([0.0, 1.0]), "max_step": np.inf}
    kwargs.update(bad_kwargs)
    span, teval = kwargs.pop("t_span"), kwargs.pop("t_eval")
    with pytest.raises(ValidationError):
        integrate_adaptive(lambda tt, y: -y, span, np.array([1.0]), teval, **kwargs)
    with pytest.raises(ValidationError):  # the Bloch controller passes the same checks
        odeint.integrate_bloch((lambda times: (0.0, 0.0, 0.0),), (1.0, 1.0, 0.0),
                               span, np.array([0.0, 0.0, 1.0]), teval, **kwargs)


def test_bloch_kernel_precesses_about_a_constant_field():
    # dr/dt = b x r turns r about b / |b| at the rate |b| (Rodrigues' formula)
    omega, delta = 0.8, -0.3
    b = np.array([omega, 0.0, delta])
    r0 = np.array([0.0, 0.6, 0.8])
    reads = []

    def field(times):
        reads.append(times)
        return omega, 0.0, delta

    t = np.linspace(0.0, 20.0, 201)
    [(rs, stats)] = odeint.integrate_bloch((field,), (0.0, 0.0, 0.0), (0.0, 20.0), r0, t,
                                           rtol=1e-12, atol=1e-14)
    n = b / np.linalg.norm(b)
    theta = np.linalg.norm(b) * t[:, None]
    exact = (r0 * np.cos(theta) + np.cross(n, r0) * np.sin(theta)
             + n * (n @ r0) * (1.0 - np.cos(theta)))
    assert np.max(np.abs(rs - exact)) < 1e-9
    attempted = stats.accepted + stats.rejected
    # one read per pass, at the six nodes of every new step, not one per step:
    # each pass after the first splits at least one step
    assert 1 <= len(reads) <= 1 + stats.rejected < attempted
    assert sum(times.size for times in reads) == 6 * attempted
    for times in reads:
        assert times.dtype == np.float64 and times.ndim == 1
        assert 0.0 <= times.min() and times.max() <= 20.0
    assert stats.rhs_evals == 1 + 6 * attempted


# The tests below drive the Bloch controller with fields that vary in time, so a
# stage that reads another stage's node gives a wrong answer.

def test_bloch_kernel_precesses_about_a_ramped_field():
    # b = (0, 0, a + c t) turns (u, v) about z by the angle a t + c t^2 / 2
    a, c = 0.7, 0.25
    r0 = np.array([0.6, 0.0, 0.8])
    t = np.linspace(0.0, 12.0, 241)
    [(rs, _)] = odeint.integrate_bloch((lambda times: (0.0, 0.0, a + c * times),),
                                       (0.0, 0.0, 0.0), (0.0, 12.0), r0, t, rtol=1e-12, atol=1e-14)
    theta = a * t + 0.5 * c * t**2
    exact = np.column_stack([0.6 * np.cos(theta), 0.6 * np.sin(theta), np.full(t.size, 0.8)])
    assert np.max(np.abs(rs - exact)) < 1e-9


def _polynomials(count):
    """``count`` cubics in t / span, as coefficient lists from the constant up."""
    coeff = st.floats(-1.5, 1.5, allow_nan=False)
    return st.lists(st.lists(coeff, min_size=4, max_size=4), min_size=count, max_size=count)


def _evaluate(coeffs, x):
    return sum(c * x**k for k, c in enumerate(coeffs))


@settings(max_examples=60, deadline=None)
@given(span=st.floats(0.5, 8.0), field=_polynomials(3),
       decay=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(-0.5, 0.0)),
       r0=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_bloch_kernel_matches_the_generic_kernel(span, field, decay, r0):
    g_t, g_1, pump = decay

    def b(tt):
        return tuple(_evaluate(p, tt / span) for p in field)

    def rhs(tt, r):
        (bx, by, bz), (u, v, w) = b(tt), r
        return np.array([by * w - bz * v - g_t * u, bz * u - bx * w - g_t * v,
                         bx * v - by * u - g_1 * w + pump])

    t = np.linspace(0.0, span, 37)
    ref, _ = integrate_adaptive(rhs, (0.0, span), np.array(r0), t, rtol=1e-11, atol=1e-13)
    [(rs, _)] = odeint.integrate_bloch((b,), decay, (0.0, span),
                                       np.array(r0), t, rtol=1e-11, atol=1e-13)
    assert np.max(np.abs(rs - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_stats_dataclass_defaults():
    s = IntegrationStats()
    assert s.accepted == 0 and s.rejected == 0 and s.rhs_evals == 0


def test_non_finite_error_estimate_stops_at_once():
    t0 = time.perf_counter()
    with pytest.raises(IntegrationError, match=r"non-finite .* t = 0 ps"):
        integrate_adaptive(lambda tt, y: y * np.nan, (0.0, 1.0), np.array([1.0]),
                           np.array([0.0, 1.0]))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("y0", [[np.nan], [1.0, np.inf]])
def test_non_finite_initial_state_rejected(y0):
    with pytest.raises(ValidationError):
        integrate_adaptive(lambda tt, y: -y, (0.0, 1.0), y0, np.array([0.0, 1.0]))


@pytest.mark.parametrize("y0", [np.array([1.0 + 0.5j, 0.0]), [1.0, 0.5j], 1 + 0j],
                         ids=["array", "list", "scalar"])
def test_complex_initial_state_rejected(y0):
    # every state is a real vector; a complex one, even with a zero imaginary part, is bad input
    with pytest.raises(ValidationError, match="initial state"):
        integrate_adaptive(lambda tt, y: -y, (0.0, 1.0), y0, np.array([0.0, 1.0]))


def _loop_dense_output(teval, t0, y0, y_end, ts, hs, ys, coef):
    """The per-sample emission loop: each step emits the samples up to its end."""
    out = np.empty((teval.size, y0.size), dtype=y0.dtype)
    i = 0
    while i < teval.size and teval[i] <= t0:
        out[i] = y0
        i += 1
    for t, h, y, c in zip(ts, hs, ys, np.swapaxes(coef, 0, 1)):
        while i < teval.size and teval[i] <= t + h + 1e-14 * max(abs(t), 1.0):
            theta = min(max((teval[i] - t) / h, 0.0), 1.0)
            out[i] = y + np.array([theta, theta**2, theta**3, theta**4]) @ c
            i += 1
    out[i:] = y_end
    return out


@pytest.mark.parametrize("a, y0", [
    (np.array([[0.0, 1.0], [-1.0, -0.1]]), np.array([1.0, 0.0])),
])
def test_dense_output_matches_per_sample_loop(monkeypatch, a, y0):
    calls = []
    emit = odeint._dense_output
    monkeypatch.setattr(odeint, "_dense_output", lambda *args: calls.append(args) or emit(*args))
    integrate_adaptive(lambda tt, y: a @ y, (0.0, 2.0), y0, [0.0, 2.0])
    ends = (calls[-1][4] + calls[-1][5]).tolist()
    assert len(ends) > 4 and ends[3] < 2.0
    # repeated times, t0 twice, samples exactly on step ends and within the
    # 1e-14 roundoff slack past them, one just past t1
    teval = np.sort(np.concatenate([[0.0, 0.0, 2.0 + 5e-13], ends[:4], ends[:4],
                                    np.add(ends[:4], 5e-15), np.linspace(0.0, 2.0, 37)]))
    ys, _ = integrate_adaptive(lambda tt, y: a @ y, (0.0, 2.0), y0, teval)
    assert ys.dtype == y0.dtype
    assert np.array_equal(ys[:2], [y0, y0])
    assert np.max(np.abs(ys - _loop_dense_output(*calls[-1]))) < 1e-15


@pytest.mark.parametrize("rhs, y0, t_first", [
    (lambda tt, y: y**2, 1.0, 1.0),  # pole at t = 1: the step size underflows there
    (lambda tt, y: y * np.nan, 1.0, 0.0),  # non-finite error estimate on the first step
], ids=["underflow", "non-finite"])
def test_integration_error_carries_its_time(rhs, y0, t_first):
    with pytest.raises(IntegrationError) as err:
        integrate_adaptive(rhs, (0.0, 2.0), np.array([y0]), np.array([0.0, 2.0]),
                           rtol=1e-12, atol=1e-14)
    assert err.value.t_first == pytest.approx(t_first, abs=1e-6)
    assert f"t = {err.value.t_first:.6g} ps" in str(err.value)


def test_kernel_overflow_is_reported_without_a_warning():
    # a huge span overflows the step arithmetic on the first step; the caller's
    # own rhs still runs under the caller's numpy error state
    with pytest.raises(IntegrationError, match="non-finite") as err:
        integrate_adaptive(lambda tt, y: y + 1e300, (0.0, 1e100), np.array([1.0]),
                           np.array([0.0, 1e100]))
    assert err.value.t_first == 0.0
    with pytest.raises(RuntimeWarning, match="overflow"):
        integrate_adaptive(lambda tt, y: y * 1e300, (0.0, 1.0), np.array([1e10]),
                           np.array([0.0, 1.0]))


def _bloch_error(field, t_span=(0.0, 2.0), **kwargs):
    with pytest.raises(IntegrationError) as err:
        odeint.integrate_bloch((field,), (0.0, 0.0, 0.0), t_span, np.array([1.0, 0.0, 0.0]),
                               np.array(t_span), **kwargs)
    assert f"t = {_ps(err.value.t_first)} ps" in str(err.value)
    return err.value


def test_bloch_field_pole_underflows_the_step_size():
    # bz = 1 / (t_p - t) turns (u, v) by -log(t_p - t), without bound as t nears the
    # pole t_p, which is off the first plan's nodes; a node a few ulps from it may
    # still land on it, where the field is infinite
    pole = np.pi / 3.0

    def field(times):
        with np.errstate(divide="ignore"):
            return 0.0, 0.0, 1.0 / (pole - times)

    err = _bloch_error(field)
    assert "underflow" in str(err)
    assert err.t_first == pytest.approx(pole, abs=1e-6)


def test_bloch_field_pole_on_a_plan_node_is_reported_there():
    # the pole t = 1 is an edge of the first plan's 100 equal steps, where the field read
    # is infinite: the step that ends there fails at that node, not at its own start
    def field(times):
        with np.errstate(divide="ignore"):
            return 0.0, 0.0, 1.0 / (1.0 - times)

    err = _bloch_error(field)
    assert "non-finite" in str(err) and err.t_first == 1.0


def test_bloch_non_finite_field_stops_at_the_first_step():
    err = _bloch_error(lambda times: (np.nan, 0.0, 0.0))
    assert "non-finite" in str(err) and err.t_first == 0.0


def test_bloch_step_budget_is_checked_before_the_plan_is_built():
    # 2e6 steps of max_step = 1 would fill 2e6 rows of maps; the budget stops it first
    t0 = time.perf_counter()
    err = _bloch_error(lambda times: (1.0, 0.0, 0.0), (0.0, 2e6), max_step=1.0)
    assert "budget" in str(err) and err.t_first == 0.0
    assert time.perf_counter() - t0 < 0.1


def test_sequential_step_budget_stops_at_the_start_of_the_step_past_it(monkeypatch):
    steps = []
    step = odeint._dp5_step

    def spy(rhs, t, h, *args):
        steps.append((t, h))
        return step(rhs, t, h, *args)

    monkeypatch.setattr(odeint, "_MAX_STEPS", 5)
    monkeypatch.setattr(odeint, "_dp5_step", spy)
    with pytest.raises(IntegrationError, match="^step budget exhausted at t = ") as err:
        integrate_adaptive(lambda tt, y: -y, (0.0, 1.0), np.array([1.0]), np.array([0.0, 1.0]))
    assert len(steps) == 5
    t, h = steps[-1]
    assert 0.0 < err.value.t_first == t + h < 1.0
    assert str(err.value) == (f"step budget exhausted at t = {t + h:.6g} ps; "
                              "tolerances may be unreachable")


def test_bloch_first_step_below_the_step_floor_underflows_at_the_start():
    # span / 100 = 3 ps, below the step floor 16 eps 1e15 = 3.55 ps
    err = _bloch_error(lambda times: (0.0, 0.0, 0.0), (1e15, 1e15 + 300.0))
    assert str(err) == "step size underflow at t = 1000000000000000 ps" and err.t_first == 1e15


def test_bloch_step_budget_exhausted_by_the_first_splits(monkeypatch):
    # the first plan's 100 equal steps fit a budget of 101; bz = 40 t^2 rejects every step
    # from the fourth on, and the parts they split into pass the budget
    monkeypatch.setattr(odeint, "_MAX_STEPS", 101)
    err = _bloch_error(lambda times: (0.0, 0.0, 40.0 * times**2))
    assert str(err) == "step budget exhausted at t = 0.06 ps; tolerances may be unreachable"
    assert err.t_first == np.linspace(0.0, 2.0, 101)[3]


@pytest.mark.parametrize("fields, r0", [(1, np.zeros(6)), (2, np.zeros(3)), (1, np.zeros(2))])
def test_bloch_start_takes_one_3_vector_per_field(fields, r0):
    with pytest.raises(ValidationError) as err:
        odeint.integrate_bloch([lambda times: (0.0, 0.0, 0.0)] * fields, (0.0, 0.0, 0.0),
                               (0.0, 1.0), r0, np.array([0.0, 1.0]))
    assert str(err.value) == f"integrate_bloch takes a 3-vector per field, not shape {r0.shape}"
