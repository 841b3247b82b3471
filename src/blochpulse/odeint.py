"""Adaptive Dormand-Prince 5(4) integrator with dense output.

One step controller, shared by every simulation picture and by the public
integrator, drives one of two step kernels:

  * a generic numpy kernel for dy/dt = rhs(t, y) on flat real or complex
    state vectors (``integrate_adaptive``), the reference for the other;
  * a Bloch kernel for dr/dt = b(t) x r - (G, G, Gamma_1) r + (0, 0, pump)
    (``integrate_bloch``), which every simulation picture runs.

The Bloch kernel reads its field once per step, at the step's five distinct
stage times, as a list (stages 6 and 7 share the node t + h), and gets one
(bx, by, bz) float triple per time. It runs the stages inline on plain floats.

The controller owns input validation, the step budget, the underflow and
non-finite checks, accept/reject and step-size control. It records every
accepted step; one vectorised pass then emits the solution on the caller grid
through the quartic dense interpolant. Times are in ps.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import IntegrationError, ValidationError
from .states import _finite, _numeric

__all__ = ["ATOL", "RTOL", "IntegrationStats", "integrate_adaptive", "integrate_bloch",
           "step_floor"]

# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6
# (1980) 19). The scheme is first-same-as-last: stage 7 of an accepted step is
# stage 1 of the next.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# Difference between the 5th- and embedded 4th-order weights.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Quartic dense-output coefficients for the same tableau.
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
# The same tableau as Python floats, for the Bloch kernel's unrolled stages.
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65)) = (a.tolist() for a in _A[1:6])
_, _C2, _C3, _C4, _C5, _C6, _ = _C.tolist()  # _C6 == 1.0
_B1, _, _B3, _B4, _B5, _B6, _ = _B.tolist()
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E.tolist()

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 1_000_000
_FLOOR = 16.0 * np.finfo(float).eps

# default relative and absolute local-error tolerances of every propagator
RTOL = 1e-10
ATOL = 1e-12
# roundoff slack, in ps, by which sample times may overhang the integration span
SPAN_SLACK = 1e-12


def step_floor(t: float) -> float:
    """Smallest step the integrator takes at time ``t``; below it, it gives up."""
    return _FLOOR * max(abs(t), 1.0)


@dataclass
class IntegrationStats:
    """Bookkeeping for one adaptive integration run."""

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0  # stage evaluations: 1 + 6 per attempted step
    max_error_ratio: float = 0.0  # largest accepted local error, in tolerance units


# A kernel is a pair of functions over its own state representation:
#   start(t, y) -> (state, k1)   state and first stage from the validated y0
#   step(t, h, state, k1) -> (new state, k7, stages K (7 x n), error ratio)
# where the error ratio is the RMS local error in tolerance units.


def _numpy_kernel(rhs, rtol: float, atol: float):
    def start(t, y):
        return y, rhs(t, y)

    def step(t, h, y, k1):
        # A huge step may overflow the step's own arithmetic; the controller reports
        # the non-finite ratio, so numpy need not warn. The rhs runs in the caller's
        # context, under the caller's numpy error state.
        caller = contextvars.copy_context()
        k = np.empty((7, y.size), dtype=y.dtype)
        k[0] = k1
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 7):
                k[i] = caller.run(rhs, t + _C[i] * h, y + h * (_A[i] @ k[:i]))
            y_new = y + h * (_B @ k)
            err = h * (_E @ k)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            ratio = float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))
        return y_new, k[6], k, ratio

    return start, step


def _bloch_kernel(field, decay: tuple[float, float, float], rtol: float, atol: float):
    """The DP5 step for dr/dt = b x r - (G, G, Gamma_1) r + (0, 0, pump), on floats.

    ``field(times)`` gives one (bx, by, bz) float triple per time in the list.
    Each stage is written out: (x, y, z) is its input state, and its slope is
    the cross product b x (x, y, z) minus the decay, plus the pump.
    """
    g_t, g_1, pump = decay

    def start(t, y):
        if y.shape != (3,):
            raise ValidationError(f"the Bloch kernel integrates a 3-vector, got shape {y.shape}")
        u, v, w = y.tolist()
        ((bx, by, bz),) = field([t])
        return (u, v, w), (by * w - bz * v - g_t * u, bz * u - bx * w - g_t * v,
                           bx * v - by * u - g_1 * w + pump)

    def step(t, h, r, k1):
        ((bx2, by2, bz2), (bx3, by3, bz3), (bx4, by4, bz4), (bx5, by5, bz5),
         (bx6, by6, bz6)) = field([t + _C2 * h, t + _C3 * h, t + _C4 * h, t + _C5 * h, t + _C6 * h])
        u, v, w = r
        k1u, k1v, k1w = k1
        x, y, z = u + h * (_A21 * k1u), v + h * (_A21 * k1v), w + h * (_A21 * k1w)
        k2u, k2v, k2w = (by2 * z - bz2 * y - g_t * x, bz2 * x - bx2 * z - g_t * y,
                         bx2 * y - by2 * x - g_1 * z + pump)
        x, y, z = (u + h * (_A31 * k1u + _A32 * k2u), v + h * (_A31 * k1v + _A32 * k2v),
                   w + h * (_A31 * k1w + _A32 * k2w))
        k3u, k3v, k3w = (by3 * z - bz3 * y - g_t * x, bz3 * x - bx3 * z - g_t * y,
                         bx3 * y - by3 * x - g_1 * z + pump)
        x, y, z = (u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u),
                   v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v),
                   w + h * (_A41 * k1w + _A42 * k2w + _A43 * k3w))
        k4u, k4v, k4w = (by4 * z - bz4 * y - g_t * x, bz4 * x - bx4 * z - g_t * y,
                         bx4 * y - by4 * x - g_1 * z + pump)
        x, y, z = (u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u),
                   v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v),
                   w + h * (_A51 * k1w + _A52 * k2w + _A53 * k3w + _A54 * k4w))
        k5u, k5v, k5w = (by5 * z - bz5 * y - g_t * x, bz5 * x - bx5 * z - g_t * y,
                         bx5 * y - by5 * x - g_1 * z + pump)
        x, y, z = (u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u),
                   v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v),
                   w + h * (_A61 * k1w + _A62 * k2w + _A63 * k3w + _A64 * k4w + _A65 * k5w))
        k6u, k6v, k6w = (by6 * z - bz6 * y - g_t * x, bz6 * x - bx6 * z - g_t * y,
                         bx6 * y - by6 * x - g_1 * z + pump)
        # the 5th-order update is also the input of stage 7 (first-same-as-last)
        un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        wn = w + h * (_B1 * k1w + _B3 * k3w + _B4 * k4w + _B5 * k5w + _B6 * k6w)
        k7 = k7u, k7v, k7w = (by6 * wn - bz6 * vn - g_t * un, bz6 * un - bx6 * wn - g_t * vn,
                              bx6 * vn - by6 * un - g_1 * wn + pump)
        eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
        ew = h * (_E1 * k1w + _E3 * k3w + _E4 * k4w + _E5 * k5w + _E6 * k6w + _E7 * k7w)
        eu /= atol + rtol * max(abs(u), abs(un))
        ev /= atol + rtol * max(abs(v), abs(vn))
        ew /= atol + rtol * max(abs(w), abs(wn))
        ratio = math.sqrt((eu * eu + ev * ev + ew * ew) / 3.0)
        stages = (k1u, k1v, k1w, k2u, k2v, k2w, k3u, k3v, k3w, k4u, k4v, k4w,
                  k5u, k5v, k5w, k6u, k6v, k6w, k7u, k7v, k7w)
        return (un, vn, wn), k7, stages, ratio

    return start, step


def _integrate(kernel, t_span, y0, t_eval, rtol, atol,
               max_step) -> tuple[np.ndarray, IntegrationStats]:
    """The step controller: validate, step with ``kernel(rtol, atol)``, emit on ``t_eval``."""
    t0, t1 = _finite(t_span, "t_span", float, (2,)).tolist()
    if t1 <= t0:
        raise ValidationError(f"integration span must have t1 > t0, got ({t0}, {t1})")
    y = np.atleast_1d(_finite(y0, "initial state", complex))
    y = y.copy() if np.iscomplexobj(y0) or y.imag.any() else y.real.copy()  # real stays real
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("initial state must be a non-empty 1-D vector")
    teval = _numeric(t_eval, "t_eval", float)
    if teval.ndim != 1 or teval.size == 0:
        raise ValidationError("t_eval must be a non-empty 1-D array")
    if not (np.diff(teval) >= 0.0).all():  # also rejects NaN
        raise ValidationError("t_eval must be non-decreasing")
    if not t0 - SPAN_SLACK <= teval[0] <= teval[-1] <= t1 + SPAN_SLACK:
        raise ValidationError("t_eval must lie within t_span")
    max_step = float(_numeric(max_step, "max_step", float, ()))
    if not max_step > 0.0:  # also rejects NaN
        raise ValidationError("max_step must be positive")
    rtol = float(_numeric(rtol, "rtol", float, ()))
    atol = float(_numeric(atol, "atol", float, ()))
    if not (0.0 <= rtol < math.inf and 0.0 < atol < math.inf):  # also rejects NaN
        raise ValidationError(f"tolerances need finite rtol >= 0, atol > 0; got {rtol}, {atol}")

    start, attempt = kernel(rtol, atol)
    stats = IntegrationStats()
    state, k1 = start(t0, y)
    stats.rhs_evals += 1
    steps = []  # (t, h, state, stages) of every accepted step
    span = t1 - t0
    h = min(max_step, span / 100.0, span)
    t = t0
    grow_cap = _MAX_FACTOR

    while t < t1:
        if stats.accepted + stats.rejected >= _MAX_STEPS:
            raise IntegrationError(
                f"step budget exhausted at t = {t:.6g} ps; tolerances may be unreachable",
                t_first=t)
        if h < step_floor(t):
            raise IntegrationError(f"step size underflow at t = {t:.6g} ps", t_first=t)
        h = min(h, t1 - t)

        new_state, k7, stages, ratio = attempt(t, h, state, k1)
        stats.rhs_evals += 6
        if not math.isfinite(ratio):
            raise IntegrationError(f"non-finite local error estimate at t = {t:.6g} ps", t_first=t)

        if ratio <= 1.0:
            steps.append((t, h, state, stages))
            t += h
            state, k1 = new_state, k7
            stats.accepted += 1
            stats.max_error_ratio = max(stats.max_error_ratio, ratio)
            factor = _SAFETY * ratio ** -0.2 if ratio > 0.0 else _MAX_FACTOR
            h = min(h * min(grow_cap, max(factor, _MIN_FACTOR)), max_step)
            grow_cap = _MAX_FACTOR
        else:
            stats.rejected += 1
            h *= max(_SAFETY * ratio ** -0.2, _MIN_FACTOR)
            grow_cap = 1.0  # no growth right after a rejection

    return _dense_output(teval, t0, y, state, steps), stats


def _dense_output(teval, t0, y0, y_end, steps) -> np.ndarray:
    """Emit every sample from the accepted steps' quartic interpolants at once.

    A sample belongs to the first step whose end, plus 1e-14 max(|t|, 1) of
    roundoff slack, reaches it. Samples at or before t0 get y0, samples past
    the last step the final state; ``teval`` is sorted, so each group is one run.
    """
    ts, hs, ys, ks = (np.array(col) for col in zip(*steps))
    ks = ks.reshape(len(steps), 7, y0.size)
    # a running maximum, so searchsorted finds the first end that reaches a sample
    ends = np.maximum.accumulate(ts + hs + 1e-14 * np.maximum(np.abs(ts), 1.0))
    idx = np.searchsorted(ends, teval, side="left")
    lo, hi = np.searchsorted(teval, t0, side="right"), np.searchsorted(idx, len(steps))
    j = idx[lo:hi]
    theta = np.clip((teval[lo:hi] - ts[j]) / hs[j], 0.0, 1.0)
    # y(t + theta h) = y + theta (c1 + theta (c2 + theta (c3 + theta c4))), (c1 .. c4) = h K^T P,
    # gathered per sample along the last axis, so each product runs over the samples
    c1, c2, c3, c4 = np.take(np.transpose(hs[:, None, None] * (np.swapaxes(ks, 1, 2) @ _P)), j,
                             axis=2)
    out = np.empty((teval.size, y0.size), dtype=y0.dtype)
    out[:lo], out[hi:] = y0, y_end
    out[lo:hi] = (ys.T[:, j] + theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))).T
    return out


def integrate_adaptive(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0,
    t_eval,
    *,
    rtol: float = RTOL,
    atol: float = ATOL,
    max_step: float = np.inf,
) -> tuple[np.ndarray, IntegrationStats]:
    """Integrate dy/dt = rhs(t, y) and sample the result on ``t_eval``.

    Parameters
    ----------
    rhs : callable
        Right-hand side, returning an array shaped like ``y``.
    t_span : (float, float)
        Integration window (t0, t1) with t1 > t0, in ps.
    y0 : array_like
        Initial state, a non-empty 1-D vector. Real or complex, and finite.
    t_eval : array_like
        Non-decreasing sample times inside ``t_span``. The solution at these
        points comes from the dense interpolant, not from forcing steps.
    rtol, atol : float
        Relative and absolute local-error tolerances; finite, rtol >= 0, atol > 0.
    max_step : float
        Upper bound on the step size, e.g. a fraction of the fastest carrier
        period so oscillations stay resolved.

    Returns
    -------
    (numpy.ndarray, IntegrationStats)
        Solution array of shape ``(len(t_eval), len(y0))`` and step counters.

    Raises
    ------
    ValidationError
        If the span, initial state, sample times, tolerances or max_step are bad.
    IntegrationError
        If the step size underflows, the step budget is exhausted, or the
        right-hand side yields a non-finite error estimate.
    """
    return _integrate(partial(_numpy_kernel, rhs), t_span, y0, t_eval, rtol, atol, max_step)


def integrate_bloch(
    field: Callable[[list], list],
    decay: tuple[float, float, float],
    t_span: tuple[float, float],
    r0,
    t_eval,
    *,
    rtol: float = RTOL,
    atol: float = ATOL,
    max_step: float = np.inf,
) -> tuple[np.ndarray, IntegrationStats]:
    """Integrate dr/dt = b(t) x r - (G, G, Gamma_1) r + (0, 0, pump) for a Bloch vector.

    Same controller, tolerances, dense output and statistics as
    ``integrate_adaptive`` with the equivalent right-hand side. ``field(times)``
    takes a list of Python floats and returns one row per time, a (bx, by, bz)
    float triple. It is called once at t0, with ``[t0]``, and once per
    attempted step, with that step's five distinct stage times, as a list;
    stages 6 and 7 share the last row. ``decay`` is (G, Gamma_1, pump) and
    ``r0`` a real 3-vector.
    """
    return _integrate(partial(_bloch_kernel, field, decay), t_span, r0, t_eval, rtol, atol,
                      max_step)
