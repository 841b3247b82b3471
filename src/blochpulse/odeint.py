"""Adaptive Dormand-Prince 5(4) integrator with dense output.

A small explicit Runge-Kutta core shared by every simulation picture and by
the open-system v-completion. It integrates flat real or complex state
vectors, emits the solution on a caller grid through a quartic dense
interpolant, and counts accepted and rejected steps. Times are in ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationError, ValidationError

__all__ = ["IntegrationStats", "integrate_adaptive"]

# Dormand-Prince 5(4) tableau. The scheme is first-same-as-last: stage 7 of an
# accepted step is stage 1 of the next.
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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 1_000_000


@dataclass
class IntegrationStats:
    """Bookkeeping for one adaptive integration run."""

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    max_error_ratio: float = 0.0  # largest accepted local error, in tolerance units


def _rms_norm(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(x) ** 2)))


def integrate_adaptive(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0,
    t_eval,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
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
        Initial state, flattened to 1-D. Real or complex, and finite.
    t_eval : array_like
        Non-decreasing sample times inside ``t_span``. The solution at these
        points comes from the dense interpolant, not from forcing steps.
    rtol, atol : float
        Relative and absolute local-error tolerances.
    max_step : float
        Upper bound on the step size, e.g. a fraction of the fastest carrier
        period so oscillations stay resolved.

    Returns
    -------
    (numpy.ndarray, IntegrationStats)
        Solution array of shape ``(len(t_eval), len(y0))`` and step counters.

    Raises
    ------
    IntegrationError
        If the step size underflows, the step budget is exhausted, or the
        right-hand side yields a non-finite error estimate.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(t1)) or t1 <= t0:
        raise ValidationError(f"integration span must be finite with t1 > t0, got ({t0}, {t1})")
    y0 = np.asarray(y0)
    y = np.atleast_1d(y0).astype(np.result_type(y0, np.float64), copy=True)
    if y.ndim != 1:
        raise ValidationError("initial state must flatten to a 1-D vector")
    if not np.all(np.isfinite(y)):
        raise ValidationError("initial state contains non-finite values")
    teval = np.asarray(t_eval, dtype=float)
    if teval.ndim != 1 or teval.size == 0:
        raise ValidationError("t_eval must be a non-empty 1-D array")
    if np.any(np.diff(teval) < 0.0):
        raise ValidationError("t_eval must be non-decreasing")
    if teval[0] < t0 - 1e-12 or teval[-1] > t1 + 1e-12:
        raise ValidationError("t_eval must lie within t_span")
    if max_step <= 0.0:
        raise ValidationError("max_step must be positive")

    n = y.size
    out = np.empty((teval.size, n), dtype=y.dtype)
    stats = IntegrationStats()

    # emit any samples sitting exactly at the start
    next_emit = 0
    while next_emit < teval.size and teval[next_emit] <= t0:
        out[next_emit] = y
        next_emit += 1

    span = t1 - t0
    h = min(max_step, span / 100.0, span)
    t = t0
    k = np.empty((7, n), dtype=y.dtype)
    k[0] = rhs(t, y)
    stats.rhs_evals += 1
    grow_cap = _MAX_FACTOR

    while t < t1:
        if stats.accepted + stats.rejected >= _MAX_STEPS:
            raise IntegrationError(
                f"step budget exhausted at t = {t:.6g} ps; tolerances may be unreachable"
            )
        if h < 16.0 * np.finfo(float).eps * max(abs(t), 1.0):
            raise IntegrationError(f"step size underflow at t = {t:.6g} ps")
        h = min(h, t1 - t)

        for i in range(1, 7):
            ti = t + _C[i] * h
            yi = y + h * (_A[i] @ k[:i])
            k[i] = rhs(ti, yi)
        stats.rhs_evals += 6
        y_new = y + h * (_B @ k)

        err = h * (_E @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = _rms_norm(err / scale)
        if not math.isfinite(ratio):
            raise IntegrationError(f"non-finite local error estimate at t = {t:.6g} ps")

        if ratio <= 1.0:
            # dense interpolant over [t, t + h]: y(t + theta h) = y + h K^T P p(theta)
            dense = k.T @ _P
            while next_emit < teval.size and teval[next_emit] <= t + h + 1e-14 * max(abs(t), 1.0):
                theta = min(max((teval[next_emit] - t) / h, 0.0), 1.0)
                p = np.array([theta, theta**2, theta**3, theta**4])
                out[next_emit] = y + h * (dense @ p)
                next_emit += 1
            t += h
            y = y_new
            k[0] = k[6]
            stats.accepted += 1
            stats.max_error_ratio = max(stats.max_error_ratio, ratio)
            factor = _SAFETY * ratio ** -0.2 if ratio > 0.0 else _MAX_FACTOR
            h = min(h * min(grow_cap, max(factor, _MIN_FACTOR)), max_step)
            grow_cap = _MAX_FACTOR
        else:
            stats.rejected += 1
            h *= max(_SAFETY * ratio ** -0.2, _MIN_FACTOR)
            grow_cap = 1.0  # no growth right after a rejection

    # samples at t1 within roundoff
    out[next_emit:] = y
    return out, stats
