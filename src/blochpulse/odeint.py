"""Adaptive Dormand-Prince 5(4) integrators with dense output.

Two step controllers share one tableau, error norm, input check and dense output:

  * a sequential controller for dy/dt = rhs(t, y) on flat real or complex state
    vectors (``integrate_adaptive``), one step at a time, the reference for the other;
  * a batched controller for the affine Bloch equation
    dr/dt = b(t) x r - (G, G, Gamma_1) r + (0, 0, pump) (``integrate_bloch``), which
    every simulation picture runs. A DP5 step of an affine equation is an affine map
    r -> M r + c that depends only on b at the step's nodes, so each pass reads the
    field once, at the nodes of every new step, builds every new step's maps in numpy
    and composes all maps by a prefix scan. Rejected steps split; passes repeat until
    no step is rejected.

Each controller checks the step budget, step-size underflow and non-finite error
estimates and records its accepted steps; one vectorised pass then emits the
solution on the caller grid through the quartic dense interpolant. Times are in ps.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationError, ValidationError
from .states import _finite, _numeric

__all__ = ["ATOL", "RTOL", "IntegrationStats", "integrate_adaptive", "integrate_bloch"]

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


def _step_floor(t: float) -> float:
    """Smallest step the integrator takes at time ``t``; below it, it gives up."""
    return _FLOOR * max(abs(t), 1.0)


_UNDERFLOW, _NON_FINITE, _BUDGET = (
    "step size underflow at t = {:.6g} ps", "non-finite local error estimate at t = {:.6g} ps",
    "step budget exhausted at t = {:.6g} ps; tolerances may be unreachable")


def _failure(message: str, t: float) -> IntegrationError:
    return IntegrationError(message.format(t), t_first=t)


@dataclass
class IntegrationStats:
    """Bookkeeping for one adaptive integration run."""

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0  # stage evaluations: 1 + 6 per attempted step
    max_error_ratio: float = 0.0  # largest accepted local error, in tolerance units


def _numpy_kernel(rhs, rtol: float, atol: float):
    """step(t, h, y, k1) -> (new y, k7, stages K (7 x n), error ratio): one DP5 step of
    dy/dt = rhs(t, y), the error ratio its RMS local error in tolerance units."""

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

    return step


def _checked(t_span, y0, t_eval, rtol, atol, max_step):
    """Both controllers' inputs, validated: (t0, t1, y0, t_eval, rtol, atol, max_step)."""
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
    return t0, t1, y, teval, rtol, atol, max_step


def _integrate(rhs, t_span, y0, t_eval, rtol, atol,
               max_step) -> tuple[np.ndarray, IntegrationStats]:
    """The sequential step controller: validate, step one at a time, emit on ``t_eval``."""
    t0, t1, y, teval, rtol, atol, max_step = _checked(t_span, y0, t_eval, rtol, atol, max_step)
    attempt = _numpy_kernel(rhs, rtol, atol)
    stats = IntegrationStats(rhs_evals=1)
    state, k1 = y, rhs(t0, y)
    steps = []  # (t, h, state, stages) of every accepted step
    span = t1 - t0
    h = min(max_step, span / 100.0, span)
    t = t0
    grow_cap = _MAX_FACTOR

    while t < t1:
        if stats.accepted + stats.rejected >= _MAX_STEPS:
            raise _failure(_BUDGET, t)
        if h < _step_floor(t):
            raise _failure(_UNDERFLOW, t)
        h = min(h, t1 - t)

        new_state, k7, stages, ratio = attempt(t, h, state, k1)
        stats.rhs_evals += 6
        if not math.isfinite(ratio):
            raise _failure(_NON_FINITE, t)

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

    ts, hs, ys, ks = (np.array(col) for col in zip(*steps))
    coef = np.moveaxis(hs[:, None, None] * (np.swapaxes(ks, 1, 2) @ _P), 2, 0)  # h K^T P
    return _dense_output(teval, t0, y, state, ts, hs, ys, coef), stats


# [A | p] of the Bloch equation dr/dt = A r + p is (b, 1) @ _CROSS, with the decay and the
# pump put in its last row: _CROSS[j, i, k] = (e_j x e_k)_i for j < 3, so that
# (b x r)_i = b_j _CROSS[j, i, k] r_k, and its last column, the pump's, is zero.
_CROSS = np.pad(np.cross(np.eye(3)[:, None], np.eye(3)).transpose(0, 2, 1),
                ((0, 1), (0, 0), (0, 1)))
_ONE = np.eye(3, 4)  # the identity map [I | 0]
_W = np.vstack((_B, _E, _P.T))  # the stage weights of a step, its error and (c1 .. c4)
_CHUNK = 256  # steps whose stage maps are built at once, which bounds the temporaries


def _stage_maps(b, h, gen):
    """DP5's seven stage maps times the step size, h K_i, shape (7, n, 3, 4), of n steps
    of sizes ``h`` (n,) for dr/dt = A r + p, from the field reads (b, 1), shape (n, 6, 4),
    at each step's six nodes; [A | p] = (b, 1) @ ``gen``.

    Stage i's slope is K_i [r; 1] for the step's start r. With [A_i | p_i] at its node
    and S_i = sum_j a_ij h K_j, its input is ([I | 0] + S_i) [r; 1], so
    h K_i = h [A_i | p_i] + h A_i S_i; stage 7 reads node 6 (first-same-as-last).
    """
    n = len(b)
    a = (np.swapaxes(b * h[:, None, None], 0, 1) @ gen.reshape(4, 12)).reshape(6, n, 3, 4)
    k = np.empty((7, n, 3, 4))
    flat = k.reshape(7, -1)  # each stage's maps in one row, for the tableau's sums
    k[0] = a[0]
    for i in range(1, 7):
        node = a[min(i, 5)]
        np.matmul(node[..., :3], (_A[i] @ flat[:i]).reshape(n, 3, 4), out=k[i])
        k[i] += node
    return k


def _prefix_states(r0, maps) -> np.ndarray:
    """s_0 = r0 and s_j+1 = M_j s_j + c_j for maps[j] = [M_j | c_j], by a work-efficient
    scan (Blelloch 1990): compose the maps in pairs, [M | c] o [M' | c'] = [M M' | M c' + c],
    take every second state from the pairs' states, and step once to the states between."""
    s = np.empty((len(maps) + 1, 3))
    s[0] = r0
    if len(maps) > 1:
        first, second = maps[:-1:2], maps[1::2]
        pairs = second[..., :3] @ first
        pairs[..., 3] += second[..., 3]
        s[::2] = _prefix_states(r0, pairs)
    s[1::2] = (maps[::2, :, :3] @ s[:-1:2, :, None])[..., 0] + maps[::2, :, 3]
    return s


def _bloch_controller(field, decay, t0, t1, r0, rtol, atol, max_step, stats):
    """DP5 on every step at once: the accepted plan's steps, their start states and
    their dense-output coefficients, (t, h, states (n + 1, 3), h K^T P (4, n, 3)).

    The span starts as an equal partition at the sequential controller's first step. A
    pass reads the field once, at every new step's six nodes, builds the new steps'
    stage maps, composes the step maps by a scan for every start state, and rates every
    step. Each rejected step splits into equal parts, as many as the sequential rule
    shrinks it by; passes repeat until no step is rejected. Only the first step that
    fails can raise: later steps start from states that will still change.
    """
    span, h0 = t1 - t0, min(max_step, (t1 - t0) / 100.0)
    if h0 < _step_floor(t0):
        raise _failure(_UNDERFLOW, t0)
    if span / h0 > _MAX_STEPS:  # before the plan is allocated
        raise _failure(_BUDGET, t0)
    (g_t, g_1, pump), gen = decay, _CROSS.copy()
    gen[3, [0, 1, 2, 2], [0, 1, 2, 3]] = -g_t, -g_t, -g_1, pump
    edges = np.linspace(t0, t1, math.ceil(span / h0) + 1)  # where the steps start and end
    new = np.arange(edges.size - 1)  # the steps whose maps are not built yet
    rate = dense = source = None  # h sum_i _W[:, i] K_i of each step: step, error; c1 .. c4
    attempted = new.size
    while True:
        t, h = edges[:-1], edges[1:] - edges[:-1]
        b = np.ones((6 * new.size, 4))  # (b, 1) at the six nodes t + c h of each new step
        b[:, 0], b[:, 1], b[:, 2] = field((t[new, None] + _C[:6] * h[new, None]).ravel())
        # after the read, and one array at a time, so that the peaks do not add: each step of
        # the new plan takes the maps of the step it is or came from; a new step builds its own
        rate = np.empty((2, t.size, 3, 4)) if source is None else np.take(rate, source, axis=1)
        dense = np.empty((4, t.size, 3, 4)) if source is None else np.take(dense, source, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, new.size, _CHUNK):
                part = new[lo:lo + _CHUNK]
                k = _stage_maps(b[6 * lo:6 * (lo + _CHUNK)].reshape(-1, 6, 4), h[part], gen)
                maps = (_W @ k.reshape(7, -1)).reshape(6, -1, 3, 4)
                rate[:, part], dense[:, part] = maps[:2], maps[2:]
            s, ratio = _rated(r0, rate[0] + _ONE, rate[1], rtol, atol)
            bad = ~(ratio <= 1.0)  # also NaN
            if not bad.any():
                break
            # as many equal parts as the sequential rule shrinks the step by, 2 to 5
            parts = np.ceil(1.0 / np.maximum(_SAFETY * ratio[bad] ** -0.2, _MIN_FACTOR))
            stuck = ~np.isfinite(ratio[bad]) | (h[bad] / parts < _FLOOR
                                                * np.maximum(np.abs(t[bad]), 1.0))
        first = np.argmax(bad)
        if stuck[0]:
            raise _failure(_UNDERFLOW if np.isfinite(ratio[first]) else _NON_FINITE, t[first])
        count = np.ones(t.size, dtype=int)
        count[bad] = np.where(stuck, 1, parts)
        split = count > 1
        attempted += int(count[split].sum())
        if attempted > _MAX_STEPS:
            raise _failure(_BUDGET, t[np.argmax(split)])
        stats.rejected += int(split.sum())
        # each part starts a whole number of part sizes into its step
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        edges = np.append(np.repeat(t, count) + np.repeat(h / count, count) * offset, t1)
        source, new = np.repeat(np.arange(t.size), count), np.flatnonzero(np.repeat(split, count))
    stats.accepted, stats.rhs_evals = t.size, 1 + 6 * attempted
    stats.max_error_ratio = float(ratio.max())
    return t, h, s, (dense[..., :3] @ s[:-1, :, None])[..., 0] + dense[..., 3]


def _rated(r0, step, err, rtol: float, atol: float):
    """The states s (n + 1, 3) that the ``step`` maps give from r0, and each step's RMS
    local error in tolerance units, from its ``err`` map."""
    s = _prefix_states(r0, step)
    e = (err[..., :3] @ s[:-1, :, None])[..., 0] + err[..., 3]
    scale = atol + rtol * np.maximum(np.abs(s[:-1]), np.abs(s[1:]))
    return s, np.sqrt(np.mean((e / scale) ** 2, axis=1))


def _dense_output(teval, t0, y0, y_end, ts, hs, ys, coef) -> np.ndarray:
    """Emit every sample from the accepted steps' quartic interpolants at once.

    The steps start at ``ts`` (n,) with sizes ``hs`` (n,) and states ``ys`` (n, d); each
    step's interpolant is y(t + theta h) = y + theta (c1 + theta (c2 + theta (c3 +
    theta c4))), with (c1 .. c4) = h K^T P from its stage slopes K, ``coef`` (4, n, d).
    A sample belongs to the first step whose end, plus 1e-14
    max(|t|, 1) of roundoff slack, reaches it. Samples at or before t0 get y0, samples
    past the last step the final state; ``teval`` is sorted, so each group is one run.
    """
    # a running maximum, so searchsorted finds the first end that reaches a sample
    ends = np.maximum.accumulate(ts + hs + 1e-14 * np.maximum(np.abs(ts), 1.0))
    idx = np.searchsorted(ends, teval, side="left")
    lo, hi = np.searchsorted(teval, t0, side="right"), np.searchsorted(idx, len(ts))
    j = idx[lo:hi]
    theta = np.clip((teval[lo:hi] - ts[j]) / hs[j], 0.0, 1.0)
    # (c1 .. c4) gathered per sample along the last axis, so each product runs over the samples
    c1, c2, c3, c4 = np.take(np.swapaxes(coef, 1, 2), j, axis=2)
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
    return _integrate(rhs, t_span, y0, t_eval, rtol, atol, max_step)


def integrate_bloch(
    field: Callable[[np.ndarray], tuple],
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

    The same tableau, error norm, tolerances, dense output, statistics and errors as
    ``integrate_adaptive`` with the equivalent right-hand side, on a step plan of its
    own (see ``_bloch_controller``). ``field(times)`` takes a 1-D float array and
    returns (bx, by, bz), each an array over the times or a float. It is called once
    per pass, with the six nodes t + c h of every new step. ``decay`` is
    (G, Gamma_1, pump) and ``r0`` a real 3-vector.
    """
    t0, t1, r, teval, rtol, atol, max_step = _checked(t_span, r0, t_eval, rtol, atol, max_step)
    if r.shape != (3,) or r.dtype != float:
        raise ValidationError(f"integrate_bloch takes a real 3-vector, not {r.shape} {r.dtype}")
    stats = IntegrationStats()
    t, h, s, coef = _bloch_controller(field, decay, t0, t1, r, rtol, atol, max_step, stats)
    return _dense_output(teval, t0, r, s[-1], t, h, s[:-1], coef), stats
