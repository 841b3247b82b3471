"""Adaptive Dormand-Prince 5(4) integrators with dense output.

Two step controllers share one tableau, error norm, input check and dense output:

  * a sequential controller for dy/dt = rhs(t, y) on a flat real state vector
    (``integrate_adaptive``), one ``_dp5_step`` at a time, the reference for the other;
  * a batched controller for the affine Bloch equation
    dr/dt = b(t) x r - (G, G, Gamma_1) r + (0, 0, pump), whose one entry,
    ``integrate_bloch``, runs one field or several; every simulation picture runs it.
    A DP5 step of an affine equation is an affine map r -> M r + c that depends only
    on b at the step's nodes, so each pass reads the field once, at the nodes of every
    new step, builds every new step's maps in numpy and composes all maps by a prefix
    scan. The maps are 3 x 4, [M | c], only when the pump is not zero; without one
    (every closed run, whose pump is -0.0, and every run without a thermal channel) c
    is zero and the same code carries 3 x 3 maps M.
    Rejected steps split; passes repeat until no step is rejected. Several fields share
    one step plan: a step is rejected when any field rejects it, and a run fails at its
    earliest failing step.

Each controller checks the step budget, step-size underflow and non-finite error
estimates and records its accepted steps; one vectorised pass then emits the
solution on the caller grid through the quartic dense interpolant. Times are in ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError, ValidationError, _ps
from .states import _finite, _numeric

__all__ = ["IntegrationStats", "integrate_adaptive"]

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
_FIRST_STEPS = 100  # both controllers' first step is at most span / _FIRST_STEPS

# default relative and absolute local-error tolerances of every propagator
RTOL = 1e-10
ATOL = 1e-12
# roundoff slack, in ps, by which sample times may overhang the integration span
SPAN_SLACK = 1e-12


def _step_floor(t):
    """Smallest step the integrator takes at time(s) ``t``; below it, it gives up."""
    return _FLOOR * np.maximum(np.abs(t), 1.0)


_UNDERFLOW, _NON_FINITE, _BUDGET = (
    "step size underflow at t = {} ps", "non-finite local error estimate at t = {} ps",
    "step budget exhausted at t = {} ps; tolerances may be unreachable")


def _failure(message: str, t: float) -> IntegrationError:
    return IntegrationError(message.format(_ps(t)), t_first=t)


@dataclass
class IntegrationStats:
    """Bookkeeping for one adaptive integration run."""

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0  # stage evaluations: 1 + 6 per attempted step
    max_error_ratio: float = 0.0  # largest accepted local error, in tolerance units


def _dp5_step(rhs, t, h, y, k1, rtol: float, atol: float):
    """One DP5 step of dy/dt = rhs(t, y) from (t, y) with slope k1: (new y, k7, stages K
    (7 x n), error ratio), the error ratio its RMS local error in tolerance units.

    A huge step may overflow the step's own arithmetic; the controller reports the
    non-finite ratio, so numpy need not warn there. ``rhs`` runs outside that silence,
    under the caller's numpy error state."""
    k = np.empty((7, y.size))
    k[0] = k1
    for i in range(1, 7):
        with np.errstate(over="ignore", invalid="ignore"):
            t_i, y_i = t + _C[i] * h, y + h * (_A[i] @ k[:i])
        k[i] = rhs(t_i, y_i)
    with np.errstate(over="ignore", invalid="ignore"):
        y_new = y + h * (_B @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = float(np.sqrt(np.mean((h * (_E @ k) / scale) ** 2)))
    return y_new, k[6], k, ratio


def _checked(t_span, y0, t_eval, rtol, atol, max_step):
    """Both controllers' inputs, validated: (t0, t1, y0, t_eval, rtol, atol, max_step)."""
    t0, t1 = _finite(t_span, "t_span", float, (2,)).tolist()
    if t1 <= t0:
        raise ValidationError(f"integration span must have t1 > t0, got ({t0}, {t1})")
    y = np.atleast_1d(_finite(y0, "initial state", float)).copy()
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
        Initial state, a non-empty 1-D vector of finite real numbers.
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
    t0, t1, y, teval, rtol, atol, max_step = _checked(t_span, y0, t_eval, rtol, atol, max_step)
    stats = IntegrationStats(rhs_evals=1)
    state, k1 = y, rhs(t0, y)
    steps = []  # (t, h, state, stages) of every accepted step
    h = min(max_step, (t1 - t0) / _FIRST_STEPS)
    t = t0
    grow_cap = _MAX_FACTOR

    while t < t1:
        if stats.accepted + stats.rejected >= _MAX_STEPS:
            raise _failure(_BUDGET, t)
        if h < _step_floor(t):
            raise _failure(_UNDERFLOW, t)
        h = min(h, t1 - t)

        new_state, k7, stages, ratio = _dp5_step(rhs, t, h, state, k1, rtol, atol)
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
_ONE = np.eye(3, 4)  # the identity map [I | 0]; a pump-free run's is its first 3 columns
_W = np.vstack((_B, _E, _P.T))  # the stage weights of a step, its error and (c1 .. c4)
_CHUNK = 256  # steps whose stage maps are built at once, which bounds the temporaries


def _stage_maps(b, h, gen):
    """DP5's seven stage maps times the step size, h K_i, shape (7, n, 3, w), of n steps
    of sizes ``h`` (n,) for dr/dt = A r + p, from the field reads (b, 1), shape (n, 6, 4),
    at each step's six nodes; [A | p] = (b, 1) @ ``gen``, of shape (4, 3, w). A pump-free
    ``gen`` is 3 wide: it has no p, and every map it gives is 3 x 3.

    Stage i's slope is K_i [r; 1] for the step's start r. With [A_i | p_i] at its node
    and S_i = sum_j a_ij h K_j, its input is ([I | 0] + S_i) [r; 1], so
    h K_i = h [A_i | p_i] + h A_i S_i; stage 7 reads node 6 (first-same-as-last).
    """
    n, w = len(b), gen.shape[-1]
    a = (np.swapaxes(b * h[:, None, None], 0, 1) @ gen.reshape(4, 3 * w)).reshape(6, n, 3, w)
    k = np.empty((7, n, 3, w))
    flat = k.reshape(7, -1)  # each stage's maps in one row, for the tableau's sums
    k[0] = a[0]
    for i in range(1, 7):
        node = a[min(i, 5)]
        np.matmul(node[..., :3], (_A[i] @ flat[:i]).reshape(n, 3, w), out=k[i])
        k[i] += node
    return k


def _mapped(maps, s) -> np.ndarray:
    """[M | c] [s; 1] = M s + c for maps (..., 3, 4) and states (..., 3); M s for
    pump-free maps (..., 3, 3), which have no c."""
    out = (maps[..., :3] @ s[..., None])[..., 0]
    if maps.shape[-1] == 4:
        out += maps[..., 3]
    return out


def _prefix_states(r0, maps) -> np.ndarray:
    """s_0 = r0 and s_j+1 = M_j s_j + c_j for maps[..., j, :, :] = [M_j | c_j], or M_j
    alone if 3 wide, over any leading axes, by a work-efficient scan (Blelloch 1990):
    compose the maps in pairs, [M | c] o [M' | c'] = [M M' | M c' + c], take every second
    state from the pairs' states, and step once to the states between. s_j takes the same
    arithmetic on the maps before j alone, however many maps follow them."""
    s = np.empty(maps.shape[:-3] + (maps.shape[-3] + 1, 3))
    s[..., 0, :] = r0
    if maps.shape[-3] > 1:
        first, second = maps[..., :-1:2, :, :], maps[..., 1::2, :, :]
        pairs = second[..., :3] @ first
        if maps.shape[-1] == 4:
            pairs[..., 3] += second[..., 3]
        s[..., ::2, :] = _prefix_states(r0, pairs)
    s[..., 1::2, :] = _mapped(maps[..., ::2, :, :], s[..., :-1:2, :])
    return s


def _bloch_controller(fields, decay, t0, t1, r0, rtol, atol, max_step, stats):
    """DP5 on every step of one step plan for all pictures at once: the plan's accepted
    steps, each picture's start states along a leading picture axis and their
    dense-output coefficients, (t, h, states (P, n + 1, 3), h K^T P (4, P, n, 3)).

    Picture p has the field ``fields[p]``, the start state ``r0[p]`` and the counters
    ``stats[p]``; all share the window, the decay, the tolerances, ``max_step`` and the
    plan, which starts as the equal partition at the sequential controller's first step.
    A pass reads each picture's field once, at the six nodes of each new step, builds
    the stage maps of all new steps of all pictures, composes every picture's step maps by
    one scan over a leading picture axis, and rates every step. Every map is 3 x 4, [M | c],
    with a pump in ``decay`` and 3 x 3 without one. A step's ratio is the largest of the
    pictures' ratios, NaN if any is NaN: a step is rejected when any picture rejects it,
    and splits into equal parts, as many as the sequential rule shrinks it by at that
    ratio; the run is done when no step is rejected. A step that cannot split fails the run
    only as the plan's first rejected step, as later ones start from states that will
    still change: so the run fails at its earliest stuck step, with the failure of the
    first picture whose error is not finite there, or else with a step-size underflow.
    Every picture gets the plan's counters and its own largest accepted ratio.
    """
    span, h0 = t1 - t0, min(max_step, (t1 - t0) / _FIRST_STEPS)
    if h0 < _step_floor(t0):
        raise _failure(_UNDERFLOW, t0)
    if span / h0 > _MAX_STEPS:  # before the plan is allocated
        raise _failure(_BUDGET, t0)
    (g_t, g_1, pump), gen = decay, _CROSS.copy()
    gen[3, [0, 1, 2, 2], [0, 1, 2, 3]] = -g_t, -g_t, -g_1, pump
    width = 4 if pump else 3  # a pump-free run's maps have no constant column
    gen, one = np.ascontiguousarray(gen[..., :width]), _ONE[:, :width]
    pictures, n = len(fields), math.ceil(span / h0)
    edges = np.linspace(t0, t1, n + 1)  # where the plan's steps start and end
    new = np.arange(n)  # the steps whose maps are not built yet
    attempted, rejected = n, 0
    step, err = (np.empty((pictures, n, 3, width)) for _ in range(2))  # each step's maps
    dense = np.empty((4, pictures, n, 3, width))  # its (c1 .. c4) maps h K^T P
    while True:
        t, h = edges[:-1], np.diff(edges)
        b = np.ones((pictures, 6 * new.size, 4))  # (b, 1) at the six nodes t + c h of each new step
        nodes = (t[new, None] + _C[:6] * h[new, None]).ravel()
        for p, field in enumerate(fields):
            b[p, :, 0], b[p, :, 1], b[p, :, 2] = field(nodes)
        # the new steps of all pictures, picture-major, and where each one's maps go
        b, hs = b.reshape(-1, 6, 4), np.tile(h[new], pictures)
        pic, at = np.repeat(np.arange(pictures), new.size), np.tile(new, pictures)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, hs.size, _CHUNK):
                here = slice(lo, lo + _CHUNK)
                k = _stage_maps(b[here], hs[here], gen)
                maps = (_W @ k.reshape(7, -1)).reshape(6, -1, 3, width)  # step, error; c1 .. c4
                maps[0] += one
                step[pic[here], at[here]], err[pic[here], at[here]] = maps[0], maps[1]
                dense[:, pic[here], at[here]] = maps[2:]
            s, ratios = _rated(r0, step, err, rtol, atol)
            ratio = ratios.max(axis=0)
        bad = ~(ratio <= 1.0)  # also NaN
        if not bad.any():
            break
        with np.errstate(over="ignore", invalid="ignore"):
            # as many equal parts as the sequential rule shrinks the step by, 2 to 5
            parts = np.ceil(1.0 / np.maximum(_SAFETY * ratio[bad] ** -0.2, _MIN_FACTOR))
            stuck = ~np.isfinite(ratio[bad]) | (h[bad] / parts < _step_floor(t[bad]))
        count = np.ones(n, dtype=int)
        count[bad] = np.where(stuck, 1, parts)
        split = count > 1
        attempted += int(count[split].sum())
        if stuck[0]:
            first = np.argmax(bad)
            p = np.argmax(~np.isfinite(ratios[:, first]))  # picture 0 if every one is finite
            raise _stuck(fields[p], t[first], h[first], ratios[p, first])
        if attempted > _MAX_STEPS:
            raise _failure(_BUDGET, t[np.argmax(split)])
        rejected += int(split.sum())
        # each part starts a whole number of part sizes into its step
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        edges = np.append(np.repeat(t, count) + np.repeat(h / count, count) * offset, t1)
        source = np.repeat(np.arange(n), count)  # the step that each new step is or came from
        step, err = np.take(step, source, axis=1), np.take(err, source, axis=1)
        dense = np.take(dense, source, axis=2)
        new, n = np.flatnonzero(np.repeat(split, count)), source.size
    for p, counters in enumerate(stats):
        counters.accepted, counters.rejected, counters.rhs_evals = n, rejected, 1 + 6 * attempted
        counters.max_error_ratio = float(ratios[p].max())
    return t, h, s, _mapped(dense, s[:, :-1])


def _stuck(field, t, h, ratio) -> IntegrationError:
    """The failure of the step (t, h) that cannot split: step-size underflow at its start
    if its error is finite, else a non-finite error at its first node where the field is
    not finite, or at its start."""
    if np.isfinite(ratio):
        return _failure(_UNDERFLOW, t)
    nodes = t + _C[:6] * h
    ok = np.isfinite(np.broadcast_arrays(nodes, *field(nodes))[1:]).all(axis=0)
    return _failure(_NON_FINITE, np.append(nodes[~ok], t)[0])


def _rated(r0, step, err, rtol: float, atol: float):
    """The states s (..., n + 1, 3) that the ``step`` maps (..., n, 3, 3 or 4) give from r0,
    and each step's RMS local error in tolerance units, from its ``err`` map."""
    s = _prefix_states(r0, step)
    e = _mapped(err, s[..., :-1, :])
    scale = atol + rtol * np.maximum(np.abs(s[..., :-1, :]), np.abs(s[..., 1:, :]))
    return s, np.sqrt(np.add.reduce((e / scale) ** 2, axis=-1) / 3)


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
    out = np.empty((teval.size, y0.size))
    out[:lo], out[hi:] = y0, y_end
    out[lo:hi] = (ys.T[:, j] + theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))).T
    return out


def integrate_bloch(
    fields: Sequence[Callable[[np.ndarray], tuple]],
    decay: tuple[float, float, float],
    t_span: tuple[float, float],
    r0,
    t_eval,
    *,
    rtol: float = RTOL,
    atol: float = ATOL,
    max_step: float = np.inf,
) -> list[tuple[np.ndarray, IntegrationStats]]:
    """Integrate dr/dt = b(t) x r - (G, G, Gamma_1) r + (0, 0, pump) for one Bloch vector
    per field, every field on one shared step plan (see ``_bloch_controller``).

    The same tableau, error norm, tolerances, dense output, statistics and errors as
    ``integrate_adaptive`` with the equivalent right-hand side; a step is accepted when
    every field accepts it. Each of ``fields`` takes a 1-D float array of times and
    returns (bx, by, bz), each an array over the times or a float. It is called once per
    pass, with the six nodes t + c h of every new step, and again with those of a step
    whose error is not finite, which fails at the first node where b is not finite.
    ``decay`` is (G, Gamma_1, pump), and ``r0`` holds one real 3-vector per field, flat:
    field p starts from ``r0[3 p:3 p + 3]``. Returns each field's (r, stats); a failure
    is that of the plan's earliest failing step.
    """
    t0, t1, r, teval, rtol, atol, max_step = _checked(t_span, r0, t_eval, rtol, atol, max_step)
    if r.shape != (3 * len(fields),):
        raise ValidationError(f"integrate_bloch takes a 3-vector per field, not shape {r.shape}")
    r, stats = r.reshape(-1, 3), [IntegrationStats() for _ in fields]
    t, h, s, coef = _bloch_controller(fields, decay, t0, t1, r, rtol, atol, max_step, stats)
    return [(_dense_output(teval, t0, r[p], s[p, -1], t, h, s[p, :-1], coef[:, p]), stats[p])
            for p in range(len(fields))]
