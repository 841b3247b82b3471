"""Prescribed Bloch trajectories: parametric families and v-completion.

Each family prescribes the transverse-x and inversion components u(t), w(t)
in closed form together with exact analytic time derivatives (``components``),
and w alone (``inversion``). The remaining component v is never prescribed: it
is completed from purity (closed system) or from the decay of |r|^2, which only
w forces (open system). Both completions fail with a ``SingularPrescriptionError``
at the first time v falls below the constant floor ``V_MIN``, since the drive
divides by v, and with a ``NumericalError`` where v is not finite. Times in ps,
frequencies in rad/ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (IntegrationError, NumericalError, SingularPrescriptionError,
                     ValidationError, _ps, _raise_first)
# integrate_adaptive is unused here but stays importable from this module: the
# benchmark tracer in perfbench/ wraps it by name.
from .odeint import _MAX_STEPS, integrate_adaptive  # noqa: F401
from .rates import Rates, inversion_decay_rate, transverse_rate
from .states import BLOCH_NORM_SLACK, _check_fields, _scalar, validate_grid

__all__ = [
    "Transfer",
    "Oscillatory",
    "RabiDecay",
    "TrajectorySamples",
    "eval_components",
    "complete_v_closed",
    "solve_consistent_v_open",
]

# transverse floor below which synthesis is declared singular
V_MIN = 1e-6

_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)  # 4-point Gauss-Legendre rule on [-1, 1]
_CHUNK_NODES = 1 << 16  # quadrature nodes the open v-completion evaluates at once
_OFF_SPHERE = "prescription leaves the Bloch sphere (u^2 + w^2 > 1)"  # both completions' error


@dataclass(frozen=True)
class Transfer:
    """Sigmoid population transfer with a Gaussian coherence bump.

    w(t) = a_i (1 - g) + a_f g with g = 1 / (1 + exp(-switch_rate * t)),
    u(t) = coherence_peak * exp(-(t - peak_time)^2 / (2 peak_width^2)).

    Attributes
    ----------
    inversion_start, inversion_stop : float
        Asymptotic inversion levels a_i, a_f, each in [-1, 1].
    switch_rate : float
        Sigmoid steepness (1/ps), > 0.
    coherence_peak : float
        Peak u amplitude (dimensionless).
    peak_width : float
        Gaussian width (ps), > 0.
    peak_time : float
        Center of the Gaussian (ps).
    """

    inversion_start: float
    inversion_stop: float
    switch_rate: float
    coherence_peak: float
    peak_width: float
    peak_time: float = 0.0

    def __post_init__(self):
        _check_fields(self)  # every field, the ripple of an Oscillatory too
        if abs(self.inversion_start) > 1.0 or abs(self.inversion_stop) > 1.0:
            raise ValidationError("inversion levels must lie in [-1, 1]")
        if self.switch_rate <= 0.0:
            raise ValidationError("switch_rate must be > 0")
        if self.peak_width <= 0.0:
            raise ValidationError("peak_width must be > 0")

    def inversion(self, t: np.ndarray) -> np.ndarray:
        """w(t) alone, bit for bit as ``components`` computes it."""
        return self._inversion(t)[0]

    def _inversion(self, t):
        """(w, g): the inversion and its sigmoid."""
        with np.errstate(over="ignore"):  # far tails: exp overflows to inf, and g = 0 exactly
            g = 1.0 / (1.0 + np.exp(-self.switch_rate * t))
        return self.inversion_start * (1.0 - g) + self.inversion_stop * g, g

    def components(self, t: np.ndarray):
        w, g = self._inversion(t)
        dw = (self.inversion_stop - self.inversion_start) * self.switch_rate * g * (1.0 - g)
        x = (t - self.peak_time) / self.peak_width
        with np.errstate(over="ignore"):  # far tails: x**2 overflows to inf, and u = 0 exactly
            u = self.coherence_peak * np.exp(-0.5 * x**2)
        du = -u * x / self.peak_width
        return u, w, du, dw


@dataclass(frozen=True)
class Oscillatory(Transfer):
    """Transfer profile with a cosine ripple on the inversion.

    Adds ripple_amplitude * cos(ripple_frequency * t) to the Transfer w(t);
    both ripple fields are keyword-only.
    """

    ripple_amplitude: float = field(kw_only=True)
    ripple_frequency: float = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.ripple_frequency < 0.0:
            raise ValidationError("ripple_frequency must be >= 0")

    def _inversion(self, t):
        w, g = super()._inversion(t)
        return w + self.ripple_amplitude * np.cos(self.ripple_frequency * t), g

    def components(self, t: np.ndarray):
        u, w, du, dw = super().components(t)
        dw = dw - self.ripple_amplitude * self.ripple_frequency * np.sin(self.ripple_frequency * t)
        return u, w, du, dw


@dataclass(frozen=True)
class RabiDecay:
    """Chirped, Gaussian-damped inversion oscillation with sinusoidal coherence.

    w(t) = inversion_amplitude * exp(-decay_curvature t^2)
           * cos(inversion_frequency t + chirp_rate t^2),
    u(t) = coherence_amplitude * sin(coherence_frequency t).

    decay_curvature is in 1/ps^2, chirp_rate in rad/ps^2, the frequencies in
    rad/ps.
    """

    inversion_amplitude: float
    decay_curvature: float
    inversion_frequency: float
    chirp_rate: float
    coherence_amplitude: float
    coherence_frequency: float

    def __post_init__(self):
        _check_fields(self)
        if abs(self.inversion_amplitude) > 1.0 or abs(self.coherence_amplitude) > 1.0:
            raise ValidationError("amplitudes must lie in [-1, 1]")
        if self.decay_curvature < 0.0:
            raise ValidationError("decay_curvature must be >= 0")

    def inversion(self, t: np.ndarray) -> np.ndarray:
        """w(t) alone, bit for bit as ``components`` computes it."""
        return self._inversion(t)[0]

    def _inversion(self, t):
        """(w, envelope, phase, cos(phase))."""
        # far tails: t**2 overflows to inf, and the phase, so w and dw, to nan
        with np.errstate(over="ignore", invalid="ignore"):
            phase = self.inversion_frequency * t + self.chirp_rate * t**2
            env = self.inversion_amplitude * np.exp(-self.decay_curvature * t**2)
            cos = np.cos(phase)
            return env * cos, env, phase, cos

    def components(self, t: np.ndarray):
        w, env, phase, cos = self._inversion(t)
        with np.errstate(over="ignore", invalid="ignore"):
            dw = env * (-2.0 * self.decay_curvature * t * cos
                        - (self.inversion_frequency + 2.0 * self.chirp_rate * t) * np.sin(phase))
        u = self.coherence_amplitude * np.sin(self.coherence_frequency * t)
        du = self.coherence_amplitude * self.coherence_frequency * np.cos(self.coherence_frequency * t)
        return u, w, du, dw


TrajectorySpec = Union[Transfer, Oscillatory, RabiDecay]


@dataclass(frozen=True)
class TrajectorySamples:
    """Trajectory components and their derivatives on a time grid, and the
    ``spec`` they were evaluated from."""

    t: np.ndarray
    u: np.ndarray
    w: np.ndarray
    du: np.ndarray
    dw: np.ndarray
    spec: TrajectorySpec


def eval_components(spec: TrajectorySpec, grid) -> TrajectorySamples:
    """Evaluate a trajectory family on a grid with exact derivatives.

    Parameters
    ----------
    spec : Transfer | Oscillatory | RabiDecay
        Trajectory family instance.
    grid : array_like
        Strictly increasing sample times in ps.

    Returns
    -------
    TrajectorySamples
    """
    t = validate_grid(grid)
    if not isinstance(spec, (Transfer, RabiDecay)):
        raise ValidationError(f"unknown trajectory family: {type(spec).__name__}")
    u, w, du, dw = spec.components(t)
    return TrajectorySamples(t=t, u=u, w=w, du=du, dw=dw, spec=spec)


def complete_v_closed(samples: TrajectorySamples) -> np.ndarray:
    """Transverse-y component from purity, v = +sqrt(1 - u^2 - w^2).

    Raises
    ------
    ValidationError
        If the prescription leaves the Bloch sphere (u^2 + w^2 > 1).
    SingularPrescriptionError
        If v drops below ``V_MIN`` anywhere on the grid.
    """
    s = 1.0 - samples.u**2 - samples.w**2
    _raise_first(s < -BLOCH_NORM_SLACK, samples.t, ValidationError, _OFF_SPHERE)
    return _root_above_floor(s, samples.t, "transverse component")


def solve_consistent_v_open(
    samples: TrajectorySamples,
    rates: Rates,
    *,
    v0: float | None = None,
) -> np.ndarray:
    """Transverse-y component consistent with the damped Bloch dynamics.

    The drive only rotates the Bloch vector, so its squared length R = |r|^2 obeys

        dR/dt = -2 G R + q(w),    q(w) = ((2 G - 2 Gamma_1) w - 4 Gamma) w

    with G the transverse rate, Gamma_1 the inversion decay rate and Gamma the thermal
    rate: no drive and no u. From R(t0) = r0 = v0^2 + u^2 + w^2,

        R(t) = r0 exp(-2 G (t - t0)) + p(t),

    where p(t0) = 0 and p follows the exact recurrence over each sample interval

        p_{k+1} = exp(-2 G h_k) p_k + int_{t_k}^{t_{k+1}} exp(-2 G (t_{k+1} - tau)) q(w(tau)) dtau

    with w read from ``samples.spec.inversion`` at the quadrature nodes, and
    s = v^2 = R - u^2 - w^2 at the samples. Each interval splits into
    ceil(8 G max h) equal panels, so 2 G h <= 1/4 on each, of 4-point Gauss-Legendre
    quadrature; the nodes are evaluated a fixed-size chunk of intervals at a time, and the
    recurrence over all intervals is one LAPACK bidiagonal solve, which steps it exactly as
    a sequential loop would. Past the integrator's step budget of panels, it raises
    ``IntegrationError`` at the first sample; where w is not finite, ``NumericalError`` at
    the first sample after it.
    ``v0`` lies in [0, 1] and defaults to the closed-sphere completion at the first sample.
    With both rates zero p stays 0, and this is ``complete_v_closed`` up to the rounding of
    r0 = 1.

    Returns the positive root v(t) on the sample grid.
    """
    if v0 is None:
        s0 = 1.0 - samples.u[0] ** 2 - samples.w[0] ** 2
        _raise_first(s0 < -BLOCH_NORM_SLACK, samples.t[0], ValidationError, _OFF_SPHERE)
        s0 = max(s0, 0.0)
    else:
        v0 = _scalar(v0, "v0")
        if not 0.0 <= v0 <= 1.0:
            raise ValidationError(f"v0 must lie in [0, 1], got {v0}")
        s0 = v0 ** 2
    # s comes from a helper, so no quadrature array outlives it in this frame, which
    # a SingularPrescriptionError's traceback would keep alive
    return _root_above_floor(_consistent_s(samples, rates, s0), samples.t,
                             "consistent transverse component")


def _consistent_s(samples: TrajectorySamples, rates: Rates, s0: float) -> np.ndarray:
    """s = v^2 on the sample grid by the recurrence of ``solve_consistent_v_open``."""
    t = samples.t
    g_t = transverse_rate(rates)
    h = np.diff(t)
    rate_h = 8.0 * g_t * float(np.max(h))  # a Python float: inf, not a warning, on overflow
    panels = max(math.ceil(rate_h), 1) if rate_h <= _MAX_STEPS else _MAX_STEPS + 1
    if h.size * panels > _MAX_STEPS:
        raise IntegrationError(
            f"the v-completion's quadrature panels exceed the step budget (8 G h = {rate_h:.3g}) "
            f"at t = {_ps(t[0])} ps", t_first=float(t[0]))
    # node-major: one row per node (in units of h), the intervals along each row
    nodes = ((np.arange(panels)[:, None] + 0.5 * (1.0 + _GL_X)) / panels).reshape(-1, 1)
    node_w = np.tile(_GL_W, panels)[:, None]
    w_coef, w_const = 2.0 * g_t - 2.0 * inversion_decay_rate(rates), -4.0 * rates.thermal
    forced = np.empty(h.size)
    cols = max(_CHUNK_NODES // nodes.size, 1)  # intervals per chunk
    for k in range(0, h.size, cols):
        hk = h[k:k + cols]
        w = samples.spec.inversion((t[k:k + hk.size] + hk * nodes).ravel())
        terms = (np.exp(-2.0 * g_t * hk * (1.0 - nodes)) * node_w
                 * ((w_coef * w + w_const) * w).reshape(nodes.size, -1))
        # a fixed pairwise tree of node rows, an odd last row carried, adds every column alike
        # at any chunk width, so chunks cannot change s (numpy's sum pairs one column otherwise)
        while (n := terms.shape[0]) > 1:
            pairs = terms[0:n - 1:2] + terms[1::2]
            terms = np.concatenate((pairs, terms[-1:])) if n % 2 else pairs
        forced[k:k + cols] = terms[0]
    # |r|^2 = r0 exp(-2 G (t - t0)) + p, with p from 0 forced by w alone. p is nan from the
    # first forcing that is not finite on; solved with it, gtsv would carry the nan back.
    forced = forced * (0.5 / panels * h)
    bad = ~np.isfinite(forced)
    p = _affine_recurrence(0.0, np.exp(-2.0 * g_t * h), np.where(bad, 0.0, forced))
    if bad.any():
        p[1 + np.argmax(bad):] = np.nan
    r0 = s0 + samples.u[0] ** 2 + samples.w[0] ** 2
    return r0 * np.exp(-2.0 * g_t * (t - t[0])) + p - samples.u**2 - samples.w**2


def _affine_recurrence(s0: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """s_0 = s0 and s_{k+1} = a_k s_k + b_k, a_k in [0, 1], as one LAPACK ``gtsv`` solve of
    the unit lower-bidiagonal system (dl = -a, d = 1, du = 0) on fresh arrays. With |a_k| <= 1
    gtsv never pivots, and its forward elimination is the sequential loop, step for step."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv(-a, np.ones(a.size + 1), np.zeros(a.size), np.concatenate(([s0], b)),
                 True, True, True, True)[3]


def _root_above_floor(s: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """v = sqrt(s), negative s read as 0. At the first time ``t`` where v is below
    ``V_MIN`` or not finite: SingularPrescriptionError or NumericalError."""
    v = np.sqrt(np.clip(s, 0.0, None))
    bad = ~np.isfinite(v) | (v < V_MIN)
    if bad.any():
        if not np.isfinite(v[np.argmax(bad)]):
            _raise_first(bad, t, NumericalError, f"{what} is not finite")
        _raise_first(bad, t, SingularPrescriptionError, f"{what} below {V_MIN:g}",
                     "; the pulse is singular there")
    return v
