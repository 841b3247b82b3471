"""Prescribed Bloch trajectories: parametric families and v-completion.

Each family prescribes the transverse-x and inversion components u(t), w(t)
in closed form together with exact analytic time derivatives. The remaining
component v is never prescribed: it is completed from purity (closed system)
or integrated from a consistency equation (open system). Both completions
fail with a ``SingularPrescriptionError`` at the first time v falls below the
constant floor ``V_MIN``, since the drive divides by v. Times in ps,
frequencies in rad/ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import IntegrationError, SingularPrescriptionError, ValidationError
from .odeint import _MAX_STEPS
# integrate_adaptive is unused here but stays importable from this module: the
# benchmark tracer in perfbench/ wraps it by name.
from .odeint import integrate_adaptive  # noqa: F401
from .rates import Rates, transverse_rate
from .states import BLOCH_NORM_SLACK, validate_grid

__all__ = [
    "Transfer",
    "Oscillatory",
    "RabiDecay",
    "TrajectorySpec",
    "TrajectorySamples",
    "eval_components",
    "complete_v_closed",
    "solve_consistent_v_open",
    "V_MIN",
]

# transverse floor below which synthesis is declared singular
V_MIN = 1e-6

_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)  # 4-point Gauss-Legendre rule on [-1, 1]


def _check_finite(spec):
    for f in fields(spec):
        val = getattr(spec, f.name)
        if not np.isfinite(val):
            raise ValidationError(f"{type(spec).__name__}.{f.name} must be finite, got {val}")


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
        _check_finite(self)  # every field, the ripple of an Oscillatory too
        if abs(self.inversion_start) > 1.0 or abs(self.inversion_stop) > 1.0:
            raise ValidationError("inversion levels must lie in [-1, 1]")
        if self.switch_rate <= 0.0:
            raise ValidationError("switch_rate must be > 0")
        if self.peak_width <= 0.0:
            raise ValidationError("peak_width must be > 0")

    def components(self, t: np.ndarray):
        with np.errstate(over="ignore"):  # far tails: exp overflows to inf, and g = 0 exactly
            g = 1.0 / (1.0 + np.exp(-self.switch_rate * t))
        w = self.inversion_start * (1.0 - g) + self.inversion_stop * g
        dw = (self.inversion_stop - self.inversion_start) * self.switch_rate * g * (1.0 - g)
        x = (t - self.peak_time) / self.peak_width
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

    def components(self, t: np.ndarray):
        u, w, du, dw = super().components(t)
        w = w + self.ripple_amplitude * np.cos(self.ripple_frequency * t)
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
        _check_finite(self)
        if abs(self.inversion_amplitude) > 1.0 or abs(self.coherence_amplitude) > 1.0:
            raise ValidationError("amplitudes must lie in [-1, 1]")
        if self.decay_curvature < 0.0:
            raise ValidationError("decay_curvature must be >= 0")

    def components(self, t: np.ndarray):
        phase = self.inversion_frequency * t + self.chirp_rate * t**2
        env = self.inversion_amplitude * np.exp(-self.decay_curvature * t**2)
        w = env * np.cos(phase)
        dw = env * (-2.0 * self.decay_curvature * t * np.cos(phase)
                    - (self.inversion_frequency + 2.0 * self.chirp_rate * t) * np.sin(phase))
        u = self.coherence_amplitude * np.sin(self.coherence_frequency * t)
        du = self.coherence_amplitude * self.coherence_frequency * np.cos(self.coherence_frequency * t)
        return u, w, du, dw


TrajectorySpec = Union[Transfer, Oscillatory, RabiDecay]


@dataclass(frozen=True)
class TrajectorySamples:
    """Trajectory components and their derivatives on a time grid."""

    t: np.ndarray
    u: np.ndarray
    w: np.ndarray
    du: np.ndarray
    dw: np.ndarray


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
    return TrajectorySamples(t=t, u=u, w=w, du=du, dw=dw)


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
    bad = s < -BLOCH_NORM_SLACK
    if np.any(bad):
        t_bad = samples.t[np.argmax(bad)]
        raise ValidationError(
            f"prescription leaves the Bloch sphere (u^2 + w^2 > 1) at t = {t_bad:.6g} ps"
        )
    return _root_above_floor(s, samples.t, "transverse component")


def solve_consistent_v_open(
    samples: TrajectorySamples,
    rates: Rates,
    *,
    v0: float | None = None,
) -> np.ndarray:
    """Transverse-y component consistent with the damped Bloch dynamics.

    With u and w prescribed, the damped dynamics fixes s = v^2 through

        ds/dt = -2 G s - 2 [ (du + G u) u + (dw + 2 Gamma (1 + w + 2 n w)) w ]

    where G is the transverse rate, from s(t0) = v0^2. The equation is linear
    with constant G, so s follows the exact recurrence over each sample interval

        s_{k+1} = exp(-2 G h_k) s_k + int_{t_k}^{t_{k+1}} exp(-2 G (t_{k+1} - tau)) q(tau) dtau

    with q the second term, read from one cubic spline through (u, w, du, dw).
    Each interval splits into ceil(8 G max h) equal panels, so 2 G h <= 1/4 on
    each, of 4-point Gauss-Legendre quadrature. Past the integrator's step
    budget of panels, it raises ``IntegrationError`` at the first sample. ``v0``
    lies in [0, 1] and defaults to the closed-sphere completion at the first
    sample. With both rates zero this reproduces ``complete_v_closed`` since
    the right side reduces to d(1 - u^2 - w^2)/dt.

    Returns the positive root v(t) on the sample grid.
    """
    if v0 is None:
        s0 = 1.0 - samples.u[0] ** 2 - samples.w[0] ** 2
        if s0 < -BLOCH_NORM_SLACK:
            raise ValidationError("initial point leaves the Bloch sphere")
        s0 = max(s0, 0.0)
    else:
        if not 0.0 <= v0 <= 1.0:  # also rejects NaN and infinities
            raise ValidationError(f"v0 must lie in [0, 1], got {v0}")
        s0 = float(v0) ** 2
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
            f"at t = {t[0]:.6g} ps", t_first=float(t[0]))
    nodes = ((np.arange(panels)[:, None] + 0.5 * (1.0 + _GL_X)) / panels).ravel()  # in units of h
    table = CubicSpline(t, np.column_stack([samples.u, samples.w, samples.du, samples.dw]))
    u, w, du, dw = table((t[:-1, None] + h[:, None] * nodes).ravel()).T
    gam_th, occ = rates.thermal, rates.occupancy
    q = -2.0 * ((du + g_t * u) * u + (dw + 2.0 * gam_th * (1.0 + w + 2.0 * occ * w)) * w)
    weights = np.exp(-2.0 * g_t * h[:, None] * (1.0 - nodes)) * np.tile(_GL_W, panels)
    forced = 0.5 / panels * h * np.sum(weights * q.reshape(h.size, -1), axis=1)
    s = [s0]
    for a, b in zip(np.exp(-2.0 * g_t * h).tolist(), forced.tolist()):
        s.append(a * s[-1] + b)
    return np.array(s)


def _root_above_floor(s: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """v = sqrt(s), negative s read as 0; SingularPrescriptionError at the first
    time ``t`` where v is below ``V_MIN``."""
    v = np.sqrt(np.clip(s, 0.0, None))
    low = v < V_MIN
    if np.any(low):
        t_low = float(t[np.argmax(low)])
        raise SingularPrescriptionError(
            f"{what} below {V_MIN:g} at t = {t_low:.6g} ps; the pulse is singular there",
            t_first=t_low)
    return v
