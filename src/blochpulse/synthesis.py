"""Pulse synthesis: from a prescribed trajectory to a physical drive.

Inverts the damped Bloch equations. With the transverse component v known,

    Omega(t) = [dw/dt + 2 Gamma (1 + w + 2 n w)] / v        coupling envelope
    Delta(t) = [G u + du/dt] / v                            detuning
    phi(t)   = integral of (omega0 + Delta)                 carrier phase
    Omega_R(t) = Omega / (1 + cos(2 phi))                   physical envelope

where G is the transverse decay rate. The lab-frame drive is then
Omega_R(t) cos(phi(t)). Both divisions need a floor: v stays above the
constant ``V_MIN`` and the carrier factor 1 + cos(2 phi) above ``DENOM_MIN``,
or synthesis fails loudly at the first offending time. ``synthesize_pulse``
runs the whole chain; the resulting ``ControlField`` also holds the drive's
one channel table and step scale, which every simulated picture of it
shares. Angular frequencies in rad/ps, times in ps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import CarrierSingularityError, SingularPrescriptionError, ValidationError
from .rates import Rates, transverse_rate
from .states import _numeric, validate_grid
from .trajectories import (
    V_MIN,
    TrajectorySpec,
    complete_v_closed,
    eval_components,
    solve_consistent_v_open,
)

__all__ = [
    "ControlField",
    "DENOM_MIN",
    "omega_delta_from_components",
    "phase_from_detuning",
    "rabi_from_phase",
    "synthesize_pulse",
]

# floor for the carrier factor 1 + cos(2 phi); below it the pulse is unrealizable
DENOM_MIN = 1e-3

# ControlField's channels, in the order of its channel table
_CHANNELS = ("omega", "delta", "phi", "omega_r", "omega0")


@dataclass(frozen=True)
class ControlField:
    """A synthesized drive, sampled on a time grid.

    ``channels``, one cubic-spline table over all five, and its coefficients as
    one flat buffer of floats (``_coefficients``, which the pictures read) are
    built at first use and ``fastest_scale`` computed once; so do not change a
    field's arrays in place after it is built.

    Attributes
    ----------
    t : ndarray
        Sample times (ps).
    omega : ndarray
        Effective coupling envelope Omega (rad/ps).
    delta : ndarray
        Detuning Delta (rad/ps).
    phi : ndarray
        Carrier phase (rad); dphi/dt = omega0 + delta.
    omega_r : ndarray
        Physical drive envelope Omega_R (rad/ps).
    omega0 : ndarray
        Transition angular frequency along the window (rad/ps).
    """

    t: np.ndarray
    omega: np.ndarray
    delta: np.ndarray
    phi: np.ndarray
    omega_r: np.ndarray
    omega0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", validate_grid(self.t))  # the checked float grid
        n = self.t.size
        for name in _CHANNELS:
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValidationError(f"ControlField.{name} must have shape ({n},)")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"ControlField.{name} contains non-finite values")

    @cached_property
    def channels(self) -> CubicSpline:
        """Exact-at-the-samples table of (omega, delta, phi, omega_r, omega0) along the
        last axis: ``channels(t, nu=0)`` reads them, or their nu-th derivatives, at t."""
        return CubicSpline(self.t, np.column_stack([getattr(self, name) for name in _CHANNELS]))

    @cached_property
    def _coefficients(self) -> tuple[list, bytes]:
        """The knots as a list of floats, and ``channels.c`` as one flat buffer of 20
        doubles per interval: (c0, c1, c2, c3) of each channel in table order."""
        return self.t.tolist(), self.channels.c.transpose(1, 2, 0).tobytes()

    @cached_property
    def fastest_scale(self) -> float:
        """Largest angular rate among the channels, for step capping (rad/ps)."""
        grids = np.linspace(self.t[0], self.t[-1], 4 * self.t.size)
        peaks = np.max(np.abs(self.channels(grids)), axis=0)
        peaks[2] = np.max(np.abs(self.channels(grids, 1)[:, 2]))  # the carrier rate dphi/dt
        return float(np.max(peaks))

    def rabi_peak_ratio(self) -> float:
        """max |Omega_R| over max |omega0|; gauges how far beyond weak driving."""
        peak0 = float(np.max(np.abs(self.omega0)))
        if peak0 == 0.0:
            return np.inf
        return float(np.max(np.abs(self.omega_r)) / peak0)

    def scaled(self, factor: float) -> "ControlField":
        """Same pulse with the drive amplitude multiplied by ``factor``."""
        return replace(self, omega=self.omega * factor, omega_r=self.omega_r * factor)


def omega_delta_from_components(u, w, du, dw, v, rates: Rates) -> tuple[np.ndarray, np.ndarray]:
    """Coupling envelope and detuning from trajectory components.

    All arguments are arrays on a common grid; ``v`` comes from one of the
    completion routines. Raises ``SingularPrescriptionError`` if v sits below
    ``V_MIN`` (defensive; completions enforce this too).
    """
    u, w, du, dw, v = map(_numeric, (u, w, du, dw, v), ("u", "w", "du", "dw", "v"))
    if np.any(v < V_MIN):
        raise SingularPrescriptionError(
            f"transverse component below {V_MIN:g}; pulse undefined")
    g_t = transverse_rate(rates)
    omega = (dw + 2.0 * rates.thermal * (1.0 + w + 2.0 * rates.occupancy * w)) / v
    delta = (g_t * u + du) / v
    return omega, delta


def phase_from_detuning(omega0, delta, grid, *, zero_time: float | None = None) -> np.ndarray:
    """Carrier phase phi(t) = integral of (omega0 + Delta) from the gauge point.

    The integrand is interpolated with a cubic spline and integrated exactly
    (4th-order accurate), so dphi/dt matches omega0 + Delta at the samples.

    Parameters
    ----------
    omega0 : float or array_like
        Transition angular frequency, scalar or per-sample (rad/ps); finite.
    delta : array_like
        Detuning on the grid (rad/ps); finite.
    grid : array_like
        Sample times (ps).
    zero_time : float, optional
        Gauge point where phi vanishes. Defaults to the first sample. Any
        choice yields the same trajectory; it shifts which drive realizes it.
    """
    t = validate_grid(grid)
    delta = _numeric(delta, "delta", float)
    omega0_arr = _per_sample_omega0(omega0, t)
    if delta.shape != t.shape:
        raise ValidationError("delta must match the grid shape")
    if not np.all(np.isfinite(delta)):
        raise ValidationError("delta contains non-finite values")
    try:
        t0 = t[0] if zero_time is None else float(zero_time)
    except (TypeError, ValueError):
        raise ValidationError(f"the gauge point must be a time, got {zero_time!r}") from None
    if not t[0] <= t0 <= t[-1]:  # also rejects NaN
        raise ValidationError(f"zero_time {t0:g} outside the window [{t[0]:g}, {t[-1]:g}]")
    anti = CubicSpline(t, omega0_arr + delta).antiderivative()
    return anti(t) - anti(t0)


def _per_sample_omega0(omega0, t: np.ndarray) -> np.ndarray:
    """omega0, a finite scalar or one finite value per sample, as a new array over ``t``."""
    try:
        omega0 = np.broadcast_to(np.asarray(omega0, dtype=float), t.shape).copy()
    except (TypeError, ValueError):
        raise ValidationError(
            f"omega0 must be a number or {t.size} numbers, one per sample") from None
    if not np.all(np.isfinite(omega0)):
        raise ValidationError("omega0 contains non-finite values")
    return omega0


def rabi_from_phase(omega, phi, times) -> np.ndarray:
    """Physical envelope Omega_R = Omega / (1 + cos(2 phi)) at the sample ``times`` (ps).

    Raises
    ------
    CarrierSingularityError
        If the carrier factor dips below ``DENOM_MIN``, or is not finite,
        anywhere: the envelope would diverge and the prescription is not
        realizable as written. Its ``t_first`` is the first such time.
    ValidationError
        If ``omega``, ``phi`` and ``times`` differ in shape.
    """
    omega, phi, times = (_numeric(x, name, float)
                         for x, name in zip((omega, phi, times), ("omega", "phi", "times")))
    if not omega.shape == phi.shape == times.shape:
        raise ValidationError(f"omega, phi and times must share one shape, got {omega.shape}, "
                              f"{phi.shape} and {times.shape}")
    with np.errstate(invalid="ignore"):  # cos of an infinite phase is NaN, flagged below
        denom = 1.0 + np.cos(2.0 * phi)
    low = ~(denom >= DENOM_MIN)
    if np.any(low):
        t_low = float(times.flat[np.argmax(low)])
        raise CarrierSingularityError(
            f"carrier factor 1 + cos(2 phi) below {DENOM_MIN:g} or not finite at "
            f"t = {t_low:.6g} ps; pulse envelope diverges (trajectory window too long "
            "for this transition frequency)", t_first=t_low)
    return omega / denom


def synthesize_pulse(
    spec: TrajectorySpec,
    rates: Rates,
    omega0,
    grid,
    *,
    phase_zero: float | str = "center",
) -> ControlField:
    """Reverse-engineer the drive that steers the system along ``spec``.

    Pipeline: evaluate the trajectory, complete v (purity closure for a
    closed system, consistency integration when rates are present), invert
    the Bloch equations for Omega and Delta, accumulate the carrier phase,
    and form the physical envelope. Fails at the first time v drops below
    ``V_MIN`` or the carrier factor below ``DENOM_MIN``.

    Parameters
    ----------
    spec : Transfer | Oscillatory | RabiDecay
        Prescribed trajectory.
    rates : Rates
        Decoherence channels; all zero means closed dynamics.
    omega0 : float or array_like
        Transition angular frequency (rad/ps), scalar or per-sample.
    grid : array_like
        Strictly increasing sample times (ps).
    phase_zero : "center" | "start" | float
        Gauge point for the carrier phase. "center" (default) zeroes phi at
        the window midpoint, which halves the phase excursion and doubles the
        realizable window compared to anchoring at the start.

    Returns
    -------
    ControlField
    """
    return _synthesize(spec, rates, omega0, grid, phase_zero=phase_zero)[2]


def _synthesize(spec, rates, omega0, grid, *, phase_zero="center"):
    """``synthesize_pulse``, also returning the trajectory samples and the v it
    completed: (samples, v, field)."""
    samples = eval_components(spec, grid)
    t = samples.t
    if rates.closed:
        v = complete_v_closed(samples)
    else:
        v = solve_consistent_v_open(samples, rates)
    omega, delta = omega_delta_from_components(
        samples.u, samples.w, samples.du, samples.dw, v, rates)
    named = {"center": 0.5 * (t[0] + t[-1]), "start": t[0]}
    zero_time = named.get(phase_zero, phase_zero) if isinstance(phase_zero, str) else phase_zero
    omega0 = _per_sample_omega0(omega0, t)
    phi = phase_from_detuning(omega0, delta, t, zero_time=zero_time)
    field = ControlField(t=t, omega=omega, delta=delta, phi=phi,
                         omega_r=rabi_from_phase(omega, phi, t), omega0=omega0)
    return samples, v, field
