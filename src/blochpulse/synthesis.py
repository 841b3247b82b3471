"""Pulse synthesis: from a prescribed trajectory to a physical drive.

Inverts the damped Bloch equations. With the transverse component v known,

    Omega(t) = [dw/dt + 2 Gamma (1 + w + 2 n w)] / v        coupling envelope
    Delta(t) = [G u + du/dt] / v                            detuning
    phi(t)   = integral of (omega0 + Delta)                 carrier phase
    Omega_R(t) = Omega / (1 + cos(2 phi))                   physical envelope

where G is the transverse decay rate. The lab-frame drive is then
Omega_R(t) cos(phi(t)). The carrier factor 1 + cos(2 phi) must stay away
from zero for the pulse to be realizable; synthesis fails loudly when it
does not. Angular frequencies in rad/ps, times in ps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import CarrierSingularityError, SingularPrescriptionError, ValidationError
from .rates import Rates, transverse_rate
from .states import validate_grid
from .trajectories import (
    V_MIN,
    TrajectorySamples,
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
    "pulse_from_components",
    "rabi_from_phase",
    "synthesize_pulse",
]

# floor for the carrier factor 1 + cos(2 phi); below it the pulse is unrealizable
DENOM_MIN = 1e-3


@dataclass(frozen=True)
class ControlField:
    """A synthesized drive, sampled on a time grid.

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
        n = self.t.size
        for name in ("omega", "delta", "phi", "omega_r", "omega0"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValidationError(f"ControlField.{name} must have shape ({n},)")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"ControlField.{name} contains non-finite values")

    def rabi_peak_ratio(self) -> float:
        """max |Omega_R| over max |omega0|; gauges how far beyond weak driving."""
        peak0 = float(np.max(np.abs(self.omega0)))
        if peak0 == 0.0:
            return np.inf
        return float(np.max(np.abs(self.omega_r)) / peak0)

    def scaled(self, factor: float) -> "ControlField":
        """Same pulse with the drive amplitude multiplied by ``factor``."""
        return replace(self, omega=self.omega * factor, omega_r=self.omega_r * factor)


def omega_delta_from_components(
    u, w, du, dw, v, rates: Rates, v_min: float = V_MIN
) -> tuple[np.ndarray, np.ndarray]:
    """Coupling envelope and detuning from trajectory components.

    All arguments are arrays on a common grid; ``v`` comes from one of the
    completion routines. Raises ``SingularPrescriptionError`` if v sits below
    ``v_min`` (defensive; completions enforce this too).
    """
    u, w, du, dw, v = map(np.asarray, (u, w, du, dw, v))
    if np.any(v < v_min):
        raise SingularPrescriptionError(
            f"transverse component below {v_min:g}; pulse undefined")
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
        Transition angular frequency, scalar or per-sample (rad/ps).
    delta : array_like
        Detuning on the grid (rad/ps).
    grid : array_like
        Sample times (ps).
    zero_time : float, optional
        Gauge point where phi vanishes. Defaults to the first sample. Any
        choice yields the same trajectory; it shifts which drive realizes it.
    """
    t = validate_grid(grid)
    delta = np.asarray(delta, dtype=float)
    omega0_arr = np.broadcast_to(np.asarray(omega0, dtype=float), t.shape)
    if delta.shape != t.shape:
        raise ValidationError("delta must match the grid shape")
    t0 = t[0] if zero_time is None else float(zero_time)
    if t0 < t[0] or t0 > t[-1]:
        raise ValidationError(f"zero_time {t0:g} outside the window [{t[0]:g}, {t[-1]:g}]")
    anti = CubicSpline(t, omega0_arr + delta).antiderivative()
    return anti(t) - anti(t0)


def rabi_from_phase(omega, phi, times=None, *, denom_min: float = DENOM_MIN) -> np.ndarray:
    """Physical envelope Omega_R = Omega / (1 + cos(2 phi)).

    Raises
    ------
    CarrierSingularityError
        If the carrier factor dips below ``denom_min`` anywhere: the envelope
        would diverge and the prescription is not realizable as written.
    """
    omega = np.asarray(omega, dtype=float)
    phi = np.asarray(phi, dtype=float)
    denom = 1.0 + np.cos(2.0 * phi)
    low = denom < denom_min
    if np.any(low):
        idx = int(np.argmax(low))
        t_low = float(np.asarray(times)[idx]) if times is not None else None
        where = f"t = {t_low:.6g} ps" if t_low is not None else f"sample {idx}"
        raise CarrierSingularityError(
            f"carrier factor 1 + cos(2 phi) below {denom_min:g} at {where}; "
            "pulse envelope diverges (trajectory window too long for this "
            "transition frequency)", t_first=t_low,
        )
    return omega / denom


def pulse_from_components(
    samples: TrajectorySamples,
    v,
    rates: Rates,
    omega0,
    *,
    v_min: float = V_MIN,
    denom_min: float = DENOM_MIN,
    phase_zero: float | str = "center",
) -> ControlField:
    """Drive realizing trajectory samples whose transverse component ``v`` is known.

    Inverts the Bloch equations for Omega and Delta, accumulates the carrier
    phase, and forms the physical envelope. ``samples`` and ``v`` share the
    grid ``samples.t``; the keywords are those of ``synthesize_pulse``.
    """
    t = samples.t
    omega, delta = omega_delta_from_components(
        samples.u, samples.w, samples.du, samples.dw, v, rates, v_min=v_min)
    if phase_zero == "center":
        zero_time = 0.5 * (t[0] + t[-1])
    elif phase_zero == "start":
        zero_time = t[0]
    else:
        zero_time = float(phase_zero)
    omega0_arr = np.broadcast_to(np.asarray(omega0, dtype=float), t.shape).copy()
    if not np.all(np.isfinite(omega0_arr)):
        raise ValidationError("omega0 contains non-finite values")
    phi = phase_from_detuning(omega0_arr, delta, t, zero_time=zero_time)
    omega_r = rabi_from_phase(omega, phi, times=t, denom_min=denom_min)
    return ControlField(t=t, omega=omega, delta=delta, phi=phi,
                        omega_r=omega_r, omega0=omega0_arr)


def synthesize_pulse(
    spec: TrajectorySpec,
    rates: Rates,
    omega0,
    grid,
    *,
    v0: float | None = None,
    v_min: float = V_MIN,
    denom_min: float = DENOM_MIN,
    phase_zero: float | str = "center",
) -> ControlField:
    """Reverse-engineer the drive that steers the system along ``spec``.

    Pipeline: evaluate the trajectory, complete v (purity closure for a
    closed system, consistency integration when rates are present), then
    ``pulse_from_components``: invert the Bloch equations for Omega and
    Delta, accumulate the carrier phase, and form the physical envelope.

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
    v0 : float, optional
        Initial transverse value for the open-system completion.
    phase_zero : "center" | "start" | float
        Gauge point for the carrier phase. "center" (default) zeroes phi at
        the window midpoint, which halves the phase excursion and doubles the
        realizable window compared to anchoring at the start.

    Returns
    -------
    ControlField
    """
    t = validate_grid(grid)
    samples = eval_components(spec, t)
    if rates.closed:
        v = complete_v_closed(samples, v_min=v_min)
    else:
        v = solve_consistent_v_open(samples, rates, v0=v0, v_min=v_min)
    return pulse_from_components(samples, v, rates, omega0, v_min=v_min,
                                 denom_min=denom_min, phase_zero=phase_zero)
