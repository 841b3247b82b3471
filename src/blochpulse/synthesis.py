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

from dataclasses import InitVar, dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import (CarrierSingularityError, NumericalError, SingularPrescriptionError,
                     ValidationError)
from .rates import Rates, transverse_rate
from .states import _finite, _numeric, _scalar, validate_grid
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

    Between the samples the drive is its channel table (``_coefficients``, read through
    ``_reader``): each channel's not-a-knot cubic spline, as scipy's ``CubicSpline``
    builds it. It is built at first use and ``fastest_scale`` computed once; so do not
    change a field's arrays in place. Channels may be any array_like of numbers.

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
    _grid_checked: InitVar[bool] = False  # synthesis passes the grid it has validated

    def __post_init__(self, _grid_checked):
        if not _grid_checked:
            object.__setattr__(self, "t", validate_grid(self.t))  # the checked float grid
        for name in _CHANNELS:
            object.__setattr__(self, name, _finite(getattr(self, name), f"ControlField.{name}",
                                                   float, self.t.shape))

    @cached_property
    def _coefficients(self) -> tuple[list, bytes]:
        """The knots as a list of floats, and one flat buffer of 20 doubles per interval:
        (c0, c1, c2, c3) of each channel in ``_CHANNELS`` order, c0 s^3 + c1 s^2 + c2 s + c3
        in s = t - t_i, the Hermite cubic of the ends' values and ``_spline_slopes``."""
        y = np.column_stack([getattr(self, name) for name in _CHANNELS])
        h, s = np.diff(self.t)[:, None], _spline_slopes(self.t, y)
        m = np.diff(y, axis=0) / h
        c = (s[:-1] + s[1:] - 2 * m) / h
        return self.t.tolist(), np.stack((c / h, (m - s[:-1]) / h - c, s[:-1], y[:-1]),
                                         axis=-1).tobytes()

    def _reader(self, names):
        """values(times): the two or three channels ``names``, a tuple in ``_CHANNELS``
        order, at the 1-D float array ``times``, as one row per channel. Each value is
        0.0 + c3 + c2 s + c1 s^2 + c0 s^3 with s^3 = s^2 s, s past the end knots for the end
        pieces, in that order: scipy's evaluation, the same float for float."""
        if names != tuple(n for n in _CHANNELS if n in names) or len(names) not in (2, 3):
            raise ValueError(f"read two or three of {_CHANNELS}, in that order, not {names}")
        table = np.frombuffer(self._coefficients[1]).reshape(-1, 5, 4)
        # (c0, c1, c2, c3), each one row per channel over the intervals
        coef = table[:, [_CHANNELS.index(n) for n in names]].transpose(2, 1, 0).copy()
        knots, inner = self.t, self.t[1:-1]  # a time past either end is in an end piece

        def values(times):
            i = np.searchsorted(inner, times, side="right")
            s = times - knots[i]
            s2 = s * s
            c0, c1, c2, c3 = coef  # np.take is faster than c[:, i]; gathered one at a time
            return (0.0 + np.take(c3, i, axis=1) + np.take(c2, i, axis=1) * s
                    + np.take(c1, i, axis=1) * s2 + np.take(c0, i, axis=1) * (s2 * s))
        return values

    @cached_property
    def fastest_scale(self) -> float:
        """Largest angular rate at the samples, for step capping (rad/ps): of |Omega|,
        |Delta|, |Omega_R|, |omega0| and the carrier rate dphi/dt = omega0 + Delta."""
        return float(np.max(np.abs([self.omega, self.delta, self.omega_r, self.omega0,
                                    self.omega0 + self.delta])))

    def rabi_peak_ratio(self) -> float:
        """max |Omega_R| over max |omega0|; gauges how far beyond weak driving."""
        peak0 = float(np.max(np.abs(self.omega0)))
        if peak0 == 0.0:
            return np.inf
        return float(np.max(np.abs(self.omega_r)) / peak0)

    def scaled(self, factor: float) -> "ControlField":
        """Same pulse with the drive amplitude multiplied by ``factor``."""
        factor = _scalar(factor, "factor")
        return replace(self, omega=self.omega * factor, omega_r=self.omega_r * factor)


def omega_delta_from_components(u, w, du, dw, v, rates: Rates) -> tuple[np.ndarray, np.ndarray]:
    """Coupling envelope and detuning from trajectory components.

    All arguments are arrays on a common grid; ``v`` comes from one of the
    completion routines. Raises ``SingularPrescriptionError`` if v sits below
    ``V_MIN`` (defensive; completions enforce this too).
    """
    u, w, du, dw, v = map(_finite, (u, w, du, dw, v), ("u", "w", "du", "dw", "v"))
    if len(shapes := {x.shape for x in (u, w, du, dw, v)}) != 1:
        raise ValidationError(f"u, w, du, dw and v must share one shape, got {sorted(shapes)}")
    return _omega_delta(u, w, du, dw, v, rates)


def _omega_delta(u, w, du, dw, v, rates: Rates) -> tuple[np.ndarray, np.ndarray]:
    """``omega_delta_from_components`` on finite arrays of one shape, as synthesis has."""
    if (v < V_MIN).any():
        raise SingularPrescriptionError(f"transverse component below {V_MIN:g}; pulse undefined")
    g_t = transverse_rate(rates)
    omega = (dw + 2.0 * rates.thermal * (1.0 + w + 2.0 * rates.occupancy * w)) / v
    delta = (g_t * u + du) / v
    return omega, delta


def phase_from_detuning(omega0, delta, grid, *, zero_time: float | None = None,
                        _grid_checked: bool = False) -> np.ndarray:
    """Carrier phase phi(t) = integral of (omega0 + Delta) from the gauge point.

    The integrand is interpolated with the not-a-knot cubic spline and integrated
    exactly (4th-order accurate), so dphi/dt matches omega0 + Delta at the samples.

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
    t = grid if _grid_checked else validate_grid(grid)  # synthesis has checked both already
    omega0 = omega0 if _grid_checked else _per_sample_omega0(omega0, t)
    delta = _finite(delta, "delta", float, t.shape)
    t0 = t[0] if zero_time is None else _scalar(zero_time, "zero_time")
    if not t[0] <= t0 <= t[-1]:
        raise ValidationError(f"zero_time {t0:g} outside the window [{t[0]:g}, {t[-1]:g}]")
    return _spline_integral(t, omega0 + delta, t0)


def _spline_integral(t: np.ndarray, y: np.ndarray, t0: float) -> np.ndarray:
    """Integral from ``t0`` to each knot of the not-a-knot cubic spline through (t, y).

    On each interval the spline is the cubic Hermite interpolant of its end values
    and ``_spline_slopes``, whose integral is h (y_i + y_i+1) / 2 + h^2 (s_i - s_i+1) / 12
    (de Boor 1978, ch. IV).
    """
    h, s = np.diff(t), _spline_slopes(t, y)
    anti = np.concatenate(([0.0], np.cumsum(0.5 * h * (y[:-1] + y[1:])
                                            + h * h / 12.0 * (s[:-1] - s[1:]))))
    # t0 lies a fraction x into interval j, where the cubic is y_j + a x + c x^2 + e x^3
    j = min(int(np.searchsorted(t, t0, side="right")) - 1, t.size - 2)
    x, a, dy, da = (t0 - t[j]) / h[j], h[j] * s[j], y[j + 1] - y[j], h[j] * (s[j + 1] - s[j])
    c, e = 3.0 * dy - 3.0 * a - da, a + a + da - 2.0 * dy
    return anti - anti[j] - h[j] * x * (y[j] + x * (a / 2.0 + x * (c / 3.0 + x * e / 4.0)))


def _spline_slopes(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through (t, y), y of shape (n,) or (n, k):
    scipy's ``CubicSpline`` system, solved by the LAPACK ``gtsv`` call it makes, with its
    cases for two points (a line) and three (a parabola)."""
    h = np.diff(t)
    hr = h.reshape((-1,) + (1,) * (y.ndim - 1))
    m = np.diff(y, axis=0) / hr  # secant slopes
    dl, d, du = np.append(h[1:], 0.0), np.zeros(t.size), np.append(0.0, h[:-1])  # diagonals
    b = np.empty(y.shape, order="F")  # the right side, in LAPACK's column order
    d[1:-1], b[1:-1] = 2.0 * (h[:-1] + h[1:]), 3.0 * (hr[1:] * m[:-1] + hr[:-1] * m[1:])
    if t.size == 2:
        d[:], b[:] = 1.0, m[0]
    elif t.size == 3:
        d[0] = d[2] = du[0] = dl[1] = 1.0
        b[0], b[2] = 2.0 * m
    else:  # the third derivative is continuous across the second and the last-but-one knot
        d0, d1 = t[2] - t[0], t[-1] - t[-3]
        d[0], du[0], d[-1], dl[-1] = h[1], d0, h[-2], d1
        b[0] = ((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0
        b[-1] = (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1
    *_, s, info = dgtsv(dl, d, du, b, True, True, True, True)
    if info:  # a zero pivot at knot info - 1; impossible on a strictly increasing grid
        raise NumericalError(f"singular spline slopes (gtsv info {info})", t_first=t[info - 1])
    return s


def _per_sample_omega0(omega0, t: np.ndarray) -> np.ndarray:
    """omega0, a finite scalar or one finite value per sample, as a new array over ``t``."""
    omega0 = _finite(omega0, "omega0", float)
    if omega0.ndim > 1 or omega0.size not in (1, t.size):
        raise ValidationError(f"omega0 must be a number or {t.size} numbers, one per sample")
    return np.broadcast_to(omega0, t.shape).copy()


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
    omega, phi, times = map(_numeric, (omega, phi, times), ("omega", "phi", "times"), [float] * 3)
    if not omega.shape == phi.shape == times.shape:
        raise ValidationError(f"omega, phi and times must share one shape, got {omega.shape}, "
                              f"{phi.shape} and {times.shape}")
    with np.errstate(invalid="ignore"):  # cos of an infinite phase is NaN, flagged below
        denom = 1.0 + np.cos(2.0 * phi)
    low = ~(denom >= DENOM_MIN)
    if low.any():
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
    omega, delta = _omega_delta(samples.u, samples.w, samples.du, samples.dw, v, rates)
    named = {"center": 0.5 * (t[0] + t[-1]), "start": t[0]}
    zero_time = named[phase_zero] if isinstance(phase_zero, str) and phase_zero in named \
        else _scalar(phase_zero, "phase_zero")
    omega0 = _per_sample_omega0(omega0, t)
    phi = phase_from_detuning(omega0, delta, t, zero_time=zero_time, _grid_checked=True)
    field = ControlField(t, omega, delta, phi, rabi_from_phase(omega, phi, t), omega0,
                         _grid_checked=True)
    return samples, v, field
