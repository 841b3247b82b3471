"""Forward simulation of a synthesized pulse in several pictures.

Pictures:
  * lab frame            -- full carrier-resolved drive Omega_R cos(phi),
                            closed system only.
  * interaction picture  -- frame co-rotating with the carrier; keeps the
                            counter-rotating term exactly (optionally drops
                            it, for rotating-wave comparisons).
  * master equation      -- open dynamics with dephasing and thermal
                            channels, under either the design coupling
                            (real Omega, the form the synthesis inverts) or
                            the carrier-resolved field.
  * effective Bloch      -- the damped component equations themselves.

Every picture is one affine equation for the Bloch vector r = (u, v, w),
dr/dt = b(t) x r - (G, G, Gamma_1) r + (0, 0, -2 Gamma), with H = b . sigma / 2,
G and Gamma_1 the transverse and inversion decay rates and Gamma the thermal
rate; only the field b(t) differs. One propagator integrates it and forms the
density matrices from r. Control channels are interpolated with node-exact
cubic splines. Step sizes are capped by the fastest carrier scale so
oscillations stay resolved. Times in ps, angular frequencies in rad/ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ValidationError
from .odeint import IntegrationStats, integrate_adaptive
from .rates import Rates, inversion_decay_rate, transverse_rate
from .states import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    bloch_from_density,
    validate_density,
)
from .synthesis import ControlField

__all__ = [
    "SimResult",
    "ControlInterpolant",
    "dissipator_action",
    "integrate_lab",
    "integrate_interaction",
    "integrate_lindblad",
    "integrate_bloch_effective",
    "frame_transform",
]

# accepted phase advance per step at the fastest carrier scale, rad
PHASE_PER_STEP = 0.1

_PROJ_EE = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # sigma_+ sigma_-
_PROJ_GG = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # sigma_- sigma_+


@dataclass
class SimResult:
    """One simulated evolution on a sample grid.

    ``states`` holds density matrices of shape (n, 2, 2) in whichever frame
    the picture evolves; ``bloch`` exposes the Pauli expectation values.
    """

    picture: str
    t: np.ndarray
    states: np.ndarray
    stats: IntegrationStats | None = None

    @property
    def bloch(self) -> np.ndarray:
        """Bloch components, shape (n, 3) with columns (u, v, w)."""
        out = np.empty((self.states.shape[0], 3))
        out[:, 0] = 2.0 * self.states[:, 0, 1].real
        out[:, 1] = -2.0 * self.states[:, 0, 1].imag
        out[:, 2] = (self.states[:, 0, 0] - self.states[:, 1, 1]).real
        return out

    @property
    def populations(self) -> np.ndarray:
        """Excited and ground populations, shape (n, 2)."""
        return np.stack([self.states[:, 0, 0].real, self.states[:, 1, 1].real], axis=1)


class ControlInterpolant:
    """Cubic-spline views of a ControlField's channels, exact at the nodes."""

    def __init__(self, field: ControlField):
        t = field.t
        self.t0 = float(t[0])
        self.t1 = float(t[-1])
        self.omega = CubicSpline(t, field.omega)
        self.delta = CubicSpline(t, field.delta)
        self.phi = CubicSpline(t, field.phi)
        self.omega_r = CubicSpline(t, field.omega_r)
        self.omega0 = CubicSpline(t, field.omega0)

    def fastest_scale(self) -> float:
        """Largest angular rate among the channels, for step capping."""
        grids = np.linspace(self.t0, self.t1, 4 * len(self.phi.x))
        rates = [
            np.max(np.abs(self.omega0(grids))),
            np.max(np.abs(self.phi(grids, 1))),
            np.max(np.abs(self.omega(grids))),
            np.max(np.abs(self.delta(grids))),
            np.max(np.abs(self.omega_r(grids))),
        ]
        return float(max(rates))


def _prepare_grid(grid) -> tuple[np.ndarray, bool]:
    t = np.atleast_1d(np.asarray(grid, dtype=float))
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("sample grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)):
        raise ValidationError("sample grid contains non-finite values")
    if np.any(np.diff(t) < 0.0):
        raise ValidationError("sample grid must be non-decreasing")
    zero_span = t[-1] - t[0] == 0.0
    if not zero_span and np.any(np.diff(t) == 0.0):
        raise ValidationError("sample grid must be strictly increasing")
    return t, zero_span


# Fields b(t) with H = b . sigma / 2, as plain floats: the right-hand side
# runs thousands of times per picture and numpy scalars would dominate it.

def _lab_field(ctrl: ControlInterpolant, t: float) -> tuple[float, float, float]:
    drive = 2.0 * float(ctrl.omega_r(t)) * math.cos(float(ctrl.phi(t)))
    return drive, 0.0, float(ctrl.omega0(t))


def _carrier_field(ctrl: ControlInterpolant, t: float) -> tuple[float, float, float]:
    om_r, two_phi = float(ctrl.omega_r(t)), 2.0 * float(ctrl.phi(t))
    return om_r * (1.0 + math.cos(two_phi)), -om_r * math.sin(two_phi), -float(ctrl.delta(t))


def _rwa_field(ctrl: ControlInterpolant, t: float) -> tuple[float, float, float]:
    return float(ctrl.omega_r(t)), 0.0, -float(ctrl.delta(t))


def _design_field(ctrl: ControlInterpolant, t: float) -> tuple[float, float, float]:
    return float(ctrl.omega(t)), 0.0, -float(ctrl.delta(t))


def _propagate(picture: str, field: ControlField, field_at, rates: Rates,
               r0: np.ndarray, grid, rtol: float, atol: float) -> SimResult:
    """Integrate dr/dt = b x r - (G, G, Gamma_1) r + (0, 0, -2 Gamma) on ``grid``.

    ``field_at(ctrl, t)`` gives b(t); density matrices are formed from r.
    """
    ctrl = ControlInterpolant(field)
    t, zero_span = _prepare_grid(grid)
    if t[0] < ctrl.t0 - 1e-12 or t[-1] > ctrl.t1 + 1e-12:
        raise ValidationError(
            f"sample grid [{t[0]:g}, {t[-1]:g}] leaves the control window "
            f"[{ctrl.t0:g}, {ctrl.t1:g}]")
    g_t, g_1, pump = transverse_rate(rates), inversion_decay_rate(rates), -2.0 * rates.thermal

    def rhs(tt, r):
        u, v, w = r
        bx, by, bz = field_at(ctrl, tt)
        return np.array([
            by * w - bz * v - g_t * u,
            bz * u - bx * w - g_t * v,
            bx * v - by * u - g_1 * w + pump,
        ])

    if zero_span:
        bloch, stats = np.broadcast_to(r0, (t.size, 3)), None
    else:
        span, scale = t[-1] - t[0], ctrl.fastest_scale()
        max_step = min(PHASE_PER_STEP / scale, span / 8.0) if scale > 0.0 else span / 8.0
        bloch, stats = integrate_adaptive(rhs, (t[0], t[-1]), r0, t, rtol=rtol, atol=atol,
                                          max_step=max_step)
    states = np.empty((t.size, 2, 2), dtype=complex)
    states[:, 0, 0] = 0.5 * (1.0 + bloch[:, 2])
    states[:, 1, 1] = 0.5 * (1.0 - bloch[:, 2])
    states[:, 0, 1] = 0.5 * (bloch[:, 0] - 1.0j * bloch[:, 1])
    states[:, 1, 0] = np.conj(states[:, 0, 1])
    return SimResult(picture=picture, t=t, states=states, stats=stats)


def dissipator_action(rho: np.ndarray, rates: Rates) -> np.ndarray:
    """Decoherence generator applied to a 2x2 density matrix.

    Pure dephasing at rate ``dephasing`` plus a thermal channel at rate
    ``thermal`` with mean occupation ``occupancy``: emission weight
    (occupancy + 1), absorption weight occupancy. The propagators use the
    closed-form constants in ``rates``; this is their independent reference.
    """
    occ = rates.occupancy
    out = 0.5 * rates.dephasing * (SIGMA_Z @ rho @ SIGMA_Z - rho)
    if rates.thermal != 0.0:
        absorb = 2.0 * SIGMA_PLUS @ rho @ SIGMA_MINUS - _PROJ_GG @ rho - rho @ _PROJ_GG
        emit = 2.0 * SIGMA_MINUS @ rho @ SIGMA_PLUS - _PROJ_EE @ rho - rho @ _PROJ_EE
        out = out + rates.thermal * (occ * absorb + (occ + 1.0) * emit)
    return out


def integrate_lab(field: ControlField, rho0, grid, *,
                  rtol: float = 1e-10, atol: float = 1e-12) -> SimResult:
    """Closed-system evolution under the physical lab-frame Hamiltonian.

    H(t) = (omega0 / 2) sigma_z + Omega_R(t) cos(phi(t)) sigma_x. The initial
    state is taken as already expressed in the lab frame; use
    ``frame_transform`` to move a co-rotating state there first.
    """
    r0 = bloch_from_density(validate_density(rho0))
    return _propagate("lab", field, _lab_field, Rates(), r0, grid, rtol, atol)


def integrate_interaction(field: ControlField, rho0, grid, *,
                          rtol: float = 1e-10, atol: float = 1e-12,
                          rwa: bool = False) -> SimResult:
    """Closed-system evolution in the carrier co-rotating frame.

    The coupling keeps its counter-rotating part exactly:
    Omega_c(t) = Omega_R (1 + exp(-2 i phi)). With ``rwa=True`` the
    oscillating term is dropped (Omega_c = Omega_R), which is the
    rotating-wave approximation of this drive.
    """
    r0 = bloch_from_density(validate_density(rho0))
    if rwa:
        return _propagate("interaction-rwa", field, _rwa_field, Rates(), r0, grid, rtol, atol)
    return _propagate("interaction", field, _carrier_field, Rates(), r0, grid, rtol, atol)


def integrate_lindblad(field: ControlField, rates: Rates, rho0, grid, *,
                       rtol: float = 1e-10, atol: float = 1e-12,
                       hamiltonian: str = "design") -> SimResult:
    """Open-system evolution under the master equation.

    Parameters
    ----------
    hamiltonian : "design" | "field"
        "design" (default) uses the real coupling the synthesis inverted,
        H = (1/2) [[-Delta, Omega], [Omega, Delta]]; the master equation then
        reduces exactly to the damped component equations, so a synthesized
        pulse tracks its prescription. "field" rebuilds the carrier-resolved
        coupling Omega_R (1 + exp(-2 i phi)); with rates off it matches
        ``integrate_interaction``, and its deviation from "design" measures
        the counter-rotating residual.
    """
    if hamiltonian not in ("design", "field"):
        raise ValidationError(f"hamiltonian must be 'design' or 'field', got {hamiltonian!r}")
    r0 = bloch_from_density(validate_density(rho0))
    field_at = _design_field if hamiltonian == "design" else _carrier_field
    return _propagate("lindblad", field, field_at, rates, r0, grid, rtol, atol)


def integrate_bloch_effective(field: ControlField, rates: Rates, r0, grid, *,
                              rtol: float = 1e-10, atol: float = 1e-12) -> SimResult:
    """Damped component equations driven by the synthesized (Omega, Delta).

        du = Delta v - G u
        dv = -Delta u - Omega w - G v
        dw = Omega v - 2 Gamma (1 + w + 2 n w)

    with G the transverse rate. This is the model the synthesis inverts, so
    tracking error here isolates numerical error alone.
    """
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != (3,):
        raise ValidationError(f"initial Bloch vector must have shape (3,), got {r0.shape}")
    if np.linalg.norm(r0) > 1.0 + 1e-9:
        raise ValidationError("initial Bloch vector leaves the unit ball")
    return _propagate("effective-bloch", field, _design_field, rates, r0, grid, rtol, atol)


def frame_transform(states, phi, direction: str = "to_interaction") -> np.ndarray:
    """Map density matrices between the lab frame and the co-rotating frame.

    The frame is generated by U(phi) = exp(-i phi sigma_z / 2);
    "to_interaction" applies U^dag rho U, "to_lab" the inverse. ``phi`` is a
    scalar or one angle per state.
    """
    states = np.asarray(states, dtype=complex)
    single = states.ndim == 2
    if single:
        states = states[None, :, :]
    if states.ndim != 3 or states.shape[1:] != (2, 2):
        raise ValidationError("states must have shape (2, 2) or (n, 2, 2)")
    phi_arr = np.broadcast_to(np.asarray(phi, dtype=float), (states.shape[0],))
    if direction == "to_interaction":
        phase = np.exp(1.0j * phi_arr)
    elif direction == "to_lab":
        phase = np.exp(-1.0j * phi_arr)
    else:
        raise ValidationError(f"direction must be 'to_interaction' or 'to_lab', got {direction!r}")
    out = states.copy()
    out[:, 0, 1] *= phase
    out[:, 1, 0] *= np.conj(phase)
    return out[0] if single else out
