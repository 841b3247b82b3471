"""Forward simulation of a synthesized pulse in several pictures.

Pictures:
  * lab frame            -- full carrier-resolved drive Omega_R cos(phi),
                            closed system only.
  * interaction picture  -- frame co-rotating with the carrier; keeps the
                            counter-rotating term exactly (optionally drops
                            it, for rotating-wave comparisons).
  * master equation      -- open dynamics with dephasing and thermal
                            channels under the carrier-resolved field.
  * effective Bloch      -- the damped component equations, which are the
                            master equation under the design coupling (real
                            Omega, the form the synthesis inverts).

Every picture is one affine equation for the Bloch vector r = (u, v, w),
dr/dt = b(t) x r - (G, G, Gamma_1) r + (0, 0, -2 Gamma), with H = b . sigma / 2,
G and Gamma_1 the transverse and inversion decay rates and Gamma the thermal
rate; only the field b(t) differs. Every integrator takes the initial state as
a Bloch vector, and one propagator integrates it with the batched Bloch
controller of ``odeint`` and stores r; density matrices are derived from r on
demand. Every picture of one field shares its channel table and its
``fastest_scale``, which caps step sizes so carrier oscillations stay resolved.
A picture's field takes an array of times, once per pass of the controller: the
table's reader (``ControlField._reader``) evaluates the splines of the channels
the picture uses, bit-identically to scipy's ``CubicSpline``, and the picture
holds only its numpy formula for b(t) in those values. Times in ps, angular
frequencies in rad/ps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .odeint import ATOL, RTOL, SPAN_SLACK, IntegrationStats, integrate_bloch
from .rates import Rates, inversion_decay_rate, transverse_rate
from .states import (SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, _checked_bloch, _density, _finite,
                     _show, validate_grid)
from .synthesis import ControlField

__all__ = [
    "SimResult",
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

    ``bloch`` holds the Pauli expectation values (u, v, w), shape (n, 3), in
    whichever frame the picture evolves. The density matrices and populations
    are derived from it and never validated: a loose-tolerance run may graze
    the sphere.
    """

    picture: str
    t: np.ndarray
    bloch: np.ndarray
    stats: IntegrationStats | None = None

    @property
    def states(self) -> np.ndarray:
        """Density matrices, shape (n, 2, 2)."""
        return _density(self.bloch)

    @property
    def populations(self) -> np.ndarray:
        """Excited and ground populations, shape (n, 2)."""
        w = self.bloch[:, 2]
        return np.stack([0.5 * (1.0 + w), 0.5 * (1.0 - w)], axis=1)


# Fields b(t) with H = b . sigma / 2. Each takes the ControlField and returns
# field(times), (bx, by, bz) at the 1-D array ``times``, from the values of the
# channels it uses, which the field's table reader gives in table order.

def _reading(names, formula):
    """A picture's field: ``formula`` of the channels ``names`` of a ControlField."""
    def field_at(field):
        values = field._reader(names)
        return lambda times: formula(*values(times))
    return field_at


_lab_field = _reading(("phi", "omega_r", "omega0"),
                      lambda phi, omega_r, omega0: (2.0 * omega_r * np.cos(phi), 0.0, omega0))
_carrier_field = _reading(("delta", "phi", "omega_r"), lambda delta, phi, omega_r: (
    omega_r * (1.0 + np.cos(2.0 * phi)), -omega_r * np.sin(2.0 * phi), -delta))
_rwa_field = _reading(("delta", "omega_r"), lambda delta, omega_r: (omega_r, 0.0, -delta))
_design_field = _reading(("omega", "delta"), lambda omega, delta: (omega, 0.0, -delta))


def _propagate(picture: str, field: ControlField, field_at, rates: Rates,
               r0, grid, rtol: float, atol: float) -> SimResult:
    """Integrate dr/dt = b x r - (G, G, Gamma_1) r + (0, 0, -2 Gamma) on ``grid``.

    ``field_at(field)`` gives b(times) from the channel values of ``field``'s table reader;
    the Bloch controller reads it once per pass. ``r0`` is the Bloch vector at ``grid[0]``.
    """
    r0 = _checked_bloch(r0)  # the Bloch controller rejects any shape but (3,)
    t = validate_grid(grid)
    t0, t1 = field.t[0], field.t[-1]
    if t[0] < t0 - SPAN_SLACK or t[-1] > t1 + SPAN_SLACK:
        raise ValidationError(
            f"sample grid [{t[0]:g}, {t[-1]:g}] leaves the control window [{t0:g}, {t1:g}]")
    decay = transverse_rate(rates), inversion_decay_rate(rates), -2.0 * rates.thermal

    span, scale = t[-1] - t[0], field.fastest_scale
    max_step = min(PHASE_PER_STEP / scale, span / 8.0) if scale > 0.0 else span / 8.0
    bloch, stats = integrate_bloch(field_at(field), decay, (t[0], t[-1]), r0, t,
                                   rtol=rtol, atol=atol, max_step=max_step)
    return SimResult(picture=picture, t=t, bloch=bloch, stats=stats)


def dissipator_action(rho: np.ndarray, rates: Rates) -> np.ndarray:
    """Decoherence generator applied to a 2x2 density matrix.

    Pure dephasing at rate ``dephasing`` plus a thermal channel at rate
    ``thermal`` with mean occupation ``occupancy``: emission weight
    (occupancy + 1), absorption weight occupancy. The propagators use the
    closed-form constants in ``rates``; this is their independent reference.
    """
    rho = _finite(rho, "rho", complex, (2, 2))
    occ = rates.occupancy
    out = 0.5 * rates.dephasing * (SIGMA_Z @ rho @ SIGMA_Z - rho)
    if rates.thermal != 0.0:
        absorb = 2.0 * SIGMA_PLUS @ rho @ SIGMA_MINUS - _PROJ_GG @ rho - rho @ _PROJ_GG
        emit = 2.0 * SIGMA_MINUS @ rho @ SIGMA_PLUS - _PROJ_EE @ rho - rho @ _PROJ_EE
        out = out + rates.thermal * (occ * absorb + (occ + 1.0) * emit)
    return out


def integrate_lab(field: ControlField, r0, grid, *,
                  rtol: float = RTOL, atol: float = ATOL) -> SimResult:
    """Closed-system evolution under the physical lab-frame Hamiltonian.

    H(t) = (omega0 / 2) sigma_z + Omega_R(t) cos(phi(t)) sigma_x. The initial
    Bloch vector is taken as already expressed in the lab frame; use
    ``frame_transform`` to move a co-rotating state there first.
    """
    return _propagate("lab", field, _lab_field, Rates(), r0, grid, rtol, atol)


def integrate_interaction(field: ControlField, r0, grid, *, rtol: float = RTOL,
                          atol: float = ATOL, rwa: bool = False) -> SimResult:
    """Closed-system evolution in the carrier co-rotating frame.

    The coupling keeps its counter-rotating part exactly:
    Omega_c(t) = Omega_R (1 + exp(-2 i phi)). With ``rwa=True`` the
    oscillating term is dropped (Omega_c = Omega_R), which is the
    rotating-wave approximation of this drive. ``r0`` is the initial Bloch
    vector in the co-rotating frame.
    """
    if rwa:
        return _propagate("interaction-rwa", field, _rwa_field, Rates(), r0, grid, rtol, atol)
    return _propagate("interaction", field, _carrier_field, Rates(), r0, grid, rtol, atol)


def integrate_lindblad(field: ControlField, rates: Rates, r0, grid, *,
                       rtol: float = RTOL, atol: float = ATOL) -> SimResult:
    """Open-system evolution under the master equation with the carrier-resolved coupling.

    The coupling is Omega_R (1 + exp(-2 i phi)), as in ``integrate_interaction``,
    which this matches with rates off. ``r0`` is the initial Bloch vector
    (u, v, w) in the co-rotating frame. Under the design coupling the synthesis
    inverted, the master equation is the damped component equations, which
    ``integrate_bloch_effective`` integrates.
    """
    return _propagate("lindblad", field, _carrier_field, rates, r0, grid, rtol, atol)


def integrate_bloch_effective(field: ControlField, rates: Rates, r0, grid, *,
                              rtol: float = RTOL, atol: float = ATOL) -> SimResult:
    """Damped component equations driven by the synthesized (Omega, Delta).

        du = Delta v - G u
        dv = -Delta u - Omega w - G v
        dw = Omega v - 2 Gamma (1 + w + 2 n w)

    with G the transverse rate. This is the model the synthesis inverts, so
    tracking error here isolates numerical error alone.
    """
    return _propagate("effective-bloch", field, _design_field, rates, r0, grid, rtol, atol)


def frame_transform(states, phi, direction: str = "to_interaction") -> np.ndarray:
    """Map density matrices between the lab frame and the co-rotating frame.

    The frame is generated by U(phi) = exp(-i phi sigma_z / 2);
    "to_interaction" applies U^dag rho U, "to_lab" the inverse. ``phi`` is a
    scalar or one angle per state.
    """
    states = _finite(states, "states", complex)
    single = states.ndim == 2
    if single:
        states = states[None, :, :]
    if states.ndim != 3 or states.shape[1:] != (2, 2):
        raise ValidationError("states must have shape (2, 2) or (n, 2, 2)")
    phi_arr = _finite(phi, "phi", float)
    if phi_arr.shape not in ((), states.shape[:1]):
        raise ValidationError(f"phi must be a scalar or one angle per state, not {phi_arr.shape}")
    if direction == "to_interaction":
        phase = np.exp(1.0j * phi_arr)
    elif direction == "to_lab":
        phase = np.exp(-1.0j * phi_arr)
    else:
        raise ValidationError(
            f"direction must be 'to_interaction' or 'to_lab', got {_show(direction)}")
    out = states.copy()
    out[:, 0, 1] *= phase
    out[:, 1, 0] *= np.conj(phase)
    return out[0] if single else out
