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
Once per pass of the controller, the table's one reader (``ControlField._reader``)
evaluates all five channels at each picture's new step nodes, and a picture is only
its numpy formula for b(t) in those values. The propagator takes all pictures of
one field at once and the controller advances their step plans in lock-step passes,
padding the shorter plans with zero-length steps whose map is exactly [I | 0]; each
public integrator is a run of one picture, and every picture's result is the same
as alone. Times in ps, angular frequencies in rad/ps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .odeint import ATOL, RTOL, SPAN_SLACK, IntegrationStats, _integrate_pictures
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


# Fields b(t) with H = b . sigma / 2, each a formula of the five channels in table order.

def _lab_field(omega, delta, phi, omega_r, omega0):
    return 2.0 * omega_r * np.cos(phi), 0.0, omega0


def _carrier_field(omega, delta, phi, omega_r, omega0):
    return omega_r * (1.0 + np.cos(2.0 * phi)), -omega_r * np.sin(2.0 * phi), -delta


def _rwa_field(omega, delta, phi, omega_r, omega0):
    return omega_r, 0.0, -delta


def _design_field(omega, delta, phi, omega_r, omega0):
    return omega, 0.0, -delta


# each picture's field, by the picture's name
_FIELDS = {"lab": _lab_field, "interaction": _carrier_field, "interaction-rwa": _rwa_field,
           "lindblad": _carrier_field, "effective-bloch": _design_field}


def _propagate(field: ControlField, rates: Rates, starts: dict, grid,
               rtol: float, atol: float) -> dict[str, SimResult]:
    """Integrate dr/dt = b x r - (G, G, Gamma_1) r + (0, 0, -2 Gamma) on ``grid`` in each
    picture that ``starts`` names, from its Bloch vector at ``grid[0]``.

    One lock-step run of the Bloch controller advances every picture's step plan; once
    a pass, ``field``'s table reader gives each picture the channel values at its new
    nodes, and the picture's b is its formula in them. Each result, and each failure,
    is the same as the picture's alone; the first picture in ``starts`` that fails raises.
    """
    r0 = np.concatenate([_checked_bloch(r) for r in starts.values()])
    t = validate_grid(grid)
    t0, t1 = field.t[0], field.t[-1]
    if t[0] < t0 - SPAN_SLACK or t[-1] > t1 + SPAN_SLACK:
        raise ValidationError(
            f"sample grid [{t[0]:g}, {t[-1]:g}] leaves the control window [{t0:g}, {t1:g}]")
    decay = transverse_rate(rates), inversion_decay_rate(rates), -2.0 * rates.thermal

    span, scale = t[-1] - t[0], field.fastest_scale
    max_step = min(PHASE_PER_STEP / scale, span / 8.0) if scale > 0.0 else span / 8.0
    values = field._reader()
    fields = [lambda times, at=_FIELDS[name]: at(*values(times)) for name in starts]
    runs = _integrate_pictures(fields, decay, (t[0], t[-1]), r0, t,
                               rtol=rtol, atol=atol, max_step=max_step)
    return {name: SimResult(picture=name, t=t, bloch=bloch, stats=stats)
            for name, (bloch, stats) in zip(starts, runs)}


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
    return _propagate(field, Rates(), {"lab": r0}, grid, rtol, atol)["lab"]


def integrate_interaction(field: ControlField, r0, grid, *, rtol: float = RTOL,
                          atol: float = ATOL, rwa: bool = False) -> SimResult:
    """Closed-system evolution in the carrier co-rotating frame.

    The coupling keeps its counter-rotating part exactly:
    Omega_c(t) = Omega_R (1 + exp(-2 i phi)). With ``rwa=True`` the
    oscillating term is dropped (Omega_c = Omega_R), which is the
    rotating-wave approximation of this drive. ``r0`` is the initial Bloch
    vector in the co-rotating frame.
    """
    picture = "interaction-rwa" if rwa else "interaction"
    return _propagate(field, Rates(), {picture: r0}, grid, rtol, atol)[picture]


def integrate_lindblad(field: ControlField, rates: Rates, r0, grid, *,
                       rtol: float = RTOL, atol: float = ATOL) -> SimResult:
    """Open-system evolution under the master equation with the carrier-resolved coupling.

    The coupling is Omega_R (1 + exp(-2 i phi)), as in ``integrate_interaction``,
    which this matches with rates off. ``r0`` is the initial Bloch vector
    (u, v, w) in the co-rotating frame. Under the design coupling the synthesis
    inverted, the master equation is the damped component equations, which
    ``integrate_bloch_effective`` integrates.
    """
    return _propagate(field, rates, {"lindblad": r0}, grid, rtol, atol)["lindblad"]


def integrate_bloch_effective(field: ControlField, rates: Rates, r0, grid, *,
                              rtol: float = RTOL, atol: float = ATOL) -> SimResult:
    """Damped component equations driven by the synthesized (Omega, Delta).

        du = Delta v - G u
        dv = -Delta u - Omega w - G v
        dw = Omega v - 2 Gamma (1 + w + 2 n w)

    with G the transverse rate. This is the model the synthesis inverts, so
    tracking error here isolates numerical error alone.
    """
    return _propagate(field, rates, {"effective-bloch": r0}, grid, rtol, atol)["effective-bloch"]


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
