"""Independent references for the damped Bloch equations, kept apart from blochpulse.

The package evolves Bloch vectors with the closed-form damping constants of
``blochpulse.rates``. This module works on 2x2 density matrices instead:
  * the Pauli matrices, in the package's basis order (|e>, |g>);
  * ``dissipator_action``: the Lindblad dissipator of the dephasing and
    thermal channels;
  * ``generator_oracle``: the affine Bloch map read off that dissipator, to
    compare with the closed forms;
  * ``master_equation_reference``: d rho/dt = -i [H, rho] + D(rho) for any
    Hamiltonian, solved by scipy, to compare with the propagators.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from blochpulse.rates import Rates
from blochpulse.states import _finite, bloch_from_density

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
IDENTITY = np.eye(2, dtype=complex)

_PROJ_EE = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # sigma_+ sigma_-
_PROJ_GG = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # sigma_- sigma_+


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


@dataclass(frozen=True)
class GeneratorCoefficients:
    """Affine action of the decoherence generator on Bloch vectors.

    dr/dt = matrix @ r + offset for the undriven system. The named fields
    are the physically meaningful entries.
    """

    matrix: np.ndarray
    offset: np.ndarray
    transverse_decay: float
    inversion_decay: float
    inversion_pump: float
    equilibrium_inversion: float


def generator_oracle(rates: Rates) -> GeneratorCoefficients:
    """Extract damping constants directly from the decoherence generator.

    Applies the generator to the maximally mixed state and to the three
    states (I + sigma_k) / 2, reads off Bloch vectors of the results, and
    reconstructs the affine map dr/dt = M r + b. Independent of the closed
    forms in ``rates``; use it to cross-check them.
    """
    basis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    offset = bloch_from_density(dissipator_action(0.5 * IDENTITY, rates))
    matrix = np.empty((3, 3))
    for j, sig in enumerate(basis):
        col = bloch_from_density(dissipator_action(0.5 * (IDENTITY + sig), rates))
        matrix[:, j] = col - offset
    decay_w = -matrix[2, 2]
    return GeneratorCoefficients(
        matrix=matrix,
        offset=offset,
        transverse_decay=-0.5 * (matrix[0, 0] + matrix[1, 1]),
        inversion_decay=decay_w,
        inversion_pump=float(offset[2]),
        equilibrium_inversion=float(offset[2] / decay_w) if decay_w != 0.0 else np.nan,
    )


def master_equation_reference(hamiltonian, rates, rho0, t):
    """Bloch vectors from d rho/dt = -i [H, rho] + D(rho), solved by DOP853."""
    def rhs(tt, y):
        rho = y.reshape(2, 2)
        h = hamiltonian(tt)
        return (-1j * (h @ rho - rho @ h) + dissipator_action(rho, rates)).ravel()

    sol = solve_ivp(rhs, (t[0], t[-1]), rho0.ravel().astype(complex), method="DOP853",
                    t_eval=t, rtol=1e-12, atol=1e-14)
    assert sol.success
    return np.array([bloch_from_density(y.reshape(2, 2)) for y in sol.y.T])
