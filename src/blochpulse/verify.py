"""Verification: tracking error, rotating-wave deviation, generator oracle.

Three independent checks of a synthesized pulse:
  * tracking: how closely a simulated evolution follows the prescribed
    Bloch components, per component and overall;
  * rotating-wave deviation: the distance between the carrier-resolved
    evolution and its rotating-wave approximation, which must shrink as the
    drive amplitude is scaled down;
  * generator oracle: the damping constants extracted directly from the
    decoherence generator by applying it to basis states, to compare against
    the closed forms used by the synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimResult, dissipator_action, integrate_interaction
from .errors import ValidationError
from .rates import Rates
from .states import (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, _bloch_fidelity, _finite,
                     _onto_sphere, _scalar, bloch_from_density)
from .synthesis import ControlField

__all__ = [
    "TrackingReport",
    "tracking_error",
    "rwa_deviation",
    "GeneratorCoefficients",
    "generator_oracle",
]


@dataclass(frozen=True)
class TrackingReport:
    """Deviation of a simulated evolution from prescribed components."""

    picture: str
    sup_u: float
    sup_v: float
    sup_w: float
    rms_u: float
    rms_v: float
    rms_w: float
    t_worst: float
    fidelity_final: float

    @property
    def sup(self) -> float:
        """Largest per-component sup deviation."""
        return max(self.sup_u, self.sup_v, self.sup_w)

    def summary(self) -> str:
        digits = min(max(6, len(f"{abs(self.t_worst):.0f}")), 17)  # to whole ps, if need be
        return (
            f"[{self.picture}] sup |du| {self.sup_u:.3e}, |dv| {self.sup_v:.3e}, "
            f"|dw| {self.sup_w:.3e} (worst at t = {self.t_worst:.{digits}g} ps); "
            f"rms {self.rms_u:.3e} / {self.rms_v:.3e} / {self.rms_w:.3e}; "
            f"final-state fidelity {self.fidelity_final:.9f}"
        )


def tracking_error(result: SimResult, u, v, w) -> TrackingReport:
    """Compare a simulation against prescribed components on its own grid.

    Parameters
    ----------
    result : SimResult
        Simulated evolution.
    u, v, w : array_like
        Prescribed Bloch components on ``result.t``.

    Returns
    -------
    TrackingReport
        Per-component sup and RMS deviations, the time of the worst
        deviation, and the final-state fidelity against the prescribed
        endpoint.
    """
    u, v, w = (_finite(x, name, float, result.t.shape) for x, name in zip((u, v, w), "uvw"))
    bloch = result.bloch
    du, dv, dw = (np.abs(bloch[:, k] - x) for k, x in enumerate((u, v, w)))
    i_worst = int(np.argmax(np.maximum(du, np.maximum(dv, dw))))
    # sum / n is np.mean's own arithmetic, without its per-call overhead
    rms_u, rms_v, rms_w = (float(np.sqrt(np.add.reduce(d * d) / d.size)) for d in (du, dv, dw))
    return TrackingReport(
        picture=result.picture,
        sup_u=float(du.max()), sup_v=float(dv.max()), sup_w=float(dw.max()),
        rms_u=rms_u, rms_v=rms_v, rms_w=rms_w,
        t_worst=float(result.t[i_worst]),
        # unchecked: a loosely integrated run may end just outside the ball
        fidelity_final=_bloch_fidelity(bloch[-1], _onto_sphere(np.array([u[-1], v[-1], w[-1]]))),
    )


def rwa_deviation(field: ControlField, r0, grid, *, scale: float = 1.0) -> float:
    """Distance between the full and rotating-wave evolutions of a drive.

    The drive amplitude is multiplied by ``scale`` (the carrier phase is
    untouched), both the carrier-resolved and the rotating-wave evolutions
    are run from the Bloch vector ``r0``, and the largest trace distance over
    the grid is returned. For qubits the trace distance is exactly half the
    Euclidean distance between Bloch vectors. Weak drives make this small;
    strong drives do not.
    """
    scale = _scalar(scale, "scale")
    if scale <= 0.0:
        raise ValidationError("scale must be > 0")
    scaled = field.scaled(scale)
    full = integrate_interaction(scaled, r0, grid, rwa=False)
    rwa = integrate_interaction(scaled, r0, grid, rwa=True)
    return float(0.5 * np.max(np.linalg.norm(full.bloch - rwa.bloch, axis=1)))


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
