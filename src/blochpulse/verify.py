"""Verification: tracking error and rotating-wave deviation.

Two independent checks of a synthesized pulse:
  * tracking: how closely a simulated evolution follows the prescribed
    Bloch components, per component and overall;
  * rotating-wave deviation: the distance between the carrier-resolved
    evolution and its rotating-wave approximation, which must shrink as the
    drive amplitude is scaled down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimResult, _propagate
from .errors import ValidationError, _ps
from .odeint import ATOL, RTOL
from .rates import Rates
from .states import _bloch_fidelity, _finite, _onto_sphere, _scalar
from .synthesis import ControlField

__all__ = [
    "TrackingReport",
    "tracking_error",
    "rwa_deviation",
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
        return (
            f"[{self.picture}] sup |du| {self.sup_u:.3e}, |dv| {self.sup_v:.3e}, "
            f"|dw| {self.sup_w:.3e} (worst at t = {_ps(self.t_worst)} ps); "
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
    return _tracking(result.picture, result.t, result.bloch, u, v, w)


def _tracking(picture: str, t, bloch, u, v, w) -> TrackingReport:
    """``tracking_error``'s report, of finite float u, v and w on the grid ``t``, unchecked."""
    du, dv, dw = (np.abs(bloch[:, k] - x) for k, x in enumerate((u, v, w)))
    i_worst = int(np.argmax(np.maximum(du, np.maximum(dv, dw))))
    # sum / n is np.mean's own arithmetic, without its per-call overhead
    rms_u, rms_v, rms_w = (float(np.sqrt(np.add.reduce(d * d) / d.size)) for d in (du, dv, dw))
    return TrackingReport(
        picture=picture,
        sup_u=float(du.max()), sup_v=float(dv.max()), sup_w=float(dw.max()),
        rms_u=rms_u, rms_v=rms_v, rms_w=rms_w,
        t_worst=float(t[i_worst]),
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
    runs = _propagate(field.scaled(scale), Rates(), {"interaction": r0, "interaction-rwa": r0},
                      grid, RTOL, ATOL)
    full, rwa = runs["interaction"].bloch, runs["interaction-rwa"].bloch
    return float(0.5 * np.max(np.linalg.norm(full - rwa, axis=1)))
