"""Environment coupling rates and their closed-form Bloch-damping constants.

Rates are in 1/ps. ``occupancy`` is the dimensionless mean excitation of the
thermal bath; zero gives a vacuum bath.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .states import _scalar

__all__ = [
    "Rates",
    "transverse_rate",
    "inversion_decay_rate",
    "equilibrium_inversion",
]


@dataclass(frozen=True)
class Rates:
    """Decoherence channels of the two-level system.

    Attributes
    ----------
    dephasing : float
        Pure-dephasing rate (1/ps). Shrinks u and v only.
    thermal : float
        Relaxation rate of the thermal channel (1/ps).
    occupancy : float
        Mean bath occupation number (dimensionless, >= 0).
    """

    dephasing: float = 0.0
    thermal: float = 0.0
    occupancy: float = 0.0

    def __post_init__(self):
        for name in ("dephasing", "thermal", "occupancy"):
            val = _scalar(getattr(self, name), f"rate '{name}'")
            if val < 0.0:
                raise ValidationError(f"rate '{name}' must be >= 0, got {val}")
            object.__setattr__(self, name, val)

    @property
    def closed(self) -> bool:
        """True when both channels are off and the dynamics is unitary."""
        return self.dephasing == 0.0 and self.thermal == 0.0


def transverse_rate(rates: Rates) -> float:
    """Decay rate of u and v: dephasing + thermal * (2 * occupancy + 1)."""
    return rates.dephasing + rates.thermal * (2.0 * rates.occupancy + 1.0)


def inversion_decay_rate(rates: Rates) -> float:
    """Decay rate of w: 2 * thermal * (2 * occupancy + 1)."""
    return 2.0 * rates.thermal * (2.0 * rates.occupancy + 1.0)


def equilibrium_inversion(rates: Rates) -> float:
    """Steady-state w of the undriven system, -1 / (2 * occupancy + 1)."""
    if rates.thermal == 0.0:
        raise ValidationError("equilibrium inversion undefined without a thermal channel")
    return -1.0 / (2.0 * rates.occupancy + 1.0)
