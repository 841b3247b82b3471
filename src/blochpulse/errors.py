"""Exception hierarchy.

Validation problems (malformed configs, out-of-contract inputs) and numerical
failures (singular prescriptions, carrier poles, integrator breakdown) are
kept distinct so the command line can map them to different exit codes.
"""

from __future__ import annotations

__all__ = [
    "BlochPulseError",
    "ValidationError",
    "NumericalError",
    "SingularPrescriptionError",
    "CarrierSingularityError",
    "IntegrationError",
]


class BlochPulseError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BlochPulseError):
    """An input violates a documented contract (shape, units, invariants)."""


class NumericalError(BlochPulseError):
    """A computation failed at run time for numerical reasons, first at time
    ``t_first`` (ps) when known."""

    def __init__(self, message: str, t_first: float | None = None):
        super().__init__(message)
        self.t_first = t_first


class SingularPrescriptionError(NumericalError):
    """The prescribed trajectory pinches the transverse component to zero.

    Synthesis divides by v; when v drops below its floor the pulse is not
    defined and the prescription must be changed.
    """


class CarrierSingularityError(NumericalError):
    """The carrier factor 1 + cos(2 phi) vanished somewhere in the window.

    The physical pulse envelope diverges there, so the prescription is not
    realizable with this transition frequency and window.
    """


class IntegrationError(NumericalError):
    """The adaptive integrator could not meet its tolerance contract."""
