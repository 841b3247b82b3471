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
    """Base class for every error raised by this package; ``t_first`` is the first
    offending time in ps, when known."""

    def __init__(self, message: str, t_first: float | None = None):
        super().__init__(message)
        self.t_first = t_first


class ValidationError(BlochPulseError):
    """An input violates a documented contract (shape, units, invariants)."""


class NumericalError(BlochPulseError):
    """A computation failed at run time for numerical reasons."""


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


def _ps(t: float) -> str:
    """A time in ps to 6 significant digits, or to the whole ps if it has more, at most 17."""
    return f"{t:.{min(max(6, len(f'{abs(t):.0f}')), 17)}g}"


def _raise_first(bad, t, error: type[BlochPulseError], what: str, why: str = "") -> None:
    """Raise ``error`` "{what} at t = ... ps{why}" at the first True of the mask ``bad``,
    whose times are ``t`` of its shape, with that time as ``t_first``; else return."""
    if bad.any():
        t_bad = float(t.flat[bad.argmax()])
        raise error(f"{what} at t = {_ps(t_bad)} ps{why}", t_first=t_bad)
