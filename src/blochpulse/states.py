"""Two-level states: density matrices, Bloch vectors, and their metrics.

Conventions, used everywhere in this package:
  * Basis order is (|e>, |g>): index 0 is the excited state, so
    sigma_z |e> = +|e> and the excited population sits at rho[0, 0].
  * Bloch components are Pauli expectation values,
    u = <sigma_x>, v = <sigma_y>, w = <sigma_z>,  rho = (I + r . sigma) / 2.
  * Times are in ps, angular frequencies in rad/ps.
  * The metrics take any numeric 2x2 matrix, a state or not, and nothing else.
  * Every numeric input passes ``_numeric`` (any numbers), ``_finite`` (all finite) or
    ``_scalar`` (one finite real, as a float), whose ValidationError names the argument.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .errors import ValidationError

__all__ = [
    "validate_grid",
    "validate_density",
    "bloch_from_density",
    "density_from_bloch",
    "purity",
    "coherence",
    "fidelity",
    "trace_distance",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
IDENTITY = np.eye(2, dtype=complex)

# Bloch vectors may exceed unit length by roundoff only.
BLOCH_NORM_SLACK = 1e-9


def _numeric(x, name: str, dtype=None, shape=None) -> np.ndarray:
    """``np.asarray(x, dtype)``; ValidationError naming ``name`` unless ``x`` converts to
    numbers (no string, bytes, None, float overflow, or complex unless ``dtype`` is complex)
    of any given ``shape``. Without a ``dtype``, ``x`` must be real and keeps its dtype."""
    real = dtype is not complex
    try:
        # numpy parses strings as numbers, turns a None into NaN and drops an imaginary part,
        # so anything but a numeric array is also converted without a dtype to tell them apart
        kind = getattr(getattr(x, "dtype", None), "kind", "O")
        probe = x if kind in "biufc" else np.asarray(x)
        bad = (str, bytes, type(None), complex) if real else (str, bytes, type(None))
        ok = probe.dtype.kind in ("biuf" if real else "biufc") or (
            probe.dtype.kind == "O" and not any(isinstance(v, bad) for v in probe.flat))
        arr = np.asarray(x, dtype=dtype) if ok else None
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in "biufc":
        raise ValidationError(f"{name} must be numeric, got {_show(x)}")
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def _show(x) -> str:
    """``repr(x)`` cut to 60 characters; the type's name where repr fails (a huge int)."""
    try:
        return f"{x!r:.60}"
    except ValueError:
        return type(x).__name__


def _finite(x, name: str, dtype=None, shape=None) -> np.ndarray:
    """``_numeric``, and ValidationError naming ``name`` unless every value is finite."""
    arr = _numeric(x, name, dtype, shape)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    return arr


def _scalar(x, name: str) -> float:
    """One finite real number as a float; ValidationError naming ``name`` otherwise."""
    value = float(x) if isinstance(x, float) else float(_numeric(x, name, float, ()))
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite")
    return value


def _check_fields(spec):
    """Store every field of the frozen dataclass ``spec`` as one finite float."""
    for f in fields(spec):
        name = f"{type(spec).__name__}.{f.name}"
        object.__setattr__(spec, f.name, _scalar(getattr(spec, f.name), name))


def validate_grid(t) -> np.ndarray:
    """Check a sample-time grid and return it as a float array.

    Parameters
    ----------
    t : array_like
        Sample times in ps. Must be 1-D, finite, strictly increasing and
        hold at least two points.

    Returns
    -------
    numpy.ndarray
        The validated grid, dtype float64.
    """
    grid = _finite(t, "time grid", float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("time grid must be 1-D with at least two samples")
    if not (np.diff(grid) > 0.0).all():
        raise ValidationError("time grid must be strictly increasing")
    return grid


def validate_density(rho) -> np.ndarray:
    """Check that ``rho`` is a physical 2x2 density matrix.

    Hermiticity within 1e-12, unit trace within 1e-10, and a Bloch vector no
    longer than 1 + 1e-9. Returns the matrix as complex128.
    """
    rho = _finite(rho, "density matrix", complex, (2, 2))
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > 1e-12:
        raise ValidationError(f"density matrix not Hermitian: defect {herm:.3e}")
    tr = abs(rho[0, 0].real + rho[1, 1].real - 1.0)
    if tr > 1e-10:
        raise ValidationError(f"density matrix trace deviates from 1 by {tr:.3e}")
    _checked_bloch(bloch_from_density(rho))
    return rho


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vectors (u, v, w) of 2x2 density matrices, shape (..., 2, 2) -> (..., 3).

    u = 2 Re rho_eg, v = -2 Im rho_eg, w = rho_ee - rho_gg.
    """
    rho = _numeric(rho, "density matrices", complex)
    if rho.shape[-2:] != (2, 2):
        raise ValidationError(f"density matrices must have shape (..., 2, 2), got {rho.shape}")
    coh = rho[..., 0, 1]
    return np.stack([2.0 * coh.real, -2.0 * coh.imag, (rho[..., 0, 0] - rho[..., 1, 1]).real],
                    axis=-1)


def _checked_bloch(r) -> np.ndarray:
    """Bloch vectors along the last axis as floats; ValidationError unless each is
    finite and inside the unit ball up to roundoff."""
    r = _finite(r, "Bloch vectors", float)
    if r.ndim == 0 or r.shape[-1] != 3:
        raise ValidationError(f"Bloch vectors must have shape (..., 3), got {r.shape}")
    norm = float(np.max(np.sqrt(np.add.reduce(r * r, axis=-1)), initial=0.0))
    if norm > 1.0 + BLOCH_NORM_SLACK:
        raise ValidationError(f"Bloch vector length {norm:.12f} exceeds 1")
    return r


def _onto_sphere(r: np.ndarray) -> np.ndarray:
    """A prescribed Bloch vector, scaled back onto the sphere when roundoff puts
    it just outside; returned unchanged otherwise."""
    norm = np.sqrt(np.add.reduce(r * r, axis=-1))
    return r / norm if norm > 1.0 else r


def _bloch_fidelity(r: np.ndarray, s: np.ndarray) -> float:
    """``fidelity`` of the states with Bloch vectors ``r`` and ``s``, in closed form:
    F = (1 + r.s + sqrt(max((1 - |r|^2) (1 - |s|^2), 0))) / 2, clipped to [0, 1]."""
    (ru, rv, rw), (su, sv, sw) = r.tolist(), s.tolist()  # floats: a 3-vector is too short for numpy
    mixed = (1.0 - (ru * ru + rv * rv + rw * rw)) * (1.0 - (su * su + sv * sv + sw * sw))
    f = 0.5 * (1.0 + (ru * su + rv * sv + rw * sw) + math.sqrt(max(mixed, 0.0)))
    return min(max(f, 0.0), 1.0)


def density_from_bloch(r) -> np.ndarray:
    """Density matrices rho = (I + u sigma_x + v sigma_y + w sigma_z) / 2.

    ``r`` holds Bloch vectors along its last axis: shape (..., 3) -> (..., 2, 2).

    Raises
    ------
    ValidationError
        If a Bloch vector is not finite or leaves the unit ball by more than
        roundoff.
    """
    return _density(_checked_bloch(r))


def _density(r: np.ndarray) -> np.ndarray:
    """``density_from_bloch`` without the checks, for vectors already in hand."""
    u, v, w = r[..., 0], r[..., 1], r[..., 2]
    rho = np.empty(r.shape[:-1] + (2, 2), dtype=complex)
    rho[..., 0, 0] = 0.5 * (1.0 + w)
    rho[..., 1, 1] = 0.5 * (1.0 - w)
    rho[..., 0, 1] = 0.5 * (u - 1.0j * v)
    rho[..., 1, 0] = 0.5 * (u + 1.0j * v)
    return rho


def purity(rho) -> float:
    """Tr(rho^2) = (1 + |r|^2) / 2; equals 1 exactly on the sphere."""
    rho = _numeric(rho, "rho", complex, (2, 2))
    return float(np.trace(rho @ rho).real)


def coherence(rho) -> float:
    """Magnitude of the off-diagonal element, |rho_eg| = sqrt(u^2 + v^2) / 2."""
    return float(abs(_numeric(rho, "rho", complex, (2, 2))[0, 1]))


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity between two 2x2 density matrices.

    For qubits this reduces to the closed form
    F = Tr(rho sigma) + 2 sqrt(det rho det sigma), clipped to [0, 1].
    """
    rho, sigma = _numeric(rho, "rho", complex, (2, 2)), _numeric(sigma, "sigma", complex, (2, 2))
    cross = np.trace(rho @ sigma).real
    dets = np.linalg.det(rho).real * np.linalg.det(sigma).real
    f = cross + 2.0 * np.sqrt(max(dets, 0.0))
    return float(min(max(f, 0.0), 1.0))


def trace_distance(rho, sigma) -> float:
    """Trace distance (1/2) || rho - sigma ||_1 via eigenvalues of the difference."""
    diff = _numeric(rho, "rho", complex, (2, 2)) - _numeric(sigma, "sigma", complex, (2, 2))
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
