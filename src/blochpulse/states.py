"""Two-level states: density matrices, Bloch vectors, and their metrics.

Conventions, used everywhere in this package:
  * Basis order is (|e>, |g>): index 0 is the excited state, so
    sigma_z |e> = +|e> and the excited population sits at rho[0, 0].
  * Bloch components are Pauli expectation values,
    u = <sigma_x>, v = <sigma_y>, w = <sigma_z>,  rho = (I + r . sigma) / 2.
  * Times are in ps, angular frequencies in rad/ps.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "IDENTITY",
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


def _numeric(x, name: str, dtype=None) -> np.ndarray:
    """``np.asarray(x, dtype)``; ValidationError naming ``name`` when ``x`` does not
    convert. Without a ``dtype``, ``x`` must hold real numbers and keeps its own dtype."""
    try:
        arr = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError):
        arr = None
    if arr is None or (dtype is None and arr.dtype.kind not in "biuf"):
        raise ValidationError(f"{name} must be numeric, got {x!r:.60}")
    return arr


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
    grid = _numeric(t, "time grid", float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("time grid must be 1-D with at least two samples")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("time grid contains non-finite values")
    if not np.all(np.diff(grid) > 0.0):
        raise ValidationError("time grid must be strictly increasing")
    return grid


def validate_density(rho) -> np.ndarray:
    """Check that ``rho`` is a physical 2x2 density matrix.

    Hermiticity within 1e-12, unit trace within 1e-10, and a Bloch vector no
    longer than 1 + 1e-9. Returns the matrix as complex128.
    """
    rho = _numeric(rho, "density matrix", complex)
    if rho.shape != (2, 2):
        raise ValidationError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValidationError("density matrix contains non-finite entries")
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
    r = _numeric(r, "Bloch vectors", float)
    if r.ndim == 0 or r.shape[-1] != 3:
        raise ValidationError(f"Bloch vectors must have shape (..., 3), got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValidationError("Bloch vector contains non-finite values")
    norm = float(np.max(np.linalg.norm(r, axis=-1), initial=0.0))
    if norm > 1.0 + BLOCH_NORM_SLACK:
        raise ValidationError(f"Bloch vector length {norm:.12f} exceeds 1")
    return r


def _onto_sphere(r: np.ndarray) -> np.ndarray:
    """A prescribed Bloch vector, scaled back onto the sphere when roundoff puts
    it just outside; returned unchanged otherwise."""
    norm = np.linalg.norm(r)
    return r / norm if norm > 1.0 else r


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
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def coherence(rho) -> float:
    """Magnitude of the off-diagonal element, |rho_eg| = sqrt(u^2 + v^2) / 2."""
    return float(abs(np.asarray(rho, dtype=complex)[0, 1]))


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity between two 2x2 density matrices.

    For qubits this reduces to the closed form
    F = Tr(rho sigma) + 2 sqrt(det rho det sigma), clipped to [0, 1].
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    cross = np.trace(rho @ sigma).real
    dets = np.linalg.det(rho).real * np.linalg.det(sigma).real
    f = cross + 2.0 * np.sqrt(max(dets, 0.0))
    return float(min(max(f, 0.0), 1.0))


def trace_distance(rho, sigma) -> float:
    """Trace distance (1/2) || rho - sigma ||_1 via eigenvalues of the difference."""
    diff = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
