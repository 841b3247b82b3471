"""State-space primitives: conversions, metrics, validation.

Oracle notes: round-trip identities are exact algebra; the frozen numbers
below (purity, coherence, fidelity extremes) follow from the closed forms
purity = (1 + |r|^2) / 2, coherence = sqrt(u^2 + v^2) / 2, and for pure
states F = |<a|b>|^2, D = sqrt(1 - F).
"""

import numpy as np
import pytest

from blochpulse import (
    ValidationError,
    bloch_from_density,
    coherence,
    density_from_bloch,
    fidelity,
    purity,
    trace_distance,
    validate_density,
    validate_grid,
)
from blochpulse.states import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z


def random_bloch(rng, nmax=1.0):
    r = rng.normal(size=3)
    return r / np.linalg.norm(r) * rng.uniform(0.0, nmax)


def test_pauli_algebra():
    for sig in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(sig @ sig, IDENTITY)
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)


def test_bloch_density_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = random_bloch(rng)
        back = bloch_from_density(density_from_bloch(r))
        assert np.max(np.abs(back - r)) < 1e-15


def test_density_from_bloch_basis_order():
    # w = +1 must put all population on the excited state, index 0
    rho = density_from_bloch([0.0, 0.0, 1.0])
    assert rho[0, 0] == pytest.approx(1.0)
    assert rho[1, 1] == pytest.approx(0.0)


def test_density_sign_conventions():
    # u = 2 Re rho_eg, v = -2 Im rho_eg
    rho = density_from_bloch([0.6, 0.0, 0.8])
    assert rho[0, 1] == pytest.approx(0.3)
    rho = density_from_bloch([0.0, 0.6, 0.0])
    assert rho[0, 1] == pytest.approx(-0.3j)


def test_purity_frozen_values():
    assert purity(density_from_bloch([0.6, 0.0, 0.8])) == pytest.approx(1.0, abs=1e-15)
    assert purity(0.5 * IDENTITY) == pytest.approx(0.5, abs=1e-15)


def test_coherence_frozen_value():
    assert coherence(density_from_bloch([0.6, 0.0, 0.8])) == pytest.approx(0.3, abs=1e-15)


def test_fidelity_extremes():
    up = density_from_bloch([0.0, 0.0, 1.0])
    down = density_from_bloch([0.0, 0.0, -1.0])
    assert fidelity(up, up) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(up, down) == pytest.approx(0.0, abs=1e-12)
    mixed = 0.5 * IDENTITY
    assert fidelity(mixed, up) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_extremes():
    up = density_from_bloch([0.0, 0.0, 1.0])
    down = density_from_bloch([0.0, 0.0, -1.0])
    assert trace_distance(up, down) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(up, up) == pytest.approx(0.0, abs=1e-15)


def test_pure_state_fidelity_trace_distance_relation():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = density_from_bloch(random_bloch(rng, 1.0) / 1.0)
        b = density_from_bloch(random_bloch(rng, 1.0))
        # project both onto the sphere for the pure-state identity
        ra = bloch_from_density(a)
        rb = bloch_from_density(b)
        a = density_from_bloch(ra / np.linalg.norm(ra))
        b = density_from_bloch(rb / np.linalg.norm(rb))
        f = fidelity(a, b)
        d = trace_distance(a, b)
        assert d == pytest.approx(np.sqrt(1.0 - f), abs=1e-12)


def test_validate_density_accepts_physical():
    rng = np.random.default_rng(13)
    for _ in range(20):
        validate_density(density_from_bloch(random_bloch(rng)))


def test_validate_density_rejects_non_hermitian():
    rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValidationError):
        validate_density(rho)


def test_validate_density_rejects_bad_trace():
    with pytest.raises(ValidationError):
        validate_density(0.7 * IDENTITY)


def test_validate_density_rejects_outside_ball():
    rho = 0.5 * (IDENTITY + 1.2 * SIGMA_Z)
    with pytest.raises(ValidationError):
        validate_density(rho)


def test_density_from_bloch_rejects_long_vector():
    with pytest.raises(ValidationError):
        density_from_bloch([0.8, 0.8, 0.8])


@pytest.mark.parametrize("r", [[np.nan, 0.0, 0.0], [0.0, 0.0, np.inf],
                               [[0.0, 0.0, 1.0], [0.0, np.nan, 0.0]], [0.0, 1.0]])
def test_density_from_bloch_rejects_non_finite_or_misshapen(r):
    with pytest.raises(ValidationError):
        density_from_bloch(r)


def test_conversions_accept_stacks_along_the_last_axis():
    rng = np.random.default_rng(14)
    r = np.array([[random_bloch(rng) for _ in range(3)] for _ in range(4)])
    rho = density_from_bloch(r)
    assert rho.shape == (4, 3, 2, 2)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(rho[idx], density_from_bloch(r[idx]))
        assert np.array_equal(bloch_from_density(rho)[idx], bloch_from_density(rho[idx]))
    assert np.max(np.abs(bloch_from_density(rho) - r)) < 1e-15


def test_validate_grid():
    g = validate_grid([0.0, 1.0, 2.5])
    assert g.dtype == np.float64
    with pytest.raises(ValidationError):
        validate_grid([0.0])
    with pytest.raises(ValidationError):
        validate_grid([0.0, 0.0, 1.0])
    with pytest.raises(ValidationError):
        validate_grid([0.0, np.nan])
    with pytest.raises(ValidationError):
        validate_grid([[0.0, 1.0]])
