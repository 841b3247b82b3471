"""Verification helpers: report arithmetic, RWA distance, generator oracle.

The tracking report is checked against hand-computed sup/rms values on a
fabricated four-sample result. The generator oracle is compared with the
closed-form rate expressions over seeded random rate triples; both sides are
exact arithmetic, so the tolerance is machine-level.
"""

import dataclasses

import numpy as np
import pytest

from blochpulse import (
    ControlField,
    Rates,
    SimResult,
    ValidationError,
    equilibrium_inversion,
    generator_oracle,
    inversion_decay_rate,
    integrate_interaction,
    rwa_deviation,
    trace_distance,
    tracking_error,
    transverse_rate,
)


def _result_from_bloch(vectors, picture="test"):
    t = np.arange(float(len(vectors)))
    return SimResult(picture=picture, t=t, bloch=np.array(vectors, dtype=float))


def test_tracking_error_frozen_arithmetic():
    res = _result_from_bloch([(0.0, 0.0, 0.5), (0.1, 0.0, 0.5),
                              (0.0, 0.0, 0.5), (0.0, 0.0, 0.5)])
    zeros = np.zeros(4)
    report = tracking_error(res, zeros, zeros, np.full(4, 0.5))
    assert report.sup_u == pytest.approx(0.1, abs=1e-15)
    assert report.rms_u == pytest.approx(0.05, abs=1e-15)  # sqrt(0.01 / 4)
    assert report.sup_v == 0.0
    assert report.sup_w == 0.0
    assert report.sup == report.sup_u
    assert report.t_worst == 1.0
    assert report.fidelity_final == pytest.approx(1.0, abs=1e-12)
    assert "[test]" in report.summary()


def test_tracking_error_antipodal_endpoint():
    res = _result_from_bloch([(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)])
    zeros = np.zeros(2)
    report = tracking_error(res, zeros, zeros, np.full(2, -1.0))
    assert report.sup_w == pytest.approx(2.0, abs=1e-15)
    assert report.fidelity_final == pytest.approx(0.0, abs=1e-12)


def test_tracking_error_perfect_match():
    vectors = [(0.3, 0.2, -0.4), (0.1, -0.5, 0.2)]
    res = _result_from_bloch(vectors)
    arr = np.array(vectors)
    report = tracking_error(res, arr[:, 0], arr[:, 1], arr[:, 2])
    assert report.sup < 1e-15
    assert report.fidelity_final == pytest.approx(1.0, abs=1e-12)


def _reference_tracking(t, bloch, prescribed):
    """sup, rms and the first time of the worst deviation, as plain numpy gives them."""
    d = [np.abs(bloch[:, k] - prescribed[k]) for k in range(3)]
    worst = np.maximum(d[0], np.maximum(d[1], d[2]))
    first = next(i for i, x in enumerate(worst) if x == worst.max())
    return ([x.max() for x in d], [np.sqrt(np.mean(x ** 2)) for x in d], t[first])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("levels", [None, 4], ids=["random", "ties"])
def test_tracking_error_is_bit_identical_to_plain_numpy(seed, levels):
    # with few levels, many samples tie for the worst deviation, and the first one wins
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    values = rng.uniform(-1.0, 1.0, (2, n, 3))
    if levels:
        values = np.round(values * levels) / levels
    bloch, prescribed = values
    t = np.sort(rng.uniform(0.0, 100.0, n))
    report = tracking_error(SimResult("test", t, bloch), *prescribed.T)
    sups, rmss, t_worst = _reference_tracking(t, bloch, prescribed.T)
    assert [report.sup_u, report.sup_v, report.sup_w] == sups
    assert [report.rms_u, report.rms_v, report.rms_w] == rmss
    assert report.t_worst == t_worst


def test_summary_names_a_far_worst_time_to_the_picosecond():
    res = SimResult("far", np.array([1e15, 1e15 + 316.0]), np.array([[0.0, 0.0, 1.0]] * 2))
    report = tracking_error(res, np.zeros(2), np.zeros(2), np.array([1.0, 0.5]))
    assert report.t_worst == 1e15 + 316.0
    assert "(worst at t = 1000000000000316 ps)" in report.summary()
    # at preset scale the time prints as %.6g does
    for t_worst in (0.0, -1528.123456789, 99999.4, 3.14159e-3):
        near = dataclasses.replace(report, t_worst=t_worst)
        assert f"(worst at t = {t_worst:.6g} ps)" in near.summary()


def test_tracking_error_rejects_mismatched_shapes():
    res = _result_from_bloch([(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)])
    with pytest.raises(ValidationError):
        tracking_error(res, np.zeros(3), np.zeros(2), np.zeros(2))


def _carrier_field():
    t = np.linspace(0.0, 20.0, 101)
    return ControlField(t=t, omega=np.full_like(t, 0.4), delta=np.zeros_like(t),
                        phi=1.0 * t, omega_r=np.full_like(t, 0.2),
                        omega0=np.ones_like(t))


def test_rwa_deviation_shrinks_with_drive():
    field = _carrier_field()
    r0 = [0.0, 0.0, 1.0]
    grid = field.t
    strong = rwa_deviation(field, r0, grid, scale=1.0)
    weak = rwa_deviation(field, r0, grid, scale=0.05)
    assert weak < strong
    assert strong > 1e-3


def test_rwa_deviation_is_the_largest_trace_distance():
    field = _carrier_field()
    r0 = [0.6, 0.0, 0.8]
    full = integrate_interaction(field, r0, field.t)
    rwa = integrate_interaction(field, r0, field.t, rwa=True)
    reference = max(trace_distance(a, b) for a, b in zip(full.states, rwa.states))
    assert rwa_deviation(field, r0, field.t) == pytest.approx(reference, abs=1e-14)


def test_rwa_deviation_rejects_bad_scale():
    field = _carrier_field()
    with pytest.raises(ValidationError):
        rwa_deviation(field, [0.0, 0.0, 1.0], field.t, scale=0.0)


def test_generator_oracle_frozen_case():
    coeff = generator_oracle(Rates(dephasing=2e-3, thermal=5e-4, occupancy=1.5))
    assert coeff.transverse_decay == pytest.approx(4e-3, abs=1e-15)
    assert coeff.inversion_decay == pytest.approx(4e-3, abs=1e-15)
    assert coeff.inversion_pump == pytest.approx(-1e-3, abs=1e-15)
    assert coeff.equilibrium_inversion == pytest.approx(-0.25, abs=1e-12)


def test_generator_oracle_matches_closed_forms():
    rng = np.random.default_rng(43)
    for _ in range(100):
        rates = Rates(dephasing=rng.uniform(0, 0.01), thermal=rng.uniform(1e-5, 0.01),
                      occupancy=rng.uniform(0, 3.0))
        coeff = generator_oracle(rates)
        assert coeff.transverse_decay == pytest.approx(transverse_rate(rates), abs=1e-12)
        assert coeff.inversion_decay == pytest.approx(inversion_decay_rate(rates), abs=1e-12)
        assert coeff.inversion_pump == pytest.approx(-2.0 * rates.thermal, abs=1e-12)
        assert coeff.equilibrium_inversion == pytest.approx(
            equilibrium_inversion(rates), abs=1e-12)
        assert coeff.matrix[0, 0] == pytest.approx(coeff.matrix[1, 1], abs=1e-15)
        off = coeff.matrix - np.diag(np.diag(coeff.matrix))
        assert np.max(np.abs(off)) < 1e-12
        assert np.max(np.abs(coeff.offset[:2])) < 1e-12


def test_generator_oracle_dephasing_only():
    coeff = generator_oracle(Rates(dephasing=3e-3))
    assert coeff.inversion_decay == 0.0
    assert np.isnan(coeff.equilibrium_inversion)
    assert coeff.transverse_decay == pytest.approx(3e-3, abs=1e-15)
