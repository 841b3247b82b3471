"""Acceptance suite: one test per shipped guarantee, stated tolerances.

Each test is a self-contained end-to-end check of one promise the package
makes; `pytest -v` prints one pass/fail line per criterion. Tolerances here
are contractual, looser than the frozen unit-level oracles on purpose.

  01  every bundled transfer scenario tracks its prescription to 1e-6
  02  the open-system scenario tracks to 1e-3 and lands on equal populations
  03  lab-frame and co-rotating propagation agree through the frame map
  04  undriven relaxation reproduces the exponential closed forms
  05  damping constants extracted from the generator match the closed forms
  06  the strongest bundled drive sits in the non-perturbative window
  07  the rotating-wave gap shrinks with drive amplitude and vanishes weakly
  08  simulated states stay physical and converge at second order in the grid
  09  exports are byte-deterministic, well-formed, and the suite stays fast

Strict xfails at the end state the carrier gap of ROADMAP item 1: the
carrier-resolved pictures do not yet realize the prescription.
"""

import time
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from blochpulse import (
    ControlField,
    Rates,
    Window,
    complete_v_closed,
    equilibrium_inversion,
    eval_components,
    export_csv,
    export_svg,
    frame_transform,
    integrate_lindblad,
    inversion_decay_rate,
    preset,
    preset_names,
    purity,
    run_scenario,
    rwa_deviation,
    synthesize_pulse,
    trace_distance,
    tracking_error,
    transverse_rate,
)
from reference import generator_oracle

_TRANSFER_SET = ["fig1_L1", "fig1_L2", "fig1_L3", "fig1_L4", "fig1_L5"]


def _fig1_l5_field():
    cfg = preset("fig1_L5")
    grid = cfg.window.grid()
    return cfg, grid, synthesize_pulse(cfg.trajectory, cfg.rates,
                                       cfg.transition.values(grid), grid)


def test_criterion_01_transfer_set_tracks_to_1e6():
    for name in _TRANSFER_SET:
        cfg = replace(preset(name), pictures=("effective-bloch",),
                      rtol=1e-10, atol=1e-10)
        t0 = time.perf_counter()
        run = run_scenario(cfg)
        elapsed = time.perf_counter() - t0
        sup = run.reports["effective-bloch"].sup
        assert sup <= 1e-6, f"{name}: tracking sup {sup:.3e} exceeds 1e-6"
        assert elapsed <= 5.0, f"{name}: run took {elapsed:.2f} s, budget 5 s"


def test_criterion_02_open_transfer_tracks_and_equalizes_populations():
    run = run_scenario(preset("fig3"))
    assert run.reports["interaction"].sup <= 1e-3
    final = run.results["interaction"].populations[-1]
    assert abs(final[0] - 0.5) <= 0.02
    assert abs(final[1] - 0.5) <= 0.02


def test_criterion_03_lab_and_interaction_agree_through_frame_map():
    cfg = replace(preset("fig1_L5"), pictures=("interaction", "lab"))
    run = run_scenario(cfg)
    rotated = frame_transform(run.results["lab"].states, run.field.phi,
                              "to_interaction")
    dist = max(trace_distance(a, b)
               for a, b in zip(rotated, run.results["interaction"].states))
    assert dist <= 1e-6


def _zero_field(t_end, samples):
    t = np.linspace(0.0, t_end, samples)
    z = np.zeros_like(t)
    return t, ControlField(t=t, omega=z, delta=z, phi=z, omega_r=z, omega0=z)


def test_criterion_04_free_relaxation_closed_forms():
    r0 = [0.6, 0.0, 0.8]

    gamma = 2e-3
    t, field = _zero_field(5.0 / gamma, 501)  # five transverse decay times
    res = integrate_lindblad(field, Rates(dephasing=gamma), r0, t)
    u, v, w = res.bloch.T
    assert np.max(np.abs(u - 0.6 * np.exp(-gamma * t))) <= 1e-8
    assert np.max(np.abs(v)) <= 1e-8
    assert np.max(np.abs(w - 0.8)) <= 1e-8

    gam = 1e-3
    t, field = _zero_field(5.0 / (2.0 * gam), 501)  # five inversion decay times
    res = integrate_lindblad(field, Rates(thermal=gam), r0, t)
    u, v, w = res.bloch.T
    assert np.max(np.abs(w - (-1.0 + 1.8 * np.exp(-2.0 * gam * t)))) <= 1e-8
    assert np.max(np.abs(u - 0.6 * np.exp(-gam * t))) <= 1e-8
    assert np.max(np.abs(v)) <= 1e-8


def test_criterion_05_generator_constants_match_closed_forms():
    rng = np.random.default_rng(45)
    for _ in range(100):
        rates = Rates(dephasing=rng.uniform(0, 0.01),
                      thermal=rng.uniform(1e-5, 0.01),
                      occupancy=rng.uniform(0, 3.0))
        coeff = generator_oracle(rates)
        assert abs(coeff.transverse_decay - transverse_rate(rates)) <= 1e-12
        assert abs(coeff.inversion_decay - inversion_decay_rate(rates)) <= 1e-12
        assert abs(coeff.inversion_pump - (-2.0 * rates.thermal)) <= 1e-12
        assert abs(coeff.equilibrium_inversion - equilibrium_inversion(rates)) <= 1e-12


def test_criterion_06_strongest_drive_is_non_perturbative():
    _, _, field = _fig1_l5_field()
    ratio = field.rabi_peak_ratio()
    assert 0.1 <= ratio <= 10.0, f"peak drive ratio {ratio:.3g} outside [0.1, 10]"


def test_criterion_07_rwa_gap_scales_down_with_drive():
    cfg, grid, field = _fig1_l5_field()
    samples = eval_components(cfg.trajectory, grid)
    v = complete_v_closed(samples)
    r0 = np.array([samples.u[0], v[0], samples.w[0]])
    r0 = r0 / max(1.0, np.linalg.norm(r0))
    devs = [rwa_deviation(field, r0, grid, scale=s) for s in (1.0, 0.25, 0.025)]
    assert devs[0] > devs[1] > devs[2], f"deviations not decreasing: {devs}"
    assert devs[2] <= 1e-2, f"weak-drive deviation {devs[2]:.3e} exceeds 1e-2"
    assert devs[0] >= 10.0 * devs[2], f"no clear separation: {devs}"


def _hygiene(run, closed):
    for pic, res in run.results.items():
        states = res.states
        trace_defect = np.max(np.abs(states[:, 0, 0] + states[:, 1, 1] - 1.0))
        herm_defect = np.max(np.abs(states - np.conj(np.swapaxes(states, 1, 2))))
        norms = np.linalg.norm(res.bloch, axis=1)
        assert trace_defect <= 1e-10, f"{pic}: trace defect {trace_defect:.2e}"
        assert herm_defect <= 1e-12, f"{pic}: hermiticity defect {herm_defect:.2e}"
        assert np.max(norms) <= 1.0 + 1e-9, f"{pic}: Bloch norm {np.max(norms)}"
        if closed:
            purity_defect = max(abs(purity(s) - 1.0) for s in states)
            assert purity_defect <= 1e-9, f"{pic}: purity defect {purity_defect:.2e}"


def _effective_fd_residual(samples_count):
    cfg = replace(preset("fig1_L3"), pictures=("effective-bloch",),
                  window=Window(-120.0, 120.0, samples_count))
    run = run_scenario(cfg)
    r = run.results["effective-bloch"].bloch
    t = run.grid
    om, de = run.field.omega, run.field.delta
    rhs = np.stack([de * r[:, 1],
                    -de * r[:, 0] - om * r[:, 2],
                    om * r[:, 1]], axis=1)
    fd = (r[2:] - r[:-2]) / (t[2:] - t[:-2])[:, None]
    return np.max(np.abs(fd - rhs[1:-1]))


def test_criterion_08_state_hygiene_and_second_order_grid_convergence():
    _hygiene(run_scenario(preset("fig1_L5")), closed=True)
    _hygiene(run_scenario(preset("fig3")), closed=False)
    coarse = _effective_fd_residual(601)
    fine = _effective_fd_residual(1201)
    slope = np.log2(coarse / fine)
    assert 1.8 <= slope <= 2.2, f"grid convergence slope {slope:.3f} not ~2"


def test_criterion_09_deterministic_exports_and_total_runtime(tmp_path):
    for name in ("fig1_L5", "fig2", "fig3", "fig4"):
        first = run_scenario(preset(name))
        second = run_scenario(preset(name))
        pa, pb = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        export_csv(first, pa)
        export_csv(second, pb)
        assert pa.read_bytes() == pb.read_bytes(), f"{name}: CSV not deterministic"
        for kind in ("pulse", "populations", "bloch3d"):
            target = tmp_path / f"{name}.{kind}.svg"
            export_svg(first, kind, target)
            root = ET.parse(target).getroot()
            assert root.tag.rsplit("}", 1)[-1] == "svg"
            tags = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
            assert "polyline" in tags, f"{name}/{kind}: no polyline element"

    t0 = time.perf_counter()
    for name in preset_names():
        run_scenario(preset(name))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"full preset suite took {elapsed:.1f} s, budget 60 s"


# why the carrier-resolved pictures miss the prescription today
_CARRIER_GAP = "synthesis drops the sigma_y term, -Omega_R sin(2 phi), of the co-rotating coupling"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_CARRIER_GAP)
@pytest.mark.parametrize("name", [name for name in preset_names() if preset(name).rates.closed])
def test_carrier_pictures_realize_each_closed_preset(name):
    run = run_scenario(replace(preset(name), pictures=("interaction", "lab")))
    for picture in ("interaction", "lab"):
        assert run.reports[picture].sup <= 1e-8, picture


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_CARRIER_GAP)
def test_carrier_resolved_master_equation_realizes_the_open_preset():
    run = run_scenario(preset("fig3"))
    s = run.samples
    result = integrate_lindblad(run.field, run.config.rates, [s.u[0], run.v[0], s.w[0]],
                                run.grid)
    assert tracking_error(result, s.u, run.v, s.w).sup <= 1e-3
