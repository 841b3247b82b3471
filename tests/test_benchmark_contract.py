"""What the benchmark in perfbench/ needs from the package.

The benchmark's tracer replaces functions by (module, name) in every run, and
its presets check maps the lab picture's density matrices through the frame
map. Its per-layer metrics read ``IntegrationStats.rhs_evals`` as stage
evaluations. A refactor that breaks any of these crashes or fails the
benchmark, or changes what a metric means; these tests catch it first.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from blochpulse import frame_transform, preset, run_scenario

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SITES


def test_every_traced_site_resolves():
    sites = _tracer_sites()
    assert sites
    for module_name, attr, _ in sites:
        module = importlib.import_module(f"blochpulse.{module_name}")
        assert callable(getattr(module, attr)), f"blochpulse.{module_name}.{attr}"


def test_lab_states_round_trip_through_frame_map():
    run = run_scenario(replace(preset("fig1_L1"), pictures=("interaction", "lab")))
    states, phi = run.results["lab"].states, run.field.phi
    assert states.shape == (run.grid.size, 2, 2)
    rotated = frame_transform(states, phi, "to_interaction")
    assert rotated.shape == states.shape
    assert np.max(np.abs(frame_transform(rotated, phi, "to_lab") - states)) < 1e-15
    assert np.max(np.abs(rotated - run.results["interaction"].states)) < 1e-6


def test_rhs_evals_count_stages_of_every_attempted_step():
    # odeint.*.rhs_evals and dynamics.*.us_per_rhs read stage evaluations,
    # however often the kernel reads the field
    run = run_scenario(preset("fig2"))
    assert set(run.results) == set(run.config.pictures)
    for pic, res in run.results.items():
        stats = res.stats
        assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected), pic
