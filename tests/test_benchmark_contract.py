"""What the benchmark in perfbench/ needs from the package.

The benchmark's tracer replaces functions by (module, name) in every run, so
synthesis must call its traced steps through those names, and its presets
check maps the lab picture's density matrices through the frame map. Its
per-layer metrics read ``IntegrationStats.rhs_evals`` as stage evaluations.
A refactor that breaks any of these crashes or fails the
benchmark, or changes what a metric means; these tests catch it first.
"""

import importlib
import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blochpulse import Rates, Transfer, frame_transform, preset, run_scenario, synthesize_pulse
from blochpulse import synthesis

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


@pytest.mark.parametrize("rates", [Rates(), Rates(dephasing=1e-3, thermal=1e-4)],
                         ids=["closed", "open"])
def test_synthesis_calls_each_traced_site_once(monkeypatch, rates):
    # the tracer's synthesis.phase and trajectories.* layers read these calls; a synthesis
    # that bypassed the module-level names would leave them at zero
    names = {attr for module, attr, _ in _tracer_sites()
             if module == "synthesis" and attr != "synthesize_pulse"}
    assert names == {"eval_components", "complete_v_closed", "solve_consistent_v_open",
                     "phase_from_detuning"}
    calls = Counter()
    for name in names:
        def spy(*args, _name=name, _fn=getattr(synthesis, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(synthesis, name, spy)
    spec = Transfer(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
                    coherence_peak=0.4, peak_width=100.0)
    synthesize_pulse(spec, rates, 5e-3, np.linspace(-120.0, 120.0, 241))
    completion = "complete_v_closed" if rates.closed else "solve_consistent_v_open"
    assert calls == Counter(eval_components=1, phase_from_detuning=1, **{completion: 1})


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
