"""Layer wrappers: call counts and integrator statistics in every run, spans in traced runs.

Each wrapper replaces a public blochpulse function in the module whose code
looks the name up, so calls made inside the package pass through it. Nothing
in ``src/`` is edited. A span is recorded per call at a layer boundary (never
per right-hand-side evaluation) and kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

# (module where the caller looks the name up, attribute, layer name)
SITES = (
    ("synthesis", "eval_components", "trajectories.eval"),
    ("scenario", "eval_components", "trajectories.eval"),
    ("synthesis", "complete_v_closed", "trajectories.v_closed"),
    ("scenario", "complete_v_closed", "trajectories.v_closed"),
    ("synthesis", "solve_consistent_v_open", "trajectories.v_open"),
    ("scenario", "solve_consistent_v_open", "trajectories.v_open"),
    ("trajectories", "integrate_adaptive", "odeint.v_open"),
    ("synthesis", "phase_from_detuning", "synthesis.phase"),
    ("synthesis", "synthesize_pulse", "synthesis.pulse"),
    ("scenario", "synthesize_pulse", "synthesis.pulse"),
    ("scenario", "integrate_bloch_effective", "dynamics.effective_bloch"),
    ("scenario", "integrate_interaction", "dynamics.interaction"),
    ("scenario", "integrate_lindblad", "dynamics.lindblad"),
    ("scenario", "integrate_lab", "dynamics.lab"),
    ("scenario", "tracking_error", "verify.tracking"),
    ("scenario", "run_scenario", "scenario.run"),
    ("cli", "run_scenario", "scenario.run"),
    ("cli", "load_scenario", "scenario.load"),
    ("cli", "export_all", "scenario.export_all"),
    ("scenario", "export_csv", "scenario.export_csv"),
    ("scenario", "export_svg", "scenario.export_svg"),
    ("svgplot", "line_chart", "svgplot.chart"),
    ("svgplot", "bloch_chart", "svgplot.chart"),
    ("cli", "main", "cli.main"),
)

PICTURES = ("effective_bloch", "interaction", "lindblad", "lab")
STAT_KEYS = PICTURES + ("v_open",)


class Tracer:
    """Counts calls and integrator work; records spans when ``record_spans``.

    ``active`` switches the wrappers off entirely, so the untraced half of a
    traced run pays only one attribute test per wrapped call.
    """

    def __init__(self, record_spans: bool):
        self.record_spans = record_spans
        self.active = True
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception class name)
        self.odeint = {key: Counter() for key in STAT_KEYS}
        self.samples: Counter = Counter()  # samples emitted per picture
        self.csv_bytes = 0
        self.spans: list[list] = []  # [layer, start, end, parent index, op id]
        self.ops: list[tuple] = []  # (start, end) of every traced op
        self._stack: list[int] = []
        self._op = -1

    def install(self) -> None:
        for module_name, attr, layer in SITES:
            module = importlib.import_module(f"blochpulse.{module_name}")
            setattr(module, attr, self._wrap(getattr(module, attr), layer))

    def _wrap(self, fn, layer):
        after = _AFTER.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            idx = None
            if self.record_spans:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                self._stack.append(idx)
                self.spans.append([layer, time.perf_counter(), None, parent, self._op])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[layer, type(exc).__name__] += 1
                raise
            finally:
                if idx is not None:
                    self.spans[idx][2] = time.perf_counter()
                    self._stack.pop()
            if after is not None:
                after(self, layer, args, result)
            return result

        return wrapper

    def run_op(self, call):
        """Run one op under a fresh op id; returns (exception or None, result, seconds)."""
        self._op += 1
        start = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # a failed op is counted by the caller, not fatal
            result, error = None, exc
        end = time.perf_counter()
        if self.active:
            self.ops.append((start, end))
        return error, result, end - start


def _after_dynamics(tracer, layer, args, result):
    pic = layer.split(".", 1)[1]
    tracer.samples[pic] += result.t.size
    if result.stats is not None:
        _add_stats(tracer.odeint[pic], result.stats)


def _after_v_open_odeint(tracer, layer, args, result):
    _add_stats(tracer.odeint["v_open"], result[1])


def _after_export_csv(tracer, layer, args, result):
    tracer.csv_bytes += os.path.getsize(args[1])


def _add_stats(counter, stats):
    counter["accepted"] += stats.accepted
    counter["rejected"] += stats.rejected
    counter["rhs_evals"] += stats.rhs_evals


_AFTER = {
    "dynamics.effective_bloch": _after_dynamics,
    "dynamics.interaction": _after_dynamics,
    "dynamics.lindblad": _after_dynamics,
    "dynamics.lab": _after_dynamics,
    "odeint.v_open": _after_v_open_odeint,
    "scenario.export_csv": _after_export_csv,
}


def layer_times(tracer: Tracer) -> tuple[dict, dict]:
    """Total and self seconds per layer over all recorded spans."""
    total: Counter = Counter()
    child: Counter = Counter()  # seconds of direct children, per span index
    for span in tracer.spans:
        dur = span[2] - span[1]
        total[span[0]] += dur
        if span[3] is not None:
            child[span[3]] += dur
    self_time: Counter = Counter()
    for idx, span in enumerate(tracer.spans):
        self_time[span[0]] += (span[2] - span[1]) - child[idx]
    return total, self_time


def coverage(tracer: Tracer) -> float:
    """Share of op wall time spent inside top-level layer spans."""
    op_time = sum(end - start for start, end in tracer.ops)
    covered = sum(s[2] - s[1] for s in tracer.spans if s[3] is None)
    return covered / op_time if op_time > 0 else 0.0


def layer_metrics(tracer: Tracer, cycles: int, overhead: float) -> dict:
    """Per-layer metrics of a traced run; times and counts are per cycle."""
    total, self_time = layer_times(tracer)
    per = 1.0 / cycles
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("trajectories.eval_s", total["trajectories.eval"] * per, "s/cycle")
    put("trajectories.eval_calls", tracer.calls["trajectories.eval"] * per, "count/cycle")
    put("trajectories.v_open_s", total["trajectories.v_open"] * per, "s/cycle")
    put("trajectories.v_open_calls", tracer.calls["trajectories.v_open"] * per, "count/cycle")
    put("synthesis.self_s", self_time["synthesis.pulse"] * per, "s/cycle")
    put("synthesis.phase_s", total["synthesis.phase"] * per, "s/cycle")
    calls = tracer.calls["synthesis.pulse"]
    singular_v = tracer.errors["synthesis.pulse", "SingularPrescriptionError"]
    singular_carrier = tracer.errors["synthesis.pulse", "CarrierSingularityError"]
    realizable = calls - sum(n for (layer, _), n in tracer.errors.items()
                             if layer == "synthesis.pulse")
    put("synthesis.calls", calls * per, "count/cycle")
    put("synthesis.realizable", realizable * per, "count/cycle")
    put("synthesis.singular_v", singular_v * per, "count/cycle")
    put("synthesis.singular_carrier", singular_carrier * per, "count/cycle")
    put("synthesis.realizable_frac", realizable / calls if calls else 0.0, "frac")
    for pic in PICTURES:
        seconds = total[f"dynamics.{pic}"]
        rhs = tracer.odeint[pic]["rhs_evals"]
        samples = tracer.samples[pic]
        put(f"dynamics.{pic}.s", seconds * per, "s/cycle")
        put(f"dynamics.{pic}.us_per_rhs", seconds / rhs * 1e6 if rhs else 0.0, "us")
        put(f"dynamics.{pic}.us_per_sample", seconds / samples * 1e6 if samples else 0.0, "us")
    for key in STAT_KEYS:
        for count in ("accepted", "rejected", "rhs_evals"):
            put(f"odeint.{key}.{count}", tracer.odeint[key][count] * per, "count/cycle")
    put("verify.tracking_s", total["verify.tracking"] * per, "s/cycle")
    scenario_self = sum(self_time[layer] for layer in
                        ("scenario.run", "scenario.load", "scenario.export_all", "scenario.export_svg"))
    put("scenario.self_s", scenario_self * per, "s/cycle")
    put("scenario.export_csv_s", total["scenario.export_csv"] * per, "s/cycle")
    put("scenario.csv_bytes", tracer.csv_bytes * per, "B/cycle")
    put("svgplot.chart_s", total["svgplot.chart"] * per, "s/cycle")
    put("cli.self_s", self_time["cli.main"] * per, "s/cycle")
    put("trace.coverage", coverage(tracer), "frac")
    put("trace.overhead", overhead, "ratio")
    return out
