"""Scenario configs, bundled presets, the end-to-end pipeline, and exports.

A scenario bundles everything needed to synthesize and check one pulse: a
trajectory family, decoherence rates, the transition-frequency profile, the
time window, integration tolerances, and which pictures to simulate.
Scenarios serialize to JSON with unit-tagged quantities; all values are
converted to internal units (ps, rad/ps) on load.

Pictures:
  * "effective-bloch" -- damped component equations (any rates);
  * "interaction"     -- carrier-resolved co-rotating evolution for closed
                         scenarios, master equation under the design coupling
                         for open ones;
  * "lab"             -- carrier-resolved lab frame, closed scenarios only.

CSV export is deterministic byte-for-byte: fixed header
t_ps,u,v,w,sx,sy,sz,omega_R,phi,omega0,delta with 17-significant-digit
fields; u,v,w are the prescribed components, sx,sy,sz the first simulated
picture.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import (
    SimResult,
    frame_transform,
    integrate_bloch_effective,
    integrate_interaction,
    integrate_lab,
    integrate_lindblad,
)
from .errors import ValidationError
from .rates import Rates
from .states import density_from_bloch
# synthesize_pulse is unused here but stays importable from this module: the
# benchmark tracer in perfbench/ wraps scenario.synthesize_pulse by name.
from .synthesis import ControlField, pulse_from_components, synthesize_pulse  # noqa: F401
from .trajectories import (
    Oscillatory,
    RabiDecay,
    Transfer,
    TrajectorySamples,
    TrajectorySpec,
    complete_v_closed,
    eval_components,
    solve_consistent_v_open,
)
from .verify import TrackingReport, tracking_error
from . import svgplot

__all__ = [
    "TransitionSpec",
    "Window",
    "ScenarioConfig",
    "ScenarioRun",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "save_scenario",
    "preset_names",
    "preset",
    "preset_note",
    "run_scenario",
    "export_csv",
    "export_field_csv",
    "export_svg",
    "export_all",
    "PICTURES",
    "SVG_KINDS",
]

PICTURES = ("effective-bloch", "interaction", "lab")
SVG_KINDS = ("pulse", "populations", "bloch3d")

# conversion factors into internal units, by quantity kind
_UNIT_SCALES = {
    "angular_frequency": {"rad/ps": 1.0, "rad/ns": 1e-3, "GHz": 1e-3, "rad/s": 1e-12},
    "rate": {"1/ps": 1.0, "1/ns": 1e-3, "1/s": 1e-12, "s^-1": 1e-12},
    "time": {"ps": 1.0, "ns": 1e3, "s": 1e12},
    "curvature": {"1/ps^2": 1.0, "rad/ps^2": 1.0, "1/s^2": 1e-24, "s^-2": 1e-24,
                  "rad/s^2": 1e-24},
}
_INTERNAL_UNIT = {"angular_frequency": "rad/ps", "rate": "1/ps", "time": "ps",
                  "curvature": "1/ps^2"}


def _parse_quantity(obj, kind: str | None, name: str) -> float:
    """A bare number is taken to be in internal units; dicts carry a unit tag."""
    if isinstance(obj, bool):
        raise ValidationError(f"{name}: expected a number, got a boolean")
    if isinstance(obj, (int, float)):
        return float(obj)
    if isinstance(obj, dict):
        extra = set(obj) - {"value", "unit"}
        if extra or "value" not in obj:
            raise ValidationError(f"{name}: quantity must be {{'value', 'unit'}}, got {sorted(obj)}")
        value = obj["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{name}: 'value' must be a number")
        unit = obj.get("unit")
        if unit is None:
            return float(value)
        if kind is None:
            raise ValidationError(f"{name} is dimensionless; drop the unit {unit!r}")
        scales = _UNIT_SCALES[kind]
        if unit not in scales:
            raise ValidationError(
                f"{name}: unknown {kind} unit {unit!r}; known: {sorted(scales)}")
        return float(value) * scales[unit]
    raise ValidationError(f"{name}: expected a number or a value/unit object")


def _tag(value: float, kind: str | None):
    if kind is None:
        return value
    return {"value": value, "unit": _INTERNAL_UNIT[kind]}


@dataclass(frozen=True)
class TransitionSpec:
    """Transition angular frequency along the window: constant or linear ramp."""

    kind: str
    start: float
    stop: float

    def __post_init__(self):
        if self.kind not in ("constant", "ramp"):
            raise ValidationError(f"transition kind must be 'constant' or 'ramp', got {self.kind!r}")
        for val in (self.start, self.stop):
            if not np.isfinite(val):
                raise ValidationError("transition frequency must be finite")
        if self.kind == "constant" and self.start != self.stop:
            raise ValidationError("constant transition must have start == stop")

    @classmethod
    def constant(cls, value: float) -> "TransitionSpec":
        return cls("constant", float(value), float(value))

    @classmethod
    def ramp(cls, start: float, stop: float) -> "TransitionSpec":
        return cls("ramp", float(start), float(stop))

    def values(self, grid: np.ndarray) -> np.ndarray:
        """omega0 samples; a ramp runs linearly from grid start to grid end."""
        if self.kind == "constant":
            return np.full(grid.shape, self.start)
        frac = (grid - grid[0]) / (grid[-1] - grid[0])
        return self.start + (self.stop - self.start) * frac


@dataclass(frozen=True)
class Window:
    """Time window and sample count for a scenario."""

    start: float
    stop: float
    samples: int

    def __post_init__(self):
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise ValidationError("window bounds must be finite")
        if self.stop <= self.start:
            raise ValidationError("window stop must exceed start")
        if not isinstance(self.samples, int) or self.samples < 2:
            raise ValidationError("window samples must be an integer >= 2")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.samples)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one synthesis-and-verification run."""

    name: str
    trajectory: TrajectorySpec
    rates: Rates
    transition: TransitionSpec
    window: Window
    rtol: float = 1e-10
    atol: float = 1e-12
    pictures: tuple[str, ...] = ("effective-bloch", "interaction")

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValidationError("scenario name must be a non-empty string")
        for pic in self.pictures:
            if pic not in PICTURES:
                raise ValidationError(f"unknown picture {pic!r}; known: {list(PICTURES)}")
        if "lab" in self.pictures and not self.rates.closed:
            raise ValidationError(
                "the 'lab' picture is defined for closed scenarios only; "
                "remove it or zero the rates")
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValidationError("tolerances must lie in (0, 1)")


# trajectory family registry: config key -> (class, {field: quantity kind})
_FAMILIES: dict[str, tuple[type, dict[str, str | None]]] = {
    "transfer": (Transfer, {
        "inversion_start": None, "inversion_stop": None, "switch_rate": "rate",
        "coherence_peak": None, "peak_width": "time", "peak_time": "time"}),
    "oscillatory": (Oscillatory, {
        "inversion_start": None, "inversion_stop": None, "switch_rate": "rate",
        "coherence_peak": None, "peak_width": "time", "ripple_amplitude": None,
        "ripple_frequency": "angular_frequency", "peak_time": "time"}),
    "rabi_decay": (RabiDecay, {
        "inversion_amplitude": None, "decay_curvature": "curvature",
        "inversion_frequency": "angular_frequency", "chirp_rate": "curvature",
        "coherence_amplitude": None, "coherence_frequency": "angular_frequency"}),
}
_FAMILY_KEY = {cls: key for key, (cls, _) in _FAMILIES.items()}


def _trajectory_from_dict(d: dict) -> TrajectorySpec:
    if not isinstance(d, dict) or "family" not in d:
        raise ValidationError("trajectory must be an object with a 'family' key")
    family = d["family"]
    if family not in _FAMILIES:
        raise ValidationError(f"unknown trajectory family {family!r}; known: {sorted(_FAMILIES)}")
    cls, kinds = _FAMILIES[family]
    extra = set(d) - set(kinds) - {"family"}
    if extra:
        raise ValidationError(f"trajectory: unknown keys {sorted(extra)}")
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    missing = required - set(d)
    if missing:
        raise ValidationError(f"trajectory: missing keys {sorted(missing)}")
    kwargs = {key: _parse_quantity(d[key], kind, f"trajectory.{key}")
              for key, kind in kinds.items() if key in d}
    return cls(**kwargs)


def _trajectory_to_dict(spec: TrajectorySpec) -> dict:
    key = _FAMILY_KEY.get(type(spec))
    if key is None:
        raise ValidationError(f"unknown trajectory family: {type(spec).__name__}")
    kinds = _FAMILIES[key][1]
    out: dict = {"family": key}
    for field in dataclasses.fields(spec):
        out[field.name] = _tag(getattr(spec, field.name), kinds[field.name])
    return out


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain JSON-style dict.

    Unknown keys anywhere raise ValidationError so typos fail loudly.
    """
    if not isinstance(d, dict):
        raise ValidationError("scenario must be a JSON object")
    known = {"name", "trajectory", "rates", "transition", "window", "tolerances", "pictures"}
    extra = set(d) - known
    if extra:
        raise ValidationError(f"scenario: unknown keys {sorted(extra)}")
    for key in ("name", "trajectory", "transition", "window"):
        if key not in d:
            raise ValidationError(f"scenario: missing key '{key}'")

    rates_d = d.get("rates", {})
    if not isinstance(rates_d, dict):
        raise ValidationError("rates must be an object")
    extra = set(rates_d) - {"dephasing", "thermal", "occupancy"}
    if extra:
        raise ValidationError(f"rates: unknown keys {sorted(extra)}")
    rates = Rates(
        dephasing=_parse_quantity(rates_d.get("dephasing", 0.0), "rate", "rates.dephasing"),
        thermal=_parse_quantity(rates_d.get("thermal", 0.0), "rate", "rates.thermal"),
        occupancy=_parse_quantity(rates_d.get("occupancy", 0.0), None, "rates.occupancy"),
    )

    tr_d = d["transition"]
    if not isinstance(tr_d, dict) or "kind" not in tr_d:
        raise ValidationError("transition must be an object with a 'kind' key")
    if tr_d["kind"] == "constant":
        extra = set(tr_d) - {"kind", "value"}
        if extra or "value" not in tr_d:
            raise ValidationError("constant transition needs exactly a 'value' quantity")
        value = _parse_quantity(tr_d["value"], "angular_frequency", "transition.value")
        transition = TransitionSpec.constant(value)
    elif tr_d["kind"] == "ramp":
        extra = set(tr_d) - {"kind", "start", "stop"}
        if extra or "start" not in tr_d or "stop" not in tr_d:
            raise ValidationError("ramp transition needs exactly 'start' and 'stop' quantities")
        transition = TransitionSpec.ramp(
            _parse_quantity(tr_d["start"], "angular_frequency", "transition.start"),
            _parse_quantity(tr_d["stop"], "angular_frequency", "transition.stop"),
        )
    else:
        raise ValidationError(f"transition kind must be 'constant' or 'ramp', got {tr_d['kind']!r}")

    win_d = d["window"]
    if not isinstance(win_d, dict):
        raise ValidationError("window must be an object")
    extra = set(win_d) - {"start", "stop", "samples"}
    if extra:
        raise ValidationError(f"window: unknown keys {sorted(extra)}")
    if "samples" not in win_d or isinstance(win_d["samples"], bool) \
            or not isinstance(win_d["samples"], int):
        raise ValidationError("window.samples must be an integer")
    window = Window(
        start=_parse_quantity(win_d.get("start"), "time", "window.start"),
        stop=_parse_quantity(win_d.get("stop"), "time", "window.stop"),
        samples=win_d["samples"],
    )

    tol_d = d.get("tolerances", {})
    if not isinstance(tol_d, dict) or set(tol_d) - {"rtol", "atol"}:
        raise ValidationError("tolerances must be an object with keys 'rtol'/'atol'")
    pictures = d.get("pictures", ["effective-bloch", "interaction"])
    if not isinstance(pictures, (list, tuple)):
        raise ValidationError("pictures must be a list")

    return ScenarioConfig(
        name=d["name"],
        trajectory=_trajectory_from_dict(d["trajectory"]),
        rates=rates,
        transition=transition,
        window=window,
        rtol=_parse_quantity(tol_d.get("rtol", 1e-10), None, "tolerances.rtol"),
        atol=_parse_quantity(tol_d.get("atol", 1e-12), None, "tolerances.atol"),
        pictures=tuple(pictures),
    )


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Serialize a ScenarioConfig to a JSON-ready dict in internal units.

    Round-trips exactly: scenario_from_dict(scenario_to_dict(cfg)) == cfg.
    """
    if cfg.transition.kind == "constant":
        transition = {"kind": "constant", "value": _tag(cfg.transition.start, "angular_frequency")}
    else:
        transition = {"kind": "ramp",
                      "start": _tag(cfg.transition.start, "angular_frequency"),
                      "stop": _tag(cfg.transition.stop, "angular_frequency")}
    return {
        "name": cfg.name,
        "trajectory": _trajectory_to_dict(cfg.trajectory),
        "rates": {
            "dephasing": _tag(cfg.rates.dephasing, "rate"),
            "thermal": _tag(cfg.rates.thermal, "rate"),
            "occupancy": cfg.rates.occupancy,
        },
        "transition": transition,
        "window": {"start": _tag(cfg.window.start, "time"),
                   "stop": _tag(cfg.window.stop, "time"),
                   "samples": cfg.window.samples},
        "tolerances": {"rtol": cfg.rtol, "atol": cfg.atol},
        "pictures": list(cfg.pictures),
    }


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(data)


def save_scenario(cfg: ScenarioConfig, path) -> None:
    """Write a scenario to a JSON file (stable key order, 2-space indent)."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(cfg), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# bundled presets

_CLOSED = Rates()
_FIG1_WINDOW = Window(-120.0, 120.0, 1201)
_FIG1_RAMP = TransitionSpec.ramp(1e-3, 15e-3)  # 1 -> 15 GHz across the window
_CLOSED_PICTURES = ("effective-bloch", "interaction", "lab")


def _fig1_line(tag: str, inv_start: float, inv_stop: float, peak: float) -> ScenarioConfig:
    return ScenarioConfig(
        name=tag,
        trajectory=Transfer(inversion_start=inv_start, inversion_stop=inv_stop,
                            switch_rate=0.01, coherence_peak=peak, peak_width=100.0),
        rates=_CLOSED,
        transition=_FIG1_RAMP,
        window=_FIG1_WINDOW,
        pictures=_CLOSED_PICTURES,
    )


def _build_presets() -> dict[str, ScenarioConfig]:
    presets = {
        "fig1_L1": _fig1_line("fig1_L1", -0.10, 0.10, 0.1),
        "fig1_L2": _fig1_line("fig1_L2", -0.25, 0.25, 0.2),
        "fig1_L3": _fig1_line("fig1_L3", -0.50, 0.50, 0.4),
        "fig1_L4": _fig1_line("fig1_L4", -0.75, 0.75, 0.6),
        "fig1_L5": _fig1_line("fig1_L5", -1.00, 1.00, 0.8),
        "fig2": ScenarioConfig(
            name="fig2",
            trajectory=Oscillatory(inversion_start=-0.5, inversion_stop=0.5,
                                   switch_rate=0.01, coherence_peak=0.4, peak_width=100.0,
                                   ripple_amplitude=0.03, ripple_frequency=0.08),
            rates=_CLOSED,
            transition=_FIG1_RAMP,
            window=_FIG1_WINDOW,
            pictures=_CLOSED_PICTURES,
        ),
        "fig3": ScenarioConfig(
            name="fig3",
            trajectory=Transfer(inversion_start=-1.0, inversion_stop=0.0,
                                switch_rate=0.02, coherence_peak=0.2, peak_width=60.0),
            rates=Rates(dephasing=1e-3, thermal=1e-4, occupancy=0.0),
            transition=TransitionSpec.constant(5e-3),
            window=Window(-200.0, 200.0, 1201),
            pictures=("effective-bloch", "interaction"),
        ),
        "fig4": ScenarioConfig(
            name="fig4",
            trajectory=RabiDecay(inversion_amplitude=0.98, decay_curvature=5e-8,
                                 inversion_frequency=math.pi * 1e-3, chirp_rate=2e-6,
                                 coherence_amplitude=0.3, coherence_frequency=math.pi * 1e-3),
            rates=_CLOSED,
            transition=TransitionSpec.constant(1e-4),
            window=Window(0.0, 6000.0, 3001),
            pictures=_CLOSED_PICTURES,
        ),
    }
    return presets


_PRESETS = _build_presets()

_PRESET_NOTES = {
    "fig1_L1": "gentle population transfer -0.1 -> 0.1, ramped transition frequency",
    "fig1_L2": "population transfer -0.25 -> 0.25, ramped transition frequency",
    "fig1_L3": "population transfer -0.5 -> 0.5, ramped transition frequency",
    "fig1_L4": "population transfer -0.75 -> 0.75, ramped transition frequency",
    "fig1_L5": "full inversion -1 -> 1, strongest drive of the transfer set",
    "fig2": "transfer with a cosine ripple on the inversion",
    "fig3": "open-system transfer to the equal-population state under dephasing and decay",
    "fig4": "chirped, decaying inversion oscillation in the ultra-strong regime",
}


def preset_names() -> list[str]:
    """Names of the bundled scenarios, in a stable order."""
    return list(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    """Look up a bundled scenario by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(_PRESETS)}") from None


def preset_note(name: str) -> str:
    """One-line description of a bundled scenario."""
    preset(name)
    return _PRESET_NOTES[name]


# ---------------------------------------------------------------------------
# pipeline

@dataclass
class ScenarioRun:
    """Everything produced by one scenario: pulse, simulations, reports."""

    config: ScenarioConfig
    grid: np.ndarray
    samples: TrajectorySamples
    v: np.ndarray
    field: ControlField
    results: dict[str, SimResult]
    reports: dict[str, TrackingReport]

    @property
    def prescribed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Prescribed components (u, v, w) on the grid."""
        return self.samples.u, self.v, self.samples.w


def run_scenario(cfg: ScenarioConfig) -> ScenarioRun:
    """Synthesize the pulse for a scenario and simulate every requested picture.

    The initial state is the prescribed trajectory's start point. Tracking
    reports compare co-rotating Bloch components against the prescription;
    the lab picture is rotated into the co-rotating frame first.
    """
    grid = cfg.window.grid()
    samples = eval_components(cfg.trajectory, grid)
    if cfg.rates.closed:
        v = complete_v_closed(samples)
    else:
        v = solve_consistent_v_open(samples, cfg.rates)
    field = pulse_from_components(samples, v, cfg.rates, cfg.transition.values(grid))

    r0 = np.array([samples.u[0], v[0], samples.w[0]])
    norm0 = np.linalg.norm(r0)
    if norm0 > 1.0:  # grazes the sphere by roundoff at most
        r0 = r0 / norm0
    rho0 = density_from_bloch(r0)

    results: dict[str, SimResult] = {}
    reports: dict[str, TrackingReport] = {}
    for pic in cfg.pictures:
        if pic == "effective-bloch":
            res = integrate_bloch_effective(field, cfg.rates, r0, grid,
                                            rtol=cfg.rtol, atol=cfg.atol)
            comparable = res
        elif pic == "interaction":
            if cfg.rates.closed:
                res = integrate_interaction(field, rho0, grid, rtol=cfg.rtol, atol=cfg.atol)
            else:
                res = integrate_lindblad(field, cfg.rates, rho0, grid,
                                         rtol=cfg.rtol, atol=cfg.atol)
            comparable = res
        else:  # "lab", closed only (enforced by the config)
            rho_lab0 = frame_transform(rho0, field.phi[0], "to_lab")
            res = integrate_lab(field, rho_lab0, grid, rtol=cfg.rtol, atol=cfg.atol)
            rotated = frame_transform(res.states, field.phi, "to_interaction")
            comparable = SimResult(picture="lab", t=res.t, states=rotated, stats=res.stats)
        results[pic] = res
        reports[pic] = tracking_error(comparable, samples.u, v, samples.w)

    return ScenarioRun(config=cfg, grid=grid, samples=samples, v=v, field=field,
                       results=results, reports=reports)


# ---------------------------------------------------------------------------
# exports

_CSV_HEADER = "t_ps,u,v,w,sx,sy,sz,omega_R,phi,omega0,delta"


def _g17(x: float) -> str:
    return f"{x:.17g}"


def export_csv(run: ScenarioRun, path) -> None:
    """Write the scenario's sampled data as deterministic CSV.

    Columns: time; prescribed u, v, w; simulated Bloch components of the
    first requested picture; then the synthesized channels. Two runs of the
    same scenario produce byte-identical files. With no pictures requested
    only the header line is written.
    """
    lines = [_CSV_HEADER]
    if run.config.pictures:
        first = run.results[run.config.pictures[0]]
        sim = first.bloch
        u, v, w = run.prescribed
        f = run.field
        for i in range(run.grid.size):
            lines.append(",".join([
                _g17(run.grid[i]), _g17(u[i]), _g17(v[i]), _g17(w[i]),
                _g17(sim[i, 0]), _g17(sim[i, 1]), _g17(sim[i, 2]),
                _g17(f.omega_r[i]), _g17(f.phi[i]), _g17(f.omega0[i]), _g17(f.delta[i]),
            ]))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_FIELD_CSV_HEADER = "t_ps,omega,delta,phi,omega_R,omega0"


def export_field_csv(field: ControlField, path) -> None:
    """Write just the synthesized control channels as deterministic CSV."""
    lines = [_FIELD_CSV_HEADER]
    for i in range(field.t.size):
        lines.append(",".join([
            _g17(field.t[i]), _g17(field.omega[i]), _g17(field.delta[i]),
            _g17(field.phi[i]), _g17(field.omega_r[i]), _g17(field.omega0[i]),
        ]))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_svg(run: ScenarioRun, kind: str, path) -> None:
    """Write one diagnostic chart: 'pulse', 'populations', or 'bloch3d'."""
    name = run.config.name
    if kind == "pulse":
        svgplot.line_chart(
            path, f"{name}: synthesized drive", "t (ps)", "rad/ps", run.grid,
            [("omega_R", run.field.omega_r, False),
             ("delta", run.field.delta, False),
             ("omega0", run.field.omega0, True)])
    elif kind == "populations":
        series = [("P_e prescribed", 0.5 * (1.0 + run.samples.w), True)]
        if run.config.pictures:
            first = run.results[run.config.pictures[0]]
            pops = first.populations
            series.insert(0, (f"P_e {first.picture}", pops[:, 0], False))
            series.append((f"P_g {first.picture}", pops[:, 1], False))
        svgplot.line_chart(path, f"{name}: populations", "t (ps)", "population",
                           run.grid, series)
    elif kind == "bloch3d":
        if run.config.pictures:
            bloch = run.results[run.config.pictures[0]].bloch
        else:
            u, v, w = run.prescribed
            bloch = np.stack([u, v, w], axis=1)
        svgplot.bloch_chart(path, f"{name}: Bloch trajectory", bloch)
    else:
        raise ValidationError(f"unknown chart kind {kind!r}; known: {list(SVG_KINDS)}")


def export_all(run: ScenarioRun, out_dir, *, svg: bool = False) -> list[Path]:
    """Write the scenario CSV (plus charts if asked) into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / f"{run.config.name}.csv"]
    export_csv(run, written[0])
    if svg:
        for kind in SVG_KINDS:
            target = out / f"{run.config.name}.{kind}.svg"
            export_svg(run, kind, target)
            written.append(target)
    return written
