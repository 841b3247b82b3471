"""Scenario configs, bundled presets, the end-to-end pipeline, and exports.

A scenario bundles everything needed to synthesize and check one pulse: a
trajectory family, decoherence rates, the transition-frequency profile, the
time window, integration tolerances, and which pictures to simulate.
Scenarios serialize to JSON with unit-tagged quantities; all values are
converted to internal units (ps, rad/ps) on load. Besides "name" and
"pictures", a scenario has one object per section, each described once in
``_SCHEMA``:

  section     selected by  fields (quantity kind)
  trajectory  family       transfer, oscillatory, rabi_decay: the fields of
                           Transfer, Oscillatory, RabiDecay (dimensionless,
                           rate, time, angular frequency or curvature)
  rates       -            dephasing, thermal (rate), occupancy (dimensionless)
  transition  kind         constant: value; ramp: start, stop (angular frequency)
  window      -            start, stop (time), samples (integer, at most
                           1,000,000)
  tolerances  -            rtol, atol (dimensionless)

A quantity is a bare number in internal units or a {"value", "unit"} object.
Fields with defaults may be omitted, and so may "rates" and "tolerances".
"name" is a printable file stem, not "." or ".." and without "/" or "\\";
no picture repeats. Any malformed entry raises ValidationError.

Pictures:
  * "effective-bloch" -- damped component equations (any rates);
  * "interaction"     -- carrier-resolved co-rotating evolution for closed
                         scenarios; for open ones the master equation under
                         the design coupling, which is the effective-Bloch
                         evolution, integrated once for both pictures;
  * "lab"             -- carrier-resolved lab frame, closed scenarios only.

CSV export is deterministic byte-for-byte: fixed header
t_ps,u,v,w,sx,sy,sz,omega_R,phi,omega0,delta with 17-significant-digit
fields; u,v,w are the prescribed components, sx,sy,sz the first simulated
picture. Both CSV writers format whole blocks of rows in numpy, and every
field is the bytes of Python's "%.17g" % value.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the four integrators, tracking_error, synthesize_pulse, eval_components,
# complete_v_closed and solve_consistent_v_open are unused here but stay importable from
# this module: the benchmark tracer in perfbench/ wraps them by name.
from .dynamics import (  # noqa: F401
    SimResult,
    _propagate,
    integrate_bloch_effective,
    integrate_interaction,
    integrate_lab,
    integrate_lindblad,
)
from .errors import ValidationError
from .odeint import _FIRST_STEPS, ATOL, RTOL, _step_floor
from .rates import Rates
from .states import _check_fields, _onto_sphere, _scalar, _show, validate_grid
from .synthesis import ControlField, _synthesize, synthesize_pulse  # noqa: F401
from .trajectories import (  # noqa: F401
    Oscillatory,
    RabiDecay,
    Transfer,
    TrajectorySamples,
    TrajectorySpec,
    complete_v_closed,
    eval_components,
    solve_consistent_v_open,
)
from .verify import TrackingReport, _tracking, tracking_error  # noqa: F401
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

# largest sample grid a window may ask for; bounds the allocation a config can request
_MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class TransitionSpec:
    """Transition angular frequency along the window: a linear ramp, constant if start == stop."""

    start: float
    stop: float

    def __post_init__(self):
        _check_fields(self)

    @property
    def kind(self) -> str:
        """'constant' when start == stop, else 'ramp'."""
        return "constant" if self.start == self.stop else "ramp"

    @classmethod
    def constant(cls, value: float) -> "TransitionSpec":
        return cls(value, value)

    @classmethod
    def ramp(cls, start: float, stop: float) -> "TransitionSpec":
        return cls(start, stop)

    def values(self, grid: np.ndarray) -> np.ndarray:
        """omega0 samples, running linearly from grid start to grid end."""
        grid = validate_grid(grid)
        frac = (grid - grid[0]) / (grid[-1] - grid[0])
        return self.start + (self.stop - self.start) * frac


@dataclass(frozen=True)
class Window:
    """Time window and sample count for a scenario."""

    start: float
    stop: float
    samples: int

    def __post_init__(self):
        for name in ("start", "stop"):
            object.__setattr__(self, name, _scalar(getattr(self, name), f"window {name}"))
        if self.stop <= self.start:
            raise ValidationError("window stop must exceed start")
        if not isinstance(self.samples, int) or not 2 <= self.samples <= _MAX_SAMPLES:
            raise ValidationError(f"window samples must be an integer in [2, {_MAX_SAMPLES}]")
        bound = max(abs(self.start), abs(self.stop))
        # the trajectories and splines square times; this also keeps stop - start finite
        if not math.isfinite(bound * bound):
            raise ValidationError("window bound squared overflows a float")
        steps = max(self.samples - 1, _FIRST_STEPS)  # the integrators' first step: span / 100
        step, floor = (self.stop - self.start) / steps, _step_floor(bound)
        if step < floor:
            what = "sample spacing" if steps == self.samples - 1 else "first integrator step"
            raise ValidationError(f"window {what} {step:g} ps is below the "
                                  f"integrator's step floor {floor:g} ps")

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
    rtol: float = RTOL
    atol: float = ATOL
    pictures: tuple[str, ...] = ("effective-bloch", "interaction")

    def __post_init__(self):
        # the name is the stem of every exported file, so it must not leave the output directory
        name = self.name
        if not (isinstance(name, str) and name.isprintable() and name not in ("", ".", "..")
                and "/" not in name and "\\" not in name):
            raise ValidationError("scenario name must be a printable file stem without '/' or "
                                  f"'\\', and not '.' or '..'; got {_show(name)}")
        for section, kind in (("trajectory", (Transfer, RabiDecay)), ("rates", Rates),
                              ("transition", TransitionSpec), ("window", Window)):
            if not isinstance(getattr(self, section), kind):
                raise ValidationError(f"{section} must be one of this package's {section} types, "
                                      f"got {type(getattr(self, section)).__name__}")
        if not isinstance(self.pictures, (list, tuple)):
            raise ValidationError(f"pictures must be a list or tuple, got {_show(self.pictures)}")
        object.__setattr__(self, "pictures", tuple(self.pictures))
        for pic in self.pictures:
            if not isinstance(pic, str) or pic not in PICTURES:
                raise ValidationError(f"unknown picture {_show(pic)}; known: {list(PICTURES)}")
        if len(set(self.pictures)) != len(self.pictures):
            raise ValidationError(f"pictures must not repeat, got {list(self.pictures)}")
        if "lab" in self.pictures and not self.rates.closed:
            raise ValidationError("the 'lab' picture is defined for closed scenarios only; "
                                  "remove it or zero the rates")
        for name in ("rtol", "atol"):
            object.__setattr__(self, name, _scalar(getattr(self, name), name))
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValidationError("tolerances must lie in (0, 1)")


def _parse_quantity(obj, kind: str | None, name: str):
    """Turn one JSON value into a number: the only place the schema does so.

    ``kind`` is a key of ``_UNIT_SCALES``, ``None`` for a dimensionless float,
    or ``"count"`` for a bare integer, passed on unchanged. A bare number is taken to be in
    internal units; a ``{"value", "unit"}`` object is converted from its unit.
    """
    if kind == "count":
        return obj  # as given: Window checks its sample count
    unit = None
    if isinstance(obj, dict):
        if set(obj) - {"value", "unit"} or "value" not in obj:
            raise ValidationError(f"{name}: quantity must be {{'value', 'unit'}}, "
                                  f"got keys {sorted(obj, key=str)}")
        obj, unit = obj["value"], obj.get("unit")
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{name}: expected a number or a value/unit object")
    scale = 1.0
    if unit is not None:
        if kind is None:
            raise ValidationError(f"{name} is dimensionless; drop its unit")
        scales = _UNIT_SCALES[kind]
        if not isinstance(unit, str):
            raise ValidationError(f"{name}: unit must be a string")
        if unit not in scales:
            raise ValidationError(f"{name}: unknown {kind} unit {unit!r}; known: {sorted(scales)}")
        scale = scales[unit]
    return _scalar(obj, name) * scale


def _tolerances(rtol: float = ScenarioConfig.rtol, atol: float = ScenarioConfig.atol) -> dict:
    """The tolerances section as ScenarioConfig keyword arguments."""
    return {"rtol": rtol, "atol": atol}


_AF = "angular_frequency"

# The JSON schema: section -> (discriminator key or None, {variant: (constructor,
# {field: quantity kind})}). Required fields are the constructor's parameters
# without defaults. The dumper reads each field back as the attribute of the
# same name; _ATTRIBUTE lists the one exception.
_SCHEMA = {
    "trajectory": ("family", {
        "transfer": (Transfer, {
            "inversion_start": None, "inversion_stop": None, "switch_rate": "rate",
            "coherence_peak": None, "peak_width": "time", "peak_time": "time"}),
        "oscillatory": (Oscillatory, {
            "inversion_start": None, "inversion_stop": None, "switch_rate": "rate",
            "coherence_peak": None, "peak_width": "time", "ripple_amplitude": None,
            "ripple_frequency": _AF, "peak_time": "time"}),
        "rabi_decay": (RabiDecay, {
            "inversion_amplitude": None, "decay_curvature": "curvature",
            "inversion_frequency": _AF, "chirp_rate": "curvature",
            "coherence_amplitude": None, "coherence_frequency": _AF}),
    }),
    "rates": (None, {None: (Rates, {"dephasing": "rate", "thermal": "rate", "occupancy": None})}),
    "transition": ("kind", {
        "constant": (TransitionSpec.constant, {"value": _AF}),
        "ramp": (TransitionSpec.ramp, {"start": _AF, "stop": _AF}),
    }),
    "window": (None, {None: (Window, {"start": "time", "stop": "time", "samples": "count"})}),
    "tolerances": (None, {None: (_tolerances, {"rtol": None, "atol": None})}),
}
_ATTRIBUTE = {"value": "start"}  # a constant transition keeps its value as start (== stop)


def _load_section(section: str, d):
    """Build one section's object from its JSON dict, rejecting any malformed entry."""
    key, variants = _SCHEMA[section]
    if not isinstance(d, dict):
        raise ValidationError(f"{section} must be an object")
    variant = None
    if key is not None:
        if key not in d:
            raise ValidationError(f"{section} must have a '{key}' key")
        variant = d[key]
        if not isinstance(variant, str):
            raise ValidationError(f"{section}: '{key}' must be a string")
        if variant not in variants:
            raise ValidationError(f"unknown {section} {key} {variant!r}; known: {sorted(variants)}")
    make, fields = variants[variant]
    extra = set(d) - set(fields) - {key}
    if extra:
        raise ValidationError(f"{section}: unknown keys {sorted(extra, key=str)}")
    params = inspect.signature(make).parameters
    missing = [f for f in fields if f not in d and params[f].default is inspect.Parameter.empty]
    if missing:
        raise ValidationError(f"{section}: missing keys {missing}")
    return make(**{f: _parse_quantity(d[f], kind, f"{section}.{f}")
                   for f, kind in fields.items() if f in d})


def _dump_section(section: str, obj) -> dict:
    """The JSON dict of one section's object, quantities tagged with internal units."""
    key, variants = _SCHEMA[section]
    for variant, (make, fields) in variants.items():
        if variant is None or make is type(obj) or variant == getattr(obj, key, None):
            out = {} if key is None else {key: variant}
            for f, kind in fields.items():
                value = getattr(obj, _ATTRIBUTE.get(f, f))
                out[f] = value if kind in (None, "count") else \
                    {"value": value, "unit": _INTERNAL_UNIT[kind]}
            return out
    raise ValidationError(f"{section}: cannot serialize {type(obj).__name__}")


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain JSON-style dict.

    Unknown keys anywhere raise ValidationError so typos fail loudly; so does
    every other malformed entry.
    """
    if not isinstance(d, dict):
        raise ValidationError("scenario must be a JSON object")
    extra = set(d) - {"name", "pictures", *_SCHEMA}
    if extra:
        raise ValidationError(f"scenario: unknown keys {sorted(extra, key=str)}")
    for key in ("name", "trajectory", "transition", "window"):
        if key not in d:
            raise ValidationError(f"scenario: missing key '{key}'")
    sections = {s: _load_section(s, d.get(s, {})) for s in _SCHEMA}
    tolerances = sections.pop("tolerances")
    return ScenarioConfig(name=d["name"], pictures=d.get("pictures", ScenarioConfig.pictures),
                          **sections, **tolerances)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Serialize a ScenarioConfig to a JSON-ready dict in internal units.

    Round-trips exactly: scenario_from_dict(scenario_to_dict(cfg)) == cfg.
    """
    out = {"name": cfg.name}
    for section in _SCHEMA:
        out[section] = _dump_section(section, cfg if section == "tolerances"
                                     else getattr(cfg, section))
    out["pictures"] = list(cfg.pictures)
    return out


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # ValueError covers bad JSON, bad UTF-8 and integers too long to parse
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(data)


def save_scenario(cfg: ScenarioConfig, path) -> None:
    """Write a scenario to a JSON file (stable key order, 2-space indent)."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(cfg), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# bundled presets

def _fig1_line(tag: str, inv_start: float, inv_stop: float, peak: float,
               **ripple: float) -> ScenarioConfig:
    """A transfer of the fig1 set; fig2's is fig1_L3's with a ripple on the inversion."""
    family = Oscillatory if ripple else Transfer
    return ScenarioConfig(
        name=tag,
        trajectory=family(inversion_start=inv_start, inversion_stop=inv_stop,
                          switch_rate=0.01, coherence_peak=peak, peak_width=100.0, **ripple),
        rates=Rates(),
        transition=TransitionSpec.ramp(1e-3, 15e-3),  # 1 -> 15 GHz across the window
        window=Window(-120.0, 120.0, 1201),
        pictures=PICTURES,
    )


# name -> (one-line note, scenario), in ``preset list`` order
_PRESETS = {
    "fig1_L1": ("gentle population transfer -0.1 -> 0.1, ramped transition frequency",
                _fig1_line("fig1_L1", -0.10, 0.10, 0.1)),
    "fig1_L2": ("population transfer -0.25 -> 0.25, ramped transition frequency",
                _fig1_line("fig1_L2", -0.25, 0.25, 0.2)),
    "fig1_L3": ("population transfer -0.5 -> 0.5, ramped transition frequency",
                _fig1_line("fig1_L3", -0.50, 0.50, 0.4)),
    "fig1_L4": ("population transfer -0.75 -> 0.75, ramped transition frequency",
                _fig1_line("fig1_L4", -0.75, 0.75, 0.6)),
    "fig1_L5": ("full inversion -1 -> 1, strongest drive of the transfer set",
                _fig1_line("fig1_L5", -1.00, 1.00, 0.8)),
    "fig2": ("transfer with a cosine ripple on the inversion",
             _fig1_line("fig2", -0.50, 0.50, 0.4, ripple_amplitude=0.03, ripple_frequency=0.08)),
    "fig3": ("open-system transfer to the equal-population state under dephasing and decay",
             ScenarioConfig(
                 name="fig3",
                 trajectory=Transfer(inversion_start=-1.0, inversion_stop=0.0,
                                     switch_rate=0.02, coherence_peak=0.2, peak_width=60.0),
                 rates=Rates(dephasing=1e-3, thermal=1e-4, occupancy=0.0),
                 transition=TransitionSpec.constant(5e-3),
                 window=Window(-200.0, 200.0, 1201),
                 pictures=("effective-bloch", "interaction"),
             )),
    "fig4": ("chirped, decaying inversion oscillation in the ultra-strong regime", ScenarioConfig(
        name="fig4",
        trajectory=RabiDecay(inversion_amplitude=0.98, decay_curvature=5e-8,
                             inversion_frequency=math.pi * 1e-3, chirp_rate=2e-6,
                             coherence_amplitude=0.3, coherence_frequency=math.pi * 1e-3),
        rates=Rates(),
        transition=TransitionSpec.constant(1e-4),
        window=Window(0.0, 6000.0, 3001),
        pictures=PICTURES,
    )),
}


def preset_names() -> list[str]:
    """Names of the bundled scenarios, in a stable order."""
    return list(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    """Look up a bundled scenario by name."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise ValidationError(
            f"unknown preset name {_show(name)}; available: {', '.join(_PRESETS)}")
    return _PRESETS[name][1]


def preset_note(name: str) -> str:
    """One-line description of a bundled scenario."""
    preset(name)
    return _PRESETS[name][0]


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
    samples, v, field = _synthesize(cfg.trajectory, cfg.rates, cfg.transition.values(grid), grid)
    r0 = _onto_sphere(np.array([samples.u[0], v[0], samples.w[0]]))

    # the picture that runs each requested one: an open scenario's interaction picture is
    # its effective-Bloch evolution, integrated once for both
    runs = {pic: "effective-bloch" if pic == "interaction" and not cfg.rates.closed else pic
            for pic in cfg.pictures}
    starts = {name: _to_corotating(r0, -field.phi[0]) if name == "lab" else r0
              for name in runs.values()}
    sims = _propagate(field, cfg.rates, starts, grid, cfg.rtol, cfg.atol) if starts else {}
    results: dict[str, SimResult] = {pic: sims[name] for pic, name in runs.items()}
    reports: dict[str, TrackingReport] = {}
    for pic, res in results.items():
        # each report carries the requested picture's name, whichever picture ran it
        bloch = _to_corotating(res.bloch, field.phi) if pic == "lab" else res.bloch
        reports[pic] = _tracking(pic, res.t, bloch, samples.u, v, samples.w)

    return ScenarioRun(config=cfg, grid=grid, samples=samples, v=v, field=field,
                       results=results, reports=reports)


def _to_corotating(bloch, phi) -> np.ndarray:
    """Lab-frame Bloch vectors in the frame rotated by ``phi`` about z.

    ``frame_transform(..., "to_interaction")`` on the Bloch vectors, without
    the density matrices; ``-phi`` maps the other way.
    """
    c, s = np.cos(phi), np.sin(phi)
    u, v, w = bloch[..., 0], bloch[..., 1], bloch[..., 2]
    return np.stack([u * c + v * s, v * c - u * s, w], axis=-1)


# ---------------------------------------------------------------------------
# exports

_CSV_HEADER = "t_ps,u,v,w,sx,sy,sz,omega_R,phi,omega0,delta"
_FIELD_CSV_HEADER = "t_ps,omega,delta,phi,omega_R,omega0"


_CSV_BLOCK_ROWS = 640  # rows formatted per call, which bounds the memory of one call


def _write_csv(path, header: str, columns) -> None:
    """Write the header, then one row per sample of 17-significant-digit fields.

    Each field is the bytes of Python's ``"%.17g" % value``. ``_csv_lines`` gets
    the 17 digits as round(|x| 10**(16 - k)) from an exact double-double product,
    and leaves to ``"%.17g"`` the values it cannot round with certainty. It lays
    each field out in a NUL-padded 32-byte slot of four 64-bit words, and one
    ``bytes.translate`` drops the NULs of a whole block.
    """
    table = np.column_stack(columns) if columns else np.empty((0, 0))
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            fh.write(_csv_lines(table[start:start + _CSV_BLOCK_ROWS]))


@functools.cache
def _csv_tables() -> tuple:
    """Read-only tables of ``_csv_lines``, built at its first call."""
    # 10**q at q + 281 for q in [-281, 297]: hi is the double nearest 10**q, lo the double
    # nearest 10**q - hi, least the least double >= 10**q, and top + low = hi splits hi
    # into halves of 26 bits (Dekker)
    hi, lo = [], []
    for q in range(-281, 298):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        a, b = (num / den).as_integer_ratio()
        hi.append(num / den)
        lo.append((num * b - a * den) / (den * b))
    hi, lo = np.array(hi), np.array(lo)
    least = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    split = 134217729.0 * hi  # 2**27 + 1
    top = split - (split - hi)

    def words(chunks):  # little-endian, so a word's bytes are the same on any host
        return np.frombuffer(b"".join(c.ljust(8, b"\0") for c in chunks), "<u8")

    # four digits by value in a word's low half, first with the trailing zeros blank, then
    # (at + 10000) in full; and the first digit in a word's top byte
    quads = [b"%04d" % v for v in range(10000)]
    digits = words([q.rstrip(b"0") for q in quads] + quads)
    first = words([b"\0" * 7 + b"%d" % v for v in range(10)])
    # by k + 330 for k in [-330, 330], as %g lays out a field with k: the "0." lead of
    # -4 <= k < 0 after the sign; masks of the `whole` digits before the point after the
    # first one, in words 1 and 2; the point after them; and the exponent at word 3's byte 2
    layouts = []
    for k in range(-330, 331):
        fixed = -4 <= k <= 16
        whole = max(k, 0) if fixed else 0
        point = b"" if fixed and k < 0 else b"\0" * whole + b"."
        keep = b"\xff" * whole
        layouts.append([b"\0" + (b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""),
                        keep[:8], keep[8:], point[:8], point[8:16],
                        b"\0\0" + (b"" if fixed else b"e%+03d" % k)])
    by_k = words(sum(zip(*layouts), ())).reshape(6, -1)
    marks = words([b"0" * 8, b"-", b"\0" * 7 + b",", b"\0" * 7 + b"\n"])
    tables = (hi, least, top, hi - top, lo, digits, first, by_k, marks)
    for table in tables:
        table.flags.writeable = False
    return tables


def _csv_lines(block: np.ndarray) -> bytes:
    """The rows of a 2-D float block as CSV lines of ``"%.17g"`` fields.

    Each value gets a 32-byte slot of four little-endian 64-bit words, each word one
    contiguous array over the block: word 0 holds the sign, the "0.000" lead and the first
    digit; words 1 and 2 the other 16 digits, those before the point kept by a mask chosen
    by k and those after it moved one byte later to leave room for the point; word 3 the
    last of them, the exponent and the separator. Unused bytes are NUL, and one
    ``bytes.translate`` drops them all.
    """
    hi, least, top, low, lo, digits, first, by_k, marks = _csv_tables()
    x = block.ravel()
    mag = np.abs(x)
    zero = mag == 0.0
    fast = zero | ((mag >= 1e-280) & (mag < 1e280))
    mag = np.where(fast & ~zero, mag, 1.0)
    # k = floor(log10 |x|): log10 may round across a power of ten, so compare exactly
    k = np.floor(np.log10(mag)).astype(np.int64)
    k += (mag >= least.take(k + 282)).astype(np.int64) - (mag < least.take(k + 281))
    # |x| 10**(16 - k) = p + e in [1e16, 1e17) by Dekker's product with hi + lo: p > 2**53 is
    # an integer and e good to 1e-14, so round(p + e) is certain unless e is near a tie
    i = 297 - k
    m_split = 134217729.0 * mag
    m_top = m_split - (m_split - mag)
    m_low = mag - m_top
    p = mag * hi.take(i)
    t_top, t_low = top.take(i), low.take(i)
    e = (((m_top * t_top - p) + m_top * t_low + m_low * t_top) + m_low * t_low
         + mag * lo.take(i))
    f = np.floor(e)
    fast &= np.abs(e - f - 0.5) > 1e-6
    n = p.astype(np.int64) + f.astype(np.int64) + (e - f > 0.5)
    carry = n == 10 ** 17  # rounded up to the next power of ten
    n[carry] = 10 ** 16
    k += carry
    n[zero] = 0
    # the 17 digits: one, then four groups of four, each written in full when a later
    # group is non-zero and with its trailing zeros blank otherwise; so the fraction is
    # non-zero, and needs a point, exactly where a byte after the point is not NUL
    head = n // 10 ** 8
    tail = n - head * 10 ** 8
    g0, g2 = head // 10 ** 4, tail // 10 ** 4
    g1, g3 = head - g0 * 10 ** 4, tail - g2 * 10 ** 4
    g_top = g0 // 10 ** 4
    # every word operation stays in uint64: numpy 1.x takes uint64 with int64 to float64
    b8, b32, b56 = np.uint64(8), np.uint64(32), np.uint64(56)
    w1 = digits.take(g0 - g_top * 10 ** 4 + 10000 * ((g1 | tail) != 0))
    w1 |= digits.take(g1 + 10000 * (tail != 0)) << b32
    w2 = digits.take(g2 + 10000 * (g3 != 0))
    w2 |= digits.take(g3) << b32
    lead, keep1, keep2, point1, point2, suffix = by_k
    zeros, minus, comma, newline = marks
    j = k + 330
    keep1, keep2 = keep1.take(j), keep2.take(j)
    frac1, frac2 = w1 & ~keep1, w2 & ~keep2
    dot = (frac1 | frac2) != 0
    slots = np.empty((len(x), 4), "<u8")
    slots[:, 0] = lead.take(j) | first.take(g_top) | np.signbit(x) * minus
    slots[:, 1] = ((w1 | zeros) & keep1) | (frac1 << b8) | point1.take(j) * dot
    slots[:, 2] = ((w2 | zeros) & keep2) | (frac2 << b8) | (frac1 >> b56) | point2.take(j) * dot
    ends = np.full(block.shape[1], comma)
    ends[-1] = newline
    last = (frac2 >> b56) | suffix.take(j)
    slots.reshape(block.shape + (4,))[:, :, 3] = last.reshape(block.shape) | ends
    # non-finite values, |x| outside [1e-280, 1e280), and possible ties
    fields = slots.view(np.uint8).reshape(len(x), 32)
    for at in np.flatnonzero(~fast):
        fields[at, :31] = np.frombuffer((b"%.17g" % x[at]).ljust(31, b"\0"), np.uint8)
    return slots.tobytes().translate(None, b"\0")


def export_csv(run: ScenarioRun, path) -> None:
    """Write the scenario's sampled data as deterministic CSV.

    Columns: time; prescribed u, v, w; simulated Bloch components of the
    first requested picture; then the synthesized channels. Two runs of the
    same scenario produce byte-identical files. With no pictures requested
    only the header line is written.
    """
    columns = []
    if run.config.pictures:
        sim = run.results[run.config.pictures[0]].bloch
        f = run.field
        columns = [run.grid, *run.prescribed, *sim.T, f.omega_r, f.phi, f.omega0, f.delta]
    _write_csv(path, _CSV_HEADER, columns)


def export_field_csv(field: ControlField, path) -> None:
    """Write just the synthesized control channels as deterministic CSV."""
    _write_csv(path, _FIELD_CSV_HEADER,
               [field.t, field.omega, field.delta, field.phi, field.omega_r, field.omega0])


def export_svg(run: ScenarioRun, kind: str, path) -> None:
    """Write one diagnostic chart: 'pulse', 'populations', or 'bloch3d'."""
    name = run.config.name
    if kind == "pulse":
        svgplot.line_chart(
            path, f"{name}: synthesized drive", "t (ps)", "rad/ps", run.grid,
            [("omega_R", run.field.omega_r, False), ("delta", run.field.delta, False),
             ("omega0", run.field.omega0, True)])
    elif kind == "populations":
        series = [("P_e prescribed", 0.5 * (1.0 + run.samples.w), True)]
        if run.config.pictures:
            first = run.config.pictures[0]
            pops = run.results[first].populations
            series.insert(0, (f"P_e {first}", pops[:, 0], False))
            series.append((f"P_g {first}", pops[:, 1], False))
        svgplot.line_chart(path, f"{name}: populations", "t (ps)", "population", run.grid, series)
    elif kind == "bloch3d":
        if run.config.pictures:
            bloch = run.results[run.config.pictures[0]].bloch
        else:
            u, v, w = run.prescribed
            bloch = np.stack([u, v, w], axis=1)
        svgplot.bloch_chart(path, f"{name}: Bloch trajectory", bloch)
    else:
        raise ValidationError(f"unknown chart kind {_show(kind)}; known: {list(SVG_KINDS)}")


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
