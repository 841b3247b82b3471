"""Command-line interface.

Verbs:
  synthesize   build the pulse for a scenario and write its control channels
  simulate     synthesize, simulate the requested pictures, export CSV/SVG
  verify       synthesize, simulate, and print tracking and sanity reports
  preset       list bundled scenarios or run one end to end

Exit codes: 0 success, 2 invalid input or configuration (including files that
cannot be read or written), 3 numerical failure (singular prescription,
carrier singularity, integrator breakdown).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .scenario import (
    PICTURES,
    ScenarioConfig,
    export_all,
    export_field_csv,
    load_scenario,
    preset,
    preset_names,
    preset_note,
    run_scenario,
)
from .synthesis import synthesize_pulse

__all__ = ["main"]


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    changes = {}
    if args.tol is not None:
        if not 0.0 < args.tol < 1.0:
            raise ValidationError("--tol must lie in (0, 1)")
        changes["rtol"] = args.tol
        changes["atol"] = args.tol
    if args.pictures:
        requested = tuple(p.strip() for p in args.pictures.split(",") if p.strip())
        if not requested:
            raise ValidationError("--pictures must name at least one picture")
        changes["pictures"] = requested
    return dataclasses.replace(cfg, **changes) if changes else cfg


def _cmd_synthesize(args) -> int:
    cfg = load_scenario(args.config)
    grid = cfg.window.grid()
    field = synthesize_pulse(cfg.trajectory, cfg.rates, cfg.transition.values(grid), grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"{cfg.name}.field.csv"
    export_field_csv(field, target)
    denom_floor = float(np.min(1.0 + np.cos(2.0 * field.phi)))
    print(f"{cfg.name}: synthesized {grid.size} samples on [{grid[0]:g}, {grid[-1]:g}] ps")
    print(f"  peak drive / transition frequency: {field.rabi_peak_ratio():.4g}")
    print(f"  carrier-factor floor: {denom_floor:.4g}")
    print(f"  wrote {target}")
    return 0


def _run_and_export(cfg: ScenarioConfig, args) -> int:
    run = run_scenario(cfg)
    written = export_all(run, args.out_dir, svg=args.svg)
    for pic in cfg.pictures:
        print(run.reports[pic].summary())
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    return _run_and_export(_apply_overrides(load_scenario(args.config), args), args)


def _print_sanity(run) -> None:
    for pic, res in run.results.items():
        norm2 = np.einsum("ni,ni->n", res.bloch, res.bloch)  # |r|^2
        line = f"[{pic}] Bloch-norm excess {max(np.sqrt(np.max(norm2)) - 1.0, 0.0):.2e}"
        if run.config.rates.closed:  # Tr(rho^2) - 1 = (|r|^2 - 1) / 2
            line += f", purity defect {np.max(np.abs(norm2 - 1.0)) / 2.0:.2e}"
        if res.stats is not None:
            line += (f"; steps {res.stats.accepted} (+{res.stats.rejected} rejected), "
                     f"rhs evals {res.stats.rhs_evals}")
        print(line)


def _cmd_verify(args) -> int:
    cfg = _apply_overrides(load_scenario(args.config), args)
    run = run_scenario(cfg)
    print(f"{cfg.name}: peak drive / transition frequency "
          f"{run.field.rabi_peak_ratio():.4g}")
    for pic in cfg.pictures:
        print(run.reports[pic].summary())
    _print_sanity(run)
    return 0


def _cmd_preset(args) -> int:
    if args.preset_cmd == "list":
        for name in preset_names():
            print(f"{name:10s} {preset_note(name)}")
        return 0
    return _run_and_export(_apply_overrides(preset(args.name), args), args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochpulse",
        description="Synthesize and verify drives that steer a two-level "
                    "system along prescribed Bloch trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="override both integration tolerances")
        p.add_argument("--pictures", default=None,
                       help=f"comma-separated subset of {','.join(PICTURES)}")

    p_syn = sub.add_parser("synthesize", help="build a pulse and write its channels")
    p_syn.set_defaults(run=_cmd_synthesize)
    p_syn.add_argument("--config", required=True, help="scenario JSON file")
    p_syn.add_argument("--out-dir", default=".", help="output directory")

    p_sim = sub.add_parser("simulate", help="synthesize, simulate, export CSV/SVG")
    p_sim.set_defaults(run=_cmd_simulate)
    p_sim.add_argument("--config", required=True, help="scenario JSON file")
    p_sim.add_argument("--out-dir", default=".", help="output directory")
    p_sim.add_argument("--svg", action="store_true", help="also write SVG charts")
    add_common(p_sim)

    p_ver = sub.add_parser("verify", help="synthesize, simulate, print reports")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("--config", required=True, help="scenario JSON file")
    add_common(p_ver)

    p_pre = sub.add_parser("preset", help="bundled scenarios")
    p_pre.set_defaults(run=_cmd_preset)
    pre_sub = p_pre.add_subparsers(dest="preset_cmd", required=True)
    pre_sub.add_parser("list", help="list bundled scenario names")
    p_run = pre_sub.add_parser("run", help="run a bundled scenario end to end")
    p_run.add_argument("name", help="preset name (see 'preset list')")
    p_run.add_argument("--out-dir", default=".", help="output directory")
    p_run.add_argument("--svg", action="store_true", help="also write SVG charts")
    add_common(p_run)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # unreadable config, unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
