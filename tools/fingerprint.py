"""Fingerprint blochpulse's outputs, and compare two fingerprints array by array.

    python tools/fingerprint.py dump OUT.npz [--presets NAME ...] [--candidates N] [--src DIR]
    python tools/fingerprint.py diff A.npz B.npz

``dump`` writes one ``.npz`` of named arrays:

  * every bundled preset (or the ones named), run by ``run_scenario`` with its
    own pictures: the trajectory samples, v, the field's channels, its channel
    table and step scale, each picture's Bloch vectors, ``IntegrationStats``
    and ``TrackingReport``, the bytes of ``export_csv``, and as ``field_csv`` the
    bytes of ``export_field_csv``; for a closed preset, ``rwa_deviation`` at scale 1
    from the prescription's start; and, as ``svg/<preset>/<kind>``, the bytes of its
    three ``export_svg`` charts;
  * the first N candidates (default 360) that the benchmark's ``sweep`` workload
    draws (``perfbench/workloads.py``) from the seed ``SEED``, in the order of
    one unshuffled block, each run through ``synthesize_pulse``: the
    verdict ("realizable" or the error's class), the error's ``t_first``, and a
    realizable field's channels.

``--src`` picks the blochpulse source tree (default: this checkout's ``src``),
so one checkout's tool can fingerprint another checkout's code on the same
inputs. ``diff`` prints, per array, whether the two are bit-identical and the
largest absolute and relative difference, and exits 1 when any array differs
or is present on one side only.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 3  # of the sweep candidates


def _import(src: Path):
    """blochpulse from ``src``, and the benchmark's workload module."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import blochpulse
    import workloads
    where = Path(blochpulse.__file__).resolve().parent
    if where != (src / "blochpulse").resolve():
        raise SystemExit(f"blochpulse imported from {where}, not from {src}")
    return blochpulse, workloads


def _fields(prefix: str, obj) -> dict:
    """The dataclass ``obj``'s fields as arrays named ``prefix/field``."""
    return {f"{prefix}/{k}": np.asarray(v) for k, v in dataclasses.asdict(obj).items()}


def _field_arrays(prefix: str, field) -> dict:
    return {f"{prefix}/{name}": getattr(field, name)
            for name in ("t", "omega", "delta", "phi", "omega_r", "omega0")}


def dump(path: Path, presets, candidates: int, src: Path) -> int:
    bp, workloads = _import(src)
    out = {}
    for name in presets or bp.preset_names():
        run = bp.run_scenario(bp.preset(name))
        p = f"preset/{name}"
        s = run.samples
        out.update({f"{p}/samples/{k}": getattr(s, k) for k in ("t", "u", "w", "du", "dw")})
        out[f"{p}/v"] = run.v
        out.update(_field_arrays(f"{p}/field", run.field))
        # the channel table (4, 5, intervals) in scipy PPoly's layout (4, intervals, 5)
        out[f"{p}/field/table"] = run.field._coefficients.transpose(0, 2, 1)
        out[f"{p}/field/fastest_scale"] = np.asarray(run.field.fastest_scale)
        for pic, res in run.results.items():
            out[f"{p}/{pic}/bloch"] = res.bloch
            if res.stats is not None:
                out.update(_fields(f"{p}/{pic}/stats", res.stats))
        for pic, report in run.reports.items():
            out.update(_fields(f"{p}/{pic}/report", report))
        if run.config.rates.closed:
            start = np.array([x[0] for x in run.prescribed])
            out[f"{p}/rwa_deviation"] = np.asarray(bp.rwa_deviation(run.field, start, run.grid))
        with tempfile.TemporaryDirectory() as tmp:
            bp.export_csv(run, Path(tmp) / "run.csv")
            out[f"{p}/csv"] = np.frombuffer((Path(tmp) / "run.csv").read_bytes(), np.uint8)
            bp.export_field_csv(run.field, Path(tmp) / "field.csv")
            out[f"{p}/field_csv"] = np.frombuffer((Path(tmp) / "field.csv").read_bytes(),
                                                  np.uint8)
            for kind in bp.scenario.SVG_KINDS:
                bp.export_svg(run, kind, Path(tmp) / "chart.svg")
                out[f"svg/{name}/{kind}"] = np.frombuffer((Path(tmp) / "chart.svg").read_bytes(),
                                                          np.uint8)
    rng = np.random.default_rng(SEED)
    for i in range(candidates):
        c = workloads.make_candidate(rng, *workloads.BLOCK[i % len(workloads.BLOCK)])
        grid = c.window.grid()
        p = f"sweep/{i:04d}"
        try:
            field = bp.synthesize_pulse(c.spec, c.rates, c.transition.values(grid), grid)
        except bp.NumericalError as exc:
            out[f"{p}/verdict"] = np.asarray(type(exc).__name__)
            out[f"{p}/t_first"] = np.asarray(np.nan if exc.t_first is None else exc.t_first)
        else:
            out[f"{p}/verdict"] = np.asarray("realizable")
            out.update(_field_arrays(p, field))
    np.savez(path, **out)
    print(f"{len(out)} arrays written to {path}")
    return 0


def diff(path_a: Path, path_b: Path) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    bad = 0
    print(f"{'array':<48} {'identical':>9} {'max |d|':>10} {'max |d|/max |a|':>16}")
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            bad += 1
            print(f"{key:<48} only in {'A' if key in a else 'B'}")
            continue
        x, y = a[key], b[key]
        same = x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        bad += not same
        if x.dtype.kind not in "fiu" or y.dtype.kind not in "fiu" or x.shape != y.shape:
            print(f"{key:<48} {'yes' if same else 'no':>9} {'-':>10} {'-':>16}")
            continue
        x, y = x.astype(float), y.astype(float)
        with np.errstate(invalid="ignore"):
            d = float(np.max(np.abs(x - y), initial=0.0)) if not same else 0.0
            scale = float(np.max(np.abs(x), initial=0.0))
        rel = d / scale if scale > 0.0 else d
        print(f"{key:<48} {'yes' if same else 'no':>9} {d:>10.3g} {rel:>16.3g}")
    print(f"{len(a.keys() | b.keys())} arrays, {bad} differ or are missing")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="write the fingerprint of one source tree")
    d.add_argument("out", type=Path)
    d.add_argument("--presets", nargs="*", help="preset names (default: all)")
    d.add_argument("--candidates", type=int, default=360, help="sweep candidates (default 360)")
    d.add_argument("--src", type=Path, default=ROOT / "src", help="blochpulse source tree")
    c = sub.add_parser("diff", help="compare two fingerprints")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        return dump(args.out, args.presets, args.candidates, args.src.resolve())
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
