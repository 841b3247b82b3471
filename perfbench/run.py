"""blochpulse benchmark: one closed-loop caller per workload, measured end to end
and, in a traced run, layer by layer.

    python3 perfbench/run.py --workload presets|sweep|dense_cli --seed N
                             --seconds S --trace 0|1

Run from any directory of a checkout; blochpulse is imported from the
checkout's ``src``. Each workload runs single-threaded in a child process
with BLAS threads pinned to 1. Set-up (interpreter start, ``import
blochpulse``, input generation) is timed in three separate children and
reported as the median. The last child then runs whole cycles of ops for
``--seconds`` and checks every output.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Details, including every op time,
the call and integrator counts and, for a traced run, the spans, go to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``. See perfbench/README.md
for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("presets", "sweep", "dense_cli")
SETUP_RUNS = 3
# a residual below the unit roundoff reads as the unit roundoff
ROUNDOFF = 2.0 ** -53


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[key] = "1"
    return env


def _run_child(args, index: int, setup_only: bool) -> dict:
    """Start one child, wait for it, and return its measurements."""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{index}"
    workdir = OUT / "work" / tag
    result = OUT / "work" / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=120.0 if setup_only else 4.0 * args.seconds + 120.0)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark child {tag} timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark child {tag} exited with code {proc.returncode}")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    data["setup_raw_s"] = data["ready"] - spawn
    data["setup_s"] = data["setup_raw_s"] * data["setup_scale"]
    return data


def _percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    s = sorted(values)
    pos = pct / 100.0 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _digits(residual: float) -> float:
    return -math.log10(max(residual, ROUNDOFF))


def _typical(keys: list[str], times: list[float]) -> list[float]:
    """Each op's time replaced by the median time of all ops on the same input.

    blochpulse is deterministic, so repeats of one input differ only by
    machine noise; their median is the input's cost.
    """
    by_key: dict[str, list[float]] = {}
    for key, t in zip(keys, times):
        by_key.setdefault(key, []).append(t)
    median = {key: statistics.median(ts) for key, ts in by_key.items()}
    return [median[key] for key in keys]


def _end_to_end(main: dict, setup_s: float) -> dict:
    times = _typical(main["keys"], main["scaled"])
    tail = _percentile(times, main["tail_pct"])
    attempted = len(times)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ok_frac": ((attempted - len(main["failures"])) / attempted, "frac"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "track_digits_design": (_digits(main["track"]["design"]), "digits"),
        "track_digits_carrier": (_digits(main["track"]["carrier"]), "digits"),
    }


def _print_report(args, main_run: dict, setup: dict, metrics: dict) -> None:
    """Human-readable lines: environment, inputs, counts and every metric."""
    times = main_run["times"]
    attempted = len(times)
    env = main_run["environment"]
    print(f"environment: Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, {env['cpu']}, BLAS threads {env['blas_threads']}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{main_run['cycles']} cycles, {attempted} ops, {len(main_run['failures'])} failed")
    print(f"  inputs: {json.dumps(main_run['workload'])}")
    print(f"  worst tracking sup: design {main_run['track']['design']:.3e}, "
          f"carrier {main_run['track']['carrier']:.3e}")
    probe = main_run["probe_times"]
    print(f"  speed probe: {len(probe)} kernel runs, median {statistics.median(probe) * 1e3:.3f} ms")
    if not args.trace:
        pct = main_run["tail_pct"]
        beyond = attempted - 1 - math.floor(pct / 100.0 * (attempted - 1))
        print(f"  op_tail_ms is p{pct} of {attempted} ops on "
              f"{len(set(main_run['keys']))} distinct inputs; {beyond} ops rank above it")
        print(f"  raw wall times: op p50 {statistics.median(times) * 1e3:.4g} ms, "
              f"p{pct} {_percentile(times, pct) * 1e3:.4g} ms, {attempted / sum(times):.4g} ops/s")
    print(f"  set-up, median of {SETUP_RUNS}: {setup['setup_s']:.4f} s scaled, "
          f"{setup['setup_raw_s']:.4f} s raw "
          f"(import {setup['import_s']:.4f} s, generate {setup['generate_s']:.4f} s)")
    counts = main_run["counts"]
    print(f"  calls: {json.dumps(counts['calls'], sort_keys=True)}")
    print(f"  odeint: {json.dumps({k: v for k, v in counts['odeint'].items() if v}, sort_keys=True)}")
    for line in main_run["failures"][:20]:
        print(f"  FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")


def _terminate(signum, frame):
    # exit through SystemExit, so subprocess.run kills and reaps a running child
    raise SystemExit(f"benchmark stopped by signal {signum}")


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if not (ROOT / "src" / "blochpulse" / "__init__.py").is_file():
        raise SystemExit(f"no src/blochpulse package under {ROOT}; run from a full checkout")
    OUT.mkdir(exist_ok=True)
    runs = [_run_child(args, i, setup_only=True) for i in range(SETUP_RUNS - 1)]
    main_run = _run_child(args, SETUP_RUNS - 1, setup_only=False)
    runs.append(main_run)
    setup = {key: statistics.median(r[key] for r in runs)
             for key in ("setup_s", "setup_raw_s", "import_s", "generate_s")}

    if args.trace:
        layers = main_run["layers"]
        layers["setup.import_s"] = {"value": setup["import_s"], "unit": "s"}
        layers["setup.generate_s"] = {"value": setup["generate_s"], "unit": "s"}
        metrics = {name: (m["value"], m["unit"]) for name, m in layers.items()}
    else:
        metrics = _end_to_end(main_run, setup["setup_s"])

    attempted, failed = len(main_run["times"]), len(main_run["failures"])
    _print_report(args, main_run, setup, metrics)

    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    main_run.pop("ready", None)
    detail.write_text(json.dumps({"setup": setup, "metrics": metrics, **main_run}),
                      encoding="utf-8")
    print(f"  details: {detail.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
