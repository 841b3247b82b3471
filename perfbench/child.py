"""One benchmark process: set up a workload, then run it as a closed loop.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
                               --workdir DIR --result FILE [--setup-only]

Imports blochpulse from the checkout's ``src``, generates the workload's
inputs, and writes its raw measurements as JSON to ``--result``. With
``--setup-only`` it stops after set-up, so the parent can time set-up more
than once. ``run.py`` starts this process; it is not meant to be run alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 20  # kernel runs right after set-up, to scale the set-up time


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _environment(np, scipy) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _loop(workload, tracer, probe, seconds: float, traced: bool) -> dict:
    """Run whole cycles until ``seconds`` have passed.

    Untraced: every op is timed once. Traced: every op runs twice, once with
    the wrappers off and once with spans on, in alternating order, so the
    pair gives the tracing overhead on identical input. The speed probe runs
    between ops, outside the timed region.
    """
    starts, times, keys, failures, overheads = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        for op in workload.cycle(cycles):
            probe.maybe_run()
            starts.append(time.perf_counter())
            if traced:
                order = (False, True) if len(times) % 2 == 0 else (True, False)
                pair = {}
                for on in order:
                    tracer.active = on
                    error, result, pair[on] = tracer.run_op(op.call)
                tracer.active = True
                overheads.append(pair[True] / pair[False])
                dt = pair[True]
            else:
                error, result, dt = tracer.run_op(op.call)
            times.append(dt)
            keys.append(op.key)
            if error is None:
                try:
                    reason = op.check(result)
                except Exception as exc:  # a checker crash is a failed op, not a crash
                    reason = f"check raised {type(exc).__name__}: {exc}"
            else:
                reason = f"{type(error).__name__}: {error}"
            if reason:
                failures.append(f"{op.key}: {reason}")
        cycles += 1
        if time.perf_counter() >= deadline:
            break
    return {"times": times, "scaled": probe.scale(starts, times), "keys": keys,
            "failures": failures, "cycles": cycles, "overheads": overheads,
            "probe_times": probe.times}


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    import blochpulse
    import_s = time.perf_counter() - t0
    where = Path(blochpulse.__file__).resolve().parent
    if where != (ROOT / "src" / "blochpulse").resolve():
        print(f"blochpulse imported from {where}, not from this checkout's src/",
              file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import workloads
    from speed import NOMINAL_S, SpeedProbe
    from tracer import Tracer, layer_metrics

    t0 = time.perf_counter()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    generate_s = time.perf_counter() - t0
    ready = time.monotonic()
    probe = SpeedProbe()
    out = {"ready": ready, "import_s": import_s, "generate_s": generate_s,
           "setup_scale": NOMINAL_S / probe.run(SETUP_PROBES)}
    if not args.setup_only:
        tracer = Tracer(record_spans=bool(args.trace))
        tracer.install()
        out.update(_loop(workload, tracer, probe, args.seconds, bool(args.trace)))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["tail_pct"] = workload.tail_pct
        out["track"] = {"design": workload.track.design, "carrier": workload.track.carrier}
        out["workload"] = workload.describe()
        out["environment"] = _environment(np, scipy)
        out["counts"] = _counts(tracer)
        if args.trace:
            out["layers"] = layer_metrics(tracer, out["cycles"], statistics.median(out["overheads"]))
            out["spans"] = tracer.spans
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


def _counts(tracer) -> dict:
    return {
        "calls": dict(tracer.calls),
        "errors": {f"{layer}:{name}": n for (layer, name), n in tracer.errors.items()},
        "odeint": {k: dict(v) for k, v in tracer.odeint.items()},
        "samples": dict(tracer.samples),
        "csv_bytes": tracer.csv_bytes,
    }


if __name__ == "__main__":
    sys.exit(main())
