"""The fingerprint tool (``tools/fingerprint.py``): a dump of the same code twice
is bit-identical, and ``diff`` finds and reports a changed array.

Each dump runs in a fresh process, as the tool is run from the command line.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "fingerprint.py"


def _run(*args):
    return subprocess.run([sys.executable, str(_TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_two_dumps_of_the_same_code_do_not_differ(tmp_path):
    paths = [tmp_path / "a.npz", tmp_path / "b.npz"]
    for path in paths:
        proc = _run("dump", path, "--presets", "fig1_L3", "fig3", "--candidates", "6")
        assert proc.returncode == 0, proc.stderr
    proc = _run("diff", *paths)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith(", 0 differ or are missing")
    with np.load(paths[0]) as dump:
        keys = set(dump.files)
        # an open and a closed preset, with a carrier picture and charts, and both sweep
        # verdicts' fields
        assert {"preset/fig3/v", "preset/fig3/interaction/bloch", "preset/fig1_L3/field/table",
                "preset/fig1_L3/effective-bloch/stats/rhs_evals",
                "preset/fig1_L3/effective-bloch/report/sup_w", "preset/fig3/csv",
                "preset/fig3/field_csv", "preset/fig1_L3/field_csv",
                "svg/fig1_L3/pulse", "svg/fig3/populations", "svg/fig3/bloch3d",
                "preset/fig1_L3/rwa_deviation"} <= keys
        assert "preset/fig3/rwa_deviation" not in keys  # recorded for closed presets only
        assert [str(dump[f"sweep/{i:04d}/verdict"]) for i in range(6)].count("realizable") >= 1
        # the table in scipy PPoly's layout: (c0 .. c3) x fig1_L3's 1200 intervals x channels
        assert dump["preset/fig1_L3/field/table"].shape == (4, 1200, 5)
        # a changed array, a dropped one
        arrays = {k: dump[k] for k in keys if k != "preset/fig3/csv"}
    arrays["preset/fig3/v"] = arrays["preset/fig3/v"] * (1.0 + 1e-15)
    np.savez(tmp_path / "c.npz", **arrays)
    proc = _run("diff", paths[0], tmp_path / "c.npz")
    assert proc.returncode == 1
    changed = [line.split() for line in proc.stdout.splitlines()
               if line.startswith(("preset/fig3/v ", "preset/fig3/csv "))]
    assert changed[0][:2] == ["preset/fig3/csv", "only"]
    assert changed[1][:2] == ["preset/fig3/v", "no"] and 0.0 < float(changed[1][3]) < 1e-14
