"""Command-line interface: verbs, outputs on disk, exit codes.

Each failure class maps to a frozen exit code: 2 for configuration problems
(including missing files), 3 for numerical failures such as a carrier
singularity. Most tests call main() in-process; one subprocess test proves
the declared console-script entry point dispatches at all.
"""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blochpulse import (
    ControlField,
    RabiDecay,
    Rates,
    ScenarioConfig,
    Transfer,
    TransitionSpec,
    Window,
    preset,
    save_scenario,
    scenario_to_dict,
)
from blochpulse import cli
from blochpulse.cli import main

_ROOT = Path(__file__).resolve().parents[1]

_MINI = ScenarioConfig(
    name="mini",
    trajectory=Transfer(inversion_start=-0.5, inversion_stop=0.5, switch_rate=0.01,
                        coherence_peak=0.4, peak_width=100.0),
    rates=Rates(),
    transition=TransitionSpec.constant(5e-3),
    window=Window(-60.0, 60.0, 201),
    pictures=("effective-bloch",),
)


@pytest.fixture()
def mini_config(tmp_path):
    path = tmp_path / "mini.json"
    save_scenario(_MINI, path)
    return path


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_open_preset_labels_its_report_and_sanity_lines_alike(tmp_path, capsys):
    # fig3 is open, so its "interaction" picture runs the master equation
    path = tmp_path / "fig3.json"
    save_scenario(preset("fig3"), path)
    assert main(["verify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^\[interaction\] sup ", out, re.M)
    assert re.search(r"^\[interaction\] Bloch-norm excess ", out, re.M)
    assert "[lindblad]" not in out


def test_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fig1_L1    gentle population transfer -0.1 -> 0.1, ramped transition frequency",
        "fig1_L2    population transfer -0.25 -> 0.25, ramped transition frequency",
        "fig1_L3    population transfer -0.5 -> 0.5, ramped transition frequency",
        "fig1_L4    population transfer -0.75 -> 0.75, ramped transition frequency",
        "fig1_L5    full inversion -1 -> 1, strongest drive of the transfer set",
        "fig2       transfer with a cosine ripple on the inversion",
        "fig3       open-system transfer to the equal-population state under dephasing and decay",
        "fig4       chirped, decaying inversion oscillation in the ultra-strong regime",
    ]


def test_preset_run_writes_outputs(tmp_path, capsys):
    code = main(["preset", "run", "fig1_L1", "--out-dir", str(tmp_path),
                 "--svg", "--pictures", "effective-bloch"])
    assert code == 0
    assert (tmp_path / "fig1_L1.csv").exists()
    for kind in ("pulse", "populations", "bloch3d"):
        assert (tmp_path / f"fig1_L1.{kind}.svg").exists()
    out = capsys.readouterr().out
    assert "[effective-bloch]" in out
    assert "wrote" in out


def test_preset_run_unknown_name(tmp_path, capsys):
    assert main(["preset", "run", "nope", "--out-dir", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_synthesize_writes_field_csv(mini_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["synthesize", "--config", str(mini_config),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "mini.field.csv").exists()
    out = capsys.readouterr().out
    assert "carrier-factor floor" in out


def test_synthesize_has_no_tolerance_option(mini_config, tmp_path):
    # synthesis never reads the scenario's tolerances
    with pytest.raises(SystemExit) as exit_info:
        main(["synthesize", "--config", str(mini_config), "--out-dir", str(tmp_path),
              "--tol", "0.5"])
    assert exit_info.value.code == 2


def test_simulate_writes_csv(mini_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(mini_config),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "mini.csv").exists()
    assert "[effective-bloch]" in capsys.readouterr().out


def test_verify_prints_reports_and_sanity(mini_config, capsys):
    assert main(["verify", "--config", str(mini_config)]) == 0
    out = capsys.readouterr().out
    assert "[effective-bloch]" in out
    assert "Bloch-norm excess" in out
    assert "purity defect" in out


def test_verify_tolerance_override(mini_config, capsys):
    assert main(["verify", "--config", str(mini_config), "--tol", "1e-8"]) == 0
    assert main(["verify", "--config", str(mini_config), "--tol", "2.0"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_loose_tolerance_exits_0(tmp_path, capsys):
    # a loosely integrated run may end a hair outside the Bloch ball; the
    # sanity line reports that excess instead of rejecting the run
    path = tmp_path / "fig2.json"
    save_scenario(preset("fig2"), path)
    assert main(["verify", "--config", str(path), "--tol", "1e-6"]) == 0
    out, err = capsys.readouterr()
    assert "Bloch-norm excess" in out and err == ""


def test_missing_config_file(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory", encoding="utf-8")
    assert main(["preset", "run", "fig1_L1", "--out-dir", str(blocker),
                 "--pictures", "effective-bloch"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for family, message in (("spiral", "unknown trajectory family"),
                            (["transfer"], "error:")):
        data = {"name": "bad",
                "trajectory": {"family": family},
                "transition": {"kind": "constant", "value": 5e-3},
                "window": {"start": 0.0, "stop": 10.0, "samples": 11}}
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "start, stop, samples",
    [(-1e308, 1e308, 201), (0.0, 1e-300, 201), (-1e300, 1e300, 201), (1e15, 1e15 + 300, 11)],
    ids=["-1e+308-1e+308", "0.0-1e-300", "-1e+300-1e+300", "1e+15-1e+15+300-11"])
def test_window_the_integrator_cannot_resolve_exits_2(tmp_path, capsys, start, stop, samples):
    # the span or a bound squared overflows a float, or the sample spacing or the
    # integrator's first step, span / 100, is below the step floor (3.55 ps at 1e15 ps)
    data = scenario_to_dict(_MINI)
    data["window"].update(start=start, stop=stop, samples=samples)
    path = tmp_path / "window.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Warning" not in out + err and not caught


@pytest.mark.parametrize("span", [1e8, 1e100])
def test_window_past_the_carrier_pole_exits_3(tmp_path, capsys, span):
    # the sigmoid overflows in the far tails, and at 1e100 ps so does the
    # phase; either way the run stops at the first time the carrier factor
    # fails, without a warning
    data = scenario_to_dict(preset("fig1_L3"))
    data["window"].update(start=-span, stop=span)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
    t_first = float(re.search(r"t = (\S+) ps", err).group(1))
    assert -span <= t_first <= span
    assert "Warning" not in out + err and not caught


def test_infinite_field_exits_3_at_its_first_node(mini_config, capsys, monkeypatch):
    # a design field that is infinite from t = 0 on: the run stops at the first node of
    # the failing step where the field is not finite, not at that step's start
    def values(times):
        rows = np.zeros((5, times.size))
        rows[1] = np.where(times < 0.0, 0.0, np.inf)  # delta, and the design field's bz is -delta
        return rows
    monkeypatch.setattr(ControlField, "_reader",
                        lambda field, rows=slice(None): lambda times: values(times)[rows])
    assert main(["verify", "--config", str(mini_config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite") and len(err.splitlines()) == 1
    assert 0.0 <= float(re.search(r"t = (\S+) ps", err).group(1)) < 1.0


def test_a_drive_that_overflows_exits_3_at_its_first_time(tmp_path, capsys):
    # dw is NaN from t = 1e9 ps on while u and w stay finite; synthesis stops there
    cfg = ScenarioConfig(name="overflow", trajectory=RabiDecay(0.5, 1e300, 1e-3, 0.0, 0.3, 1e-3),
                         rates=Rates(), transition=TransitionSpec.constant(1.0),
                         window=Window(0.0, 4e9, 5))
    path = tmp_path / "overflow.json"
    save_scenario(cfg, path)
    assert main(["verify", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert err == "numerical failure: Omega or Delta is not finite at t = 1e+09 ps\n"


def test_an_envelope_that_overflows_exits_3_at_its_first_time(tmp_path, capsys):
    # Omega is finite, but Omega_R = Omega / (1 + cos(2 phi)) overflows at t = 2 ps alone
    cfg = ScenarioConfig(name="envelope", trajectory=RabiDecay(0.5, 0.0, 1e307, 0.0, 0.3, 1e-3),
                         rates=Rates(), transition=TransitionSpec.constant(1.5),
                         window=Window(0.0, 2.0, 21))
    path = tmp_path / "envelope.json"
    save_scenario(cfg, path)
    assert main(["verify", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert err == "numerical failure: Omega_R is not finite at t = 2 ps\n"


def test_a_lab_field_infinite_from_zero_exits_3_with_the_lab_failure(tmp_path, capsys,
                                                                    monkeypatch):
    # omega0 feeds only the lab field, the last of fig1_L3's three pictures, which run in
    # one batch: the other two finish, and the one line is the lab picture's own failure,
    # as when each picture ran alone
    real = ControlField._reader

    def reader(field, rows=slice(None)):
        values, table_rows = real(field, rows), range(5)[rows]

        def broken(times):
            out = values(times)
            if 4 in table_rows:
                k = table_rows.index(4)
                out[k] = np.where(times > 0.0, np.inf, out[k])
            return out
        return broken

    monkeypatch.setattr(ControlField, "_reader", reader)
    path = tmp_path / "fig1_L3.json"
    save_scenario(preset("fig1_L3"), path)
    assert main(["verify", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: non-finite local error estimate at t = 0.48 ps\n"


def test_open_window_past_the_integrator_exits_3(tmp_path, capsys):
    # the open v-completion would need more quadrature panels than the step budget
    # allows; the run stops at the first sample, with a time and without a numpy warning
    data = scenario_to_dict(preset("fig3"))
    data["window"].update(start=-1e100, stop=1e100)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["synthesize", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
    assert re.search(r"t = \S+ ps", err)
    assert "Warning" not in out + err and not caught


@pytest.mark.parametrize("verb", ["synthesize", "simulate"])
@pytest.mark.parametrize("name", ["<outside>/x", "../x", ".", "..", "a\\b", "a\x00b"])
def test_name_that_is_not_a_file_stem_exits_2(tmp_path, capsys, verb, name):
    # the name is the stem of every exported file, so none may land outside --out-dir
    outside = tmp_path / "outside"
    outside.mkdir()
    data = scenario_to_dict(_MINI)
    data["name"] = name.replace("<outside>", str(outside))
    config = tmp_path / "named.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    assert main([verb, "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == [config, outside]


def test_duplicate_pictures_exit_2(mini_config, capsys):
    assert main(["verify", "--config", str(mini_config),
                 "--pictures", "interaction,interaction,effective-bloch"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    assert "repeat" in err


def test_pictures_that_name_no_picture_exit_2(mini_config, capsys):
    assert main(["verify", "--config", str(mini_config), "--pictures", ","]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --pictures must name at least one picture\n"


def test_open_start_off_the_sphere_exits_2(tmp_path, capsys):
    # u = 0.5 and w = -0.982 at the first sample: the open completion has no v to start from
    cfg = ScenarioConfig(name="off", trajectory=Transfer(-1.0, 0.0, 0.02, 0.5, 60.0,
                                                         peak_time=-200.0),
                         rates=Rates(dephasing=1e-3), transition=TransitionSpec.constant(0.05),
                         window=Window(-200.0, 200.0, 401), pictures=("interaction",))
    path = tmp_path / "off.json"
    save_scenario(cfg, path)
    assert main(["verify", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: initial point leaves the Bloch sphere\n"


def test_carrier_singularity_exits_3(tmp_path, capsys):
    pole = ScenarioConfig(
        name="pole",
        trajectory=Transfer(inversion_start=-1.0, inversion_stop=1.0, switch_rate=0.01,
                            coherence_peak=0.8, peak_width=100.0),
        rates=Rates(),
        transition=TransitionSpec.constant(15e-3),
        window=Window(-600.0, 600.0, 1201),
        pictures=("effective-bloch",),
    )
    path = tmp_path / "pole.json"
    save_scenario(pole, path)
    assert main(["synthesize", "--config", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_open_scenario_rejects_lab_picture(capsys):
    assert main(["preset", "run", "fig3", "--pictures", "lab"]) == 2
    assert "'lab' picture" in capsys.readouterr().err


def test_console_script_dispatches():
    # the declared console script points at main; running the package as a
    # module in a fresh interpreter proves that entry point dispatches
    try:
        import tomllib  # Python >= 3.11
    except ModuleNotFoundError:  # Python 3.10: the test extra installs tomli
        import tomli as tomllib

    with open(_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["blochpulse"] == "blochpulse.cli:main"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "blochpulse", "preset", "list"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert "fig4" in proc.stdout


def test_import_loads_no_heavy_scipy_subpackage():
    # no scipy module at all: LAPACK's gtsv is imported where a solve first needs it, and
    # scipy.linalg alone costs a fresh import about 0.24 s
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, blochpulse; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
