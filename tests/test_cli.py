"""Config loading/validation and the command-line front end.

The CLI contract: deterministic byte-identical outputs for identical
inputs, strict config validation before any computation, and exit codes
0 (success), 1 (usage/config error), 2 (terminal simulation condition).
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from sarrusjump import (
    ForceStretchSample,
    GaussianBand,
    LegAngleInterval,
    LinearSpring,
    MooneyRivlinBand,
    apply_overrides,
    build_config,
    default_config,
    load_config,
)
from sarrusjump.cli import main

from params import gaussian_band, mooney_band, nominal_geometry, nominal_masses, sim_options


# ── config ────────────────────────────────────────────────────────────────

def test_default_config_builds():
    run = build_config(default_config())
    assert run.geometry.a == pytest.approx(6.82e-2)
    assert run.masses.mu_C == pytest.approx(16.811e-3)
    assert isinstance(run.elastic, MooneyRivlinBand)
    assert run.elastic.l0 == run.geometry.l0
    assert run.elastic.A0 == run.geometry.A0


def test_config_override_paths():
    cfg = apply_overrides(default_config(), ["masses.mu_C=0", "sim.step=5e-5"])
    run = build_config(cfg)
    assert run.masses.mu_C == 0.0
    assert run.sim.step == 5e-5


def test_config_unknown_override_rejected():
    with pytest.raises(ValueError, match="unknown config path"):
        apply_overrides(default_config(), ["masses.mu=0"])
    with pytest.raises(ValueError, match="key=value"):
        apply_overrides(default_config(), ["masses.mu_C"])


@pytest.mark.parametrize("assignment, message", [
    ("masses=1", "config section 'masses' must be an object"),
    ("elastic=5", "config section 'elastic' must be an object"),
    ('geometry={"a": 0.07}', "missing config key geometry.c"),
])
def test_whole_section_override_is_a_config_error(tmp_path, capsys, assignment, message):
    """A path naming a whole section replaces it, so its value must be an
    object with every key of the section; anything else exits 1 with one
    error line."""
    rc = main(["simulate", "--out", str(tmp_path / "x"), "--set", assignment])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_whole_section_override_replaces_the_section():
    cfg = apply_overrides(default_config(),
                          ['elastic={"model": "linear", "k": 36.0}', "elastic.k=40"])
    assert cfg["elastic"] == {"model": "linear", "k": 40}
    assert build_config(cfg).elastic == LinearSpring(k=40.0, l0=0.085)


@pytest.mark.parametrize("section, edit, message", [
    ("masses", lambda s: 1, "config section 'masses' must be an object"),
    ("elastic", lambda s: 5, "config section 'elastic' must be an object"),
    ("geometry", lambda s: {**s, "zz": 1}, "unknown config key geometry.zz"),
    ("masses", lambda s: {k: v for k, v in s.items() if k != "m1"},
     "missing config key masses.m1"),
    ("masses", lambda s: {k: v for k, v in s.items() if k != "mu_C"},
     "missing config key masses.mu_C"),
    ("sim", lambda s: {k: v for k, v in s.items() if k != "theta0"},
     "missing config key sim.theta0"),
], ids=["masses=1", "elastic=5", "unknown", "missing", "missing-default", "missing-sim"])
def test_build_config_names_a_bad_section_or_key(section, edit, message):
    """A section that is not an object, and a key a section does not
    declare or lacks, are config errors naming the dotted key; a missing
    key never falls back to a parameter object's default."""
    cfg = default_config()
    cfg[section] = edit(cfg[section])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_config(cfg)


def test_config_override_switches_band_law():
    cfg = apply_overrides(default_config(), ["elastic.model=gaussian",
                                             "elastic.C0=4.794e-3", "elastic.T=296"])
    assert cfg["elastic"] == {"model": "gaussian", "C0": 4.794e-3, "T": 296}
    assert isinstance(build_config(cfg).elastic, GaussianBand)
    with pytest.raises(ValueError, match="missing elastic keys for linear"):
        build_config(apply_overrides(default_config(), ["elastic.model=linear"]))


def test_config_unknown_elastic_key_exit_code(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "x"), "--set", "elastic.kk=1"])
    assert rc == 1
    assert "unknown elastic keys for mooney_rivlin: ['kk']" in capsys.readouterr().err


def test_config_file_merge_and_strictness(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"masses": {"mu_C": 0.002}}))
    cfg = load_config(path)
    assert cfg["masses"]["mu_C"] == 0.002
    assert cfg["geometry"]["a"] == 6.82e-2  # untouched defaults

    path.write_text(json.dumps({"masses": {"mu": 0.002}}))
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)
    path.write_text(json.dumps({"extras": {}}))
    with pytest.raises(ValueError, match="unknown config section"):
        load_config(path)


def test_config_elastic_variants(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"elastic": {"model": "gaussian", "C0": 47.94e-4, "T": 296.0}}))
    run = build_config(load_config(path))
    assert isinstance(run.elastic, GaussianBand)

    path.write_text(json.dumps({"elastic": {"model": "linear", "k": 40.0}}))
    run = build_config(load_config(path))
    assert isinstance(run.elastic, LinearSpring)

    path.write_text(json.dumps({"elastic": {"model": "linear", "C1": 1.0}}))
    with pytest.raises(ValueError):
        build_config(load_config(path))


def test_config_invariants_revalidated():
    cfg = apply_overrides(default_config(), ["geometry.a=-1"])
    with pytest.raises(ValueError):
        build_config(cfg)


@pytest.mark.parametrize("assignment, message", [
    ("masses.mu_C=NaN", "masses.mu_C must be a finite number, got nan"),
    ("masses.g=Infinity", "masses.g must be a finite number, got inf"),
    ("masses.m1=true", "masses.m1 must be a finite number, got True"),
    ("sim.step=null", "sim.step must be a finite number, got None"),
    ("geometry.exact_derivative=1", "geometry.exact_derivative must be true or false, got 1"),
    ('geometry.exact_derivative="true"',
     "geometry.exact_derivative must be true or false, got 'true'"),
    ("geometry.exact_derivative=null",
     "geometry.exact_derivative must be true or false, got None"),
])
def test_config_rejects_bad_numbers(assignment, message):
    cfg = apply_overrides(default_config(), [assignment])
    with pytest.raises(ValueError, match=message):
        build_config(cfg)


PARAMETERS = (nominal_geometry(), LegAngleInterval(0.1, 1.0), nominal_masses(),
              sim_options(), LinearSpring(k=36.0, l0=0.085), gaussian_band(),
              mooney_band(), ForceStretchSample(1.5, 0.2))


def _fields(flags: bool):
    """(object, field name) of every numeric field, or of every flag field,
    of the parameter objects; a flag is a field whose default is a bool."""
    return [pytest.param(obj, f.name, id=f"{type(obj).__name__}.{f.name}")
            for obj in PARAMETERS for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), bool) == flags]


@pytest.mark.parametrize("obj, name", _fields(flags=False))
def test_parameter_fields_reject_bad_numbers(obj, name):
    """Built directly, not only through build_config, every numeric field
    rejects non-finite values, booleans and non-numbers by name."""
    for bad in (math.nan, math.inf, -math.inf, True, None):
        message = f"^{name} must be a finite number, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(obj, **{name: bad})


@pytest.mark.parametrize("obj, name", _fields(flags=True))
def test_flag_fields_accept_only_booleans(obj, name):
    """A flag field keeps True and False and rejects every other value,
    numbers, strings and None included, by name."""
    for good in (True, False):
        assert getattr(dataclasses.replace(obj, **{name: good}), name) is good
    for bad in (1, 0, 1.0, math.nan, "true", None):
        message = f"^{name} must be true or false, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(obj, **{name: bad})


def test_config_rejects_bad_elastic_number(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"elastic": {"model": "linear", "k": NaN}}')
    with pytest.raises(ValueError, match="elastic.k must be a finite number"):
        build_config(load_config(path))


def test_bad_number_is_a_config_error(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "x"), "--set", "masses.mu_C=NaN"])
    assert rc == 1
    assert "masses.mu_C must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fit", "--data", "{data}"], "line 3: force must be a finite number, got 'nan'"),
    (["phase-portrait", "--portrait-step", "0"], "step must be positive, got 0.0"),
    (["phase-portrait", "--t-span", "-1"], "t_span must be positive, got -1.0"),
    (["mobility", "--base-radius", "nan"], "base_radius must be a finite number, got nan"),
    (["mobility", "--lock", "x:B"], "--lock 'x:B': expected CHAIN:JOINT"),
    (["simulate", "--set", "geometry.exact_derivative=1"],
     "geometry.exact_derivative must be true or false, got 1"),
    (["simulate", "--exact-derivative"], "unrecognized arguments: --exact-derivative"),
])
def test_bad_analysis_input_is_an_error(tmp_path, capsys, argv, message):
    data = tmp_path / "band.csv"
    data.write_text("lambda,force_N\n1.5,0.2\n2.0,nan\n2.5,0.9\n")
    argv = [arg.format(data=data) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


# ── CLI commands ──────────────────────────────────────────────────────────

FAST = ["--set", "sim.step=5e-5"]


def test_simulate_default_config(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--out", str(out)] + FAST)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "TakeOff"
    assert summary["eta_pct"] == pytest.approx(63.1, abs=1.5)
    assert summary["v0_mps"] == pytest.approx(2.9, abs=0.1)
    for key in ("t_off_s", "v0_mps", "h_max_m", "t_aer_s", "eta_pct",
                "E_P0_J", "E_K_J", "friction_work_J", "termination"):
        assert key in summary, key
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,theta,theta_dot,h,h_dot,h_ddot,lambda,F_l,F_y,F_N,T_kin,V_pot,E_band"


def test_simulate_undamped_override(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--out", str(out), "--set", "masses.mu_C=0"] + FAST)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eta_pct"] == pytest.approx(72.5, abs=1.5)


def test_simulate_outputs_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(out1)] + FAST) == 0
    assert main(["simulate", "--out", str(out2)] + FAST) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_stiction_exit_code(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--out", str(out), "--set", "masses.mu_C=1.0"] + FAST)
    assert rc == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "Stiction"
    assert summary["v0_mps"] is None


def test_config_error_exit_code(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path / "x"), "--set", "bogus.key=1"])
    assert rc == 1


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_thrust_profile_command(tmp_path):
    out = tmp_path / "prof"
    rc = main(["thrust-profile", "--out", str(out), "--n-samples", "50"])
    assert rc == 0
    lines = (out / "thrust_profile.csv").read_text().splitlines()
    assert lines[0] == "theta,h,lambda,F_l,F_y,h_norm,Fy_norm"
    assert len(lines) == 51


def test_sensitivity_command(tmp_path):
    out = tmp_path / "sens"
    rc = main(["sensitivity", "--out", str(out), "--parameter", "g",
               "--points", "5"] + FAST)
    assert rc == 0
    lines = (out / "sensitivity_g.csv").read_text().splitlines()
    assert lines[0] == "parameter,proportion,eta_pct,status"
    rows = [line.split(",") for line in lines[1:]]
    etas = [float(r[2]) for r in rows if r[3] == "ok"]
    assert all(a > b for a, b in zip(etas, etas[1:]))  # eta falls as g grows


def test_phase_portrait_command(tmp_path):
    out = tmp_path / "portrait"
    rc = main(["phase-portrait", "--out", str(out), "--release", "1.35",
               "--release", "0.2", "--t-span", "0.4",
               "--set", "masses.mu_C=0"])
    assert rc == 0
    index = json.loads((out / "portrait_index.json").read_text())
    assert index["mu_C"] == 0.0
    assert len(index["trajectories"]) == 2
    assert (out / "portrait_000.csv").exists()
    statuses = {entry["theta0"]: entry["status"] for entry in index["trajectories"]}
    assert statuses[1.35] == "closed"


def test_phase_portrait_command_reports_sticks(tmp_path, capsys):
    """portrait_index.json records each trajectory's RK4 steps, and the
    stick instant and angle of a damped leg that sticks, which is the last
    CSV row; stdout tallies the statuses."""
    out = tmp_path / "portrait"
    rc = main(["phase-portrait", "--out", str(out), "--release", "0.3",
               "--release", "1.275", "--release", "1.45"])
    assert rc == 0
    assert "trajectories: escaped 1, damped 2; 2 stuck" in capsys.readouterr().out
    escaped, damped, still = json.loads((out / "portrait_index.json").read_text())[
        "trajectories"]
    assert escaped["status"] == "escaped" and "stick_t" not in escaped
    assert escaped["rk4_steps"] == escaped["samples"] - 1
    assert damped["status"] == "damped" and damped["rk4_steps"] > damped["samples"]
    last = (out / "portrait_001.csv").read_text().splitlines()[-1].split(",")
    assert [float(last[0]), float(last[1]), float(last[2])] == [
        damped["stick_t"], damped["stick_theta"], 0.0]
    assert (still["samples"], still["rk4_steps"], still["stick_t"],
            still["stick_theta"]) == (1, 0, 0.0, 1.45)


def test_identify_mu_command(tmp_path):
    out = tmp_path / "ident"
    rc = main(["identify-mu", "--out", str(out), "--target-v0", "2.9",
               "--set", "sim.step=4e-5"])
    assert rc == 0
    result = json.loads((out / "identified_mu.json").read_text())
    assert result["mu_C"] == pytest.approx(16.811e-3, rel=0.10)
    assert result["achieved_v0_mps"] == pytest.approx(2.9, abs=1e-3)


def test_fit_command(tmp_path):
    lams = np.linspace(1.1, 2.5, 12)
    rows = ["lambda,force_N"]
    for lam in lams:
        lam = float(lam)
        force = 7e-6 * (2 * 68.88e3 * (lam - lam**-2) + 2 * 73.61e3 * (1 - lam**-3))
        rows.append(f"{lam!r},{force!r}")
    data = tmp_path / "band.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit"
    rc = main(["fit", "--out", str(out), "--data", str(data)])
    assert rc == 0
    result = json.loads((out / "fit_mooney_rivlin.json").read_text())
    assert result["C1_Pa"] == pytest.approx(68.88e3, rel=1e-6)
    assert result["C2_Pa"] == pytest.approx(73.61e3, rel=1e-6)


def test_mobility_command(tmp_path):
    out = tmp_path / "mob"
    rc = main(["mobility", "--out", str(out), "--chains", "3", "--lock", "0:B"])
    assert rc == 0
    report = json.loads((out / "mobility.json").read_text())
    assert report["dof"] == 1
    assert report["constraint_rank"] == 5
    assert report["actuation"][0]["constraint_rank"] == 6
    assert report["azimuths_rad"] == pytest.approx(
        [0.0, 2 * math.pi / 3, 4 * math.pi / 3])


def test_mobility_rejects_parallel_planes(tmp_path):
    rc = main(["mobility", "--out", str(tmp_path / "m"), "--chains", "2",
               "--azimuth-deg", "0", "--azimuth-deg", "180"])
    assert rc == 1
