"""Golden-output guard: the CLI's files must stay byte-identical.

Each case runs one subcommand in-process and compares the sha256 digest of
every file it writes against cli_golden.json.  Performance work must keep
these digests; a deliberate change of results regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which outputs moved and why.  The digests pin the
floating-point results of the libm and LAPACK they were made with, so the
file also records the Python, numpy and libc versions of that platform; a
mismatch prints them beside the current ones, to tell a platform
difference from a regression.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sarrusjump.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

FAST = ["--set", "sim.step=5e-5"]
LINEAR = {"elastic": {"model": "linear", "k": 36.0}}
GAUSSIAN = {"elastic": {"model": "gaussian", "C0": 4.794e-3, "T": 296.0}}
# A band too weak to hold the squat: the leg collapses until the ground
# reaction reaches zero with the head falling.
COLLAPSE = {"geometry": {"a": 0.0625, "c": 0.0546875, "p": 0.0, "q": 0.0,
                         "l0": 0.0859375},
            "elastic": {"model": "linear", "k": 20.0},
            "masses": {"m1": 1e-3, "m5": 0.015625, "mu_C": 0.0},
            "sim": {"step": 1e-4, "t_max": 0.5}}

# case name -> (argv after --out, config file content or None, exit code)
CASES = {
    "simulate_mooney": (["simulate"] + FAST, None, 0),
    "simulate_linear": (["simulate"] + FAST, LINEAR, 0),
    "simulate_gaussian": (["simulate"] + FAST, GAUSSIAN, 0),
    "simulate_undamped": (["simulate", "--set", "masses.mu_C=0"] + FAST, None, 0),
    # One case per integrator exit other than take-off (exit code 2).  The
    # heavy foot keeps the leg on the ground until the band goes slack, so
    # only this case reaches the slack bisection before the pi/2 stop.
    "simulate_slack_hard_stop": (["simulate", "--set", "masses.m1=50",
                                  "--set", "masses.mu_C=0"] + FAST, None, 2),
    "simulate_knee_inversion": (["simulate", "--exact-derivative",
                                 "--set", "masses.mu_C=0"] + FAST, None, 2),
    "simulate_horizon": (["simulate", "--set", "sim.t_max=0.05"] + FAST, None, 2),
    "simulate_stiction": (["simulate", "--set", "masses.mu_C=1"] + FAST, None, 2),
    "simulate_contact_lost": (["simulate"], COLLAPSE, 2),
    "sensitivity_m5": (["sensitivity", "--parameter", "m5", "--points", "11"] + FAST,
                       None, 0),
    "sensitivity_q": (["sensitivity", "--parameter", "q", "--points", "11"] + FAST,
                      None, 0),
    "identify_mu": (["identify-mu", "--target-v0", "2.85"] + FAST, None, 0),
    "phase_portrait": (["phase-portrait"], None, 0),
    "phase_portrait_undamped": (["phase-portrait", "--grid-n", "5",
                                 "--set", "masses.mu_C=0"], None, 0),
    "fit_mooney": (["fit", "--data", "{data}"], None, 0),
    "fit_gaussian": (["fit", "--data", "{data}", "--model", "gaussian"], None, 0),
    "mobility": (["mobility", "--lock", "0:B"], None, 0),
    "thrust_profile": (["thrust-profile"], None, 0),
    "thrust_profile_linear": (["thrust-profile", "--n-samples", "200"], LINEAR, 0),
}


def _band_data(path: Path) -> Path:
    """Force-stretch samples of the reference Mooney-Rivlin band."""
    rows = ["lambda,force_N"]
    for i in range(12):
        lam = 1.1 + 0.125 * i
        force = 7e-6 * (2 * 68.88e3 * (lam - lam**-2) + 2 * 73.61e3 * (1 - lam**-3))
        rows.append(f"{lam!r},{force!r}")
    path.write_text("\n".join(rows) + "\n")
    return path


def platform_info() -> dict:
    """Versions that decide the floating-point results behind the digests."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "libc": " ".join(platform.libc_ver()), "machine": platform.machine()}


def run_case(name: str, workdir: Path) -> dict:
    """{file name: sha256} of everything one case writes."""
    argv, cfg, expected_rc = CASES[name]
    out = workdir / name
    data = _band_data(workdir / "band.csv")
    argv = [arg.replace("{data}", str(data)) for arg in argv]
    if cfg is not None:
        cfg_path = workdir / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(cfg_path)]
    return _digests(argv, out, expected_rc)


def _digests(argv: list, out: Path, expected_rc: int) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", str(out)])
    assert rc == expected_rc, f"{argv} exited with {rc}, expected {expected_rc}"
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name, tmp_path) == golden["cases"][name], (
        f"digests made on {golden['platform']}, now on {platform_info()}")


@pytest.mark.parametrize("flags", [
    ["--set", "elastic.model=linear", "--set", "elastic.k=36"],
    ["--set", "elastic.k=36", "--set", "elastic.model=linear"],
])
def test_set_switches_band_law(flags, tmp_path):
    """--set alone switches the band law, in either order of the model and
    its coefficient, and gives the outputs of the config-file route."""
    golden = json.loads(GOLDEN.read_text())
    digests = _digests(["simulate"] + flags + FAST, tmp_path / "out", 0)
    assert digests == golden["cases"]["simulate_linear"]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())["cases"]) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    golden = {"platform": platform_info(), "cases": digests}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(digests)} cases)", file=sys.stderr)
