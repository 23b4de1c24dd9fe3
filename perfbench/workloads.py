"""Turn generated specs into runnable ops, and check each op's output.

Every op calls the package through a module attribute (cli.main,
analysis.sensitivity, thrust.thrust_profile, ...), never through a name
bound at import, so that tracing.py can wrap the function where the caller
looks it up.  Oracles are pure functions of an op's output and run outside
the op's timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from sarrusjump import analysis, cli, config, dynamics, elastic, geometry, screws, thrust

import generate

# Band laws in config form.  The linear stiffness stores about the same
# energy at the squat angle as the fitted Mooney-Rivlin band (0.17 J); the
# Gaussian constant is the one the test suite uses.
ELASTIC = {
    "mooney_rivlin": dict(config.DEFAULT_CONFIG["elastic"]),
    "linear": {"model": "linear", "k": 36.0},
    "gaussian": {"model": "gaussian", "C0": 4.794e-3, "T": 296.0},
}

# design_sweep integrates ten times more coarsely than the CLI default, as a
# design study would, so that a run holds enough distinct ops for stable
# latency statistics; the tight event tolerance keeps identify_mu round
# trips well under 1e-4.
SWEEP_SIM = {"step": 1e-4, "t_max": 0.5, "event_tolerance": 1e-9, "theta0": 0.066}

# summary.json carries 12 significant digits, so each of v0, h_max and t_aer
# may be off by 5e-12 relative: the exact ballistic identities are checked
# to 1e-12 plus that rounding.
BALLISTIC_REL_TOL = 1e-12 + 3 * 5e-12
AUDIT_REL_TOL = 1e-4           # energy-audit residual over stored energy
ROUND_TRIP_REL_TOL = 1e-4      # identify_mu(v0(mu)) against mu
FIT_REL_TOL = 1e-8             # noise-free synthetic data
LINEAR_THRUST_REL_TOL = 1e-9   # thrust profile against thrust_force_linear
ENERGY_DRIFT_REL_TOL = 1e-5    # undamped portrait energy over stored energy
CENTER_TOL = 5e-4              # equilibria quoted to three decimals
NOMINAL_CENTER = 1.383
PIN_CENTER = 1.307
FALLING_ETA = ("g", "m1", "m5")  # efficiency falls as these grow


@dataclass(frozen=True)
class Op:
    """One operation: run() is timed; check() and fingerprint() are not."""

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], str]


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


def _run_config(sets=(), law="mooney_rivlin", sim=None) -> config.RunConfig:
    cfg = config.default_config()
    cfg["elastic"] = dict(ELASTIC[law])
    if sim:
        cfg["sim"].update(sim)
    return config.build_config(config.apply_overrides(cfg, list(sets)))


# --- jump_traj ------------------------------------------------------------

def check_jump_summary(summary: dict, g: float, reference: bool) -> list:
    """Oracle for one simulate run, from its summary.json content."""
    if summary["termination"] != dynamics.TAKE_OFF:
        return [f"termination {summary['termination']}, expected TakeOff"]
    problems = []
    v0 = summary["v0_mps"]
    if _rel(summary["h_max_m"], v0 * v0 / (2.0 * g)) > BALLISTIC_REL_TOL:
        problems.append(f"h_max {summary['h_max_m']!r} != v0^2/2g for v0 {v0!r}")
    if _rel(summary["t_aer_s"], 2.0 * v0 / g) > BALLISTIC_REL_TOL:
        problems.append(f"t_aer {summary['t_aer_s']!r} != 2 v0/g for v0 {v0!r}")
    residual = summary["audit"]["residual_J"]
    if abs(residual) > AUDIT_REL_TOL * summary["E_P0_J"]:
        problems.append(f"energy audit residual {residual!r} J does not close")
    if reference:
        if abs(v0 - 2.9) > 0.1:
            problems.append(f"reference v0 {v0} outside 2.9 +/- 0.1 m/s")
        if abs(summary["eta_pct"] - 63.1) > 1.5:
            problems.append(f"reference eta {summary['eta_pct']} outside 63.1 +/- 1.5 %")
        if abs(summary["t_off_s"] * 1e3 - 135.0) > 15.0:
            problems.append(f"reference t_off {summary['t_off_s']} outside 135 +/- 15 ms")
    return problems


def _simulate_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _jump_geometry_sets(spec):
    nominal = config.DEFAULT_CONFIG
    return [f"geometry.a={nominal['geometry']['a'] * spec['a_scale']!r}",
            f"masses.m5={nominal['masses']['m5'] * spec['m5_scale']!r}"]


def _jump_inputs(specs):
    """Absolute mu_C of each non-reference spec, from its share of the threshold."""
    derived = []
    for spec in specs:
        if spec["reference"]:
            derived.append(None)
            continue
        run = _run_config(_jump_geometry_sets(spec), spec["law"])
        threshold = analysis.stiction_threshold(run.geometry, run.elastic,
                                                run.masses, run.sim.theta0)
        derived.append(spec["mu_frac"] * threshold)
    return derived


def _jump_ops(specs, mu_cs, outdir: Path):
    g = config.DEFAULT_CONFIG["masses"]["g"]
    ops = []
    for i, (spec, mu_c) in enumerate(zip(specs, mu_cs)):
        argv = ["simulate", "--out", str(outdir)]
        if not spec["reference"]:
            sets = _jump_geometry_sets(spec)
            sets.append(f"masses.mu_C={mu_c!r}")
            sets.append("elastic=" + json.dumps(ELASTIC[spec["law"]]))
            for item in sets:
                argv += ["--set", item]
        ops.append(Op(
            name=f"simulate#{i}",
            kind="simulate",
            run=lambda argv=argv: _simulate_cli(argv),
            check=lambda code, ref=spec["reference"]: (
                [f"exit code {code}"] if code != 0 else check_jump_summary(
                    json.loads((outdir / "summary.json").read_text()), g, ref)),
            fingerprint=lambda code: _digest(
                code, (outdir / "summary.json").read_bytes(),
                (outdir / "trajectory.csv").read_bytes()),
        ))
    return ops


# --- design_sweep ---------------------------------------------------------

def check_sensitivity(parameter: str, curve) -> list:
    """ok points have 0 < eta < 100, and eta falls for g, m1 and m5."""
    problems = []
    ok = [float(eta) for eta, status in zip(curve.eta, curve.status) if status == "ok"]
    if not ok:
        problems.append("no ok points")
    bad = [eta for eta in ok if not 0.0 < eta < 100.0]
    if bad:
        problems.append(f"ok points with eta outside (0, 100): {bad}")
    if parameter in FALLING_ETA and any(b >= a for a, b in zip(ok, ok[1:])):
        problems.append(f"eta does not fall with {parameter}: {ok}")
    return problems


def check_round_trip(mu_true: float, mu_found: float) -> list:
    if _rel(mu_found, mu_true) > ROUND_TRIP_REL_TOL:
        return [f"identify_mu round trip {mu_true!r} -> {mu_found!r}"]
    return []


def _round_trip(run, mu_true):
    masses = replace(run.masses, mu_C=mu_true)
    _, summary = dynamics.simulate_jump(run.geometry, run.elastic, masses, run.sim,
                                        record=False)
    return mu_true, analysis.identify_mu(run.geometry, run.elastic, run.masses,
                                         summary.v0_mps, run.sim)


def _sweep_runs():
    return {law: _run_config(law=law, sim=SWEEP_SIM) for law in ELASTIC}


def _sweep_inputs(specs):
    """True mu of each identify spec, from its share of the threshold."""
    thresholds = {law: analysis.stiction_threshold(run.geometry, run.elastic,
                                                   run.masses, run.sim.theta0)
                  for law, run in _sweep_runs().items()}
    return [spec["mu_frac"] * thresholds[spec["law"]] if spec["kind"] == "identify"
            else None for spec in specs]


def _sweep_ops(specs, mu_trues):
    runs = _sweep_runs()
    ops = []
    for i, (spec, mu_true) in enumerate(zip(specs, mu_trues)):
        run = runs[spec["law"]]
        if spec["kind"] == "sensitivity":
            parameter = spec["parameter"]
            props = np.linspace(spec["lo"], spec["hi"], spec["points"])
            ops.append(Op(
                name=f"sensitivity#{i}",
                kind="sensitivity",
                run=lambda run=run, parameter=parameter, props=props: analysis.sensitivity(
                    run.geometry, run.elastic, run.masses, parameter, props, run.sim),
                check=lambda curve, parameter=parameter: check_sensitivity(parameter, curve),
                fingerprint=lambda curve: _digest(curve.eta.tobytes(), curve.status),
            ))
        else:
            ops.append(Op(
                name=f"identify#{i}",
                kind="identify",
                run=lambda run=run, mu=mu_true: _round_trip(run, mu),
                check=lambda result: check_round_trip(*result),
                fingerprint=lambda result: _digest(result),
            ))
    return ops


# --- design_maps ----------------------------------------------------------

def check_profile(profile, linear_k=None) -> list:
    """Finite, non-negative, slack-clamped; linear bands match the closed form."""
    problems = []
    if not (np.all(np.isfinite(profile.F_y)) and np.all(profile.F_y >= 0.0)):
        problems.append("thrust not finite and non-negative")
    if np.any(profile.F_l[profile.lam < 1.0] != 0.0):
        problems.append("slack band carries force")
    if linear_k is not None:
        for j in range(0, len(profile), 97):
            theta = float(profile.theta[j])
            ref = thrust.thrust_force_linear(profile.geometry, linear_k, theta)
            got = float(profile.F_y[j])
            if abs(got - ref) > LINEAR_THRUST_REL_TOL * abs(ref) + 1e-15:
                problems.append(f"F_y {got!r} != thrust_force_linear {ref!r} at {theta!r}")
                break
    return problems


def check_equilibria(nominal, pin) -> list:
    problems = []
    for label, found, expected in (("nominal", nominal, NOMINAL_CENTER),
                                   ("pin", pin, PIN_CENTER)):
        centers = [e.theta_star for e in found if e.kind == analysis.CENTER]
        if len(centers) != 1 or abs(centers[0] - expected) > CENTER_TOL:
            problems.append(f"{label} centers {centers}, expected one at {expected}")
    return problems


def check_portraits(undamped, damped, stored_energy) -> list:
    problems = []
    for traj in undamped:
        if traj.status not in ("closed", "open", "escaped"):
            problems.append(f"undamped release {traj.theta0}: status {traj.status}")
        elif np.ptp(traj.energy) > ENERGY_DRIFT_REL_TOL * stored_energy:
            problems.append(f"undamped release {traj.theta0}: energy drifts "
                            f"{np.ptp(traj.energy)!r} J")
    for traj in damped:
        if traj.status not in ("damped", "escaped"):
            problems.append(f"damped release {traj.theta0}: status {traj.status}")
    return problems


def check_mobility(reports, lock_joint) -> list:
    """Generic azimuths give DOF 1; locking a knee (B) immobilises."""
    problems = []
    for report in reports:
        if report["dof"] != 1:
            problems.append(f"n={report['n_chains']}: dof {report['dof']}, expected 1")
        if lock_joint == "B" and not report["actuation"][0]["immobilized"]:
            problems.append(f"n={report['n_chains']}: knee lock leaves it mobile")
    return problems


def check_fits(mooney, gaussian, spec) -> list:
    problems = []
    for label, got, want in (("C1", mooney.C1, spec["C1"]), ("C2", mooney.C2, spec["C2"]),
                             ("C0", gaussian.C0, spec["C0"])):
        if _rel(got, want) > FIT_REL_TOL:
            problems.append(f"fitted {label} {got!r}, seeded {want!r}")
    return problems


def _mobility(spec):
    reports = []
    for n in range(3, 9):
        azimuths = [2.0 * math.pi * (j + spec["jitter"][j]) / n for j in range(n)]
        mech = screws.build_sarrus(n, azimuths, a=1.0, theta=spec["theta"])
        reports.append(screws.mobility_report(
            mech, [[(spec["lock_chain"], spec["lock_joint"])]]))
    return reports


def _samples(law, lam_max, n):
    return [elastic.ForceStretchSample(float(lam), elastic.drive_force(law, float(lam)))
            for lam in np.linspace(1.02, lam_max, n)]


def _maps_inputs(specs):
    """Synthetic (Mooney-Rivlin, Gaussian) force-stretch data of each fit spec."""
    geom = _run_config().geometry
    derived = []
    for spec in specs:
        if spec["kind"] != "fit":
            derived.append(None)
            continue
        mr = elastic.MooneyRivlinBand(spec["C1"], spec["C2"], geom.l0, geom.A0)
        gb = elastic.GaussianBand(spec["C0"], 296.0, geom.l0, geom.A0)
        derived.append((_samples(mr, spec["lam_max"], spec["samples"]),
                        _samples(gb, spec["lam_max"], spec["samples"])))
    return derived


def _maps_ops(specs, fit_data):
    runs = {law: _run_config(law=law) for law in ELASTIC}
    nominal = runs["mooney_rivlin"]
    geom = nominal.geometry
    pin = _run_config(["geometry.p=0", "geometry.q=0"])
    undamped = replace(nominal.masses, mu_C=0.0)
    scan = geometry.LegAngleInterval(1e-4, math.pi / 2)
    stored = elastic.stored_energy(nominal.elastic, geometry.stretch(geom, nominal.sim.theta0))
    ops = []
    for i, (spec, data) in enumerate(zip(specs, fit_data)):
        kind = spec["kind"]
        if kind == "profile":
            run = runs[spec["law"]]
            interval = geometry.LegAngleInterval(spec["theta_min"], spec["theta_max"])
            k = ELASTIC["linear"]["k"] if spec["law"] == "linear" else None
            call = (lambda run=run, interval=interval, n=spec["samples"]:
                    thrust.thrust_profile(run.geometry, run.elastic, interval, n))
            check = lambda p, k=k: check_profile(p, k)
            fingerprint = lambda p: _digest(p.F_y.tobytes(), p.lam.tobytes())
        elif kind == "equilibria":
            call = lambda n=spec["n_scan"]: (
                analysis.find_equilibria(geom, nominal.elastic, undamped, scan, n),
                analysis.find_equilibria(pin.geometry, pin.elastic, undamped, scan, n))
            check = lambda result: check_equilibria(*result)
            fingerprint = lambda result: _digest(result)
        elif kind == "portrait":
            call = lambda rel=spec["releases"], span=spec["t_span"]: (
                analysis.phase_portrait(geom, nominal.elastic, undamped, rel, t_span=span),
                analysis.phase_portrait(geom, nominal.elastic, nominal.masses, rel,
                                        t_span=span))
            check = lambda result: check_portraits(*result, stored)
            fingerprint = lambda result: _digest(*(
                (tr.status, tr.theta.tobytes(), tr.theta_dot.tobytes())
                for side in result for tr in side))
        elif kind == "mobility":
            call = lambda spec=spec: _mobility(spec)
            check = lambda reports, joint=spec["lock_joint"]: check_mobility(reports, joint)
            fingerprint = lambda reports: _digest(json.dumps(reports, sort_keys=True))
        else:
            call = lambda mr_data=data[0], gb_data=data[1]: (
                elastic.fit_mooney(mr_data, geom.A0, geom.l0),
                elastic.fit_gaussian(gb_data, 296.0))
            check = lambda fits, spec=spec: check_fits(*fits, spec)
            fingerprint = lambda fits: _digest(fits[0].C1, fits[0].C2, fits[1].C0)
        ops.append(Op(f"{kind}#{i}", kind, call, check, fingerprint))
    return ops


_INPUTS = {"jump_traj": _jump_inputs, "design_sweep": _sweep_inputs,
           "design_maps": _maps_inputs}


def prepare(workload: str, specs: list) -> list:
    """The inputs each spec needs the package to compute, one entry per spec
    (None where there is none): Coulomb coefficients drawn as shares of the
    stiction threshold, and the synthetic data the band fits recover.

    This is benchmark input, not the program's set-up, so run.py keeps it
    off the setup_s clock.
    """
    if workload not in _INPUTS:
        raise ValueError(f"unknown workload {workload!r}")
    return _INPUTS[workload](specs)


def build(workload: str, specs: list, derived: list, outdir: Path) -> list:
    """Configs and call arguments for every spec; touches no file.

    derived is prepare(workload, specs); outdir is where jump_traj ops point
    the CLI's --out.
    """
    if generate.SWEEPABLE_PARAMETERS != analysis.SWEEPABLE_PARAMETERS:
        raise RuntimeError("generate.SWEEPABLE_PARAMETERS is out of date")
    if workload == "jump_traj":
        return _jump_ops(specs, derived, Path(outdir))
    if workload == "design_sweep":
        return _sweep_ops(specs, derived)
    if workload == "design_maps":
        return _maps_ops(specs, derived)
    raise ValueError(f"unknown workload {workload!r}")
