"""Batch command-line front end.

Every subcommand reads an optional JSON config (built-in defaults
otherwise), applies --set key.path=value overrides, runs one analysis and
writes CSV/JSON files into --out.  Exit codes: 0 success, 1 usage or
configuration error, 2 simulation ended in a terminal condition other than
take-off.  No plotting and no interactive mode; consumers plot the emitted
files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, config, screws
from .dynamics import TAKE_OFF, TRAJECTORY_CSV_HEADER, simulate_jump
from .elastic import fit_gaussian, fit_mooney, load_force_stretch_csv
from .geometry import LegAngleInterval
from .serialize import write_csv, write_json
from .thrust import ThrustProfile, thrust_profile


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (argparse default is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub):
    sub.add_argument("--config", metavar="PATH", default=None,
                     help="JSON config file; built-in defaults when omitted")
    sub.add_argument("--out", metavar="DIR", default="out",
                     help="output directory (created if missing)")
    sub.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                     dest="overrides",
                     help="override one config value, e.g. masses.mu_C=0 (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sarrusjump",
        description="Sarrus-linkage jumping-leg simulation and design analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one decompression-to-flight run")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("thrust-profile", help="thrust force over the leg swing")
    _add_common(p)
    p.add_argument("--n-samples", type=int, default=500)
    p.add_argument("--theta-min", type=float, default=0.0, help="radians")
    p.add_argument("--theta-max", type=float, default=math.pi / 2, help="radians")
    p.set_defaults(func=cmd_thrust_profile)

    p = sub.add_parser("phase-portrait", help="trajectories from a release grid")
    _add_common(p)
    p.add_argument("--release", type=float, action="append", default=None,
                   metavar="THETA0", help="release angle in radians (repeatable)")
    p.add_argument("--grid-n", type=int, default=9,
                   help="evenly spaced releases when --release is not given")
    p.add_argument("--t-span", type=float, default=1.5)
    p.add_argument("--portrait-step", type=float, default=2e-4)
    p.set_defaults(func=cmd_phase_portrait)

    p = sub.add_parser("sensitivity", help="undamped efficiency sweep of one parameter")
    _add_common(p)
    p.add_argument("--parameter", required=True, choices=analysis.SWEEPABLE_PARAMETERS)
    p.add_argument("--points", type=int, default=51)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("fit", help="fit drive-law coefficients to force-stretch data")
    _add_common(p)
    p.add_argument("--data", required=True, metavar="CSV",
                   help="two-column CSV with header lambda,force_N")
    p.add_argument("--model", choices=("mooney_rivlin", "gaussian"),
                   default="mooney_rivlin")
    p.add_argument("--temperature", type=float, default=296.0,
                   help="material temperature [K] for the gaussian fit")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("identify-mu", help="Coulomb coefficient matching a take-off velocity")
    _add_common(p)
    p.add_argument("--target-v0", type=float, required=True, metavar="MPS")
    p.set_defaults(func=cmd_identify_mu)

    p = sub.add_parser("mobility", help="screw-theory mobility of an n-chain mechanism")
    _add_common(p)
    p.add_argument("--chains", type=int, default=3)
    p.add_argument("--azimuth-deg", type=float, action="append", default=None,
                   help="chain plane azimuth in degrees (repeatable; "
                        "default: evenly spaced)")
    p.add_argument("--leg-length", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.8, help="leg angle in radians")
    p.add_argument("--base-radius", type=float, default=1.0)
    p.add_argument("--lock", action="append", default=[], metavar="CHAIN:JOINT",
                   help="actuator lock, e.g. 0:B (repeatable)")
    p.set_defaults(func=cmd_mobility)

    return parser


def _load(args) -> config.RunConfig:
    cfg = config.load_config(args.config)
    config.apply_overrides(cfg, args.overrides)
    return config.build_config(cfg)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    run = _load(args)
    out = _outdir(args)
    traj, summary = simulate_jump(run.geometry, run.elastic, run.masses, run.sim)
    write_csv(out / "trajectory.csv", TRAJECTORY_CSV_HEADER, traj.columns())
    write_json(out / "summary.json", summary.to_dict())
    print(f"wrote {out / 'trajectory.csv'}")
    print(f"wrote {out / 'summary.json'}")
    print(f"termination: {summary.termination} ({summary.termination_detail})")
    return 0 if summary.termination == TAKE_OFF else 2


def cmd_thrust_profile(args) -> int:
    run = _load(args)
    out = _outdir(args)
    interval = LegAngleInterval(args.theta_min, args.theta_max)
    profile = thrust_profile(run.geometry, run.elastic, interval, args.n_samples)
    write_csv(out / "thrust_profile.csv", ThrustProfile.CSV_HEADER, profile.columns())
    print(f"wrote {out / 'thrust_profile.csv'}")
    return 0


def cmd_phase_portrait(args) -> int:
    run = _load(args)
    out = _outdir(args)
    if args.release:
        releases = list(args.release)
    else:
        releases = list(np.linspace(0.05, 1.45, args.grid_n))
    trajectories = analysis.phase_portrait(
        run.geometry, run.elastic, run.masses, releases,
        t_span=args.t_span, step=args.portrait_step)
    index = []
    for i, traj in enumerate(trajectories):
        name = f"portrait_{i:03d}.csv"
        write_csv(out / name, analysis.PORTRAIT_CSV_HEADER,
                  (traj.t, traj.theta, traj.theta_dot, traj.energy))
        entry = {"file": name, "theta0": traj.theta0, "status": traj.status,
                 "samples": len(traj.t), "rk4_steps": traj.rk4_steps}
        if traj.stuck:
            entry.update(stick_t=traj.t[-1], stick_theta=traj.theta[-1])
        index.append(entry)
    write_json(out / "portrait_index.json",
               {"mu_C": run.masses.mu_C, "trajectories": index})
    print(f"wrote {len(trajectories)} trajectories and {out / 'portrait_index.json'}")
    statuses = [traj.status for traj in trajectories]
    tally = ", ".join(f"{status} {statuses.count(status)}"
                      for status in dict.fromkeys(statuses))
    print(f"trajectories: {tally}; {sum(traj.stuck for traj in trajectories)} stuck")
    return 0


def cmd_sensitivity(args) -> int:
    run = _load(args)
    out = _outdir(args)
    proportions = np.linspace(0.0, 1.0, args.points)
    curve = analysis.sensitivity(run.geometry, run.elastic, run.masses,
                                 args.parameter, proportions, run.sim)
    path = out / f"sensitivity_{args.parameter}.csv"
    write_csv(path, analysis.SENSITIVITY_CSV_HEADER, curve.columns())
    print(f"wrote {path}")
    tally = ", ".join(f"{status} {curve.status.count(status)}"
                      for status in dict.fromkeys(curve.status))
    print(f"points: {tally}; rk4 fallback decided {curve.solver.count('rk4')}"
          f" of {len(curve.status)}")
    return 0


def cmd_fit(args) -> int:
    run = _load(args)
    out = _outdir(args)
    samples = load_force_stretch_csv(args.data)
    if args.model == "mooney_rivlin":
        fit = fit_mooney(samples, A0=run.geometry.A0, l0=run.geometry.l0)
        payload = {"model": "mooney_rivlin", "C1_Pa": fit.C1, "C2_Pa": fit.C2,
                   "rmse_N": fit.rmse, "r_squared": fit.r_squared,
                   "n_samples": len(samples)}
    else:
        fit = fit_gaussian(samples, T=args.temperature)
        payload = {"model": "gaussian", "C0_N_per_K": fit.C0,
                   "T_K": args.temperature, "rmse_N": fit.rmse,
                   "r_squared": fit.r_squared, "n_samples": len(samples)}
    path = out / f"fit_{args.model}.json"
    write_json(path, payload)
    print(f"wrote {path}")
    return 0


def cmd_identify_mu(args) -> int:
    run = _load(args)
    out = _outdir(args)
    mu = analysis.identify_mu(run.geometry, run.elastic, run.masses,
                              args.target_v0, run.sim)
    check_masses = replace(run.masses, mu_C=mu)
    _, summary = simulate_jump(run.geometry, run.elastic, check_masses, run.sim,
                               record=False)
    path = out / "identified_mu.json"
    write_json(path, {"mu_C": mu, "target_v0_mps": args.target_v0,
                      "achieved_v0_mps": summary.v0_mps})
    print(f"wrote {path}")
    return 0


def cmd_mobility(args) -> int:
    out = _outdir(args)
    n = args.chains
    if args.azimuth_deg is None:
        azimuths = [2.0 * math.pi * i / n for i in range(n)]
    else:
        azimuths = [math.radians(az) for az in args.azimuth_deg]
    mech = screws.build_sarrus(n, azimuths, a=args.leg_length, theta=args.theta,
                               base_radius=args.base_radius)
    locks_list = None
    if args.lock:
        locks = []
        for item in args.lock:
            chain, _, joint = item.partition(":")
            try:
                locks.append((int(chain), joint))
            except ValueError:
                raise ValueError(f"--lock {item!r}: expected CHAIN:JOINT with an "
                                 "integer chain, e.g. 0:B") from None
        locks_list = [locks]
    report = screws.mobility_report(mech, locks_list)
    report["azimuths_rad"] = list(azimuths)
    report["theta_rad"] = args.theta
    path = out / "mobility.json"
    write_json(path, report)
    print(f"wrote {path}")
    print(f"dof: {report['dof']}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
