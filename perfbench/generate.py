"""Seeded input generator for the three benchmark workloads.

Pure Python (no numpy, no sarrusjump), so the set-up timing in run.py can
start its clock before the package import.  A seed yields one list of op
specs per workload: plain JSON data that the package never sees directly;
workloads.build turns it into configs and call arguments.

Parameters are drawn from a Kronecker sequence, u_i = frac(s + i * alpha),
with one irrational step alpha per dimension and a seeded offset s.  Every
prefix of the op list therefore covers each parameter range evenly, so a
run that stops after N ops sees the same mix of cheap and expensive inputs
whatever the seed, and run-to-run spread reflects the program rather than
the luck of the draw.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("jump_traj", "design_sweep", "design_maps")

# Ops per generated list; a run that needs more cycles through it.
LIST_LENGTH = 256

BAND_LAWS = ("mooney_rivlin", "linear", "gaussian")

# Copied from analysis.SWEEPABLE_PARAMETERS so that generating inputs needs
# no package import; workloads.build checks the two still agree.
SWEEPABLE_PARAMETERS = (
    "g", "m1", "m2", "m3", "m4", "m5", "I1", "I2", "a", "p", "q", "theta0",
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


class _Sequence:
    """Seeded Kronecker low-discrepancy points in [0, 1)^d."""

    def __init__(self, seed: int, dims: int):
        rng = random.Random(seed)
        self.offsets = [rng.random() for _ in range(dims)]
        self.steps = [math.sqrt(p) % 1.0 for p in _PRIMES[:dims]]

    def point(self, i: int) -> list[float]:
        return [(s + i * a) % 1.0 for s, a in zip(self.offsets, self.steps)]


def _pick(options, u):
    return options[min(int(u * len(options)), len(options) - 1)]


def _jump_traj(seed):
    # Why: the only workload that records every RK4 step (observe) and writes
    # the ~2.5 MB trajectory CSV through the CLI.  Serialisation and per-step
    # recording cost about as much as the integration, so serialize and
    # recording optimisations show here and nowhere else.  Every fifth op is
    # the reference config, whose headline figures the oracle pins; the rest
    # vary the band law, the Coulomb coefficient (0 to 0.9 of the stiction
    # threshold) and geometry.a / masses.m5 within +/-10 %.
    seq = _Sequence(seed, 4)
    specs = []
    for i in range(LIST_LENGTH):
        u = seq.point(i)
        if i % 5 == 0:
            specs.append({"kind": "simulate", "reference": True})
            continue
        specs.append({
            "kind": "simulate",
            "reference": False,
            "law": _pick(BAND_LAWS, u[0]),
            "mu_frac": 0.9 * u[1],
            "a_scale": 0.9 + 0.2 * u[2],
            "m5_scale": 0.9 + 0.2 * u[3],
        })
    return specs


def _design_sweep(seed):
    # Why: the same dynamics integrator with record=False and no files,
    # behind a parameter sweep and a bracketed root finder.  RHS reuse, a
    # first-integral take-off solver or a brentq replacement shows here;
    # a serialize change should not.  Ops alternate between a 13-point
    # sensitivity sweep (13 rather than 11 so that both op kinds cost about
    # the same and the latency median falls inside one dense band instead of
    # between two clusters) and an identify_mu round trip from a seeded true
    # mu between 0.1 and 0.9 of the stiction threshold.
    seq = _Sequence(seed + 1_000_003, 5)
    specs = []
    for i in range(LIST_LENGTH):
        u = seq.point(i)
        law = _pick(BAND_LAWS, u[0])
        if i % 2 == 0:
            specs.append({
                "kind": "sensitivity",
                "law": law,
                "parameter": _pick(SWEEPABLE_PARAMETERS, u[1]),
                "lo": 0.2 + 0.3 * u[2],
                "hi": 1.0 + 0.5 * u[3],
                "points": 13,
            })
        else:
            specs.append({"kind": "identify", "law": law, "mu_frac": 0.1 + 0.8 * u[4]})
    return specs


# design_maps cycles through these five kinds in this order.
MAP_KINDS = ("profile", "equilibria", "portrait", "mobility", "fit")


def _design_maps(seed):
    # Why: the per-sample Python loops of thrust/geometry/elastic (dense
    # thrust profiles, equilibrium scans), event-free RK4 run forward and
    # backward (phase portraits), SVD in screws and least squares in
    # elastic.  The other two workloads barely touch these layers, so
    # vectorising the kernel should move this workload and leave jump_traj
    # unchanged.
    seq = _Sequence(seed + 2_000_003, 8)
    specs = []
    for i in range(LIST_LENGTH):
        u = seq.point(i)
        kind = MAP_KINDS[i % len(MAP_KINDS)]
        if kind == "profile":
            spec = {"law": _pick(BAND_LAWS, u[0]),
                    "theta_min": 0.02 * u[1],
                    "theta_max": math.pi / 2 - 0.05 * u[2],
                    "samples": 18_000 + int(4_000 * u[3])}
        elif kind == "equilibria":
            # Fixed work, so that this kind, third of the five by cost, puts a
            # narrow cluster across the median of op latency.
            spec = {"n_scan": 16_000}
        elif kind == "portrait":
            # One release on the open side of the saddle and one inside the
            # center's basin, each traced undamped and damped.
            spec = {"releases": [0.05 + 0.65 * u[1], 1.2 + 0.35 * u[2]],
                    "t_span": 1.0}
        elif kind == "mobility":
            spec = {"theta": 0.3 + 1.0 * u[3],
                    # Azimuth of chain j of an n-chain mechanism is
                    # 2 pi (j + jitter[j]) / n: generic, never parallel.
                    "jitter": [0.1 + 0.8 * ((u[4] + j * 0.618034) % 1.0)
                               for j in range(8)],
                    "lock_chain": int(u[5] * 3),
                    "lock_joint": _pick(("A", "B", "C"), u[6])}
        else:
            spec = {"C1": 40e3 + 60e3 * u[0],
                    "C2": 40e3 + 60e3 * u[1],
                    "C0": 2e-3 + 6e-3 * u[2],
                    "samples": 200 + int(200 * u[3]),
                    "lam_max": 2.0 + 1.5 * u[7]}
        specs.append({"kind": kind, **spec})
    return specs


_GENERATORS = {
    "jump_traj": _jump_traj,
    "design_sweep": _design_sweep,
    "design_maps": _design_maps,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The op specs of one workload for one seed; same seed, same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](seed)


def inputs_hash(specs: list[dict]) -> str:
    """sha256 of the canonical JSON of the specs, to show two runs (or two
    commits) used the same inputs."""
    text = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
