"""Phase portraits, equilibrium classification, efficiency sensitivity
sweeps, and Coulomb-coefficient identification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import (  # noqa: F401  perfbench traces analysis.simulate_jump
    TAKE_OFF,
    MassModel,
    SimOptions,
    _brentq,
    _integrate_raw,
    _LegDynamics,
    simulate_jump,
    solve_takeoff,
)
from .elastic import ElasticModel
from .geometry import LegAngleInterval, LinkageGeometry, finite
from .thrust import leg_forces_array

SADDLE = "Saddle"
CENTER = "Center"
DEGENERATE = "Degenerate"

SWEEPABLE_PARAMETERS = (
    "g", "m1", "m2", "m3", "m4", "m5", "I1", "I2", "a", "p", "q", "theta0",
)

# theta0 is swept over an absolute angle range instead of proportionally:
# proportion 0 maps to 0.01 rad and proportion 1 to 1.3 rad.
THETA0_SWEEP_RANGE = (0.01, 1.3)

SENSITIVITY_CSV_HEADER = ("parameter", "proportion", "eta_pct", "status")
PORTRAIT_CSV_HEADER = ("t", "theta", "theta_dot", "energy")

# A portrait trajectory escapes when theta leaves these bounds, and an
# undamped one closes when a turning point lands this near its release.
_PORTRAIT_BOUNDS = (-0.15, math.pi / 2 + 0.1)
_CLOSURE_TOL = 1e-3
_CLASSIFY_EPS = 1e-6  # central-difference step in theta of _classify's Jacobian
_IDENTIFY_RTOL = 1e-6  # relative tolerance of identify_mu's Brent search in mu_C


@dataclass(frozen=True)
class Equilibrium:
    """A rest configuration of the undamped leg dynamics."""

    theta_star: float
    kind: str  # Saddle | Center | Degenerate
    eigenvalues: tuple[complex, complex]


def _undamped(masses: MassModel) -> MassModel:
    return masses if masses.mu_C == 0.0 else replace(masses, mu_C=0.0)


def find_equilibria(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    interval: LegAngleInterval,
    n_scan: int = 2000,
) -> list[Equilibrium]:
    """Equilibria of the undamped dynamics on the interval.

    Roots of the net torque from rest, _LegDynamics.torque, are located by
    a sign scan over n_scan points (leg_forces_array) followed by Brent
    refinement on derivatives(theta, 0) of the same _LegDynamics, whose
    cos(theta) and F_y equal the scan's to the bit, then classified through
    the Jacobian of the (theta, theta_dot) system: a real +/- eigenvalue
    pair is a saddle, an imaginary pair a center.
    Friction is ignored here because the Coulomb term is not differentiable
    at rest.
    """
    dm = _LegDynamics(geom, model, _undamped(masses))

    def torque(th):
        d = dm.derivatives(th, 0.0)
        return dm.torque(d[5], d[9])

    grid = np.linspace(interval.theta_min, interval.theta_max, n_scan)
    _, co, _, _, _, f_y = leg_forces_array(geom, model.tension, grid)
    values = dm.torque(co, f_y)  # torque(grid), to the bit
    scale = float(np.max(np.abs(values))) or 1.0

    roots = [float(grid[i]) for i in np.flatnonzero(values == 0.0)]
    roots += [_brentq(torque, float(grid[i]), float(grid[i + 1]))
              for i in np.flatnonzero(values[:-1] * values[1:] < 0.0)]
    # The cos(theta) factor vanishes at pi/2 without a sign change when the
    # band is already slack there; catch that boundary equilibrium directly.
    half_pi = math.pi / 2
    if interval.theta_max >= half_pi - 1e-9:
        if abs(torque(half_pi)) <= 1e-9 * scale and not any(
            abs(r - half_pi) < 1e-6 for r in roots
        ):
            roots.append(half_pi)

    equilibria = []
    for root in sorted(roots):
        if equilibria and abs(root - equilibria[-1].theta_star) < 1e-9:
            continue
        equilibria.append(_classify(dm, root))
    return equilibria


def _classify(dm: _LegDynamics, theta_star: float) -> Equilibrium:
    """Classify via the linearised 2-state system at (theta*, 0)."""
    dfdth = (dm.derivatives(theta_star + _CLASSIFY_EPS, 0.0)[1]
             - dm.derivatives(theta_star - _CLASSIFY_EPS, 0.0)[1]) / (2 * _CLASSIFY_EPS)
    # Jacobian [[0, 1], [dfdth, 0]]: eigenvalues +/- sqrt(dfdth).
    if dfdth > 1e-9:
        lam = math.sqrt(dfdth)
        return Equilibrium(theta_star, SADDLE, (complex(lam), complex(-lam)))
    if dfdth < -1e-9:
        w = math.sqrt(-dfdth)
        return Equilibrium(theta_star, CENTER, (complex(0, w), complex(0, -w)))
    return Equilibrium(theta_star, DEGENERATE, (complex(0.0), complex(0.0)))


@dataclass(frozen=True)
class PortraitTrajectory:
    """One phase-plane trajectory released from (theta0, theta_dot0 = 0).

    energy = T + V - thrust work; constant along undamped trajectories.
    status: closed | open | escaped | damped | failed.  A damped leg that
    sticks is stuck: its last sample is the stick instant, at rest.
    rk4_steps counts the RK4 steps integrated, bisection probes included.
    """

    theta0: float
    t: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    energy: np.ndarray
    status: str
    stuck: bool = False
    rk4_steps: int = 0


def phase_portrait(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    theta0_values: Sequence[float],
    t_span: float = 1.5,
    step: float = 2e-4,
) -> list[PortraitTrajectory]:
    """Trace the leg dynamics from a grid of release angles.

    Undamped (mu_C = 0) releases trace the equi-energetic curve through
    each release point both forward and backward in time: the forward RK4
    run is integrated, and its mirror (t -> -t, theta_dot -> -theta_dot),
    which equals a backward run to the bit, supplies the backward half.
    Damped releases are integrated forward only, with the Coulomb
    stick-slip of simulate_jump: a release that does not break free is one
    sample at rest, and a trajectory ends where the leg sticks at a velocity
    reversal.  Failures are recorded per trajectory, not raised.
    """
    t_span = finite("t_span", t_span, "positive")
    step = finite("step", step, "positive")
    dm = _LegDynamics(geom, model, masses)
    undamped = masses.mu_C == 0.0
    out = []
    for theta0 in theta0_values:
        theta0 = float(theta0)
        try:
            out.append(_trace(dm, theta0, undamped, t_span, step))
        except Exception:
            empty = np.array([])
            out.append(PortraitTrajectory(theta0, empty, empty, empty, empty, "failed"))
    return out


def _trace(dm, theta0, undamped, t_span, step):
    t_f, th_f, om_f, en_f, end, rk4_steps = _integrate_raw(
        dm, theta0, 0.0, t_span, step, _PORTRAIT_BOUNDS)
    if not np.all(np.isfinite(th_f)):
        raise FloatingPointError(f"non-finite state from release {theta0}")
    if undamped:
        # The backward half is the forward one mirrored in time: with
        # mu_C = 0 the RK4 stages see theta_dot only through theta_dot^2 and
        # h_dot, so stepping by -dt from rest flips the signs of t and
        # theta_dot, to the bit, and leaves theta and energy as they are.
        # 0.0 - x keeps t = 0 and the release theta_dot at +0.0.
        t = np.concatenate([(0.0 - t_f)[::-1], t_f[1:]])
        theta = np.concatenate([th_f[::-1], th_f[1:]])
        omega = np.concatenate([(0.0 - om_f)[::-1], om_f[1:]])
        energy = np.concatenate([en_f[::-1], en_f[1:]])
        if end == "exited":
            status = "escaped"
        else:
            status = "closed" if _returns_to_start(th_f, om_f, theta0) else "open"
    else:
        t, theta, omega, energy = t_f, th_f, om_f, en_f
        status = "escaped" if end == "exited" else "damped"
    return PortraitTrajectory(theta0, t, theta, omega, energy, status,
                              end == "stuck", rk4_steps)


def _returns_to_start(theta, omega, theta0):
    dist = np.hypot(theta - theta0, omega)
    departed = np.flatnonzero(dist > 10.0 * _CLOSURE_TOL)
    if departed.size == 0:
        return True  # never left the release point
    # The release point is a turning point (theta_dot = 0), so the orbit
    # closes iff a later turning point lands back at theta0.  Turning
    # points are interpolated at the omega sign changes; raw samples can
    # straddle them too coarsely for the tolerance.
    start = departed[0]
    sign_change = np.flatnonzero(omega[start:-1] * omega[start + 1:] < 0.0) + start
    for i in sign_change:
        w0, w1 = omega[i], omega[i + 1]
        frac = w0 / (w0 - w1)
        theta_turn = theta[i] + frac * (theta[i + 1] - theta[i])
        if abs(theta_turn - theta0) < _CLOSURE_TOL:
            return True
    return False


@dataclass(frozen=True)
class SensitivityCurve:
    """Undamped efficiency versus proportional scaling of one parameter."""

    parameter: str
    proportions: np.ndarray
    eta: np.ndarray        # percent; NaN where the run failed
    status: list[str]      # ok | stiction | kneeinversion | contactlost |
                           # horizonexceeded | invalid
    values: np.ndarray     # actual parameter values swept
    solver: list[str]      # TakeOffState.solver of each point; "none" if invalid

    def columns(self):
        """The columns in SENSITIVITY_CSV_HEADER order."""
        return ([self.parameter] * len(self.status), self.proportions, self.eta,
                self.status)


def sensitivity(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    parameter: str,
    proportions: Sequence[float],
    options: SimOptions,
) -> SensitivityCurve:
    """Efficiency of the undamped jump as one parameter scales from nominal.

    Every point is a solve_takeoff with all other parameters held at
    their nominal values and mu_C forced to zero.  Individual points may
    fail (stiction, inversion, invalid value); they are marked in status,
    never raised.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(
            f"unknown parameter {parameter!r}; choose from {SWEEPABLE_PARAMETERS}")
    base_masses = _undamped(masses)
    props, etas, statuses, values, solvers = [], [], [], [], []
    for prop in proportions:
        prop = float(prop)
        try:
            g_i, m_i, o_i, value = _scaled(geom, base_masses, options, parameter, prop)
            state = solve_takeoff(g_i, model, m_i, o_i)
            etas.append(state.eta_pct)
            statuses.append("ok" if state.termination == TAKE_OFF
                            else state.termination.lower())
            solvers.append(state.solver)
        except ValueError:
            value = math.nan
            etas.append(math.nan)
            statuses.append("invalid")
            solvers.append("none")
        props.append(prop)
        values.append(value)
    return SensitivityCurve(parameter, np.array(props), np.array(etas),
                            statuses, np.array(values), solvers)


def _scaled(geom, masses, options, parameter, prop):
    if parameter == "theta0":
        lo, hi = THETA0_SWEEP_RANGE
        value = lo + prop * (hi - lo)
        return geom, masses, replace(options, theta0=value), value
    if parameter in ("a", "p", "q"):
        value = getattr(geom, parameter) * prop
        return replace(geom, **{parameter: value}), masses, options, value
    value = getattr(masses, parameter) * prop
    return geom, replace(masses, **{parameter: value}), options, value


def stiction_threshold(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    theta0: float,
) -> float:
    """Largest mu_C that still lets decompression start from rest at theta0."""
    dm = _LegDynamics(geom, model, _undamped(masses))
    return dm.static_margin(dm.derivatives(theta0, 0.0))


def identify_mu(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    target_v0: float,
    options: SimOptions,
) -> float:
    """Coulomb coefficient whose take-off velocity (solve_takeoff) hits
    target_v0.

    Bracketed root finding on [0, stiction threshold); relies on v0 being
    monotone non-increasing in mu_C.  Raises when the target lies outside
    the reachable velocity range.
    """

    def v0_at(mu):
        return solve_takeoff(geom, model, replace(masses, mu_C=mu), options).v0_mps

    v0_free = v0_at(0.0)
    if math.isnan(v0_free):
        raise ValueError("configuration does not take off even undamped")
    if not (0.0 < target_v0 <= v0_free * (1.0 + 1e-12)):
        raise ValueError(
            f"target v0 {target_v0} outside (0, {v0_free:.6g}] reachable undamped")
    if abs(target_v0 - v0_free) <= 1e-9 * v0_free:
        return 0.0

    mu_max = stiction_threshold(geom, model, masses, options.theta0)
    mu_hi = mu_max
    v0_hi = math.nan
    for shrink in (1.0 - 1e-9, 1.0 - 1e-3, 0.99, 0.9):
        mu_hi = mu_max * shrink
        v0_hi = v0_at(mu_hi)
        if not math.isnan(v0_hi):
            break
    if math.isnan(v0_hi) or v0_hi > target_v0:
        raise ValueError(
            f"target v0 {target_v0} below the slowest damped jump "
            f"({v0_hi:.6g} m/s just under the stiction threshold)")

    return _brentq(lambda mu: v0_at(mu) - target_v0, 0.0, mu_hi, rtol=_IDENTIFY_RTOL)
