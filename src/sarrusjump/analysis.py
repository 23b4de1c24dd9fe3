"""Phase portraits, equilibrium classification, efficiency sensitivity
sweeps, and Coulomb-coefficient identification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import (
    TAKE_OFF,
    MassModel,
    SimOptions,
    _integrate_raw,
    _LegDynamics,
    simulate_jump,
)
from .elastic import ElasticModel
from .geometry import LegAngleInterval, LinkageGeometry, finite
from .thrust import leg_forces, leg_forces_array

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


@dataclass(frozen=True)
class Equilibrium:
    """A rest configuration of the undamped leg dynamics."""

    theta_star: float
    kind: str  # Saddle | Center | Degenerate
    eigenvalues: tuple[complex, complex]


def _undamped(masses: MassModel) -> MassModel:
    return masses if masses.mu_C == 0.0 else replace(masses, mu_C=0.0)


_BRENT_XTOL = 1e-14
_BRENT_MAXITER = 100


def _brentq(f, xa, xb, rtol=4 * np.finfo(float).eps):
    """Root of f in [xa, xb]: a step-for-step port of scipy.optimize.brentq
    at xtol=_BRENT_XTOL and maxiter=_BRENT_MAXITER, with the same floats and
    the same ValueError (NaN, no sign change) and RuntimeError."""

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"function value at x={x:.6g} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


def find_equilibria(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    interval: LegAngleInterval,
    n_scan: int = 2000,
    exact_derivative: bool = False,
) -> list[Equilibrium]:
    """Equilibria of the undamped dynamics on the interval.

    Roots of cos(theta) (g M3 - 4 F_y(theta)) are located by a sign scan
    over n_scan points (array kernel) followed by Brent refinement (scalar
    kernel), then classified through the Jacobian of the (theta, theta_dot)
    system: a real +/- eigenvalue pair is a saddle, an imaginary pair a
    center.  Friction is ignored here because the Coulomb term is not
    differentiable at rest.
    """
    dm = _LegDynamics(geom, model, _undamped(masses), exact_derivative)

    def torque(th):
        _, co, _, _, _, f_y = leg_forces(geom, model.tension, th, exact_derivative)
        return co * (dm.g * dm.M3 - 4.0 * f_y)

    grid = np.linspace(interval.theta_min, interval.theta_max, n_scan)
    _, co, _, _, _, f_y = leg_forces_array(geom, model, grid, exact_derivative)
    values = co * (dm.g * dm.M3 - 4.0 * f_y)  # torque(grid), to the bit
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


def _classify(dm: _LegDynamics, theta_star: float, eps: float = 1e-6) -> Equilibrium:
    """Classify via the linearised 2-state system at (theta*, 0)."""
    dfdth = (dm.derivatives(theta_star + eps, 0.0)[1]
             - dm.derivatives(theta_star - eps, 0.0)[1]) / (2 * eps)
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
    status: closed | open | escaped | damped | failed
    """

    theta0: float
    t: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    energy: np.ndarray
    status: str


def phase_portrait(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    theta0_values: Sequence[float],
    t_span: float = 1.5,
    step: float = 2e-4,
    bounds: tuple[float, float] = (-0.15, math.pi / 2 + 0.1),
    closure_tol: float = 1e-3,
    exact_derivative: bool = False,
) -> list[PortraitTrajectory]:
    """Trace the leg dynamics from a grid of release angles.

    Undamped (mu_C = 0) releases are integrated both forward and backward
    in time, tracing the equi-energetic curve through each release point;
    damped releases are integrated forward only.  Failures are recorded
    per trajectory, not raised.
    """
    t_span = finite("t_span", t_span, "positive")
    step = finite("step", step, "positive")
    dm = _LegDynamics(geom, model, masses, exact_derivative)
    undamped = masses.mu_C == 0.0
    out = []
    for theta0 in theta0_values:
        theta0 = float(theta0)
        try:
            out.append(_trace(dm, theta0, undamped, t_span, step, bounds, closure_tol))
        except Exception:
            empty = np.array([])
            out.append(PortraitTrajectory(theta0, empty, empty, empty, empty, "failed"))
    return out


def _trace(dm, theta0, undamped, t_span, step, bounds, closure_tol):
    t_f, th_f, om_f, en_f, exited_f = _integrate_raw(
        dm, theta0, 0.0, t_span, step, bounds, forward=True)
    if not np.all(np.isfinite(th_f)):
        raise FloatingPointError(f"non-finite state from release {theta0}")
    if undamped:
        t_b, th_b, om_b, en_b, exited_b = _integrate_raw(
            dm, theta0, 0.0, t_span, step, bounds, forward=False)
        t = np.concatenate([t_b[::-1], t_f[1:]])
        theta = np.concatenate([th_b[::-1], th_f[1:]])
        omega = np.concatenate([om_b[::-1], om_f[1:]])
        energy = np.concatenate([en_b[::-1], en_f[1:]])
        if exited_f or exited_b:
            status = "escaped"
        else:
            status = "closed" if _returns_to_start(th_f, om_f, theta0, closure_tol) else "open"
    else:
        t, theta, omega, energy = t_f, th_f, om_f, en_f
        status = "escaped" if exited_f else "damped"
    return PortraitTrajectory(theta0, t, theta, omega, energy, status)


def _returns_to_start(theta, omega, theta0, tol):
    dist = np.hypot(theta - theta0, omega)
    departed = np.flatnonzero(dist > 10.0 * tol)
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
        if abs(theta_turn - theta0) < tol:
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

    def rows(self):
        for prop, eta, status in zip(self.proportions, self.eta, self.status):
            yield self.parameter, prop, eta, status


def sensitivity(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    parameter: str,
    proportions: Sequence[float],
    options: SimOptions,
    exact_derivative: bool = False,
) -> SensitivityCurve:
    """Efficiency of the undamped jump as one parameter scales from nominal.

    Every point is a full simulation with all other parameters held at
    their nominal values and mu_C forced to zero.  Individual points may
    fail (stiction, inversion, invalid value); they are marked in status,
    never raised.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(
            f"unknown parameter {parameter!r}; choose from {SWEEPABLE_PARAMETERS}")
    base_masses = _undamped(masses)
    props, etas, statuses, values = [], [], [], []
    for prop in proportions:
        prop = float(prop)
        try:
            g_i, m_i, o_i, value = _scaled(geom, base_masses, options, parameter, prop)
            _, summ = simulate_jump(g_i, model, m_i, o_i,
                                    exact_derivative=exact_derivative, record=False)
            if summ.termination == TAKE_OFF:
                etas.append(summ.eta_pct)
                statuses.append("ok")
            else:
                etas.append(math.nan)
                statuses.append(summ.termination.lower())
        except ValueError:
            value = math.nan
            etas.append(math.nan)
            statuses.append("invalid")
        props.append(prop)
        values.append(value)
    return SensitivityCurve(parameter, np.array(props), np.array(etas),
                            statuses, np.array(values))


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
    exact_derivative: bool = False,
) -> float:
    """Largest mu_C that still lets decompression start from rest at theta0."""
    dm = _LegDynamics(geom, model, _undamped(masses), exact_derivative)
    return dm.static_margin(theta0)


def identify_mu(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    target_v0: float,
    options: SimOptions,
    rel_tol: float = 1e-6,
    exact_derivative: bool = False,
) -> float:
    """Coulomb coefficient whose simulated take-off velocity hits target_v0.

    Bracketed root finding on [0, stiction threshold); relies on v0 being
    monotone non-increasing in mu_C.  Raises when the target lies outside
    the reachable velocity range.
    """

    def v0_at(mu):
        run_masses = replace(masses, mu_C=mu)
        _, summ = simulate_jump(geom, model, run_masses, options,
                                exact_derivative=exact_derivative, record=False)
        if summ.termination != TAKE_OFF:
            return math.nan
        return summ.v0_mps

    v0_free = v0_at(0.0)
    if math.isnan(v0_free):
        raise ValueError("configuration does not take off even undamped")
    if not (0.0 < target_v0 <= v0_free * (1.0 + 1e-12)):
        raise ValueError(
            f"target v0 {target_v0} outside (0, {v0_free:.6g}] reachable undamped")
    if abs(target_v0 - v0_free) <= 1e-9 * v0_free:
        return 0.0

    mu_max = stiction_threshold(geom, model, masses, options.theta0,
                                exact_derivative)
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

    return _brentq(lambda mu: v0_at(mu) - target_v0, 0.0, mu_hi,
                   rtol=max(rel_tol, 8.9e-16))
