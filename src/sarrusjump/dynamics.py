"""Single-DOF squat-jump dynamics of the Sarrus leg linkage.

The decompression phase is governed by one Lagrangian equation in the leg
angle theta.  With the lumped mass coefficients

    M1 = m4 + 2 m5
    M2 = m2 + 4 m3 + 5 m4 + 8 m5
    M3 = m2 + 2 m3 + 3 m4 + 4 m5
    M4 = m3 + 2 m4 + 2 m5

the governing equation is

    tdd = [4 M1 a^2 sin(2 th) td^2 - 2 a cos(th) (g M3 - 4 F_y)
           - 4 mu_C sgn(td)] / [a^2 (4 M1 cos(2 th) + M2) + 4 (I1 + I2)]

where F_y is the vertical thrust of the band drive.  The foot mass m1 stays
on the ground throughout decompression; take-off is the first zero, with
the head rising (hd > 0), of the ground reaction force

    F_N = (m_T - m1) hdd + (m_T - m1) g + m1 g.

A zero of F_N with the head falling ends the run as lost contact: the
ground cannot pull the foot down, and the model has no phase for a foot
that lifts while the leg collapses.

At take-off the momentum of the moving parts is shared with the foot,
v0 = (m_T - m1) / m_T * hd(t_off), and the aerial phase is ballistic.

Integration is fixed-step classical Runge-Kutta 4 with bisection refinement
of the take-off and band slack/taut transitions.  sgn(0) = 0, plus an
explicit static-friction check before motion starts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .elastic import ElasticModel, stored_energy
from .geometry import LinkageGeometry, finite_fields, stretch
from .thrust import leg_forces

TAKE_OFF = "TakeOff"
STICTION = "Stiction"
KNEE_INVERSION = "KneeInversion"
CONTACT_LOST = "ContactLost"
HORIZON_EXCEEDED = "HorizonExceeded"

TRAJECTORY_CSV_HEADER = (
    "t", "theta", "theta_dot", "h", "h_dot", "h_ddot", "lambda",
    "F_l", "F_y", "F_N", "T_kin", "V_pot", "E_band",
)


@dataclass(frozen=True)
class MassModel:
    """Per-leg reduced masses, link inertias, gravity and Coulomb damping.

    The shared foot and head plates are entered as one-third shares so a
    single leg plane with a single band is a self-consistent reduction of
    the three-legged machine; efficiencies are identical in per-leg and
    whole-machine bookkeeping.
    """

    m1: float  # foot plate share [kg]
    m2: float  # lower leg link [kg]
    m3: float  # knee [kg]
    m4: float  # upper leg link [kg]
    m5: float  # head plate share [kg]
    I1: float  # lower link inertia [kg m^2]
    I2: float  # upper link inertia [kg m^2]
    g: float = 9.81     # gravitational acceleration [m/s^2]
    mu_C: float = 0.0   # Coulomb damping coefficient [N m]

    def __post_init__(self):
        finite_fields(self, non_negative=("m1", "m2", "m3", "m4", "m5",
                                          "I1", "I2", "g", "mu_C"))
        if self.m_T <= 0.0:
            raise ValueError(f"m_T (total mass) must be positive, got {self.m_T!r}")

    @property
    def m_T(self) -> float:
        return self.m1 + self.m2 + self.m3 + self.m4 + self.m5

    def mass_coefficients(self) -> tuple[float, float, float, float]:
        """Lumped coefficients (M1, M2, M3, M4), recomputed on every call."""
        m2, m3, m4, m5 = self.m2, self.m3, self.m4, self.m5
        return (
            m4 + 2.0 * m5,
            m2 + 4.0 * m3 + 5.0 * m4 + 8.0 * m5,
            m2 + 2.0 * m3 + 3.0 * m4 + 4.0 * m5,
            m3 + 2.0 * m4 + 2.0 * m5,
        )


@dataclass(frozen=True)
class SimOptions:
    """Fixed-step integration controls."""

    step: float = 1e-5             # time step [s]
    t_max: float = 1.0             # horizon [s]
    event_tolerance: float = 1e-7  # event bisection tolerance [s]
    theta0: float = 0.066          # initial leg angle [rad]

    def __post_init__(self):
        finite_fields(self, positive=("step", "event_tolerance"))
        if self.t_max <= self.step:
            raise ValueError("t_max must exceed the time step")
        if not (0.0 < self.theta0 < math.pi / 2):
            raise ValueError(f"theta0 must lie in (0, pi/2), got {self.theta0}")


@dataclass(frozen=True)
class Trajectory:
    """Decompression time series plus termination metadata.

    All columns are parallel arrays, built once from the recorded kernel
    evaluations; h, hd, hdd come from (theta, theta_dot, theta_ddot) of the
    same node, so they are consistent with theta by construction.
    """

    t: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    h: np.ndarray
    h_dot: np.ndarray
    h_ddot: np.ndarray
    lam: np.ndarray
    F_l: np.ndarray
    F_y: np.ndarray
    F_N: np.ndarray
    T_kin: np.ndarray
    V_pot: np.ndarray
    E_band: np.ndarray
    termination: str
    termination_detail: str
    t_off: Optional[float]
    friction_work: float  # integral of mu_C |theta_dot| dt [J]
    thrust_work: float    # integral of F_y hd dt [J]

    def __len__(self):
        return len(self.t)

    def columns(self):
        """The 13 columns in TRAJECTORY_CSV_HEADER order."""
        return (self.t, self.theta, self.theta_dot, self.h, self.h_dot,
                self.h_ddot, self.lam, self.F_l, self.F_y, self.F_N,
                self.T_kin, self.V_pot, self.E_band)


@dataclass(frozen=True)
class EnergyAudit:
    """Work and energy bookkeeping over one decompression run.

    residual_J checks the integrator: thrust work must equal the sum of
    kinetic energy, gravity potential gain and friction work.
    virtual_work_excess_J is the gap between the thrust work and the band
    energy actually released; it vanishes for the exact derivative
    convention and for offset-free knees, and is a documented property of
    the default single-pin derivative convention otherwise.
    """

    thrust_work_J: float
    kinetic_J: float
    gravity_delta_J: float
    friction_work_J: float
    residual_J: float
    band_energy_released_J: float
    band_energy_residual_J: float
    virtual_work_excess_J: float


@dataclass(frozen=True)
class JumpSummary:
    """Scalar outcomes of one jump simulation (per-leg), in summary.json order."""

    t_off_s: float
    v0_mps: float
    h_max_m: float
    t_aer_s: float
    eta_pct: float
    E_P0_J: float
    E_K_J: float
    friction_work_J: float
    termination: str
    termination_detail: str
    h_dot_off_mps: float
    audit: EnergyAudit
    m_T_kg: float

    def to_dict(self) -> dict:
        """JSON layout; whole-machine totals are the per-leg values times 3."""
        out = asdict(self)
        out["whole_robot"] = {
            "m_T_kg": 3.0 * out.pop("m_T_kg"),
            "E_P0_J": 3.0 * self.E_P0_J,
            "E_K_J": 3.0 * self.E_K_J,
            "eta_pct": self.eta_pct,
            "v0_mps": self.v0_mps,
        }
        return out


class _LegDynamics:
    """Bound-parameter evaluator for the decompression equation of motion.

    derivatives() is the one evaluation of the model at a state: the RK4
    stages, the event tests (reaction) and the recorded trajectory all read
    its tuple, so no state is passed through the kernel twice.  reaction,
    kinetic and potential take floats or, for a whole trajectory at once,
    arrays.
    """

    __slots__ = ("a", "a2", "p", "m1", "m_T", "g", "mu_C", "M1", "M2", "M3", "M4",
                 "I4", "half_I", "geom", "tension", "energy", "exact")

    def __init__(self, geom: LinkageGeometry, model: ElasticModel,
                 masses: MassModel, exact: bool = False):
        self.a = geom.a
        self.a2 = geom.a * geom.a
        self.p = geom.p
        self.m1 = masses.m1
        self.m_T = masses.m_T
        self.g = masses.g
        self.mu_C = masses.mu_C
        self.M1, self.M2, self.M3, self.M4 = masses.mass_coefficients()
        self.I4 = 4.0 * (masses.I1 + masses.I2)
        self.half_I = 0.5 * (masses.I1 + masses.I2)
        self.geom = geom
        self.tension = model.tension
        self.energy = model.energy
        self.exact = exact

    def derivatives(self, theta, theta_dot):
        """(theta_dot, theta_ddot, friction power, thrust power, sin, cos,
        h, lambda, F_l, F_y, h_dot): the RK4 right-hand side, then the
        kernel values behind it, passed through without extra arithmetic."""
        s, co, h, lam, f_l, f_y = leg_forces(self.geom, self.tension, theta, self.exact)
        sin2 = 2.0 * s * co
        cos2 = co * co - s * s
        denom = self.a2 * (4.0 * self.M1 * cos2 + self.M2) + self.I4
        sgn = (theta_dot > 0.0) - (theta_dot < 0.0)
        num = (
            4.0 * self.M1 * self.a2 * sin2 * theta_dot * theta_dot
            - 2.0 * self.a * co * (self.g * self.M3 - 4.0 * f_y)
            - 4.0 * self.mu_C * sgn
        )
        tdd = num / denom
        h_dot = 2.0 * self.a * co * theta_dot
        return (theta_dot, tdd, self.mu_C * abs(theta_dot), f_y * h_dot,
                s, co, h, lam, f_l, f_y, h_dot)

    def reaction(self, d):
        """(h_ddot, F_N) from one derivatives() tuple, or from its columns
        stacked as the rows of an array."""
        theta_dot, tdd, _, _, s, co = d[:6]
        h_dd = 2.0 * self.a * co * tdd - 2.0 * self.a * s * theta_dot * theta_dot
        return h_dd, (self.m_T - self.m1) * h_dd + self.m_T * self.g

    def kinetic(self, theta, theta_dot):
        cos2 = np.cos(2.0 * theta)
        td2 = theta_dot * theta_dot
        return (self.a2 / 8.0 * (4.0 * self.M1 * cos2 + self.M2) * td2
                + self.half_I * td2)

    def potential(self, theta):
        return (0.5 * self.a * self.g * self.M3 * np.sin(theta)
                + self.p * self.g * self.M4)

    def static_margin(self, theta):
        """Net starting torque minus the Coulomb threshold; <= 0 means stuck."""
        _, co, _, _, _, f_y = leg_forces(self.geom, self.tension, theta, self.exact)
        return 2.0 * self.a * co * abs(self.g * self.M3 / 4.0 - f_y) - self.mu_C


def _rk4(dm: _LegDynamics, y, k1, dt):
    """One classical RK4 step of size dt from y; k1 = dm.derivatives at y."""
    th, om, wf, wi = y
    k2 = dm.derivatives(th + 0.5 * dt * k1[0], om + 0.5 * dt * k1[1])
    k3 = dm.derivatives(th + 0.5 * dt * k2[0], om + 0.5 * dt * k2[1])
    k4 = dm.derivatives(th + dt * k3[0], om + dt * k3[1])
    sixth = dt / 6.0
    return (
        th + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
        om + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
        wf + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]),
        wi + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3]),
    )


def _bisect_event(dm, y, k1, dt, y_hi, d_hi, crossing, tol_t, max_iter=90):
    """First sub-step tau in (0, dt] where crossing(evaluation) flips negative.

    y_hi and d_hi are the state after the full step dt from y and its
    derivatives() tuple; k1 is the one at y.  crossing(d) must be > 0 at
    tau = 0 and <= 0 at tau = dt.  Returns (tau, state, evaluation) on the
    event side of the crossing.
    """
    lo = 0.0
    hi = dt
    for _ in range(max_iter):
        if hi - lo <= tol_t:
            break
        mid = 0.5 * (lo + hi)
        y_mid = _rk4(dm, y, k1, mid)
        d_mid = dm.derivatives(y_mid[0], y_mid[1])
        if crossing(d_mid) > 0.0:
            lo = mid
        else:
            hi, y_hi, d_hi = mid, y_mid, d_mid
    return hi, y_hi, d_hi


def theta_ddot(geom: LinkageGeometry, model: ElasticModel, masses: MassModel,
               theta: float, theta_dot: float, exact_derivative: bool = False) -> float:
    """Angular acceleration of the leg at the given state."""
    if not (0.0 < theta <= math.pi / 2):
        raise ValueError(f"theta must lie in (0, pi/2], got {theta}")
    dm = _LegDynamics(geom, model, masses, exact_derivative)
    return dm.derivatives(theta, theta_dot)[1]


def ground_reaction(masses: MassModel, h_ddot: float) -> float:
    """Ground reaction force F_N = (m_T - m1) hdd + (m_T - m1) g + m1 g."""
    mt, m1, g = masses.m_T, masses.m1, masses.g
    return (mt - m1) * h_ddot + (mt - m1) * g + m1 * g


def takeoff_velocity(masses: MassModel, h_dot_off: float) -> float:
    """Centre-of-mass speed after momentum sharing with the foot."""
    if h_dot_off < 0.0:
        raise ValueError(f"take-off speed must be non-negative, got {h_dot_off}")
    return (masses.m_T - masses.m1) / masses.m_T * h_dot_off


def com_velocity(masses: MassModel, a: float, theta: float, theta_dot: float) -> float:
    """Diagnostic: vertical velocity of the moving-parts centre of mass.

    Computed from the individual link velocities; differs from the
    momentum-ratio convention applied to the head-plate speed.
    """
    _, _, M3, _ = masses.mass_coefficients()
    moving = masses.m_T - masses.m1
    if moving <= 0.0:
        raise ValueError("no moving mass")
    return 0.5 * M3 * a * math.cos(theta) * theta_dot / moving


def ballistic(v0: float, g: float) -> tuple[float, float]:
    """(h_max, t_aer) of the ballistic flight: v0^2 / (2 g) and 2 v0 / g."""
    if v0 < 0.0:
        raise ValueError(f"take-off velocity must be non-negative, got {v0}")
    if g <= 0.0:
        return math.inf, math.inf
    return v0 * v0 / (2.0 * g), 2.0 * v0 / g


def efficiency(E_K: float, E_P: float) -> float:
    """Energy conversion efficiency in percent, 100 E_K / E_P."""
    if E_P <= 0.0:
        raise ValueError(f"stored energy must be positive, got {E_P}")
    return 100.0 * E_K / E_P


def integrate_decompression(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    options: SimOptions,
    exact_derivative: bool = False,
    record: bool = True,
) -> Trajectory:
    """Integrate the decompression phase from rest at theta0 to the first
    terminal event.

    Events, checked each step: take-off (ground reaction crosses zero with
    the head rising, bisection-refined), lost contact (the same zero with
    the head falling), knee inversion (theta <= 0), the
    pi/2 hard stop, the time horizon, and re-sticking after a velocity
    reversal.  Band slack/taut transitions are bisection-refined and the
    step is split there to preserve the integrator order.

    With record=False only the initial and terminal rows are kept.
    """
    dm = _LegDynamics(geom, model, masses, exact_derivative)
    th0 = options.theta0
    dt_nom = options.step
    tol_t = options.event_tolerance

    # d is the one derivatives() evaluation at the current state y: it is
    # the next step's k1 and feeds the event tests and the recorded node.
    d = dm.derivatives(th0, 0.0)
    # The recorded nodes: their times, and theta then d of each, back to
    # back in one flat list of floats, so that no per-node container
    # outlives its step for the garbage collector to traverse.
    ts = [0.0]
    nodes = [th0, *d]
    termination = HORIZON_EXCEEDED
    detail = "time horizon exceeded before take-off"
    t_off = None

    if dm.static_margin(th0) <= 0.0:
        return _build_trajectory(
            dm, ts, nodes, STICTION,
            "drive torque at rest does not exceed the Coulomb threshold",
            None, 0.0, 0.0,
        )

    t = 0.0
    y = (th0, 0.0, 0.0, 0.0)  # theta, theta_dot, friction work, thrust work
    fn_prev = dm.reaction(d)[1]

    while t < options.t_max - 1e-15:
        dt = min(dt_nom, options.t_max - t)
        y_new = _rk4(dm, y, d, dt)
        d_new = dm.derivatives(y_new[0], y_new[1])
        fn_new = dm.reaction(d_new)[1]

        off = slack = None  # (tau, state, evaluation) of each event in this step
        if fn_prev > 0.0 >= fn_new:
            off = _bisect_event(
                dm, y, d, dt, y_new, d_new, lambda e: dm.reaction(e)[1], tol_t)
        if (d[7] - 1.0) * (d_new[7] - 1.0) < 0.0:  # lambda crosses 1
            sign = 1.0 if d[7] > 1.0 else -1.0
            slack = _bisect_event(
                dm, y, d, dt, y_new, d_new, lambda e: sign * (e[7] - 1.0), tol_t)

        if off is not None and (slack is None or off[0] <= slack[0]):
            tau, y, d = off
            t += tau
            if d[10] > 0.0:  # the head rises: take-off
                termination = TAKE_OFF
                detail = "ground reaction force reached zero"
                t_off = t
            else:
                termination = CONTACT_LOST
                detail = "ground reaction force reached zero with the head falling"
            break
        if slack is not None:
            # Split the step at the stiffness kink; continue integrating.
            tau, y, d = slack
            t += tau
            if record:
                ts.append(t)
                nodes += (y[0], *d)
            fn_prev = dm.reaction(d)[1]
            continue

        t += dt
        y = y_new
        d = d_new
        fn_prev = fn_new

        if y[0] <= 0.0:
            termination = KNEE_INVERSION
            detail = "leg angle reached zero: knee inverted"
            break
        if y[0] >= math.pi / 2:
            termination = HORIZON_EXCEEDED
            detail = "leg reached the pi/2 hard stop before take-off"
            break
        if y[1] < 0.0 and dm.static_margin(y[0]) <= 0.0:
            termination = STICTION
            detail = "decompression reversed and re-stuck below the Coulomb threshold"
            break
        if record:
            ts.append(t)
            nodes += (y[0], *d)

    if ts[-1] < t:  # the terminal node of every exit after the start
        ts.append(t)
        nodes += (y[0], *d)

    return _build_trajectory(dm, ts, nodes, termination, detail, t_off, y[2], y[3])


def _build_trajectory(dm, ts, nodes, termination, detail, t_off,
                      w_friction, w_thrust):
    """The Trajectory of the recorded nodes: every column at once, through
    the same expressions the integrator uses."""
    columns = np.fromiter(nodes, float, len(nodes)).reshape(len(ts), -1).T
    theta, d = columns[0], columns[1:]  # d[k]: entry k of every derivatives() tuple
    theta_dot, h, lam, f_l, f_y, h_dot = d[0], d[6], d[7], d[8], d[9], d[10]
    h_dd, f_n = dm.reaction(d)
    return Trajectory(
        t=np.array(ts), theta=theta, theta_dot=theta_dot, h=h, h_dot=h_dot,
        h_ddot=h_dd, lam=lam, F_l=f_l, F_y=f_y, F_N=f_n,
        T_kin=dm.kinetic(theta, theta_dot), V_pot=dm.potential(theta),
        E_band=dm.energy(lam),
        termination=termination, termination_detail=detail, t_off=t_off,
        friction_work=float(w_friction), thrust_work=float(w_thrust),
    )


def simulate_jump(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    options: SimOptions,
    exact_derivative: bool = False,
    record: bool = True,
) -> tuple[Trajectory, JumpSummary]:
    """Decompression, momentum transfer, ballistic flight and efficiency.

    The efficiency denominator is the full band energy stored at theta0;
    any band energy still unreleased at take-off is reported in the audit
    rather than subtracted.
    """
    traj = integrate_decompression(geom, model, masses, options,
                                   exact_derivative=exact_derivative,
                                   record=record)
    e_p0 = stored_energy(model, stretch(geom, options.theta0))
    took_off = traj.termination == TAKE_OFF

    if took_off:
        h_dot_off = float(traj.h_dot[-1])
        v0 = takeoff_velocity(masses, h_dot_off)
        h_max, t_aer = ballistic(v0, masses.g)
        e_k = 0.5 * masses.m_T * v0 * v0
        eta = efficiency(e_k, e_p0)
        t_off = float(traj.t_off)
    else:
        h_dot_off = v0 = h_max = t_aer = e_k = eta = t_off = math.nan

    band_residual = float(traj.E_band[-1])
    released = e_p0 - band_residual
    kinetic_end = float(traj.T_kin[-1])
    gravity_delta = float(traj.V_pot[-1] - traj.V_pot[0])
    residual = traj.thrust_work - (kinetic_end + gravity_delta + traj.friction_work)
    audit = EnergyAudit(
        thrust_work_J=traj.thrust_work,
        kinetic_J=kinetic_end,
        gravity_delta_J=gravity_delta,
        friction_work_J=traj.friction_work,
        residual_J=residual,
        band_energy_released_J=released,
        band_energy_residual_J=band_residual,
        virtual_work_excess_J=traj.thrust_work - released,
    )
    summary = JumpSummary(
        termination=traj.termination,
        termination_detail=traj.termination_detail,
        t_off_s=t_off,
        h_dot_off_mps=h_dot_off,
        v0_mps=v0,
        h_max_m=h_max,
        t_aer_s=t_aer,
        eta_pct=eta,
        E_P0_J=e_p0,
        E_K_J=e_k,
        friction_work_J=traj.friction_work,
        audit=audit,
        m_T_kg=masses.m_T,
    )
    return traj, summary


def _integrate_raw(dm: _LegDynamics, theta0: float, theta_dot0: float,
                   t_span: float, step: float, bounds: tuple[float, float],
                   forward: bool = True):
    """Event-free fixed-step integration of the bare leg dynamics.

    Used for phase portraits and stability probes.  Returns (t, theta,
    theta_dot, energy, exited) where energy = T + V - thrust work, which is
    conserved along undamped trajectories, and exited flags a bounds exit.
    """
    n = max(int(round(t_span / step)), 1)
    dt = (t_span / n) * (1.0 if forward else -1.0)
    ts = [0.0]
    y = (theta0, theta_dot0, 0.0, 0.0)
    states = list(y)  # flat, as the nodes of integrate_decompression
    exited = False
    for i in range(1, n + 1):
        y = _rk4(dm, y, dm.derivatives(y[0], y[1]), dt)
        ts.append(i * dt)
        states += y
        if not (bounds[0] <= y[0] <= bounds[1]):
            exited = True
            break
    states = np.fromiter(states, float, len(states)).reshape(len(ts), 4)
    theta, theta_dot, _, thrust_work = states.T
    energy = dm.kinetic(theta, theta_dot) + dm.potential(theta) - thrust_work
    return np.array(ts), theta, theta_dot, energy, exited
