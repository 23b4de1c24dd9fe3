"""Single-DOF squat-jump dynamics of the Sarrus leg linkage.

The decompression phase is governed by one Lagrangian equation in the leg
angle theta.  With the lumped mass coefficients

    M1 = m4 + 2 m5
    M2 = m2 + 4 m3 + 5 m4 + 8 m5
    M3 = m2 + 2 m3 + 3 m4 + 4 m5
    M4 = m3 + 2 m4 + 2 m5

the governing equation is

    tdd = [8 M1 a^2 sin(th) cos(th) td^2 - 2 a cos(th) (g M3 - 4 F_y)
           - 4 mu_C sgn(td)] / D(th)
    D(th) = a^2 (4 M1 (cos(th)^2 - sin(th)^2) + M2) + 4 (I1 + I2)

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
of the take-off, the band slack/taut transitions and the velocity
reversals.  The Coulomb term is a sliding mode: a leg at rest breaks free
only if its net starting torque exceeds mu_C (the static check), and then
slides in the direction sigma of that torque, with the constant friction
torque -mu_C sigma from the release instant on, so the first RK4 stage
carries it too.  Only a reversal, sigma theta_dot falling to zero at a step
end, changes sigma: located by bisection, it splits the step, and there the
leg sticks if the static check fails, or slides back in -sigma.  Undamped,
no reversal is an event.

solve_takeoff finds the same take-off without time stepping.  While
theta_dot keeps the sign sigma of the release the Coulomb torque is
constant, and the kinetic energy D(theta) td^2 / 8 is a first integral:

    td^2(theta) = 8 [W(theta) - (V(theta) - V(theta0)) - sigma mu_C (theta - theta0)] / D(theta)

with W the thrust work.  Take-off is then a root of F_N along theta, and
t_off a quadrature.  A leg that rises to pi/2 with F_N > 0, and an
undamped leg that turns back with F_N > 0 (F_N depends on td^2 only, so
the orbit retraces it until t_max), never take off; every other case
outside that picture falls back to the integrator.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .elastic import ElasticModel
from .geometry import ARM_FLOOR, SQRT3, LinkageGeometry, finite_fields
from .thrust import leg_forces_array

TAKE_OFF = "TakeOff"
STICTION = "Stiction"
KNEE_INVERSION = "KneeInversion"
CONTACT_LOST = "ContactLost"
HORIZON_EXCEEDED = "HorizonExceeded"

TRAJECTORY_CSV_HEADER = (
    "t", "theta", "theta_dot", "h", "h_dot", "h_ddot", "lambda",
    "F_l", "F_y", "F_N", "T_kin", "V_pot", "E_band",
)

_BISECT_MAX_ITER = 90  # _bisect_event's cap; the event tolerance ends it first


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

    All columns are parallel arrays, built once from the recorded RHS
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
    friction_work: float  # integral of mu_C sigma theta_dot = mu_C |theta_dot| dt [J]
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

    sliding[sigma](theta, theta_dot), sigma in (-1.0, 0.0, 1.0), is the one
    evaluation of the model at a state of a leg sliding in direction sigma:
    the Coulomb torque is the constant mu_C sigma, so no sgn(theta_dot) is
    taken, and the friction power is mu_C sigma theta_dot.  The RK4 stages,
    the event tests (reaction), the recorded trajectory and the equilibrium
    torque all read its tuple.  derivatives is sliding[0.0], the evaluation
    without friction: at rest, for the static checks, or undamped.  Each is
    one flat closure, one Python frame, built once per design: the scalar
    leg kernel, leg_forces_array's arithmetic in the same order on floats,
    then the equation of motion.  sliding_array[sigma](forces, theta_dot)
    is that equation of motion over the leg_forces_array tuple of arrays of
    states, for the take-off solver; the two agree bit for bit.  inertia and
    torque are the one expression of the mass matrix D(theta) and of the
    net torque from rest, and sliding_array calls them; the scalar closures
    write both inline, to stay one frame.  reaction, inertia, torque,
    kinetic and potential take floats or arrays.
    """

    __slots__ = ("a", "a2", "p", "m1", "m_T", "g", "mu_C", "M1", "M2", "M3", "M4",
                 "I4", "geom", "model", "energy", "inertia", "torque", "sliding",
                 "sliding_array", "derivatives")

    def __init__(self, geom: LinkageGeometry, model: ElasticModel, masses: MassModel):
        a, a2, mu_C = geom.a, geom.a * geom.a, masses.mu_C
        p, q, c, l0, exact = geom.p, geom.q, geom.c, geom.l0, geom.exact_derivative
        M1, M2, M3, M4 = masses.mass_coefficients()
        I4 = 4.0 * (masses.I1 + masses.I2)
        self.a, self.a2, self.p = a, a2, p
        self.m1, self.m_T, self.g, self.mu_C = masses.m1, masses.m_T, masses.g, mu_C
        self.M1, self.M2, self.M3, self.M4, self.I4 = M1, M2, M3, M4, I4
        self.geom = geom
        self.model = model
        self.energy = model.energy
        tension, sin, cos = model.tension, math.sin, math.cos
        # The leading products of the expressions below, which evaluate
        # left to right, so binding them here changes no bit.
        m1a2_4, m1_4, a_2 = 4.0 * M1 * a2, 4.0 * M1, 2.0 * a
        g_m3, mu_4, half_sqrt3, half_a = masses.g * M3, 4.0 * mu_C, 0.5 * SQRT3, 0.5 * a

        # Closures, not methods: sliding_array holding self would be a cycle.
        def inertia(s, co):
            """D(theta) from sin and cos of theta; derivatives() inlines it."""
            return a2 * (m1_4 * (co * co - s * s) + M2) + I4

        def torque(co, f_y):
            """Net torque from rest without friction, D(theta) tdd(theta, 0) / 4:
            the theta_dot = 0 numerator of derivatives() over 4, to the bit."""
            return half_a * co * (4.0 * f_y - g_m3)

        def equation_of_motion(sigma):
            # The Coulomb torque and friction power of a slide in direction
            # sigma; where theta_dot has the sign of sigma they are the
            # mu_4 sgn(theta_dot) and mu_C |theta_dot| of the model, to the bit.
            friction, mu_sigma = mu_4 * sigma, mu_C * sigma

            def derivatives(theta, theta_dot):
                """(theta_dot, theta_ddot, friction power, thrust power, sin,
                cos, h, lambda, F_l, F_y, h_dot): the RK4 right-hand side, then
                the leg-kernel values behind it."""
                s = sin(theta)
                co = cos(theta)
                h = 2.0 * (a * s + p)
                u = a * co + q
                if u < ARM_FLOOR:
                    u = ARM_FLOOR
                lam = (c + SQRT3 * u) / l0
                f_l = tension(lam) if lam > 1.0 else 0.0
                if f_l == 0.0:
                    f_y = 0.0
                elif exact:
                    f_y = f_l * (half_sqrt3 * s / max(co, 1e-12))
                else:
                    f_y = f_l * (SQRT3 * h / (4.0 * u))
                sin2 = 2.0 * s * co
                denom = a2 * (m1_4 * (co * co - s * s) + M2) + I4
                num = (m1a2_4 * sin2 * theta_dot * theta_dot
                       - a_2 * co * (g_m3 - 4.0 * f_y) - friction)
                h_dot = a_2 * co * theta_dot
                return (theta_dot, num / denom, mu_sigma * theta_dot, f_y * h_dot,
                        s, co, h, lam, f_l, f_y, h_dot)

            def derivatives_array(forces, theta_dot):
                s, co, h, lam, f_l, f_y = forces
                sin2 = 2.0 * s * co
                num = (m1a2_4 * sin2 * theta_dot * theta_dot
                       + 4.0 * torque(co, f_y) - friction)
                h_dot = a_2 * co * theta_dot
                return (theta_dot, num / inertia(s, co), mu_sigma * theta_dot,
                        f_y * h_dot, s, co, h, lam, f_l, f_y, h_dot)

            return derivatives, derivatives_array

        self.inertia, self.torque = inertia, torque
        self.sliding, self.sliding_array = {}, {}
        for sigma in (-1.0, 0.0, 1.0):
            self.sliding[sigma], self.sliding_array[sigma] = equation_of_motion(sigma)
        self.derivatives = self.sliding[0.0]

    @staticmethod
    def direction(d):
        """The direction sigma in which a leg at rest in the derivatives()
        tuple d starts to slide: that of its net starting torque."""
        return 1.0 if d[1] > 0.0 else -1.0

    def release(self, d):
        """The derivatives() tuple d at rest, with the Coulomb torque
        sliding against the net starting torque: the first k1 of a slide in
        direction(d) from rest."""
        tdd = d[1] - 4.0 * self.mu_C * self.direction(d) / self.inertia(d[4], d[5])
        return (d[0], tdd, *d[2:])

    def reaction(self, d):
        """(h_ddot, F_N) from one derivatives() tuple, or from its columns
        stacked as the rows of an array."""
        theta_dot, tdd, _, _, s, co = d[:6]
        h_dd = 2.0 * self.a * co * tdd - 2.0 * self.a * s * theta_dot * theta_dot
        return h_dd, (self.m_T - self.m1) * h_dd + self.m_T * self.g

    def kinetic(self, s, co, theta_dot):
        """D(theta) theta_dot^2 / 8 from sin and cos of theta."""
        return self.inertia(s, co) * theta_dot * theta_dot / 8.0

    def potential(self, s):
        """Gravity potential from sin(theta)."""
        return 0.5 * self.a * self.g * self.M3 * s + self.p * self.g * self.M4

    def static_margin(self, d):
        """Net starting torque minus the Coulomb threshold at the state of
        the derivatives() tuple d; <= 0 means stuck."""
        return abs(self.torque(d[5], d[9])) - self.mu_C


def _rk4(derivatives, y, k1, dt):
    """One classical RK4 step of size dt from y; k1 = derivatives at y."""
    th, om, wf, wi = y
    half = 0.5 * dt  # 0.5 * dt * k evaluates as (0.5 * dt) * k
    k2 = derivatives(th + half * k1[0], om + half * k1[1])
    k3 = derivatives(th + half * k2[0], om + half * k2[1])
    k4 = derivatives(th + dt * k3[0], om + dt * k3[1])
    sixth = dt / 6.0
    return (
        th + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
        om + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
        wf + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]),
        wi + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3]),
    )


def _bisect_event(derivatives, y, k1, dt, y_hi, d_hi, crossing, tol_t):
    """First sub-step tau in (0, dt] where crossing(evaluation) flips negative.

    y_hi and d_hi are the state after the full step dt from y and its
    derivatives() tuple; k1 is the one at y.  crossing(d) must be > 0 at
    tau = 0 and <= 0 at tau = dt.  Returns (tau, state, evaluation, probes)
    on the event side of the crossing, probes the RK4 steps it took.
    """
    lo = 0.0
    hi = dt
    probes = 0
    while probes < _BISECT_MAX_ITER and hi - lo > tol_t:
        probes += 1
        mid = 0.5 * (lo + hi)
        y_mid = _rk4(derivatives, y, k1, mid)
        d_mid = derivatives(y_mid[0], y_mid[1])
        if crossing(d_mid) > 0.0:
            lo = mid
        else:
            hi, y_hi, d_hi = mid, y_mid, d_mid
    return hi, y_hi, d_hi, probes


def _reversal(dm: _LegDynamics, sigma, y, d, dt, y_new, d_new, tol_t):
    """The velocity reversal in a step dt from (y, d) to (y_new, d_new) of a
    leg sliding in direction sigma, where sigma * theta_dot has fallen to
    <= 0 at the step end: the one Coulomb stick-slip event.

    Bisects the zero of sigma * theta_dot and returns (tau, state,
    evaluation, sigma, probes) there.  A leg whose static margin is <= 0
    sticks: sigma = 0, the state at rest (theta_dot = 0, the works as they
    are) and its derivatives() tuple.  Otherwise it slides on in -sigma, the
    tuple re-evaluated that way as the next k1.
    """
    tau, y, d, probes = _bisect_event(dm.sliding[sigma], y, d, dt, y_new, d_new,
                                      lambda e: sigma * e[0], tol_t)
    if dm.static_margin(d) <= 0.0:
        y = (y[0], 0.0, y[2], y[3])
        return tau, y, dm.derivatives(y[0], 0.0), 0.0, probes
    sigma = -sigma
    return tau, y, dm.sliding[sigma](y[0], y[1]), sigma, probes


def takeoff_velocity(masses: MassModel, h_dot_off: float) -> float:
    """Centre-of-mass speed after momentum sharing with the foot."""
    if h_dot_off < 0.0:
        raise ValueError(f"take-off speed must be non-negative, got {h_dot_off}")
    return (masses.m_T - masses.m1) / masses.m_T * h_dot_off


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
    record: bool = True,
) -> Trajectory:
    """Integrate the decompression phase from rest at theta0 to the first
    terminal event.

    Events, checked each step: take-off (ground reaction crosses zero with
    the head rising, bisection-refined), lost contact (the same zero with
    the head falling), knee inversion (theta <= 0), the pi/2 hard stop, the
    time horizon, and, damped, each velocity reversal (_reversal), where
    the leg sticks or slides back.  Band slack/taut transitions and
    reversals are bisection-refined and the step is split there to
    preserve the integrator order.

    With record=False only the initial and terminal rows are kept.
    """
    dm = _LegDynamics(geom, model, masses)
    th0 = options.theta0
    dt_nom = options.step
    tol_t = options.event_tolerance

    d = dm.derivatives(th0, 0.0)
    if dm.static_margin(d) <= 0.0:
        return _build_trajectory(
            dm, [0.0], [th0, *d], STICTION,
            "drive torque at rest does not exceed the Coulomb threshold",
            None, 0.0, 0.0,
        )
    # d is the one evaluation at the current state y: it is the next step's
    # k1 and feeds the event tests and the recorded node.  The leg breaks
    # free, so friction slides in sigma from the first stage on.
    sigma = dm.direction(d)
    d = dm.release(d)
    derivatives = dm.sliding[sigma]
    damped = dm.mu_C > 0.0
    # The recorded nodes: their times, and theta then d of each, back to
    # back in one flat list of floats, so that no per-node container
    # outlives its step for the garbage collector to traverse.
    ts = [0.0]
    nodes = [th0, *d]
    termination = HORIZON_EXCEEDED
    detail = "time horizon exceeded before take-off"
    t_off = None

    reaction = dm.reaction
    t_max = options.t_max
    t_end, half_pi = t_max - 1e-15, math.pi / 2
    t = 0.0
    y = (th0, 0.0, 0.0, 0.0)  # theta, theta_dot, friction work, thrust work
    fn_prev = reaction(d)[1]

    while t < t_end:
        dt = t_max - t
        if dt > dt_nom:  # min(dt_nom, t_max - t)
            dt = dt_nom
        y_new = _rk4(derivatives, y, d, dt)
        d_new = derivatives(y_new[0], y_new[1])
        fn_new = reaction(d_new)[1]

        # (tau, state, evaluation, ...) of each event in this step
        off = slack = turn = None
        if fn_prev > 0.0 >= fn_new:
            off = _bisect_event(
                derivatives, y, d, dt, y_new, d_new, lambda e: reaction(e)[1], tol_t)
        if (d[7] - 1.0) * (d_new[7] - 1.0) < 0.0:  # lambda crosses 1
            sign = 1.0 if d[7] > 1.0 else -1.0
            slack = _bisect_event(
                derivatives, y, d, dt, y_new, d_new, lambda e: sign * (e[7] - 1.0),
                tol_t)
        if damped and sigma * y_new[1] <= 0.0:
            turn = _reversal(dm, sigma, y, d, dt, y_new, d_new, tol_t)

        split = slack
        if turn is not None and all(e is None or turn[0] < e[0] for e in (off, slack)):
            tau, y, d, sigma, _ = turn
            if not sigma:
                t += tau
                termination = STICTION
                detail = "the leg stopped and stuck below the Coulomb threshold"
                break
            derivatives = dm.sliding[sigma]  # sliding back from the reversal on
            split, off = turn, None
        if off is not None and (split is None or off[0] <= split[0]):
            tau, y, d, _ = off
            t += tau
            if d[10] > 0.0:  # the head rises: take-off
                termination = TAKE_OFF
                detail = "ground reaction force reached zero"
                t_off = t
            else:
                termination = CONTACT_LOST
                detail = "ground reaction force reached zero with the head falling"
            break
        if split is not None:
            # Split the step at the stiffness kink or the reversal; continue
            # integrating.
            tau, y, d = split[:3]
            t += tau
            if record:
                ts.append(t)
                nodes += (y[0], *d)
            fn_prev = reaction(d)[1]
            continue

        t += dt
        y = y_new
        d = d_new
        fn_prev = fn_new

        if y[0] <= 0.0:
            termination = KNEE_INVERSION
            detail = "leg angle reached zero: knee inverted"
            break
        if y[0] >= half_pi:
            termination = HORIZON_EXCEEDED
            detail = "leg reached the pi/2 hard stop before take-off"
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
    theta_dot, s, co, h, lam, f_l, f_y, h_dot = d[0], *d[4:]
    h_dd, f_n = dm.reaction(d)
    return Trajectory(
        t=np.array(ts), theta=theta, theta_dot=theta_dot, h=h, h_dot=h_dot,
        h_ddot=h_dd, lam=lam, F_l=f_l, F_y=f_y, F_N=f_n,
        T_kin=dm.kinetic(s, co, theta_dot), V_pot=dm.potential(s),
        E_band=dm.energy(lam),
        termination=termination, termination_detail=detail, t_off=t_off,
        friction_work=float(w_friction), thrust_work=float(w_thrust),
    )


def simulate_jump(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    options: SimOptions,
    record: bool = True,
) -> tuple[Trajectory, JumpSummary]:
    """Decompression, momentum transfer, ballistic flight and efficiency.

    The efficiency denominator is the full band energy stored at theta0,
    the first E_band row; any band energy still unreleased at take-off is
    reported in the audit rather than subtracted.
    """
    traj = integrate_decompression(geom, model, masses, options, record=record)
    e_p0 = float(traj.E_band[0])
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


class TakeOffState(NamedTuple):
    """Take-off of one design as solve_takeoff finds it.

    termination as in JumpSummary; t_off_s, v0_mps and eta_pct are NaN
    unless it is TakeOff.  solver names the path that decided it:
    "first_integral", or "rk4" where it fell back to simulate_jump.  A
    NamedTuple, not a dataclass: it costs the package import a fifth as
    much.
    """

    termination: str
    t_off_s: float
    v0_mps: float
    eta_pct: float
    solver: str


# Chebyshev points per piece, and the pieces of [0, s_slack] and of the
# rest of the swept range after it (s_slack = s_end where the range holds
# no slack angle): equal pieces above s_slack / _BULK_PIECES, halving
# ones below, down to s_slack * 2**-(_GRADED_PIECES + 3), where the
# kinetic energy is Q(theta0) s^2 to the last bit.  The halving pieces keep
# T and t_off accurate when a release barely breaks stiction.
_PIECE_NODES = 24
_BULK_PIECES = 8
_GRADED_PIECES = 30
# A verdict that the leg never takes off needs F_N and the kinetic energy
# at the pi/2 stop, or its dip past a turning point, clear of zero by this
# share of m_T g and of the largest T on the way: far above the
# interpolation error, and above the integrator's energy drift.
_MARGIN = 1e-6
# The absolute tolerance and iteration cap of _brentq.
_BRENT_XTOL = 1e-14
_BRENT_MAXITER = 100


@functools.lru_cache(maxsize=None)
def _chebyshev(n: int):
    """(x, to_coefficients, at_nodes) for n first-kind Chebyshev points x
    on [-1, 1], ascending: the matrix from values at x to the coefficients
    of the degree n-1 interpolant, and T_0..T_n at x, for the n + 1
    coefficients of its integral."""
    x = -np.cos((np.arange(n) + 0.5) * (math.pi / n))
    at_nodes = np.cos(np.multiply.outer(np.arange(n + 1), np.arccos(x)))
    to_coefficients = (2.0 / n) * at_nodes[:n]
    to_coefficients[0] *= 0.5
    return x, to_coefficients, at_nodes


def _integral(values, half):
    """Chebyshev coefficients of the integral, from the left end of each
    piece, of the interpolant through values (one row per piece, at the
    _chebyshev points) on pieces of half-width half: Clenshaw-Curtis."""
    n = values.shape[-1]
    c = np.zeros(values.shape[:-1] + (n + 2,))
    c[..., :n] = np.einsum("...k,jk->...j", values, _chebyshev(n)[1])
    c[..., 0] *= 2.0
    out = np.zeros(values.shape[:-1] + (n + 1,))
    out[..., 1:] = (c[..., :n] - c[..., 2:]) / (2.0 * np.arange(1, n + 1))
    out[..., 0] = -(out[..., 1:] * (-1.0) ** np.arange(1, n + 1)).sum(-1)  # 0 at x = -1
    return out * np.asarray(half)[..., None]


def _chebyshev_value(coefficients, x):
    """sum_j coefficients[j] T_j(x), for x in [-1, 1]: by Clenshaw's
    recurrence on Python floats for a float x (coefficients a list), and as
    sum_j coefficients[j] cos(j arccos x) for an array."""
    if isinstance(x, float):
        x = min(max(x, -1.0), 1.0)
        x2, b1, b2 = 2.0 * x, 0.0, 0.0
        for c in coefficients[:0:-1]:
            b1, b2 = c + x2 * b1 - b2, b1
        return coefficients[0] + x * b1 - b2
    angle = np.arccos(np.clip(x, -1.0, 1.0))
    return (np.cos(np.multiply.outer(angle, np.arange(len(coefficients)))) * coefficients).sum(-1)


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


def solve_takeoff(
    geom: LinkageGeometry,
    model: ElasticModel,
    masses: MassModel,
    options: SimOptions,
) -> TakeOffState:
    """Take-off of simulate_jump(record=False) from the first integral,
    without time stepping.

    With theta = theta0 + s^2 the kinetic energy T(s) is the integral of
    2 s Q(theta), Q = _LegDynamics.torque - mu_C the net torque from rest,
    piecewise Chebyshev in s with a piece boundary at the band slack
    point.  Integrating Q rather than forming W - (V - V0) - mu_C s^2 keeps
    T accurate near the stiction threshold, where those three terms cancel
    to the margin.  A release towards -theta writes theta = theta0 - s^2
    with the same pieces.  F_N is scanned at the Chebyshev points and its
    first zero refined with Brent's method; t_off = integral of 2 s /
    theta_dot ds by the same pieces, and t_off > t_max is HorizonExceeded.
    So are, with F_N > 0 at every point, a rise to pi/2 and (mu_C = 0) a
    return of T to 0 at a turning point, refined with Brent's method.
    Every other outcome falls back to simulate_jump, so the status is
    always the integrator's: a release that sticks, a knee inversion, a
    zero with the head falling, a damped reversal, a band still taut at
    pi/2, and a never-take-off verdict within _MARGIN.
    """
    dm = _LegDynamics(geom, model, masses)
    d0 = dm.derivatives(options.theta0, 0.0)
    found = _first_integral_takeoff(dm, options, d0)
    if found is None:
        _, summary = simulate_jump(geom, model, masses, options, record=False)
        return TakeOffState(summary.termination, summary.t_off_s, summary.v0_mps,
                            summary.eta_pct, "rk4")
    t_off, h_dot_off = found
    if t_off > options.t_max:
        return TakeOffState(HORIZON_EXCEEDED, math.nan, math.nan, math.nan,
                            "first_integral")
    v0 = takeoff_velocity(masses, h_dot_off)
    eta = efficiency(0.5 * masses.m_T * v0 * v0, float(dm.energy(d0[7])))
    return TakeOffState(TAKE_OFF, t_off, v0, eta, "first_integral")


def _first_integral_takeoff(dm: _LegDynamics, options: SimOptions, d0):
    """(t_off, h_dot at take-off) on the first integral, t_off = inf where
    the leg never takes off, or None where solve_takeoff falls back to the
    integrator; d0 = dm.derivatives at (theta0, 0)."""
    th0 = options.theta0
    geom = dm.geom
    if dm.static_margin(d0) <= 0.0:
        return None
    sigma = dm.direction(d0)
    if sigma < 0.0 and dm.mu_C > 0.0:
        return None  # contact lost, knee inversion or a damped reversal
    cos_slack = ((geom.l0 - geom.c) / SQRT3 - geom.q) / geom.a
    if sigma > 0.0 and not cos_slack > 0.0:
        return None  # taut at pi/2
    th_end = 0.5 * math.pi if sigma > 0.0 else 0.0
    th_slack = math.acos(min(max(cos_slack, -1.0), 1.0))
    s_end = math.sqrt(sigma * (th_end - th0))
    s_slack = (math.sqrt(sigma * (th_slack - th0))
               if min(th0, th_end) < th_slack < max(th0, th_end) else s_end)
    bulk = s_slack / _BULK_PIECES
    edges = np.concatenate([
        [0.0], bulk * 0.5 ** np.arange(_GRADED_PIECES, 0, -1),
        bulk * np.arange(1, _BULK_PIECES + 1),
        np.linspace(s_slack, s_end, 1 + math.ceil((s_end - s_slack) / bulk))[1:],
    ])
    x, _, at_nodes = _chebyshev(_PIECE_NODES)
    lo, half = edges[:-1], 0.5 * np.diff(edges)
    s = lo[:, None] + half[:, None] * (x + 1.0)
    theta = th0 + sigma * s * s
    forces = leg_forces_array(geom, dm.model.tension, theta)
    sin_th, cos_th, _, _, _, f_y = forces
    inertia = dm.inertia(sin_th, cos_th)
    energy = _integral(2.0 * s * (sigma * dm.torque(cos_th, f_y) - dm.mu_C), half)
    start = np.concatenate([[0.0], np.cumsum(energy.sum(-1))[:-1]])
    kinetic = start[:, None] + np.einsum("pj,jk->pk", energy, at_nodes)
    theta_dot = sigma * np.sqrt(8.0 * np.maximum(kinetic, 0.0) / inertia)
    f_n = dm.reaction(dm.sliding_array[sigma](forces, theta_dot))[1].ravel()
    s_flat, t_flat, breaks = s.ravel(), kinetic.ravel(), edges.tolist()
    turn = np.flatnonzero(t_flat <= 0.0)
    turn = turn[0] if turn.size else t_flat.size  # first node past a turning point
    below = np.flatnonzero(f_n[:turn] <= 0.0)
    if turn == 0 or (below.size and (below[0] == 0 or sigma < 0.0)):
        return None

    derivatives = dm.sliding[sigma]
    los, halves, starts, rows = lo.tolist(), half.tolist(), start.tolist(), energy.tolist()

    def kinetic_at(k, si):
        """T at si, a float inside piece k."""
        return starts[k] + _chebyshev_value(rows[k], (si - los[k]) / halves[k] - 1.0)

    def piece(si):
        """The piece holding si; s_end belongs to the last one."""
        return min(bisect.bisect_right(breaks, si), len(lo)) - 1

    def state(si):
        """derivatives() on the first integral at si, or NaNs where T <= 0."""
        t_kin = kinetic_at(piece(si), si)
        if not t_kin > 0.0:
            return (math.nan,) * 11
        th = th0 + sigma * si * si
        speed = math.sqrt(8.0 * t_kin / dm.inertia(math.sin(th), math.cos(th)))
        return derivatives(th, sigma * speed)

    if not below.size:
        # No zero of F_N: the leg reaches pi/2 on the ground, or (undamped)
        # turns at s_stop and retraces the same F_N back to rest at theta0.
        # Either way it never takes off, if F_N and T clear zero by _MARGIN.
        t_peak = t_flat[:turn].max()
        if turn == t_flat.size:
            if sigma < 0.0:
                return None  # knee inversion
            clear = kinetic_at(len(lo) - 1, s_end) > _MARGIN * t_peak
            d_stop = state(s_end)
        else:
            if dm.mu_C > 0.0:
                return None  # a damped reversal
            clear = t_flat[turn:turn + 2].min() < -_MARGIN * t_peak
            try:
                s_stop = _brentq(lambda si: kinetic_at(piece(si), si),
                                 s_flat[turn - 1], s_flat[turn])
            except ValueError:  # T at the nodes and between them disagree
                return None
            d_stop = dm.derivatives(th0 + sigma * s_stop * s_stop, 0.0)
        floor = _MARGIN * dm.m_T * dm.g
        if clear and f_n[:turn].min() > floor and dm.reaction(d_stop)[1] > floor:
            return math.inf, math.nan
        return None

    try:
        s_off = _brentq(lambda si: dm.reaction(state(si))[1],
                        s_flat[below[0] - 1], s_flat[below[0]])
    except ValueError:  # T reached 0 inside the bracket
        return None
    d_off = state(s_off)
    if not d_off[10] > 0.0:
        return None

    # t_off: the whole pieces below s_off from their nodes, then the part
    # of the piece holding s_off on points of its own.
    k = piece(s_off)
    t_off = float(_integral(2.0 * s[:k] / theta_dot[:k], half[:k]).sum())
    part = 0.5 * (s_off - lo[k])
    sp = lo[k] + part * (x + 1.0)
    t_kin = start[k] + _chebyshev_value(energy[k], (sp - lo[k]) / half[k] - 1.0)
    if not t_kin.min() > 0.0:
        return None
    thp = th0 + sp * sp
    speed = np.sqrt(8.0 * t_kin / dm.inertia(np.sin(thp), np.cos(thp)))
    t_off += float(_integral(2.0 * sp / speed, part).sum())
    return t_off, d_off[10]


class _RawRun(NamedTuple):
    """The nodes of one _integrate_raw run and how it ended."""

    t: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    energy: np.ndarray  # T + V - thrust work
    end: str            # "span", "exited" (a bounds exit) or "stuck"
    rk4_steps: int      # every RK4 step taken, bisection probes included


# The bisection tolerance of a portrait's velocity reversals [s], 31
# probes from the default portrait step of 2e-4 s: an error in the
# reversal instant puts an error of the same order into theta_dot after it.
_REVERSAL_TOL = 1e-13


def _integrate_raw(dm: _LegDynamics, theta0: float, theta_dot0: float,
                   t_span: float, step: float, bounds: tuple[float, float]):
    """Fixed-step integration of the bare leg dynamics, for phase portraits
    and stability probes, with no event but a bounds exit and, damped, the
    Coulomb stick-slip of integrate_decompression.

    A damped leg released from rest that does not break free stays there;
    one that does slides in sigma from the release, and at each velocity
    reversal (_reversal) sticks or slides back.  The step to a reversal is
    split there, so the nodes stay on the uniform grid t = i * dt, and a
    leg that sticks ends on one more node at the stick instant, at rest.
    Undamped, no event fires.  Returns a _RawRun; its energy is conserved
    along undamped trajectories.
    """
    n = max(int(round(t_span / step)), 1)
    dt = t_span / n
    lo, hi = bounds
    damped = dm.mu_C > 0.0
    y = (theta0, theta_dot0, 0.0, 0.0)
    states = list(y)  # flat, as the nodes of integrate_decompression
    end, t_stick, rk4_steps = "span", None, 0
    if theta_dot0 != 0.0:
        sigma = math.copysign(1.0, theta_dot0)
        d = dm.sliding[sigma](theta0, theta_dot0)
    else:
        d = dm.derivatives(theta0, 0.0)
        sigma = dm.direction(d)
        if damped and dm.static_margin(d) <= 0.0:
            end, t_stick, n = "stuck", 0.0, 0  # no step: the release node alone
        d = dm.release(d)
    derivatives = dm.sliding[sigma]
    i, left = 0, dt  # grid steps taken, and the time left to the next node
    while i < n:
        y_new = _rk4(derivatives, y, d, left)
        d_new = derivatives(y_new[0], y_new[1])
        rk4_steps += 1
        if damped and sigma * y_new[1] <= 0.0:
            tau, y, d, sigma, probes = _reversal(dm, sigma, y, d, left, y_new, d_new,
                                                 _REVERSAL_TOL)
            rk4_steps += probes
            if not sigma:
                end, t_stick = "stuck", i * dt + (dt - left) + tau
                states += y
                break
            derivatives = dm.sliding[sigma]
            left -= tau
            if left > 0.0:
                continue  # the rest of the step, sliding back
            y_new, d_new = y, d
        y, d = y_new, d_new
        states += y
        i, left = i + 1, dt
        if not (lo <= y[0] <= hi):
            end = "exited"
            break
    states = np.fromiter(states, float, len(states)).reshape(-1, 4)
    theta, theta_dot, _, thrust_work = states.T
    s, co = np.sin(theta), np.cos(theta)
    energy = dm.kinetic(s, co, theta_dot) + dm.potential(s) - thrust_work
    # node i sits at i * dt, the same IEEE product as in Python floats
    t = np.arange(len(theta)) * dt
    if t_stick is not None:
        t[-1] = t_stick
    return _RawRun(t, theta, theta_dot, energy, end, rk4_steps)
