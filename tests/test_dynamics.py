"""Decompression dynamics, take-off, ballistic flight and energy audits.

Groups:
  1. Mass bookkeeping and the lumped coefficients
  2. Point operations: ground reaction, take-off velocity, ballistic arc
  3. The governing equation at rest and at equilibrium
  4. Full decompression runs: events, trajectory consistency, audits
  5. Integrator quality: step convergence, damping monotonicity
  6. The first-integral take-off solver: agreement with the integrator,
     fallbacks, and the array twin of the kernel it scans with
"""

import gc
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sarrusjump import (
    CONTACT_LOST,
    HORIZON_EXCEEDED,
    KNEE_INVERSION,
    STICTION,
    TAKE_OFF,
    LegAngleInterval,
    LinearSpring,
    MassModel,
    SimOptions,
    analysis,
    apply_overrides,
    ballistic,
    build_config,
    default_config,
    dynamics,
    efficiency,
    find_equilibria,
    integrate_decompression,
    phase_portrait,
    sensitivity,
    simulate_jump,
    solve_takeoff,
    stiction_threshold,
    stretch,
    stored_energy,
    takeoff_velocity,
)
from sarrusjump.thrust import leg_forces_array

from params import (
    MU_IDENTIFIED,
    gaussian_band,
    mooney_band,
    nominal_geometry,
    nominal_masses,
    sim_options,
)

GEOM = nominal_geometry()
MR = mooney_band()
M_FREE = nominal_masses(mu_C=0.0)
M_DAMPED = nominal_masses(mu_C=MU_IDENTIFIED)
EXACT = nominal_geometry(exact_derivative=True)


# ── group 1: mass bookkeeping ─────────────────────────────────────────────

def test_total_mass():
    assert M_FREE.m_T == pytest.approx(25.1e-3, rel=1e-12)


def test_mass_coefficients():
    m1c, m2c, m3c, m4c = M_FREE.mass_coefficients()
    assert m1c == pytest.approx(0.0338, rel=1e-12)
    assert m2c == pytest.approx(0.1508, rel=1e-12)
    assert m3c == pytest.approx(0.0770, rel=1e-12)
    assert m4c == pytest.approx(0.0385, rel=1e-12)


def test_mass_validation():
    with pytest.raises(ValueError):
        nominal_masses(m3=-1e-6)
    with pytest.raises(ValueError):
        nominal_masses(mu_C=-0.1)
    with pytest.raises(ValueError):
        MassModel(m1=0, m2=0, m3=0, m4=0, m5=0, I1=0, I2=0)


def test_sim_options_validation():
    with pytest.raises(ValueError):
        sim_options(step=0.0)
    with pytest.raises(ValueError):
        sim_options(t_max=1e-6)
    with pytest.raises(ValueError):
        sim_options(theta0=0.0)
    with pytest.raises(ValueError):
        sim_options(theta0=math.pi / 2)


# ── group 2: point operations ─────────────────────────────────────────────

def _reaction_at_rest(masses, h_ddot, theta=0.3):
    """_LegDynamics.reaction, the integrator's F_N, at rest at theta with
    the leg accelerating so that the head's acceleration is h_ddot."""
    dm = dynamics._LegDynamics(GEOM, MR, masses)
    s, co = math.sin(theta), math.cos(theta)
    tdd = h_ddot / (2.0 * GEOM.a * co)  # h_ddot = 2 a cos(theta) tdd at rest
    return dm.reaction((0.0, tdd, 0.0, 0.0, s, co))


def test_ground_reaction_static_weight():
    assert _reaction_at_rest(M_FREE, 0.0) == (0.0, pytest.approx(M_FREE.m_T * 9.81, rel=1e-12))


def test_ground_reaction_zero_crossing_acceleration():
    # F_N = 0 at hdd = -g m_T / (m_T - m1)
    hdd = -9.81 * M_FREE.m_T / (M_FREE.m_T - M_FREE.m1)
    assert hdd == pytest.approx(-10.993, abs=1e-3)
    h_dd, f_n = _reaction_at_rest(M_FREE, hdd)
    assert h_dd == pytest.approx(hdd, rel=1e-12)
    assert f_n == pytest.approx(0.0, abs=1e-12)


def test_ground_reaction_massless_foot_free_fall():
    m = nominal_masses(m1=0.0)
    assert _reaction_at_rest(m, -m.g)[1] == pytest.approx(0.0, abs=1e-15)


def test_takeoff_velocity_ratios():
    assert takeoff_velocity(nominal_masses(m1=0.0), 1.7) == pytest.approx(1.7, rel=1e-12)
    assert takeoff_velocity(M_FREE, 3.25) == pytest.approx(2.90, abs=1e-3)
    half = MassModel(m1=0.5, m2=0.1, m3=0.1, m4=0.1, m5=0.2, I1=0, I2=0)
    assert takeoff_velocity(half, 2.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        takeoff_velocity(M_FREE, -0.1)


def test_ballistic_values():
    assert ballistic(0.0, 9.81) == (0.0, 0.0)
    h_max, t_aer = ballistic(2.9, 9.81)
    assert t_aer == pytest.approx(0.591, abs=1e-3)
    assert h_max == pytest.approx(0.4286, abs=1e-4)
    with pytest.raises(ValueError):
        ballistic(-1.0, 9.81)


def test_efficiency_bounds_and_errors():
    assert efficiency(1.0, 1.0) == 100.0
    assert efficiency(0.5, 2.0) == 25.0
    with pytest.raises(ValueError):
        efficiency(1.0, 0.0)


# ── group 3: the governing equation ───────────────────────────────────────

def direction(theta_dot):
    """sgn(theta_dot): the sliding direction of a leg that moves, 0 at rest."""
    return (theta_dot > 0.0) - (theta_dot < 0.0)


def theta_ddot(masses, theta, theta_dot):
    """Angular acceleration of the reference leg at (theta, theta_dot),
    sliding the way it moves."""
    dm = dynamics._LegDynamics(GEOM, MR, masses)
    return dm.sliding[direction(theta_dot)](theta, theta_dot)[1]


def test_acceleration_positive_at_squat():
    assert theta_ddot(M_FREE, 0.066, 0.0) > 0.0


def test_acceleration_zero_at_equilibrium():
    # Bracket the balance angle g M3 = 4 F_y by bisection on the public
    # acceleration itself, then confirm the residual vanishes.
    lo, hi = 1.3, 1.45
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if theta_ddot(M_FREE, mid, 0.0) > 0:
            lo = mid
        else:
            hi = mid
    assert theta_ddot(M_FREE, 0.5 * (lo + hi), 0.0) == pytest.approx(0.0, abs=1e-9)


def test_friction_opposes_motion_and_rest_is_neutral():
    base = theta_ddot(M_DAMPED, 0.3, 0.0)
    assert base == theta_ddot(M_FREE, 0.3, 0.0)  # sgn(0) = 0
    forward = theta_ddot(M_DAMPED, 0.3, 1.0)
    backward = theta_ddot(M_DAMPED, 0.3, -1.0)
    free_fwd = theta_ddot(M_FREE, 0.3, 1.0)
    free_back = theta_ddot(M_FREE, 0.3, -1.0)
    assert forward < free_fwd
    assert backward > free_back


# ── group 4: decompression runs ───────────────────────────────────────────

@pytest.fixture(scope="module")
def damped_run():
    return simulate_jump(GEOM, MR, M_DAMPED, sim_options())


def test_take_off_reached(damped_run):
    traj, summary = damped_run
    assert summary.termination == TAKE_OFF
    assert summary.t_off_s > 0.05
    assert traj.t_off == summary.t_off_s


def test_normal_force_positive_until_take_off(damped_run):
    traj, _ = damped_run
    assert np.all(traj.F_N[:-1] > 0.0)
    assert abs(traj.F_N[-1]) < 1e-4  # refined to the event tolerance


def test_trajectory_time_strictly_increasing(damped_run):
    traj, _ = damped_run
    assert np.all(np.diff(traj.t) > 0.0)


def test_trajectory_height_consistent_with_theta(damped_run):
    traj, _ = damped_run
    h = 2.0 * GEOM.a * np.sin(traj.theta) + 2.0 * GEOM.p
    assert np.max(np.abs(h - traj.h) / np.abs(h)) < 1e-10


def test_trajectory_hdot_matches_central_difference(damped_run):
    traj, _ = damped_run
    num = (traj.h[2:] - traj.h[:-2]) / (traj.t[2:] - traj.t[:-2])
    scale = np.max(np.abs(traj.h_dot))
    assert np.max(np.abs(num - traj.h_dot[1:-1])) / scale < 1e-4


def test_trajectory_kinematic_chain(damped_run):
    traj, _ = damped_run
    hd = 2.0 * GEOM.a * np.cos(traj.theta) * traj.theta_dot
    assert np.allclose(hd, traj.h_dot, rtol=0, atol=1e-12)


def test_summary_energy_accounting(damped_run):
    traj, summary = damped_run
    assert summary.E_P0_J == pytest.approx(
        stored_energy(MR, stretch(GEOM, 0.066)), rel=1e-12)
    assert 0.0 < summary.eta_pct < 100.0
    assert summary.E_K_J < summary.E_P0_J
    assert abs(summary.audit.residual_J) < 1e-4 * summary.E_P0_J
    assert summary.audit.band_energy_residual_J > 0.0  # band still taut at lift-off
    assert summary.h_max_m == pytest.approx(
        summary.v0_mps**2 / (2 * 9.81), rel=1e-12)
    assert summary.t_aer_s == pytest.approx(2 * summary.v0_mps / 9.81, rel=1e-12)


def test_whole_robot_totals(damped_run):
    _, summary = damped_run
    d = summary.to_dict()
    assert d["whole_robot"]["m_T_kg"] == pytest.approx(75.3e-3, rel=1e-12)
    assert d["whole_robot"]["E_P0_J"] == pytest.approx(3 * summary.E_P0_J, rel=1e-12)
    assert d["whole_robot"]["eta_pct"] == summary.eta_pct


def test_stiction_at_rest():
    _, summary = simulate_jump(GEOM, MR, nominal_masses(mu_C=1.0), sim_options())
    assert summary.termination == STICTION
    assert math.isnan(summary.v0_mps)


def test_stiction_threshold_is_sharp():
    threshold = stiction_threshold(GEOM, MR, M_FREE, 0.066)
    opts = sim_options(step=2e-5)
    _, below = simulate_jump(GEOM, MR, nominal_masses(mu_C=threshold * 0.999),
                             opts, record=False)
    _, above = simulate_jump(GEOM, MR, nominal_masses(mu_C=threshold * 1.001),
                             opts, record=False)
    assert below.termination == TAKE_OFF
    assert above.termination == STICTION


def test_knee_inversion_with_exact_derivative_at_squat():
    # With the chain-rule thrust the band cannot open the leg from the
    # squat angle: gravity wins and the knee folds through zero.
    traj, summary = simulate_jump(EXACT, MR, M_FREE, sim_options())
    assert summary.termination == KNEE_INVERSION
    assert traj.theta[-1] <= 0.0


def test_horizon_exceeded_when_time_too_short():
    _, summary = simulate_jump(GEOM, MR, M_DAMPED, sim_options(t_max=0.05))
    assert summary.termination == HORIZON_EXCEEDED


def test_hard_stop_at_full_extension():
    # A foot too heavy to unload keeps F_N positive all the way to pi/2.
    heavy = nominal_masses(m1=50.0)
    traj, summary = simulate_jump(GEOM, MR, heavy, sim_options())
    assert summary.termination == HORIZON_EXCEEDED
    assert "hard stop" in summary.termination_detail
    assert traj.theta[-1] >= math.pi / 2


def test_ground_contact_lost_while_collapsing_is_not_take_off():
    # A band too weak to hold the squat: the leg folds, and F_N reaches zero
    # at t ~ 0.05 s while the head falls.  That is no take-off, and the
    # ground cannot pull the foot down either: the run ends there as lost
    # contact, not later as a knee inversion.
    geom = nominal_geometry(a=0.0625, c=0.0546875, p=0.0, q=0.0, l0=0.0859375)
    weak = LinearSpring(k=20.0, l0=geom.l0)
    masses = nominal_masses(m1=1e-3, m5=0.015625)
    for record in (True, False):
        traj, summary = simulate_jump(geom, weak, masses,
                                      sim_options(step=1e-4, t_max=0.5), record=record)
        assert summary.termination == CONTACT_LOST
        assert traj.t_off is None and math.isnan(summary.v0_mps)
        assert traj.t[-1] == pytest.approx(0.0500, abs=5e-4)
        assert traj.h_dot[-1] < 0.0
        assert abs(traj.F_N[-1]) < 1e-6 and np.all(traj.F_N[:-1] > 0.0)


def test_sparse_recording():
    traj, summary = simulate_jump(GEOM, MR, M_DAMPED, sim_options(), record=False)
    assert len(traj) == 2
    assert summary.termination == TAKE_OFF


def _observe(dm, model, t, theta, theta_dot, released=True):
    """One trajectory row evaluated per node with scalar math, as the
    recorder did before it derived whole columns: the kernel at (theta,
    theta_dot), with friction sliding the way the leg moves (none at rest)
    and, at the release node of a leg that breaks free, the way it starts;
    the reaction, the energies with math.sin and math.cos (the kinetic one
    as D(theta) theta_dot^2 / 8, D the denominator of the equation of
    motion), and the slack clamp as a branch."""
    d = dm.sliding[direction(theta_dot)](theta, theta_dot)
    if t == 0.0 and released:
        d = dm.release(d)
    _, _, _, _, _, _, h, lam, f_l, f_y, h_dot = d
    h_dd, f_n = dm.reaction(d)
    s, co = math.sin(theta), math.cos(theta)
    inertia = dm.a2 * (4.0 * dm.M1 * (co * co - s * s) + dm.M2) + dm.I4
    kinetic = inertia * theta_dot * theta_dot / 8.0
    potential = 0.5 * dm.a * dm.g * dm.M3 * s + dm.p * dm.g * dm.M4
    band = model.strain_energy(lam) if lam > 1.0 else 0.0
    return (t, theta, theta_dot, h, h_dot, h_dd, lam, f_l, f_y, f_n,
            kinetic, potential, band)


COLLAPSE_GEOM = nominal_geometry(a=0.0625, c=0.0546875, p=0.0, q=0.0, l0=0.0859375)
# name -> (geometry, band law, masses, exact derivative, theta0, termination):
# the three laws in both slope conventions, then a slack split ending at the
# hard stop, stiction at rest and after a reversal, and lost contact.
RECORDED_RUNS = {
    "mooney": (GEOM, MR, M_DAMPED, False, 0.066, TAKE_OFF),
    "mooney_exact": (GEOM, MR, M_FREE, True, 0.066, KNEE_INVERSION),
    "gaussian": (GEOM, gaussian_band(), M_DAMPED, False, 0.066, TAKE_OFF),
    "gaussian_exact": (GEOM, gaussian_band(), M_FREE, True, 0.3, TAKE_OFF),
    "linear": (GEOM, LinearSpring(k=36.0, l0=GEOM.l0), M_FREE, False, 0.066, TAKE_OFF),
    "linear_exact": (GEOM, LinearSpring(k=36.0, l0=GEOM.l0), M_FREE, True, 0.3,
                     TAKE_OFF),
    "slack_hard_stop": (GEOM, MR, nominal_masses(m1=50.0), False, 0.066,
                        HORIZON_EXCEEDED),
    "stiction_at_rest": (GEOM, MR, nominal_masses(mu_C=1.0), False, 0.066, STICTION),
    "stiction_restuck": (GEOM, MR, nominal_masses(mu_C=1e-3), False, 1.45, STICTION),
    "contact_lost": (COLLAPSE_GEOM, LinearSpring(k=20.0, l0=COLLAPSE_GEOM.l0),
                     nominal_masses(m1=1e-3, m5=0.015625), False, 0.066, CONTACT_LOST),
}


@pytest.mark.parametrize("case", sorted(RECORDED_RUNS))
def test_recorded_columns_equal_per_row_evaluation(case):
    """Every column the recorder derives from its nodes equals, to the bit,
    the row evaluated per node with scalar math."""
    geom, model, masses, exact, theta0, termination = RECORDED_RUNS[case]
    geom = replace(geom, exact_derivative=exact)
    traj = integrate_decompression(geom, model, masses,
                                   sim_options(step=1e-4, t_max=0.5, theta0=theta0))
    assert traj.termination == termination
    dm = dynamics._LegDynamics(geom, model, masses)
    released = case != "stiction_at_rest"
    want = np.array([_observe(dm, model, *node, released) for node in zip(
        traj.t.tolist(), traj.theta.tolist(), traj.theta_dot.tolist())]).T
    for name, got, column in zip(dynamics.TRAJECTORY_CSV_HEADER, traj.columns(), want):
        assert got.dtype == np.float64
        assert np.array_equal(got, column), name
    if case == "slack_hard_stop":  # a step split at the slack point, slack rows after it
        assert np.any(np.diff(traj.t[:-1]) < 0.99e-4)
        assert np.any(traj.lam < 1.0)
    if case == "stiction_restuck":  # slides back at reversals, then sticks at rest
        assert np.count_nonzero(np.diff(np.sign(traj.theta_dot[1:-1]))) >= 2
        assert traj.theta_dot[-1] == 0.0 and np.diff(traj.t)[-1] < 0.99e-4


def test_exact_mode_energy_identity_undamped():
    """For the chain-rule derivative the released band energy equals the
    mechanical energy gain at every record (relative 1e-4)."""
    opts = sim_options(theta0=0.3)
    traj, summary = simulate_jump(EXACT, MR, M_FREE, opts)
    assert summary.termination == TAKE_OFF
    lhs = traj.E_band[0] - traj.E_band
    rhs = traj.T_kin + traj.V_pot - traj.V_pot[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-4 * summary.E_P0_J
    assert abs(summary.audit.virtual_work_excess_J) < 1e-10


def test_exact_mode_energy_identity_damped():
    # theta increases monotonically, so friction work is mu_C (theta - theta0).
    opts = sim_options(theta0=0.3)
    traj, summary = simulate_jump(EXACT, MR, M_DAMPED, opts)
    lhs = traj.E_band[0] - traj.E_band
    rhs = (traj.T_kin + traj.V_pot - traj.V_pot[0]
           + M_DAMPED.mu_C * (traj.theta - traj.theta[0]))
    assert np.max(np.abs(lhs - rhs)) < 1e-4 * summary.E_P0_J


def test_default_mode_reports_virtual_work_excess():
    """The single-pin derivative applied to offset knees injects more work
    than the band releases; the audit must expose that gap instead of
    hiding it."""
    _, summary = simulate_jump(GEOM, MR, M_FREE, sim_options(), record=False)
    assert summary.audit.virtual_work_excess_J > 0.01
    assert abs(summary.audit.residual_J) < 1e-4 * summary.E_P0_J


def test_zero_gravity_run_closes_audit():
    # No gravity and no friction: thrust work converts entirely into
    # kinetic energy; take-off transfer still caps the efficiency below 100.
    m_g0 = nominal_masses(g=0.0)
    traj, summary = simulate_jump(GEOM, MR, m_g0, sim_options())
    assert summary.termination == TAKE_OFF
    assert abs(summary.audit.gravity_delta_J) == 0.0
    assert abs(summary.audit.residual_J) < 1e-4 * summary.E_P0_J
    assert 0.0 < summary.eta_pct < 100.0
    assert math.isinf(summary.h_max_m) and math.isinf(summary.t_aer_s)


# ── group 5: integrator quality ───────────────────────────────────────────

def test_step_halving_shows_fourth_order():
    opts = lambda s: sim_options(step=s, event_tolerance=1e-12)
    v0 = {}
    for s in (8e-5, 4e-5, 2e-5, 1e-5, 5e-6):
        _, summary = simulate_jump(GEOM, MR, M_FREE, opts(s), record=False)
        v0[s] = summary.v0_mps
    reference = v0[5e-6] + (v0[5e-6] - v0[1e-5]) / 15.0  # Richardson
    e_coarse = abs(v0[8e-5] - reference)
    e_mid = abs(v0[4e-5] - reference)
    e_fine = abs(v0[2e-5] - reference)
    assert 8.0 < e_coarse / e_mid < 40.0
    assert 8.0 < e_mid / e_fine < 40.0


def test_damped_step_halving_shows_fourth_order():
    """Friction slides from the release instant, so the first RK4 stage
    carries it and damped runs converge at fourth order in t_off and v0;
    with sgn(0) = 0 there the start-up error made them first order."""
    opts = lambda s: sim_options(step=s, event_tolerance=1e-12)
    steps = (6.4e-4, 3.2e-4, 1.6e-4, 8e-5, 4e-5)
    runs = {s: simulate_jump(GEOM, MR, M_DAMPED, opts(s), record=False)[1] for s in steps}
    for field in ("t_off_s", "v0_mps"):
        value = {s: getattr(summary, field) for s, summary in runs.items()}
        reference = value[4e-5] + (value[4e-5] - value[8e-5]) / 15.0  # Richardson
        e_coarse, e_mid, e_fine = (abs(value[s] - reference) for s in steps[:3])
        assert 8.0 < e_coarse / e_mid < 40.0, field
        assert 8.0 < e_mid / e_fine < 40.0, field


def test_release_friction_opposes_the_starting_torque():
    """At release friction slides against the net starting torque, either
    way: the squat release moves towards +theta, the nearly extended one
    towards -theta.  Without damping the release state is the rest state."""
    dm = dynamics._LegDynamics(GEOM, MR, nominal_masses(mu_C=1e-3))
    for theta0, direction in ((0.066, 1.0), (1.45, -1.0)):
        rest = dm.derivatives(theta0, 0.0)
        released = dm.release(rest)
        assert stiction_threshold(GEOM, MR, M_FREE, theta0) > 1e-3
        assert math.copysign(1.0, rest[1]) == direction
        assert 0.0 < direction * released[1] < direction * rest[1]
        assert released[2:] == rest[2:]
    free = dynamics._LegDynamics(GEOM, MR, M_FREE)
    assert free.release(free.derivatives(0.066, 0.0)) == free.derivatives(0.066, 0.0)


def stick_slip_oracle(geom, model, masses, theta0, t_max, n=100_001):
    """The turning points [(theta, t), ...] of a damped leg released from
    rest at theta0, from the release to the one where it sticks, from the
    first integral; None where the leg reaches 0 or pi/2, or t_max, first.

    Between reversals the Coulomb torque is the constant sigma mu_C, so the
    kinetic energy T(theta) = integral of (torque - sigma mu_C) from the
    last turning point, by the trapezoid rule, with torque the net torque
    from rest (_LegDynamics.torque).  The next turning point is the next
    zero of T: bracketed on a uniform grid, then refined by Newton on a grid
    theta = a + (b - a) (1 - cos phi) / 2, on which the time
    integral of 1 / |theta_dot| = sqrt(D / 8 T) stays bounded at both ends.
    The leg sticks at the first turning point, the release included, where
    |torque| <= mu_C, and otherwise slides back against its torque."""
    dm = dynamics._LegDynamics(geom, model, masses)
    mu = masses.mu_C

    def torque(theta):
        _, co, _, _, _, f_y = leg_forces_array(geom, model.tension, np.asarray(theta, float))
        return dm.torque(co, f_y)

    def kinetic(theta, sigma):
        q = torque(theta) - sigma * mu
        return q, np.concatenate([[0.0], np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(theta))])

    phi = np.linspace(0.0, math.pi, n)
    turns = [(theta0, 0.0)]
    a, t = theta0, 0.0
    while abs(torque(a)) > mu:
        sigma = math.copysign(1.0, torque(a))
        grid = np.linspace(a, 0.5 * math.pi if sigma > 0.0 else 0.0, n)
        _, T = kinetic(grid, sigma)
        back = np.flatnonzero(T[1:] <= 0.0)
        if not back.size:
            return None
        k = back[0] + 1
        b = grid[k - 1] + (grid[k] - grid[k - 1]) * T[k - 1] / (T[k - 1] - T[k])
        for _ in range(4):  # Newton on T(b) = 0; dT/db is the net torque q
            theta = a + (b - a) * 0.5 * (1.0 - np.cos(phi))
            q, T = kinetic(theta, sigma)
            b -= T[-1] / q[-1]
        theta = a + (b - a) * 0.5 * (1.0 - np.cos(phi))
        _, T = kinetic(theta, sigma)
        inner = theta[1:-1]
        inertia = dm.inertia(np.sin(inner), np.cos(inner))
        f = np.empty(n)  # d theta / d phi / |theta_dot|
        f[1:-1] = abs(b - a) * 0.5 * np.sin(phi[1:-1]) / np.sqrt(8.0 * T[1:-1] / inertia)
        f[0], f[-1] = 2.0 * f[1] - f[2], 2.0 * f[-2] - f[-3]  # the limits at the ends
        t += float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(phi)))
        if t > t_max:
            return None
        a = b
        turns.append((a, t))
    return turns


def reversal_nodes(traj):
    """(theta, t) of the recorded nodes at each velocity reversal, where
    theta_dot has taken the sign of the slide back, and of the last node."""
    sign = np.sign(traj.theta_dot[1:-1])
    at = np.flatnonzero(sign[1:] != sign[:-1]) + 2
    return [(traj.theta[i], traj.t[i]) for i in (*at, -1)]


# name -> (masses, theta0): damped runs that stop and stick, one while
# rising with a foot too heavy to lift (in a uniform step that kept
# creeping until t_max before reversals were events), and two that slide
# back and forth about the equilibrium centre 7 and 15 times first.
STICKING_RUNS = {
    "rising_m1_50": (nominal_masses(m1=50.0, mu_C=MU_IDENTIFIED), 1.35),
    "rising_m1_50_1.3": (nominal_masses(m1=50.0, mu_C=MU_IDENTIFIED), 1.3),
    "restuck_1e-3": (nominal_masses(mu_C=1e-3), 1.45),
    "restuck_5e-4": (nominal_masses(mu_C=5e-4), 1.45),
}


@pytest.mark.parametrize("case", sorted(STICKING_RUNS))
def test_stick_slip_matches_the_first_integral(case):
    """simulate_jump stops with Stiction where the first integral sticks,
    at the stick instant and at rest, and reverses at its turning points:
    angles to 1e-9 rad and times to 1e-8 s."""
    masses, theta0 = STICKING_RUNS[case]
    oracle = stick_slip_oracle(GEOM, MR, masses, theta0, t_max=1.0)
    traj, summary = simulate_jump(GEOM, MR, masses,
                                  sim_options(step=2e-5, event_tolerance=1e-12,
                                              theta0=theta0))
    assert summary.termination == STICTION
    assert traj.theta_dot[-1] == 0.0
    got = reversal_nodes(traj)
    assert len(got) == len(oracle) - 1 >= 1
    for (theta, t), (theta_o, t_o) in zip(got, oracle[1:]):
        assert theta == pytest.approx(theta_o, abs=1e-9)
        assert t == pytest.approx(t_o, abs=1e-8)


def test_rising_stick_converges_in_the_step():
    """A leg that comes to rest while rising sticks there: with m1 = 50 and
    theta0 = 1.35 the run ends with Stiction near 1.367 rad, at one angle
    for steps 4e-5 to 5e-6 (without the reversal event it crept on to
    1.37205 / 1.36953 / 1.36822 / 1.36758 rad at t_max, first order)."""
    masses, theta0 = STICKING_RUNS["rising_m1_50"]
    ends = []
    for step in (4e-5, 2e-5, 1e-5, 5e-6):
        traj, summary = simulate_jump(
            GEOM, MR, masses,
            sim_options(step=step, event_tolerance=1e-12, theta0=theta0), record=False)
        assert summary.termination == STICTION
        ends.append(traj.theta[-1])
    assert ends[0] == pytest.approx(1.367, abs=1e-3)
    assert np.ptp(ends) < 1e-12


def test_reversing_audit_residual_falls_at_fourth_order():
    """The audit residual of a damped run that reverses seven times before
    it sticks falls by at least 12x per step halving (2^4 = 16 for RK4)."""
    masses, theta0 = STICKING_RUNS["restuck_1e-3"]
    relative = []
    for step in (2e-4, 1e-4, 5e-5):
        _, summary = simulate_jump(
            GEOM, MR, masses,
            sim_options(step=step, event_tolerance=1e-12, theta0=theta0), record=False)
        assert summary.termination == STICTION
        audit = summary.audit
        relative.append(abs(audit.residual_J) / abs(audit.thrust_work_J))
    assert relative[0] > 1e-11
    assert relative[0] / relative[1] >= 12.0 and relative[1] / relative[2] >= 12.0, relative


# release -> (angle, time) tolerance of a damped portrait's stick at the
# default step 2e-4: releases that stop below the band slack angle
# (~1.389 rad) to the integrator's error; the two that rise past it to the
# 5.5e-6 rad error of the step across the slack kink, which portraits do
# not split (ROADMAP item 2).
PORTRAIT_STICKS = {1.275: (1e-5, 1e-6), 1.3: (1e-5, 1e-6), 1.33: (1e-9, 1e-9),
                   1.34: (1e-9, 1e-9), 1.35: (1e-9, 1e-9)}


@pytest.mark.parametrize("theta0", sorted(PORTRAIT_STICKS))
def test_damped_portrait_sticks_where_the_first_integral_does(theta0):
    """A damped portrait ends where the leg sticks: its last sample is at
    rest at the oracle's stick angle and instant, after samples on the
    uniform grid; its status stays damped, and its energy never rises."""
    [(theta_o, t_o)] = stick_slip_oracle(GEOM, MR, M_DAMPED, theta0, t_max=1.5)[1:]
    [traj] = phase_portrait(GEOM, MR, M_DAMPED, [theta0])
    assert (traj.status, traj.stuck) == ("damped", True)
    tol_theta, tol_t = PORTRAIT_STICKS[theta0]
    assert traj.theta[-1] == pytest.approx(theta_o, abs=tol_theta)
    assert traj.t[-1] == pytest.approx(t_o, abs=tol_t)
    assert traj.theta_dot[-1] == 0.0
    assert np.array_equal(traj.t[:-1], np.arange(traj.t.size - 1) * 2e-4)
    assert np.all(np.diff(traj.energy) <= 1e-12)


@pytest.mark.parametrize("theta0", (1.4, 1.45))
def test_damped_release_below_the_threshold_does_not_move(theta0):
    """Releases whose static margin is negative, 1.4 and 1.45 with the
    identified damping, give one sample at rest and no RK4 step."""
    assert stiction_threshold(GEOM, MR, M_FREE, theta0) < MU_IDENTIFIED
    [traj] = phase_portrait(GEOM, MR, M_DAMPED, [theta0])
    assert (traj.status, traj.stuck, traj.rk4_steps) == ("damped", True, 0)
    assert traj.t.tolist() == [0.0] and traj.theta.tolist() == [theta0]
    assert traj.theta_dot.tolist() == [0.0]


def test_take_off_velocity_monotone_in_damping():
    mus = np.linspace(0.0, 0.024, 10)
    v0s = []
    for mu in mus:
        _, summary = simulate_jump(GEOM, MR, nominal_masses(mu_C=float(mu)),
                                   sim_options(step=5e-5), record=False)
        assert summary.termination == TAKE_OFF
        v0s.append(summary.v0_mps)
    assert all(a >= b - 1e-12 for a, b in zip(v0s, v0s[1:]))


def count_kernels(monkeypatch):
    """Counters of the _LegDynamics built, of the calls into the scalar RHS
    closures each builds (sliding[sigma], derivatives among them), which
    evaluate the leg kernel once per call, and of the RK4 steps."""
    calls = {"builds": 0, "kernel": 0, "rk4": 0}
    build, rk4 = dynamics._LegDynamics.__init__, dynamics._rk4

    def counted(rhs):
        def counted_rhs(theta, theta_dot):
            calls["kernel"] += 1
            return rhs(theta, theta_dot)
        return counted_rhs

    def counted_build(dm, *args, **kwargs):
        calls["builds"] += 1
        build(dm, *args, **kwargs)
        dm.sliding = {sigma: counted(rhs) for sigma, rhs in dm.sliding.items()}
        dm.derivatives = dm.sliding[0.0]

    def counted_rk4(*args):
        calls["rk4"] += 1
        return rk4(*args)

    monkeypatch.setattr(dynamics._LegDynamics, "__init__", counted_build)
    monkeypatch.setattr(dynamics, "_rk4", counted_rk4)
    return calls


@pytest.mark.parametrize("record", [True, False])
def test_one_kernel_evaluation_per_integrator_node(record, monkeypatch):
    """The reference run evaluates the RHS, and with it the leg kernel, 4
    times per RK4 step and per bisection iteration (stages 2-4 plus the
    end-of-step evaluation, which is also the next k1, the event tests and
    the row), plus the start state, whose tuple the rest check reads,
    whether or not every step is recorded; it builds one _LegDynamics."""
    calls = count_kernels(monkeypatch)
    run = build_config(default_config())
    traj, summary = simulate_jump(run.geometry, run.elastic, run.masses, run.sim,
                                  record=record)
    assert summary.termination == TAKE_OFF
    assert calls == {"builds": 1, "kernel": 54149, "rk4": 13537}
    assert calls["kernel"] == 4 * calls["rk4"] + 1
    assert len(traj) == (13531 if record else 2)


def test_portrait_kernel_counts(monkeypatch):
    """A phase portrait builds one _LegDynamics and evaluates its RHS 4
    times per RK4 step, plus once at each release: the nominal releases 0.3
    and 1.4 over 1 s, once undamped (each forward run mirrored) and once
    damped, where 1.4 does not break free."""
    calls = count_kernels(monkeypatch)
    run = build_config(default_config())
    undamped = replace(run.masses, mu_C=0.0)
    samples = []
    for masses in (undamped, run.masses):
        before = calls["builds"]
        portrait = phase_portrait(run.geometry, run.elastic, masses, [0.3, 1.4],
                                  t_span=1.0)
        assert calls["builds"] == before + 1
        samples += [len(tr.t) for tr in portrait]
    assert samples == [637, 10001, 346, 1]
    assert calls == {"builds": 2, "kernel": 22656, "rk4": 5663}
    assert calls["kernel"] == 4 * calls["rk4"] + 4


def test_first_integral_takeoff_builds_one_kernel(monkeypatch):
    calls = count_kernels(monkeypatch)
    run = build_config(default_config())
    state = solve_takeoff(run.geometry, run.elastic, run.masses, run.sim)
    assert (state.termination, state.solver) == (TAKE_OFF, "first_integral")
    assert calls["builds"] == 1 and calls["rk4"] == 0


def test_find_equilibria_builds_one_kernel(monkeypatch):
    """find_equilibria builds one _LegDynamics and makes every scalar
    evaluation through its derivatives: each of Brent's, the pi/2 check and
    two per classified equilibrium."""
    calls = count_kernels(monkeypatch)
    brent = {"evaluations": 0}
    brentq = analysis._brentq

    def counted_brentq(f, xa, xb):
        def counted(x):
            brent["evaluations"] += 1
            return f(x)
        return brentq(counted, xa, xb)

    monkeypatch.setattr(analysis, "_brentq", counted_brentq)
    equilibria = find_equilibria(GEOM, MR, nominal_masses(mu_C=0.0),
                                 LegAngleInterval(1e-4, math.pi / 2))
    assert len(equilibria) == 2 and brent["evaluations"] > 0  # center, pi/2 saddle
    assert calls["builds"] == 1 and calls["rk4"] == 0
    assert calls["kernel"] == brent["evaluations"] + 1 + 2 * len(equilibria)


@pytest.mark.parametrize("theta, calls", [(0.3, ["derivatives", "tension"]),
                                           (1.5, ["derivatives"])],
                         ids=("taut", "slack"))
def test_one_rhs_evaluation_enters_one_python_frame(theta, calls):
    """A sliding[1.0] evaluation runs the leg kernel and the equation of
    motion in its own frame: the only other Python call it makes is the
    band law's tension, and only while the band is taut."""
    rhs = dynamics._LegDynamics(GEOM, MR, M_DAMPED).sliding[1.0]
    taut = rhs(theta, 1.0)[7] > 1.0
    assert taut == ("tension" in calls)
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        rhs(theta, 1.0)
    finally:
        sys.setprofile(None)
    assert entered == calls


# ── group 6: the first-integral take-off solver ───────────────────────────

TIGHT = sim_options(step=1e-5, event_tolerance=1e-12, t_max=0.5)
BAND_LAWS = {"mooney": MR, "gaussian": gaussian_band(),
             "linear": LinearSpring(k=36.0, l0=GEOM.l0)}


@pytest.mark.parametrize("mu_C", (0.0, MU_IDENTIFIED))
@pytest.mark.parametrize("law", sorted(BAND_LAWS))
def test_solver_lands_on_the_integrator(law, mu_C):
    """The first integral and fine-step RK4 agree on v0 and t_off to 1e-9
    relative, damped as well as undamped, for each band law."""
    masses = nominal_masses(mu_C=mu_C)
    state = solve_takeoff(GEOM, BAND_LAWS[law], masses, TIGHT)
    _, summary = simulate_jump(GEOM, BAND_LAWS[law], masses, TIGHT, record=False)
    assert state.solver == "first_integral"
    assert state.termination == summary.termination == TAKE_OFF
    assert state.v0_mps == pytest.approx(summary.v0_mps, rel=1e-9)
    assert state.t_off_s == pytest.approx(summary.t_off_s, rel=1e-9)
    assert state.eta_pct == pytest.approx(summary.eta_pct, rel=2e-9)


# name -> (band law, masses, exact derivative, theta0, t_max, termination,
# solver): the solver decides a horizon it can see past, a leg that reaches
# the pi/2 stop on the ground, and an undamped orbit that turns back before
# any zero of F_N, from either side of the equilibrium centre (~1.383 rad);
# the integrator decides stiction, a damped release towards -theta (it
# re-sticks) and a release that inverts the knee.
SOLVER_CASES = {
    "horizon": (MR, M_DAMPED, False, 0.066, 0.05, HORIZON_EXCEEDED, "first_integral"),
    "stiction": (MR, nominal_masses(mu_C=1.0), False, 0.066, 0.5, STICTION, "rk4"),
    "restuck": (MR, nominal_masses(mu_C=1e-3), False, 1.45, 0.5, STICTION, "rk4"),
    "knee_inversion": (MR, M_FREE, True, 0.066, 0.5, KNEE_INVERSION, "rk4"),
    "hard_stop": (MR, nominal_masses(m1=50.0), False, 0.066, 0.5, HORIZON_EXCEEDED,
                  "first_integral"),
    "closed_descending": (MR, M_FREE, False, 1.45, 0.5, HORIZON_EXCEEDED, "first_integral"),
    "closed_ascending": (MR, M_FREE, False, 1.36, 0.5, HORIZON_EXCEEDED, "first_integral"),
}


@pytest.mark.parametrize("case", sorted(SOLVER_CASES))
def test_solver_falls_back_outside_the_first_integral(case):
    law, masses, exact, theta0, t_max, termination, solver = SOLVER_CASES[case]
    opts = sim_options(step=1e-4, t_max=t_max, theta0=theta0)
    geom = replace(GEOM, exact_derivative=exact)
    state = solve_takeoff(geom, law, masses, opts)
    _, summary = simulate_jump(geom, law, masses, opts, record=False)
    assert (state.termination, state.solver) == (termination, solver)
    assert summary.termination == termination
    assert math.isnan(state.v0_mps) and math.isnan(state.eta_pct)


@pytest.mark.parametrize("parameter, sets, knee_points", [
    ("m1", ["masses.m1=50"], 0),
    ("theta0", ["elastic.model=linear", "elastic.k=15", "masses.m5=0.04"], 2),
])
def test_sweeps_fall_back_only_for_knee_inversion(parameter, sets, knee_points,
                                                  monkeypatch):
    """The golden sweeps sensitivity_m1_heavy (ten points reach pi/2 on the
    ground) and sensitivity_theta0 (an orbit that closes from either side of
    the centre) run simulate_jump only for the points that invert the
    knee."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3].theta0)
        return simulate(*args, **kwargs)

    simulate = dynamics.simulate_jump
    monkeypatch.setattr(dynamics, "simulate_jump", counted)
    run = build_config(apply_overrides(default_config(), sets + ["sim.step=5e-5"]))
    curve = sensitivity(run.geometry, run.elastic, run.masses, parameter,
                        np.linspace(0.0, 1.0, 11), run.sim)
    assert "horizonexceeded" in curve.status
    knee = [st == "kneeinversion" for st in curve.status]
    assert [solver == "rk4" for solver in curve.solver] == knee
    assert len(calls) == sum(knee) == knee_points


@pytest.mark.parametrize("exact", (False, True))
@pytest.mark.parametrize("law", sorted(BAND_LAWS))
def test_derivatives_array_equals_scalar_kernel(law, exact):
    """sliding_array on the leg_forces_array tuple returns the scalar
    sliding tuple to the bit, in each sliding direction, at rest and moving
    either way, damped, over the whole range and past both ends; and
    inertia and torque, the D(theta) and net torque the solver integrates,
    give its undamped theta_ddot at rest."""
    geom = replace(GEOM, exact_derivative=exact)
    dm = dynamics._LegDynamics(geom, BAND_LAWS[law], M_DAMPED)
    rng = np.random.default_rng(8)
    theta = rng.uniform(-0.2, math.pi / 2 + 0.3, 20_000)
    theta_dot = rng.uniform(-60.0, 60.0, theta.size)
    theta_dot[::4] = 0.0
    forces = leg_forces_array(geom, BAND_LAWS[law].tension, theta)
    assert dm.derivatives is dm.sliding[0.0]
    for sigma in (-1.0, 0.0, 1.0):
        got = dm.sliding_array[sigma](forces, theta_dot)
        want = np.array([dm.sliding[sigma](th, om)
                         for th, om in zip(theta.tolist(), theta_dot.tolist())]).T
        for column, (array, scalar) in enumerate(zip(got, want)):
            assert array.dtype == np.float64
            assert np.array_equal(array, scalar), (sigma, column)
    free = dynamics._LegDynamics(geom, BAND_LAWS[law], replace(M_DAMPED, mu_C=0.0))
    s, co, _, _, _, f_y = forces
    rest = free.sliding_array[0.0](forces, np.zeros_like(theta))[1]
    assert np.array_equal(4.0 * free.torque(co, f_y) / free.inertia(s, co), rest)


def test_evaluator_is_freed_without_the_cycle_collector():
    """No closure an evaluator holds refers back to it, so dropping the last
    reference frees it at once; sweeps build one per design."""
    gc.collect()
    gc.disable()
    try:
        dm = dynamics._LegDynamics(GEOM, MR, M_DAMPED)
        del dm
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("law", sorted(BAND_LAWS))
def test_sliding_equals_the_sgn_model_where_the_leg_moves_that_way(law):
    """Where theta_dot has the sign of sigma, sliding[sigma] is the model's
    equation of motion with -4 mu_C sgn(theta_dot) and friction power
    mu_C |theta_dot|, written out here from inertia, torque and the leg
    kernel values of the same tuple, to a few ulps; the RK4 hot path takes
    no sgn."""
    dm = dynamics._LegDynamics(GEOM, BAND_LAWS[law], M_DAMPED)
    rng = np.random.default_rng(16)
    for th, om in zip(rng.uniform(0.05, 1.5, 2000).tolist(),
                      rng.uniform(-30.0, 30.0, 2000).tolist()):
        d = dm.sliding[direction(om)](th, om)
        s, co, _, _, _, f_y = d[4:10]
        inertia = dm.inertia(s, co)
        coriolis = 8.0 * dm.M1 * dm.a2 * s * co * om * om
        sgn_model = (coriolis + 4.0 * dm.torque(co, f_y) - 4.0 * dm.mu_C * direction(om)) / inertia
        assert d[1] == pytest.approx(sgn_model, rel=1e-12, abs=1e-9)
        assert d[2] == dm.mu_C * abs(om)


def test_package_import_leaves_numpy_polynomial_out():
    """The solver's Chebyshev steps are written out; solving a take-off
    loads no numpy.polynomial."""
    code = ("import sys, sarrusjump; from sarrusjump.config import build_config, "
            "default_config; run = build_config(default_config()); "
            "sarrusjump.solve_takeoff(run.geometry, run.elastic, run.masses, run.sim); "
            "print('numpy.polynomial' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(dynamics.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
