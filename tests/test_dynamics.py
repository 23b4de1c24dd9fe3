"""Decompression dynamics, take-off, ballistic flight and energy audits.

Groups:
  1. Mass bookkeeping and the lumped coefficients
  2. Point operations: ground reaction, take-off velocity, ballistic arc
  3. The governing equation at rest and at equilibrium
  4. Full decompression runs: events, trajectory consistency, audits
  5. Integrator quality: step convergence, damping monotonicity
"""

import math

import numpy as np
import pytest

from sarrusjump import (
    CONTACT_LOST,
    HORIZON_EXCEEDED,
    KNEE_INVERSION,
    STICTION,
    TAKE_OFF,
    LinearSpring,
    MassModel,
    SimOptions,
    ballistic,
    build_config,
    com_velocity,
    default_config,
    dynamics,
    efficiency,
    ground_reaction,
    integrate_decompression,
    simulate_jump,
    stiction_threshold,
    stretch,
    stored_energy,
    takeoff_velocity,
    theta_ddot,
)

from params import (
    MU_IDENTIFIED,
    mooney_band,
    nominal_geometry,
    nominal_masses,
    sim_options,
)

GEOM = nominal_geometry()
MR = mooney_band()
M_FREE = nominal_masses(mu_C=0.0)
M_DAMPED = nominal_masses(mu_C=MU_IDENTIFIED)


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

def test_ground_reaction_static_weight():
    assert ground_reaction(M_FREE, 0.0) == pytest.approx(M_FREE.m_T * 9.81, rel=1e-12)


def test_ground_reaction_zero_crossing_acceleration():
    # F_N = 0 at hdd = -g m_T / (m_T - m1)
    hdd = -9.81 * M_FREE.m_T / (M_FREE.m_T - M_FREE.m1)
    assert hdd == pytest.approx(-10.993, abs=1e-3)
    assert ground_reaction(M_FREE, hdd) == pytest.approx(0.0, abs=1e-12)


def test_ground_reaction_massless_foot_free_fall():
    m = nominal_masses(m1=0.0)
    assert ground_reaction(m, -m.g) == pytest.approx(0.0, abs=1e-15)


def test_takeoff_velocity_ratios():
    assert takeoff_velocity(nominal_masses(m1=0.0), 1.7) == pytest.approx(1.7, rel=1e-12)
    assert takeoff_velocity(M_FREE, 3.25) == pytest.approx(2.90, abs=1e-3)
    half = MassModel(m1=0.5, m2=0.1, m3=0.1, m4=0.1, m5=0.2, I1=0, I2=0)
    assert takeoff_velocity(half, 2.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        takeoff_velocity(M_FREE, -0.1)


def test_com_velocity_against_link_sum():
    # Oracle: sum of the per-link vertical momenta written out directly.
    a, theta, theta_dot = GEOM.a, 0.42, 7.3
    m = M_FREE
    co = math.cos(theta)
    momenta = (
        m.m2 * 0.5 * a * co * theta_dot
        + m.m3 * a * co * theta_dot
        + m.m4 * 1.5 * a * co * theta_dot
        + m.m5 * 2.0 * a * co * theta_dot
    )
    expected = momenta / (m.m_T - m.m1)
    assert com_velocity(m, a, theta, theta_dot) == pytest.approx(expected, rel=1e-12)


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

def test_acceleration_positive_at_squat():
    assert theta_ddot(GEOM, MR, M_FREE, 0.066, 0.0) > 0.0


def test_acceleration_zero_at_equilibrium():
    # Bracket the balance angle g M3 = 4 F_y by bisection on the public
    # acceleration itself, then confirm the residual vanishes.
    lo, hi = 1.3, 1.45
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if theta_ddot(GEOM, MR, M_FREE, mid, 0.0) > 0:
            lo = mid
        else:
            hi = mid
    assert theta_ddot(GEOM, MR, M_FREE, 0.5 * (lo + hi), 0.0) == pytest.approx(0.0, abs=1e-9)


def test_acceleration_theta_range_checked():
    with pytest.raises(ValueError):
        theta_ddot(GEOM, MR, M_FREE, -0.1, 0.0)
    with pytest.raises(ValueError):
        theta_ddot(GEOM, MR, M_FREE, 2.0, 0.0)


def test_friction_opposes_motion_and_rest_is_neutral():
    base = theta_ddot(GEOM, MR, M_DAMPED, 0.3, 0.0)
    assert base == theta_ddot(GEOM, MR, M_FREE, 0.3, 0.0)  # sgn(0) = 0
    forward = theta_ddot(GEOM, MR, M_DAMPED, 0.3, 1.0)
    backward = theta_ddot(GEOM, MR, M_DAMPED, 0.3, -1.0)
    free_fwd = theta_ddot(GEOM, MR, M_FREE, 0.3, 1.0)
    free_back = theta_ddot(GEOM, MR, M_FREE, 0.3, -1.0)
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
    traj, summary = simulate_jump(GEOM, MR, M_FREE, sim_options(),
                                  exact_derivative=True)
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


def test_exact_mode_energy_identity_undamped():
    """For the chain-rule derivative the released band energy equals the
    mechanical energy gain at every record (relative 1e-4)."""
    opts = sim_options(theta0=0.3)
    traj, summary = simulate_jump(GEOM, MR, M_FREE, opts, exact_derivative=True)
    assert summary.termination == TAKE_OFF
    lhs = traj.E_band[0] - traj.E_band
    rhs = traj.T_kin + traj.V_pot - traj.V_pot[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-4 * summary.E_P0_J
    assert abs(summary.audit.virtual_work_excess_J) < 1e-10


def test_exact_mode_energy_identity_damped():
    # theta increases monotonically, so friction work is mu_C (theta - theta0).
    opts = sim_options(theta0=0.3)
    traj, summary = simulate_jump(GEOM, MR, M_DAMPED, opts, exact_derivative=True)
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


def test_take_off_velocity_monotone_in_damping():
    mus = np.linspace(0.0, 0.024, 10)
    v0s = []
    for mu in mus:
        _, summary = simulate_jump(GEOM, MR, nominal_masses(mu_C=float(mu)),
                                   sim_options(step=5e-5), record=False)
        assert summary.termination == TAKE_OFF
        v0s.append(summary.v0_mps)
    assert all(a >= b - 1e-12 for a, b in zip(v0s, v0s[1:]))


@pytest.mark.parametrize("record", [True, False])
def test_one_kernel_evaluation_per_integrator_node(record, monkeypatch):
    """The reference run evaluates the kernel 4 times per RK4 step and per
    bisection iteration (stages 2-4 plus the end-of-step evaluation, which
    is also the next k1, the event tests and the row), plus the start state
    and its rest check, whether or not every step is recorded."""
    calls = {"leg_forces": 0, "rk4": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dynamics, "leg_forces", counted("leg_forces", dynamics.leg_forces))
    monkeypatch.setattr(dynamics, "_rk4", counted("rk4", dynamics._rk4))
    run = build_config(default_config())
    _, summary = simulate_jump(run.geometry, run.elastic, run.masses, run.sim,
                               record=record)
    assert summary.termination == TAKE_OFF
    assert calls == {"leg_forces": 54146, "rk4": 13536}
    assert calls["leg_forces"] == 4 * calls["rk4"] + 2
