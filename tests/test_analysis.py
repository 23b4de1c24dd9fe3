"""Equilibria, phase portraits, sensitivity sweeps, friction
identification and the root finder behind them."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sarrusjump
from sarrusjump import (
    CENTER,
    SADDLE,
    LegAngleInterval,
    find_equilibria,
    identify_mu,
    phase_portrait,
    sensitivity,
    simulate_jump,
    stiction_threshold,
    thrust_force,
)
import sarrusjump.analysis as analysis_module
from sarrusjump.analysis import _brentq
from sarrusjump.dynamics import _integrate_raw, _LegDynamics
from sarrusjump.thrust import leg_forces

from params import (
    MU_IDENTIFIED,
    mooney_band,
    nominal_geometry,
    nominal_masses,
    pin_geometry,
    sim_options,
)

GEOM = nominal_geometry()
MR = mooney_band()
M_FREE = nominal_masses(mu_C=0.0)
FULL_RANGE = LegAngleInterval(1e-4, math.pi / 2)


def torque_oracle(geom, model, masses, theta):
    """cos(theta) (g M3 - 4 F_y) recomputed through the public thrust API."""
    m3c = masses.m2 + 2 * masses.m3 + 3 * masses.m4 + 4 * masses.m5
    return math.cos(theta) * (masses.g * m3c - 4.0 * thrust_force(geom, model, theta))


# ── equilibria ────────────────────────────────────────────────────────────

def test_center_found_and_residual_small():
    eqs = find_equilibria(GEOM, MR, M_FREE, FULL_RANGE)
    centers = [e for e in eqs if e.kind == CENTER]
    assert len(centers) == 1
    theta_star = centers[0].theta_star
    scan = np.linspace(1e-4, math.pi / 2, 4000)
    scale = max(abs(torque_oracle(GEOM, MR, M_FREE, float(t))) for t in scan)
    assert abs(torque_oracle(GEOM, MR, M_FREE, theta_star)) < 1e-10 * scale


def test_center_location_against_scan_oracle():
    eqs = find_equilibria(GEOM, MR, M_FREE, FULL_RANGE)
    theta_star = [e for e in eqs if e.kind == CENTER][0].theta_star
    # Independent bracket: sign change of the torque oracle on a fine grid.
    grid = np.linspace(1.0, 1.45, 40_000)
    vals = np.array([torque_oracle(GEOM, MR, M_FREE, float(t)) for t in grid])
    idx = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert grid[idx] <= theta_star <= grid[idx + 1]


def test_center_eigenvalues_imaginary():
    eqs = find_equilibria(GEOM, MR, M_FREE, FULL_RANGE)
    center = [e for e in eqs if e.kind == CENTER][0]
    lam = center.eigenvalues[0]
    assert lam.real == 0.0 and lam.imag > 0.0


def test_boundary_saddle_at_half_pi():
    eqs = find_equilibria(GEOM, MR, M_FREE, FULL_RANGE)
    boundary = [e for e in eqs if abs(e.theta_star - math.pi / 2) < 1e-6]
    assert len(boundary) == 1 and boundary[0].kind == SADDLE


def test_pin_knee_equilibria_match_published_portrait():
    """With the single-pin knee (no anchor offsets) the portrait features
    sit where the design description places them: a saddle essentially at
    the origin and a center near 1.3 rad."""
    pin = pin_geometry()
    eqs = find_equilibria(pin, mooney_band(pin), M_FREE, FULL_RANGE)
    kinds = [e.kind for e in eqs]
    assert kinds == [SADDLE, CENTER, SADDLE]
    saddle, center, _ = eqs
    assert saddle.theta_star == pytest.approx(0.0826, abs=1e-3)
    assert center.theta_star == pytest.approx(1.3066, abs=1e-3)
    assert abs(center.theta_star - 1.3) < 0.05


def test_full_geometry_center_sits_past_pin_value():
    """The knee anchor offsets push the slack angle, and with it the
    center, outward by ~0.08 rad; frozen here after cross-checking both
    variants against the torque oracle."""
    eqs = find_equilibria(GEOM, MR, M_FREE, FULL_RANGE)
    center = [e for e in eqs if e.kind == CENTER][0]
    assert center.theta_star == pytest.approx(1.3827, abs=1e-3)


def test_equilibria_stable_under_grid_refinement():
    coarse = find_equilibria(GEOM, MR, M_FREE, FULL_RANGE, n_scan=2000)
    fine = find_equilibria(GEOM, MR, M_FREE, FULL_RANGE, n_scan=4000)
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert a.kind == b.kind
        assert a.theta_star == pytest.approx(b.theta_star, abs=1e-9)


def scalar_scan_equilibria(geom, model, masses, interval, n_scan):
    """Oracle: the per-point scalar sign scan find_equilibria ran before its
    scan used the array kernel, with the same refinement and classification."""
    dm = _LegDynamics(geom, model, masses)

    def torque(th):
        _, co, _, _, _, f_y = leg_forces(geom, model.tension, th, False)
        return co * (dm.g * dm.M3 - 4.0 * f_y)

    grid = np.linspace(interval.theta_min, interval.theta_max, n_scan)
    values = np.array([torque(float(th)) for th in grid])
    scale = float(np.max(np.abs(values))) or 1.0
    roots = []
    for i in range(n_scan - 1):
        if values[i] == 0.0:
            roots.append(float(grid[i]))
        elif values[i] * values[i + 1] < 0.0:
            roots.append(_brentq(torque, float(grid[i]), float(grid[i + 1])))
    if values[-1] == 0.0:
        roots.append(float(grid[-1]))
    half_pi = math.pi / 2
    if (interval.theta_max >= half_pi - 1e-9 and abs(torque(half_pi)) <= 1e-9 * scale
            and not any(abs(r - half_pi) < 1e-6 for r in roots)):
        roots.append(half_pi)
    found = []
    for root in sorted(roots):
        if not found or abs(root - found[-1].theta_star) >= 1e-9:
            found.append(analysis_module._classify(dm, root))
    return found


@pytest.mark.parametrize("n_scan", (2000, 4001, 16000))
@pytest.mark.parametrize("geometry", ("nominal", "pin"))
def test_equilibria_equal_scalar_scan(geometry, n_scan):
    geom = GEOM if geometry == "nominal" else pin_geometry()
    band = mooney_band(geom)
    got = find_equilibria(geom, band, M_FREE, FULL_RANGE, n_scan=n_scan)
    assert got == scalar_scan_equilibria(geom, band, M_FREE, FULL_RANGE, n_scan)
    assert any(e.kind == CENTER for e in got)


def test_saddle_separatrix_behaviour_single_pin():
    """Releases straddling the single-pin saddle in velocity diverge to
    opposite knee branches."""
    pin = pin_geometry()
    band = mooney_band(pin)
    eqs = find_equilibria(pin, band, M_FREE, FULL_RANGE)
    saddle = [e for e in eqs if e.kind == SADDLE][0]
    dm = _LegDynamics(pin, band, M_FREE)
    _, th_pos, _, _, _ = _integrate_raw(dm, saddle.theta_star, +0.05, 0.5, 1e-5,
                                        (-0.3, 1.2))
    _, th_neg, _, _, _ = _integrate_raw(dm, saddle.theta_star, -0.05, 0.5, 1e-5,
                                        (-0.3, 1.2))
    assert th_pos[-1] > saddle.theta_star + 0.5
    assert th_neg[-1] < 0.0


# ── phase portraits ───────────────────────────────────────────────────────

def test_closed_orbit_near_center():
    [traj] = phase_portrait(GEOM, MR, M_FREE, [1.35], t_span=0.5, step=1e-4)
    assert traj.status == "closed"


def test_undamped_orbit_conserves_energy():
    [traj] = phase_portrait(GEOM, MR, M_FREE, [0.066], t_span=0.5, step=1e-4)
    drift = np.max(np.abs(traj.energy - traj.energy[0]))
    assert drift < 1e-4 * abs(traj.energy[0])


def test_squat_release_escapes_towards_extension():
    [traj] = phase_portrait(GEOM, MR, M_FREE, [0.066], t_span=0.5, step=1e-4)
    assert traj.status in ("escaped", "open")
    assert np.max(traj.theta) > 1.4


def test_damped_release_dissipates_monotonically():
    damped = nominal_masses(mu_C=MU_IDENTIFIED)
    [traj] = phase_portrait(GEOM, MR, damped, [0.066], t_span=0.3, step=1e-4)
    diffs = np.diff(traj.energy)
    assert np.all(diffs <= 1e-10)


def test_portrait_failures_marked_not_raised():
    trajs = phase_portrait(GEOM, MR, M_FREE, [float("nan"), 1.35],
                           t_span=0.2, step=1e-4)
    assert trajs[0].status == "failed"
    assert trajs[1].status == "closed"


# ── sensitivity ───────────────────────────────────────────────────────────

OPTS_SWEEP = sim_options(step=5e-5)


def test_sensitivity_nominal_point_reproduces_simulation():
    # Proportion 1 must hit the exact nominal code path for every swept
    # parameter; theta0 is excluded because it sweeps an absolute range.
    _, summary = simulate_jump(GEOM, MR, M_FREE, OPTS_SWEEP, record=False)
    for name in ("g", "m1", "m2", "m3", "m4", "m5", "I1", "I2", "a", "p", "q"):
        curve = sensitivity(GEOM, MR, M_FREE, name, [1.0], OPTS_SWEEP)
        assert curve.status == ["ok"], name
        assert curve.eta[0] == summary.eta_pct, name


def test_sensitivity_gravity_trend():
    curve = sensitivity(GEOM, MR, M_FREE, "g", [0.2, 0.6, 1.0], OPTS_SWEEP)
    assert np.all(np.diff(curve.eta) < 0.0)


def test_sensitivity_marks_invalid_points():
    curve = sensitivity(GEOM, MR, M_FREE, "a", [0.0, 1.0], OPTS_SWEEP)
    assert curve.status[0] == "invalid"
    assert math.isnan(curve.eta[0])
    assert curve.status[1] == "ok"


def test_sensitivity_theta0_uses_absolute_range():
    curve = sensitivity(GEOM, MR, M_FREE, "theta0", [0.0, 1.0], OPTS_SWEEP)
    assert curve.values[0] == pytest.approx(0.01, rel=1e-12)
    assert curve.values[1] == pytest.approx(1.3, rel=1e-12)
    assert curve.eta[0] > curve.eta[1]  # stored energy shrinks with theta0


def test_sensitivity_forces_undamped():
    damped = nominal_masses(mu_C=MU_IDENTIFIED)
    damped_curve = sensitivity(GEOM, MR, damped, "m5", [1.0], OPTS_SWEEP)
    free_curve = sensitivity(GEOM, MR, M_FREE, "m5", [1.0], OPTS_SWEEP)
    assert damped_curve.eta[0] == free_curve.eta[0]


def test_sensitivity_unknown_parameter_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        sensitivity(GEOM, MR, M_FREE, "l0", [1.0], OPTS_SWEEP)


# ── friction identification ───────────────────────────────────────────────

OPTS_ID = sim_options(step=2e-5)


def test_identify_mu_at_bracket_endpoint():
    _, summary = simulate_jump(GEOM, MR, M_FREE, OPTS_ID, record=False)
    assert identify_mu(GEOM, MR, M_FREE, summary.v0_mps, OPTS_ID) == 0.0


def test_identify_mu_round_trip():
    mu_true = 0.012
    _, summary = simulate_jump(GEOM, MR, nominal_masses(mu_C=mu_true), OPTS_ID,
                               record=False)
    mu_hat = identify_mu(GEOM, MR, M_FREE, summary.v0_mps, OPTS_ID)
    assert abs(mu_hat - mu_true) / mu_true < 1e-4


def test_identify_mu_rejects_unreachable_targets():
    with pytest.raises(ValueError):
        identify_mu(GEOM, MR, M_FREE, 10.0, OPTS_ID)  # faster than undamped
    with pytest.raises(ValueError):
        identify_mu(GEOM, MR, M_FREE, -1.0, OPTS_ID)
    # Below the velocity of the slowest jump that still breaks stiction.
    with pytest.raises(ValueError, match="below"):
        identify_mu(GEOM, MR, M_FREE, 1.0, OPTS_ID)


def test_stiction_threshold_matches_hand_formula():
    m3c = M_FREE.m2 + 2 * M_FREE.m3 + 3 * M_FREE.m4 + 4 * M_FREE.m5
    expected = 2 * GEOM.a * math.cos(0.066) * abs(
        M_FREE.g * m3c / 4.0 - thrust_force(GEOM, MR, 0.066))
    assert stiction_threshold(GEOM, MR, M_FREE, 0.066) == pytest.approx(
        expected, rel=1e-12)


# ── root finding ──────────────────────────────────────────────────────────

BRENT_CASES = (
    (lambda x: math.sin(x) - 0.3, -1.0, 1.2),
    (lambda x: x**3 - 2 * x - 5, 1.0, 3.5),
    (lambda x: math.exp(x) - 3.0, -2.0, 4.0),
    (lambda x: 1e-3 * math.atan(x - 0.7), -3.0, 2.0),
    (lambda x: (x - 1.3) ** 5, 0.0, 4.0),
)


def _outcome(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def test_brent_port_matches_scipy_brentq():
    """Same float result, or the same error, as scipy.optimize.brentq at
    xtol=1e-14 over many brackets and relative tolerances."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(3)
    for _ in range(100):
        for f, lo, hi in BRENT_CASES:
            a = float(rng.uniform(lo, lo + 0.3))
            b = float(rng.uniform(hi - 0.3, hi))
            for rtol in (8.9e-16, 1e-6, 1e-3):
                assert _outcome(_brentq, f, a, b, rtol=rtol) == _outcome(
                    brentq, f, a, b, xtol=1e-14, rtol=rtol)


def test_brent_port_errors_match_scipy(monkeypatch):
    brentq = pytest.importorskip("scipy.optimize").brentq
    nan_after = lambda x: math.nan if x > 0.6 else x - 0.5  # noqa: E731
    cubic = lambda x: x**3 - 2 * x - 5  # noqa: E731
    for solver in (brentq, _brentq):
        with pytest.raises(ValueError, match="NaN"):
            solver(nan_after, 0.0, 1.0)
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(RuntimeError, match="converge"):
        brentq(cubic, 1.0, 3.5, xtol=1e-14, maxiter=2)
    monkeypatch.setattr(analysis_module, "_BRENT_MAXITER", 2)
    with pytest.raises(RuntimeError, match="converge"):
        _brentq(cubic, 1.0, 3.5)


def test_package_import_leaves_scipy_out():
    code = "import sys, sarrusjump; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(sarrusjump.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
