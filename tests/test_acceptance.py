"""Acceptance suite: every headline figure of merit at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Criteria:

   1  band energy at the squat angle          0.17 J   +/- 0.005 J
   2  undamped efficiency                     72.5 %   +/- 1.5 pts (73 % limit)
   3  damped jump                             v0 2.9 +/- 0.1 m/s, eta 63.1 +/- 1.5,
                                              flight time 0.592 +/- 0.02 s
   4  take-off timing                         t_off 135 +/- 15 ms, offset 33 +/- 8 ms
   5  friction identification                 16.811e-3 +/- 5 %, round trip 1e-4
   6  sensitivity trends                      eta falls with g, m1, m5; m3 milder than m5
   7  equilibria                              center 1.3 +/- 0.05 rad; saddle branches at 0
   8  screw mobility                          rank 5 / DOF 1 / motion along e_C; lock -> 6
   9  numerical hygiene                       energy 1e-4, 4th order, thrust oracle 1e-5,
                                              landmark heights match profiles
  10  ballistic identity                      h_max = v0^2 / (2 g) exactly; the 0.566 m
                                              figure is documented as not reproducible
"""

import math

import numpy as np
import pytest

from sarrusjump import (
    CENTER,
    TAKE_OFF,
    LegAngleInterval,
    LinearSpring,
    LinkageGeometry,
    distension_height,
    find_equilibria,
    height,
    identify_mu,
    peak_height,
    sensitivity,
    simulate_jump,
    stored_energy,
    stretch,
    thrust_force,
    thrust_force_linear,
)
from sarrusjump.dynamics import _integrate_raw, _LegDynamics

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
M_DAMPED = nominal_masses(mu_C=MU_IDENTIFIED)
OPTS = sim_options()


def check(criterion, passed, detail):
    line = f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def undamped():
    return simulate_jump(GEOM, MR, M_FREE, OPTS)


@pytest.fixture(scope="module")
def damped():
    return simulate_jump(GEOM, MR, M_DAMPED, OPTS)


def test_criterion_01_band_energy():
    e_p0 = stored_energy(MR, stretch(GEOM, 0.066))
    check(1, abs(e_p0 - 0.17) <= 0.005,
          f"stored band energy at squat = {e_p0:.4f} J (target 0.17 +/- 0.005)")


def test_criterion_02_undamped_efficiency(undamped):
    _, summary = undamped
    ok_nominal = abs(summary.eta_pct - 72.5) <= 1.5
    _, tiny = simulate_jump(GEOM, MR, M_FREE, sim_options(theta0=0.005),
                            record=False)
    ok_limit = abs(tiny.eta_pct - 73.0) <= 1.5
    check(2, ok_nominal and ok_limit,
          f"undamped eta = {summary.eta_pct:.2f} % (72.5 +/- 1.5); "
          f"squat-angle-to-zero limit = {tiny.eta_pct:.2f} % (73 +/- 1.5)")


def test_criterion_03_damped_jump(damped):
    _, summary = damped
    ok = (abs(summary.v0_mps - 2.9) <= 0.1
          and abs(summary.eta_pct - 63.1) <= 1.5
          and abs(summary.t_aer_s - 0.592) <= 0.02)
    check(3, ok,
          f"damped v0 = {summary.v0_mps:.3f} m/s (2.9 +/- 0.1), "
          f"eta = {summary.eta_pct:.2f} % (63.1 +/- 1.5), "
          f"flight = {summary.t_aer_s:.4f} s (0.592 +/- 0.02)")


def test_criterion_04_takeoff_timing(undamped, damped):
    _, free = undamped
    _, damp = damped
    delta_ms = (damp.t_off_s - free.t_off_s) * 1e3
    t_off_ms = damp.t_off_s * 1e3
    ok = abs(delta_ms - 33.0) <= 8.0 and abs(t_off_ms - 135.0) <= 15.0
    check(4, ok,
          f"damped t_off = {t_off_ms:.1f} ms (135 +/- 15), "
          f"damping delay = {delta_ms:.1f} ms (33 +/- 8)")


def test_criterion_05_friction_identification():
    opts = sim_options(step=2e-5)
    mu_hat = identify_mu(GEOM, MR, M_FREE, 2.9, opts)
    ok_value = abs(mu_hat - MU_IDENTIFIED) / MU_IDENTIFIED <= 0.05

    mu_true = 0.012
    _, summary = simulate_jump(GEOM, MR, nominal_masses(mu_C=mu_true), opts,
                               record=False)
    mu_round = identify_mu(GEOM, MR, M_FREE, summary.v0_mps, opts)
    ok_round = abs(mu_round - mu_true) / mu_true <= 1e-4
    check(5, ok_value and ok_round,
          f"identified mu_C = {mu_hat:.6f} (16.811e-3 +/- 5 %); "
          f"round trip at 0.012 -> {mu_round:.8f} "
          f"(rel err {abs(mu_round - mu_true) / mu_true:.2e})")


def test_criterion_06_sensitivity_trends():
    opts = sim_options(step=5e-5)
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    curves = {name: sensitivity(GEOM, MR, M_FREE, name, grid, opts)
              for name in ("g", "m1", "m5", "m3")}
    monotone = {name: bool(np.all(np.diff(curves[name].eta) < 0.0))
                for name in ("g", "m1", "m5")}
    penalty_m3 = curves["m3"].eta[0] - curves["m3"].eta[-1]
    penalty_m5 = curves["m5"].eta[0] - curves["m5"].eta[-1]
    milder = penalty_m3 < penalty_m5
    check(6, all(monotone.values()) and milder,
          f"eta strictly falls with proportion of g/m1/m5: {monotone}; "
          f"knee-mass penalty {penalty_m3:.2f} pts < upper-mass penalty "
          f"{penalty_m5:.2f} pts over the 0.2..1.0 span")


def test_criterion_07_equilibria():
    equilibria = find_equilibria(GEOM, MR, M_FREE, LegAngleInterval(1e-4, math.pi / 2))
    centers = [e for e in equilibria if e.kind == CENTER]
    theta_star = centers[0].theta_star if centers else math.nan
    ok_center = bool(centers) and abs(theta_star - 1.3) <= 0.05

    dm = _LegDynamics(GEOM, MR, M_FREE)
    th_pos = _integrate_raw(dm, 1e-3, +0.05, 0.5, 1e-5, (-0.3, 1.2)).theta
    th_neg = _integrate_raw(dm, 1e-3, -0.05, 0.5, 1e-5, (-0.3, 1.2)).theta
    ok_saddle = th_pos[-1] > 0.5 and th_neg[-1] < 0.0

    # Known divergence for the nominal knee-anchor offsets: the band slack
    # angle, and with it the center, sits at 1.383 rad; removing the
    # offsets (p = q = 0) puts the center at 1.307 rad and an interior
    # saddle at 0.083 rad, the configuration the 1.3 rad figure describes.
    check(7, ok_center and ok_saddle,
          f"center at {theta_star:.4f} rad (window 1.30 +/- 0.05): "
          f"{'in' if ok_center else 'out'}; +/- releases at the origin end at "
          f"{th_pos[-1]:+.3f} / {th_neg[-1]:+.3f} rad "
          f"(opposite branches: {ok_saddle})")


def test_criterion_08_screw_mobility():
    from sarrusjump import (actuation_analysis, build_sarrus, chain_joint_screws,
                            platform_constraint_system, platform_freedoms)
    from sarrusjump.screws import rank, reciprocal
    failures = []

    def probe(n, azimuths, theta):
        mech = build_sarrus(n, azimuths, a=1.0, theta=theta)
        constraints = platform_constraint_system(mech)
        freedoms = platform_freedoms(mech)
        if rank(constraints) != 5 or len(freedoms) != 1:
            failures.append((n, theta, "rank"))
            return
        motion = freedoms[0] / np.linalg.norm(freedoms[0])
        if (np.linalg.norm(motion[:3]) > 1e-9
                or abs(abs(float(motion[3:] @ mech.e_C)) - 1.0) > 1e-9):
            failures.append((n, theta, "motion"))
        for i in range(n):
            joints = chain_joint_screws(mech, i)
            if rank(joints) + rank(reciprocal(joints)) != 6:
                failures.append((n, theta, "rank-sum"))
        if actuation_analysis(mech, (0, "B")).constraint_rank != 6:
            failures.append((n, theta, "lock"))

    for theta in (0.2, 0.8, 1.4):
        for n in (2, 3, 4, 5):
            azimuths = ([0.0, math.pi / 2] if n == 2
                        else [2 * math.pi * i / n for i in range(n)])
            probe(n, azimuths, theta)

    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        while True:
            azimuths = rng.uniform(0.0, 2 * math.pi, n)
            if any(abs(math.sin(azimuths[i] - azimuths[j])) > 1e-2
                   for i in range(n) for j in range(i + 1, n)):
                break
        probe(n, azimuths.tolist(), float(rng.choice([0.2, 0.8, 1.4])))

    check(8, not failures,
          f"rank 5 / DOF 1 / translation along e_C for n in 2..5 at three "
          f"leg angles plus 100 random azimuth sets; knee lock raises rank "
          f"to 6; rank sums equal 6 (failures: {failures or 'none'})")


def test_criterion_09_numerical_hygiene(undamped, damped):
    _, free = undamped
    _, damp = damped
    ok_energy = (abs(free.audit.residual_J) < 1e-4 * free.E_P0_J
                 and abs(damp.audit.residual_J) < 1e-4 * damp.E_P0_J)

    v0 = {}
    for s in (8e-5, 4e-5, 2e-5, 1e-5, 5e-6):
        _, summary = simulate_jump(GEOM, MR, M_FREE,
                                   sim_options(step=s, event_tolerance=1e-12),
                                   record=False)
        v0[s] = summary.v0_mps
    reference = v0[5e-6] + (v0[5e-6] - v0[1e-5]) / 15.0
    ratio1 = abs(v0[8e-5] - reference) / abs(v0[4e-5] - reference)
    ratio2 = abs(v0[4e-5] - reference) / abs(v0[2e-5] - reference)
    ok_order = 8.0 < ratio1 < 40.0 and 8.0 < ratio2 < 40.0

    # Thrust equals the band-energy gradient: default convention on the
    # offset-free knee, chain-rule variant on the nominal knee.
    eps = 1e-7
    pin = pin_geometry()
    pin_band = mooney_band(pin)
    exact = nominal_geometry(exact_derivative=True)
    ok_thrust = True
    for theta in np.linspace(0.15, 1.25, 23):
        theta = float(theta)
        for geom, band in ((pin, pin_band), (exact, MR)):
            de = (stored_energy(band, stretch(geom, theta + eps))
                  - stored_energy(band, stretch(geom, theta - eps)))
            dh = height(geom, theta + eps) - height(geom, theta - eps)
            f = thrust_force(geom, band, theta)
            if abs(f - (-de / dh)) > 1e-5 * abs(f):
                ok_thrust = False

    rig = LinkageGeometry(a=1.0, c=0.3, p=0.0, q=0.0, l0=1.0, A0=1e-4)
    thetas = np.linspace(1e-4, math.pi / 2 - 1e-4, 100_000)
    fy = np.array([thrust_force_linear(rig, 1.0, float(t)) for t in thetas])
    h_peak = height(rig, float(thetas[np.argmax(fy)]))
    lam = np.array([stretch(rig, float(t)) for t in thetas])
    h_slack = height(rig, float(thetas[np.flatnonzero(lam <= 1.0)[0]]))
    ok_landmarks = (abs(peak_height(1.0, 0.3, 1.0) - h_peak) < 1e-3
                    and abs(distension_height(1.0, 0.3, 1.0) - h_slack) < 1e-3)

    check(9, ok_energy and ok_order and ok_thrust and ok_landmarks,
          f"energy residual rel {abs(free.audit.residual_J) / free.E_P0_J:.1e} "
          f"(undamped) / {abs(damp.audit.residual_J) / damp.E_P0_J:.1e} (damped); "
          f"halving ratios {ratio1:.1f}, {ratio2:.1f} (~16); thrust oracle "
          f"1e-5: {ok_thrust}; landmark heights match profiles: {ok_landmarks}")


def test_criterion_10_ballistic_identity(damped):
    _, summary = damped
    v0, g = summary.v0_mps, M_DAMPED.g
    ok = (summary.h_max_m == pytest.approx(v0 * v0 / (2 * g), rel=1e-15)
          and summary.t_aer_s == pytest.approx(2 * v0 / g, rel=1e-15))
    check(10, ok,
          f"h_max = v0^2/(2g) = {summary.h_max_m:.4f} m and t_aer = 2 v0/g "
          f"hold exactly; the 0.566 m hardware-quoted apex is NOT reproduced "
          f"(v0 = 2.9 m/s implies 0.429 m) and is recorded here instead of "
          f"being matched")
