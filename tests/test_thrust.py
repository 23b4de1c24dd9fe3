"""Thrust force: closed forms against the generic virtual-work path,
brute-force profile oracles for the peak and distension heights, the
force-inversion property of the anchor-matched band, and bit-for-bit
agreement of the scalar API, the integrator and the array kernel."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sarrusjump import (
    LegAngleInterval,
    LinearSpring,
    LinkageGeometry,
    anchor_distance,
    dl_dh,
    drive_force,
    height,
    integrate_decompression,
    peak_height,
    distension_height,
    stored_energy,
    stretch,
    thrust_force,
    thrust_force_linear,
    thrust_profile,
)

from sarrusjump.dynamics import _LegDynamics
from sarrusjump.geometry import ARM_FLOOR
from sarrusjump.thrust import leg_forces_array

from params import (
    gaussian_band,
    mooney_band,
    nominal_geometry,
    nominal_masses,
    pin_geometry,
    sim_options,
)

GEOM = nominal_geometry()
EXACT = nominal_geometry(exact_derivative=True)
MR = mooney_band()

# Unit-scale single-pin test rig: a = 1, k = 1, band shorter than the
# full-extension separation by 0.7.
RIG = LinkageGeometry(a=1.0, c=0.3, p=0.0, q=0.0, l0=1.0, A0=1e-4)
RIG_SPRING = LinearSpring(k=1.0, l0=1.0)


def test_slack_band_gives_zero_thrust():
    tight = LinkageGeometry(a=1.0, c=0.3, p=0.0, q=0.0, l0=5.0, A0=1e-4)
    for theta in (0.1, 0.8, 1.5):
        assert thrust_force(tight, LinearSpring(k=1.0, l0=5.0), theta) == 0.0
        assert thrust_force_linear(tight, 1.0, theta) == 0.0


def test_linear_closed_form_matches_generic_path():
    for theta in np.linspace(0.05, 1.5, 80):
        theta = float(theta)
        generic = thrust_force(RIG, RIG_SPRING, theta)
        closed = thrust_force_linear(RIG, 1.0, theta)
        assert closed == pytest.approx(generic, rel=1e-12, abs=1e-15)


def test_linear_closed_form_matches_generic_with_offsets():
    # Stiffness chosen so the linear force equals the hyperelastic force at
    # the squat angle; both paths must then agree there exactly.
    theta0 = 0.066
    lam0 = stretch(GEOM, theta0)
    f_band = drive_force(MR, lam0)
    k = f_band / (anchor_distance(GEOM, theta0) - GEOM.l0)
    spring = LinearSpring(k=k, l0=GEOM.l0)
    assert thrust_force_linear(GEOM, k, theta0) == pytest.approx(
        thrust_force(GEOM, spring, theta0), rel=1e-12)
    assert thrust_force(GEOM, spring, theta0) == pytest.approx(
        thrust_force(GEOM, MR, theta0), rel=1e-12)


def test_thrust_positive_at_squat():
    assert thrust_force(GEOM, MR, 0.066) > 0.0


def test_both_paths_vanish_exactly_at_rest_length():
    # Geometry built so the band hits its rest length at the probe angle.
    theta = 0.7
    geom = nominal_geometry(l0=anchor_distance(GEOM, theta))
    assert thrust_force(geom, LinearSpring(k=5.0, l0=geom.l0), theta) == 0.0
    assert thrust_force_linear(geom, 5.0, theta) == pytest.approx(0.0, abs=1e-12)


def test_virtual_work_oracle_single_pin():
    """Default convention against -dE/dh by central differences; exact for
    the single-pin knee."""
    pin = pin_geometry()
    mr = mooney_band(pin)
    eps = 1e-7
    for theta in np.linspace(0.1, 1.3, 40):
        theta = float(theta)
        de = (stored_energy(mr, stretch(pin, theta + eps))
              - stored_energy(mr, stretch(pin, theta - eps)))
        dh = height(pin, theta + eps) - height(pin, theta - eps)
        assert thrust_force(pin, mr, theta) == pytest.approx(-de / dh, rel=1e-5)


def test_virtual_work_oracle_with_offsets_exact_mode():
    """With knee anchor offsets the chain-rule variant is the one that
    matches the band-energy gradient."""
    eps = 1e-7
    for theta in np.linspace(0.1, 1.3, 40):
        theta = float(theta)
        de = (stored_energy(MR, stretch(GEOM, theta + eps))
              - stored_energy(MR, stretch(GEOM, theta - eps)))
        dh = height(GEOM, theta + eps) - height(GEOM, theta - eps)
        assert thrust_force(EXACT, MR, theta) == pytest.approx(-de / dh, rel=1e-5)


# ── closed-form landmark heights ──────────────────────────────────────────

def test_peak_height_value():
    assert peak_height(1.0, 0.3, 1.0) == pytest.approx(1.34666, abs=1e-5)


def test_peak_height_degenerate_limit():
    assert peak_height(1.0, 0.8, 0.8) == pytest.approx(2.0, rel=1e-12)


def test_peak_height_preconditions():
    with pytest.raises(ValueError):
        peak_height(1.0, 1.2, 1.0)  # c > l0
    with pytest.raises(ValueError):
        peak_height(0.4, 0.3, 1.0)  # a too short for an interior peak


def test_peak_height_matches_profile_argmax():
    thetas = np.linspace(1e-4, math.pi / 2 - 1e-4, 100_000)
    fy = np.array([thrust_force_linear(RIG, 1.0, float(t)) for t in thetas])
    h_star = height(RIG, float(thetas[np.argmax(fy)]))
    assert peak_height(1.0, 0.3, 1.0) == pytest.approx(h_star, abs=1e-3)


def test_distension_height_value():
    assert distension_height(1.0, 0.3, 1.0) == pytest.approx(1.82939, abs=1e-5)


def test_distension_height_degenerate_limit():
    assert distension_height(1.0, 0.8, 0.8) == pytest.approx(2.0, rel=1e-12)


def test_distension_height_preconditions():
    with pytest.raises(ValueError):
        distension_height(1.0, 1.2, 1.0)  # taut everywhere
    with pytest.raises(ValueError):
        distension_height(0.2, 0.0, 1.0)  # never slackens


def test_distension_height_kinematic_round_trip():
    h_d = distension_height(1.0, 0.3, 1.0)
    theta_d = math.asin(h_d / 2.0)
    assert anchor_distance(RIG, theta_d) == pytest.approx(RIG.l0, abs=1e-12)


def test_distension_is_first_zero_of_band_force():
    h_d = distension_height(1.0, 0.3, 1.0)
    thetas = np.linspace(1e-4, math.pi / 2 - 1e-4, 100_000)
    lam = np.array([stretch(RIG, float(t)) for t in thetas])
    first_slack = np.flatnonzero(lam <= 1.0)[0]
    assert height(RIG, float(thetas[first_slack])) == pytest.approx(h_d, abs=1e-3)


# ── profiles ──────────────────────────────────────────────────────────────

def test_profile_force_inversion_when_rest_length_equals_c():
    rig = LinkageGeometry(a=1.0, c=1.0, p=0.0, q=0.0, l0=1.0, A0=1e-4)
    prof = thrust_profile(rig, LinearSpring(k=1.0, l0=1.0),
                          LegAngleInterval(0.01, math.pi / 2 - 0.01), 400)
    assert np.all(np.diff(prof.Fy_norm) > 0), "thrust must grow toward extension"
    assert prof.F_y[-1] > 0.0  # no zero-force point before full extension


def test_profile_interior_peak_when_band_shorter():
    prof = thrust_profile(RIG, RIG_SPRING, LegAngleInterval(0.01, math.pi / 2 - 0.01), 2000)
    i_max = int(np.argmax(prof.F_y))
    assert 0 < i_max < len(prof) - 1, "peak must be interior"
    # Beyond distension the band is slack and the thrust is exactly zero.
    h_d = distension_height(1.0, 0.3, 1.0)
    assert np.all(prof.F_y[prof.h > h_d + 1e-6] == 0.0)


def test_profile_two_samples():
    prof = thrust_profile(RIG, RIG_SPRING, LegAngleInterval(0.2, 0.9), 2)
    assert len(prof) == 2
    assert prof.theta[0] == 0.2 and prof.theta[-1] == 0.9


def test_profile_needs_two_samples():
    with pytest.raises(ValueError):
        thrust_profile(RIG, RIG_SPRING, LegAngleInterval(0.2, 0.9), 1)


def test_profile_normalisation():
    prof = thrust_profile(GEOM, MR, LegAngleInterval(0.01, 1.5), 300)
    assert prof.h_norm.max() == pytest.approx(1.0, rel=1e-15)
    assert prof.Fy_norm.max() == pytest.approx(1.0, rel=1e-15)
    assert np.all(prof.F_y >= 0.0)


def test_pin_knee_profile_starts_at_zero_height():
    """Without the p offset h = 0 at theta = 0: the profile starts there
    with zero thrust under a taut band, and the closed form stays undefined."""
    pin = pin_geometry()
    prof = thrust_profile(pin, mooney_band(pin), LegAngleInterval(0.0, math.pi / 2), 500)
    assert prof.h[0] == 0.0 and prof.F_y[0] == 0.0
    assert prof.F_l[0] > 0.0 and prof.F_y[1] > 0.0
    with pytest.raises(ValueError, match="zero linkage height"):
        anchor_distance(pin, 0.0)


# ── one kernel for the scalar API and the integrator ─────────────────────

def test_scalar_api_and_integrator_agree_exactly():
    """stretch and thrust_force return the integrator's lambda and F_y to
    the bit, for every band law and both derivative conventions."""
    laws = (MR, gaussian_band(), LinearSpring(k=36.0, l0=GEOM.l0))
    thetas = [float(t) for t in np.linspace(1e-4, math.pi / 2, 400)]
    for model in laws:
        for geom in (GEOM, EXACT):
            dm = _LegDynamics(geom, model, nominal_masses())
            for theta in thetas:
                _, _, _, _, _, _, _, lam, f_l, f_y, _ = dm.derivatives(theta, 0.0)
                assert stretch(geom, theta) == lam
                assert drive_force(model, lam) == f_l
                assert thrust_force(geom, model, theta) == f_y


@pytest.mark.parametrize("geom", (GEOM, EXACT), ids=("default", "exact"))
def test_dl_dh_holds_at_slack_angles(geom):
    """dl_dh is the geometric slope, band or no band: between the slack
    angle (~1.389 rad) and pi/2 it is positive and within 1 ulp of the
    closed forms sqrt(3) h / (4 (a cos(theta) + q)) and (sqrt(3) / 2)
    sin(theta) / cos(theta)."""
    theta_slack = math.acos(((geom.l0 - geom.c) / math.sqrt(3.0) - geom.q) / geom.a)
    assert 1.38 < theta_slack < 1.40
    for theta in np.linspace(theta_slack, math.pi / 2, 52)[1:-1].tolist():
        assert stretch(geom, theta) < 1.0
        if geom.exact_derivative:
            want = math.sqrt(3.0) / 2.0 * math.sin(theta) / math.cos(theta)
        else:
            want = (math.sqrt(3.0) * height(geom, theta)
                    / (4.0 * (geom.a * math.cos(theta) + geom.q)))
        got = dl_dh(geom, theta)
        assert got > 0.0
        assert abs(got - want) <= math.ulp(want), theta


def test_profile_and_trajectory_agree_exactly():
    """The thrust-profile path and a recorded simulation give the same
    lambda and F_y at the same leg angle."""
    traj = integrate_decompression(GEOM, MR, nominal_masses(), sim_options(step=1e-4))
    for theta, lam, f_y in zip(traj.theta[::25], traj.lam[::25], traj.F_y[::25]):
        theta = float(theta)
        assert stretch(GEOM, theta) == lam
        assert thrust_force(GEOM, MR, theta) == f_y


# (geometry, band law) pairs for the array kernel: the three laws, a k = 0
# spring (taut with zero tension), a band slack at every angle, the pin
# knee, whose arm a cos(theta) + q reaches the floor at pi/2, and a band
# taut at every angle, so the floors act under tension.
SLACK = LinkageGeometry(a=1.0, c=0.3, p=0.0, q=0.0, l0=5.0, A0=1e-4)
TAUT = LinkageGeometry(a=1.0, c=1.0, p=0.0, q=0.0, l0=1.0, A0=1e-4)
KERNEL_CASES = {
    "mooney_rivlin": (GEOM, MR),
    "gaussian": (GEOM, gaussian_band()),
    "linear": (GEOM, LinearSpring(k=36.0, l0=GEOM.l0)),
    "linear_k0": (GEOM, LinearSpring(k=0.0, l0=GEOM.l0)),
    "slack": (SLACK, mooney_band(SLACK)),
    "pin": (pin_geometry(), mooney_band(pin_geometry())),
    "taut": (TAUT, LinearSpring(k=1.0, l0=1.0)),
}


@pytest.mark.parametrize("exact", (False, True))
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_leg_forces_array_equals_scalar_kernel(case, exact):
    """leg_forces_array returns the six leg-kernel columns of the scalar
    RHS, sliding[0.0](theta, 0.0)[4:10], to the bit on a 200,001-point grid
    over [1e-4, pi/2] and on random angles past both ends, where the arm
    and cos(theta) floors act (RK4 overshoot)."""
    geom, model = KERNEL_CASES[case]
    geom = replace(geom, exact_derivative=exact)
    rng = np.random.default_rng(5)
    theta = np.concatenate([np.linspace(1e-4, math.pi / 2, 200_001),
                            rng.uniform(-0.2, math.pi / 2 + 0.3, 20_000)])
    got = leg_forces_array(geom, model.tension, theta)
    derivatives = _LegDynamics(geom, model, nominal_masses()).sliding[0.0]
    want = np.array([derivatives(th, 0.0)[4:10] for th in theta.tolist()]).T
    for column, name in enumerate(("sin", "cos", "h", "lambda", "F_l", "F_y")):
        assert got[column].dtype == np.float64
        assert np.array_equal(got[column], want[column]), name


def test_array_kernel_cases_reach_every_branch():
    """The kernel cases above cover slack and taut bands, zero tension when
    taut, and the arm and cos(theta) floors under tension."""
    theta = np.linspace(1e-4, math.pi / 2, 2001)
    lam = leg_forces_array(GEOM, MR.tension, theta)[3]
    assert np.any(lam > 1.0) and np.any(lam <= 1.0)
    geom, model = KERNEL_CASES["linear_k0"]
    _, _, _, lam, f_l, _ = leg_forces_array(geom, model.tension, theta)
    assert np.any(lam > 1.0) and np.all(f_l == 0.0)
    geom, model = KERNEL_CASES["slack"]
    assert np.all(leg_forces_array(geom, model.tension, theta)[3] <= 1.0)
    pin = KERNEL_CASES["pin"][0]
    assert pin.a * math.cos(math.pi / 2) + pin.q < ARM_FLOOR
    past_stop = np.linspace(math.pi / 2, math.pi / 2 + 0.3, 100)
    taut = replace(TAUT, exact_derivative=True)
    _, co, _, lam, f_l, _ = leg_forces_array(taut, KERNEL_CASES["taut"][1].tension,
                                             past_stop)
    assert np.all(co < 1e-12) and np.all(lam > 1.0) and np.all(f_l > 0.0)

