"""Kinematic maps of one leg plane: frozen hand values, monotonicity, and
consistency between the algebraic forms of the anchor distance."""

import math

import numpy as np
import pytest

from sarrusjump import (
    LegAngleInterval,
    LinkageGeometry,
    anchor_distance,
    dl_dh,
    effective_leg,
    height,
    stretch,
)

from params import nominal_geometry, pin_geometry

GEOM = nominal_geometry()
SQRT3 = math.sqrt(3.0)


# ── construction and validation ──────────────────────────────────────────

def test_geometry_validation():
    with pytest.raises(ValueError):
        nominal_geometry(a=0.0)
    with pytest.raises(ValueError):
        nominal_geometry(l0=-1.0)
    with pytest.raises(ValueError):
        nominal_geometry(A0=0.0)
    with pytest.raises(ValueError):
        nominal_geometry(q=-1e-9)


def test_interval_validation():
    LegAngleInterval(0.0, math.pi / 2)
    with pytest.raises(ValueError):
        LegAngleInterval(0.5, 0.5)
    with pytest.raises(ValueError):
        LegAngleInterval(-0.1, 0.5)
    with pytest.raises(ValueError):
        LegAngleInterval(0.1, math.pi)


def test_theta_range_rejected():
    for fn in (height, effective_leg, anchor_distance, stretch):
        with pytest.raises(ValueError):
            fn(GEOM, -0.01)
        with pytest.raises(ValueError):
            fn(GEOM, math.pi / 2 + 0.01)


# ── frozen hand evaluations ───────────────────────────────────────────────

def test_height_values():
    assert height(GEOM, 0.0) == pytest.approx(0.014, abs=1e-15)  # 2p
    assert height(GEOM, 0.066) == pytest.approx(0.023000, abs=5e-6)
    assert height(GEOM, math.pi / 2) == pytest.approx(0.1504, abs=1e-12)  # 2a + 2p


def test_effective_leg_values():
    assert effective_leg(GEOM, 0.066) == pytest.approx(0.07395, abs=1e-5)
    assert effective_leg(GEOM, 0.0) == pytest.approx(0.073532, abs=1e-5)


def test_effective_leg_reduces_to_a_without_offsets():
    pin = pin_geometry()
    for theta in np.linspace(0.0, math.pi / 2, 17):
        assert effective_leg(pin, float(theta)) == pytest.approx(pin.a, rel=1e-15)


def test_anchor_distance_values():
    assert anchor_distance(GEOM, 0.066) == pytest.approx(0.18152, abs=1e-5)
    assert anchor_distance(GEOM, 1.3) == pytest.approx(0.0952, abs=1e-4)


def test_stretch_values():
    assert stretch(GEOM, 0.066) == pytest.approx(2.1355, abs=2e-4)
    assert stretch(GEOM, 1.3) == pytest.approx(1.12, abs=1e-3)


def test_stretch_is_one_when_anchor_at_rest_length():
    # Construct l0 equal to the anchor distance at a chosen angle.
    theta = 0.9
    l_at = anchor_distance(GEOM, theta)
    geom = nominal_geometry(l0=l_at)
    assert stretch(geom, theta) == pytest.approx(1.0, rel=1e-15)


def test_anchor_distance_undefined_at_zero_height():
    # p = 0 at theta = 0 collapses the linkage to h = 0.
    with pytest.raises(ValueError, match="height"):
        anchor_distance(pin_geometry(), 0.0)


def test_anchor_distance_at_full_extension_equals_c():
    # p = q = 0 at pi/2 gives h = 2b; a cos(pi/2) is not exactly 0 and the
    # arm a cos + q is floored at 1e-12, hence the 1e-8 tolerance.
    pin = pin_geometry()
    assert anchor_distance(pin, math.pi / 2) == pytest.approx(pin.c, abs=1e-8)


# ── grid invariants ───────────────────────────────────────────────────────

def test_monotonicity_on_grid():
    thetas = np.linspace(0.0, math.pi / 2, 1000)
    h = np.array([height(GEOM, float(t)) for t in thetas])
    ell = np.array([anchor_distance(GEOM, float(t)) for t in thetas])
    assert np.all(np.diff(h) > 0), "h must increase strictly with theta"
    assert np.all(np.diff(ell) < 0), "l must decrease strictly with theta"


def test_anchor_distance_algebraic_forms_agree():
    """The printed sixth-order radicand, its (sqrt(3)/2) sqrt(4 b^2 - h^2)
    simplification, and the fully reduced c + sqrt(3) (a cos + q) form that
    anchor_distance evaluates all agree to 1e-12 relative."""
    thetas = np.linspace(1e-4, math.pi / 2, 1000)
    for theta in thetas:
        theta = float(theta)
        h = height(GEOM, theta)
        b = effective_leg(GEOM, theta)
        h2 = h * h
        printed = GEOM.c + math.sqrt(12.0 * b * b * h2 * h2 - 3.0 * h2 * h2 * h2) / (2.0 * h2)
        simplified = GEOM.c + 0.5 * SQRT3 * math.sqrt(4.0 * b * b - h * h)
        reduced = anchor_distance(GEOM, theta)
        assert printed == pytest.approx(simplified, rel=1e-12)
        assert printed == pytest.approx(reduced, rel=1e-12)


def test_finite_difference_gradient_matches_exact_derivative():
    """Central differences of l against h reproduce the chain-rule gradient
    used by the thrust computation (relative 1e-6, away from endpoints)."""
    eps = 1e-7
    exact = nominal_geometry(exact_derivative=True)
    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 200):
        theta = float(theta)
        dl = anchor_distance(GEOM, theta + eps) - anchor_distance(GEOM, theta - eps)
        dh = height(GEOM, theta + eps) - height(GEOM, theta - eps)
        assert abs(dl / dh) == pytest.approx(dl_dh(exact, theta), rel=1e-6)


def test_fixed_arm_gradient_matches_exact_for_pin_knee():
    pin = pin_geometry()
    exact = nominal_geometry(p=0.0, q=0.0, exact_derivative=True)
    for theta in np.linspace(0.05, 1.4, 50):
        theta = float(theta)
        assert dl_dh(pin, theta) == pytest.approx(dl_dh(exact, theta), rel=1e-12)
