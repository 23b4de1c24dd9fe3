"""Kinematics of one leg plane of a three-dyad Sarrus jumping linkage.

Angles are radians, lengths metres.  The leg angle ``theta`` is the swing
angle of the lower leg segment: 0 at the fully folded (squat) configuration,
pi/2 at full extension.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields

# Knee-to-knee chord factor for dyad planes spaced 120 degrees apart (band
# aperture 60 degrees).  A different plane spacing would change this constant.
SQRT3 = math.sqrt(3.0)

_EPS = 1e-9

# a cos(theta) + q > 0 on [0, pi/2); the floor only keeps the anchor
# separation positive past the hard stop (RK4 substage overshoot).
ARM_FLOOR = 1e-12


def finite(name: str, value, sign: str = "") -> float:
    """value as a finite float; booleans and non-numbers are rejected, and
    sign "positive" or "non-negative" bounds it below by zero."""
    number = math.nan
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError):
            number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if sign and (number < 0.0 or (number == 0.0 and sign == "positive")):
        raise ValueError(f"{name} must be {sign}, got {number!r}")
    return number


def finite_fields(obj, positive=(), non_negative=(), flags=()) -> None:
    """Store each field of the frozen dataclass obj as finite(name, value),
    signed as the positive and non_negative name lists say; a field in
    flags must be True or False instead."""
    for field in fields(obj):
        name = field.name
        value = getattr(obj, name)
        if name in flags:
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, got {value!r}")
            continue
        sign = ("positive" if name in positive
                else "non-negative" if name in non_negative else "")
        object.__setattr__(obj, name, finite(name, value, sign))


@dataclass(frozen=True)
class LinkageGeometry:
    """Constant lengths of one leg plane plus the drive-band cross section.

    a   leg segment length [m]
    c   knee-to-knee anchor separation at full extension [m]
    p   knee anchor offset along the height axis [m]
    q   knee anchor offset across the height axis [m]
    l0  undistorted band length [m]
    A0  band cross-sectional area [m^2]
    """

    a: float
    c: float
    p: float
    q: float
    l0: float
    A0: float
    exact_derivative: bool = False  # thrust-slope convention; see thrust.dl_dh

    def __post_init__(self):
        finite_fields(self, positive=("a", "l0", "A0"), non_negative=("c", "p", "q"),
                      flags=("exact_derivative",))


@dataclass(frozen=True)
class LegAngleInterval:
    """Operating range of the leg angle, a subinterval of [0, pi/2]."""

    theta_min: float
    theta_max: float

    def __post_init__(self):
        finite_fields(self)
        if not (0.0 <= self.theta_min < self.theta_max <= math.pi / 2 + _EPS):
            raise ValueError(
                "need 0 <= theta_min < theta_max <= pi/2, got "
                f"[{self.theta_min}, {self.theta_max}]"
            )


def _check_theta(theta: float) -> None:
    if not (-_EPS <= theta <= math.pi / 2 + _EPS):
        raise ValueError(f"leg angle {theta} outside [0, pi/2]")


def height(geom: LinkageGeometry, theta: float) -> float:
    """Linkage height h = 2 (a sin(theta) + p).  Strictly increasing in theta."""
    _check_theta(theta)
    return 2.0 * (geom.a * math.sin(theta) + geom.p)


def check_pose(geom: LinkageGeometry, theta: float) -> None:
    """Raise unless theta lies in [0, pi/2] with a positive linkage height."""
    if height(geom, theta) <= 0.0:
        raise ValueError("anchor distance undefined at zero linkage height (h <= 0)")


def effective_leg(geom: LinkageGeometry, theta: float) -> float:
    """Distance b from the leg root joint to the band anchor at the knee.

    b^2 = a^2 + p^2 + q^2 + 2 a (p sin(theta) + q cos(theta)).
    """
    _check_theta(theta)
    b2 = (
        geom.a * geom.a
        + geom.p * geom.p
        + geom.q * geom.q
        + 2.0 * geom.a * (geom.p * math.sin(theta) + geom.q * math.cos(theta))
    )
    return math.sqrt(b2)


def anchor_distance(geom: LinkageGeometry, theta: float) -> float:
    """Band anchor separation l between the knees of adjacent legs.

    The printed form c + sqrt(12 b^2 h^4 - 3 h^6) / (2 h^2) equals
    c + (sqrt(3)/2) sqrt(4 b^2 - h^2), and 4 b^2 - h^2 = 4 (a cos(theta) + q)^2,
    so l = c + sqrt(3) (a cos(theta) + q) exactly, evaluated as in the leg
    kernel of _LegDynamics.derivatives and thrust.leg_forces_array.  Raises
    when h <= 0, where the printed form is undefined.
    """
    check_pose(geom, theta)
    return geom.c + SQRT3 * max(geom.a * math.cos(theta) + geom.q, ARM_FLOOR)


def stretch(geom: LinkageGeometry, theta: float) -> float:
    """Band stretch ratio lambda = l / l0."""
    return anchor_distance(geom, theta) / geom.l0
