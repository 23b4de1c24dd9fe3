"""Virtual-work thrust force of the linkage and thrust-profile generation.

The vertical thrust is the band tension scaled by the gradient of the anchor
separation with respect to linkage height, F_y = F_l |dl/dh|.  Reported
values are magnitudes; a slack band produces zero thrust.

leg_forces evaluates theta -> (h, lambda, F_l, F_y) for the scalar API and the
integrator; anchor_distance repeats its stretch line for speed.
leg_forces_array is its array twin for theta grids (thrust_profile and the
find_equilibria scan): the same arithmetic in the same order, with numpy in
place of math and np.maximum/np.where in place of the ifs, so it equals the
scalar kernel bit for bit.  Exact-equality tests hold the copies in step:
test_leg_forces_array_equals_scalar_kernel and
test_scalar_api_and_integrator_agree_exactly in tests/test_thrust.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elastic import ElasticModel
from .geometry import (
    ARM_FLOOR,
    SQRT3,
    LegAngleInterval,
    LinkageGeometry,
    _check_theta,
    anchor_distance,
    check_pose,
    effective_leg,
    height,
)


def leg_forces(geom: LinkageGeometry, tension, theta: float, exact: bool,
               slack_at: float = 1.0):
    """(sin, cos, h, lambda, F_l, F_y) at leg angle theta, unchecked.

    tension is a band law's tension method; the band is slack, F_l = 0,
    while lambda <= slack_at.  The anchor separation is the reduced
    l = c + sqrt(3) (a cos(theta) + q); see dl_dh for the slope convention
    selected by exact.
    """
    s = math.sin(theta)
    co = math.cos(theta)
    h = 2.0 * (geom.a * s + geom.p)
    u = geom.a * co + geom.q
    if u < ARM_FLOOR:  # an if, not max(): this runs in every RHS evaluation
        u = ARM_FLOOR
    lam = (geom.c + SQRT3 * u) / geom.l0
    f_l = tension(lam) if lam > slack_at else 0.0
    if f_l == 0.0:
        return s, co, h, lam, 0.0, 0.0
    if exact:
        slope = 0.5 * SQRT3 * s / max(co, 1e-12)
    else:
        slope = SQRT3 * h / (4.0 * u)
    return s, co, h, lam, f_l, f_l * slope


def leg_forces_array(geom: LinkageGeometry, model: ElasticModel,
                     theta: np.ndarray, exact: bool):
    """leg_forces over an array of leg angles: six arrays, each equal to
    the scalar kernel's column bit for bit."""
    s = np.sin(theta)
    co = np.cos(theta)
    h = 2.0 * (geom.a * s + geom.p)
    u = np.maximum(geom.a * co + geom.q, ARM_FLOOR)
    lam = (geom.c + SQRT3 * u) / geom.l0
    f_l = np.where(lam > 1.0, model.tension(lam), 0.0)
    if exact:
        slope = 0.5 * SQRT3 * s / np.maximum(co, 1e-12)
    else:
        slope = SQRT3 * h / (4.0 * u)
    return s, co, h, lam, f_l, np.where(f_l == 0.0, 0.0, f_l * slope)


def dl_dh(geom: LinkageGeometry, theta: float, exact: bool = False) -> float:
    """Magnitude of the anchor-separation gradient |dl/dh| at theta.

    Default convention: the effective anchor arm b is treated as locally
    constant while differentiating l with respect to h, giving
    sqrt(3) h / (2 sqrt(4 b^2 - h^2)) = sqrt(3) h / (4 (a cos(theta) + q)).
    This is exact for a single-pin knee (p = q = 0) and approximate
    otherwise.

    With exact=True the full chain rule through theta is used,
    (dl/dtheta)/(dh/dtheta) = (sqrt(3)/2) tan(theta), which accounts for the
    knee anchor offsets as well.
    """
    _check_theta(theta)
    return leg_forces(geom, lambda lam: 1.0, theta, exact, -math.inf)[5]  # F_l = 1


def thrust_force(
    geom: LinkageGeometry, model: ElasticModel, theta: float, exact: bool = False
) -> float:
    """Vertical thrust F_y = F_l |dl/dh| for the given drive law.

    Zero whenever the band is slack.  See dl_dh for the derivative
    convention selected by ``exact``.
    """
    check_pose(geom, theta)
    return leg_forces(geom, model.tension, theta, exact)[5]


def thrust_force_linear(geom: LinkageGeometry, k: float, theta: float) -> float:
    """Closed-form thrust for a constant-stiffness drive, F_l = k (l - l0).

    F_y = k h [2 sqrt(3) (c - l0) h^2 + 3 sqrt((4 b^2 - h^2) h^4)]
          / (4 sqrt((4 b^2 - h^2) h^4)),
    slack-clamped to zero when l < l0.  The paper's printed form, kept as
    an independent oracle for thrust_force; no computation path uses it.
    """
    if k < 0.0:
        raise ValueError(f"stiffness must be non-negative, got {k}")
    if anchor_distance(geom, theta) < geom.l0:
        return 0.0
    h = height(geom, theta)
    b = effective_leg(geom, theta)
    radicand = (4.0 * b * b - h * h) * h**4
    if radicand <= 0.0:
        raise ValueError(f"configuration at full extension (4 b^2 <= h^2) at theta={theta}")
    root = math.sqrt(radicand)
    return k * h * (2.0 * SQRT3 * (geom.c - geom.l0) * h * h + 3.0 * root) / (4.0 * root)


def peak_height(a: float, c: float, l0: float) -> float:
    """Linkage height of maximum thrust for the single-pin, equal-arm,
    linear-spring case (p = q = 0, b = a).

    h = 2 sqrt(a^2 - [a^4 (c - l0)^2 / 3]^(1/3)).  Requires c <= l0 and
    a > sqrt((c - l0)^2 / 3); otherwise the thrust has no interior peak
    before full extension.
    """
    if c > l0:
        raise ValueError("no interior thrust peak when c > l0 (force-inversion regime)")
    d2 = (c - l0) ** 2
    if a * a <= d2 / 3.0:
        raise ValueError("no thrust peak before full extension: a <= sqrt((c - l0)^2 / 3)")
    return 2.0 * math.sqrt(a * a - (a**4 * d2 / 3.0) ** (1.0 / 3.0))


def distension_height(a: float, c: float, l0: float) -> float:
    """Linkage height at which the band reaches its rest length (F_l = 0),
    for the single-pin, equal-arm case.

    h = 2 sqrt((3 a^2 - (c - l0)^2) / 3).  Requires l0 >= c (otherwise the
    band is taut at every height) and 3 a^2 >= (c - l0)^2 (otherwise the
    band never slackens before full extension).
    """
    if l0 < c:
        raise ValueError("band taut at all heights when l0 < c: no distension point")
    d2 = (c - l0) ** 2
    if 3.0 * a * a < d2:
        raise ValueError("band never slackens before full extension: 3 a^2 < (c - l0)^2")
    return 2.0 * math.sqrt((3.0 * a * a - d2) / 3.0)


@dataclass(frozen=True)
class ThrustProfile:
    """Sampled thrust curve over a leg-angle interval.

    Columns are parallel arrays; h_norm and Fy_norm are normalised to the
    profile maxima for plotting.
    """

    geometry: LinkageGeometry
    model: ElasticModel
    exact: bool
    theta: np.ndarray
    h: np.ndarray
    lam: np.ndarray
    F_l: np.ndarray
    F_y: np.ndarray
    h_norm: np.ndarray
    Fy_norm: np.ndarray

    CSV_HEADER = ("theta", "h", "lambda", "F_l", "F_y", "h_norm", "Fy_norm")

    def __len__(self):
        return len(self.theta)

    def rows(self):
        return zip(self.theta, self.h, self.lam, self.F_l, self.F_y,
                   self.h_norm, self.Fy_norm)


def thrust_profile(
    geom: LinkageGeometry,
    model: ElasticModel,
    interval: LegAngleInterval,
    n_samples: int,
    exact: bool = False,
) -> ThrustProfile:
    """Uniform theta sampling of (h, lambda, F_l, F_y) over the interval."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    check_pose(geom, interval.theta_min)  # h grows with theta
    theta = np.linspace(interval.theta_min, interval.theta_max, n_samples)
    _, _, h, lam, f_l, f_y = leg_forces_array(geom, model, theta, exact)
    h_max = h.max()
    fy_max = f_y.max()
    return ThrustProfile(
        geometry=geom,
        model=model,
        exact=exact,
        theta=theta,
        h=h,
        lam=lam,
        F_l=f_l,
        F_y=f_y,
        h_norm=h / h_max if h_max > 0 else np.zeros_like(h),
        Fy_norm=f_y / fy_max if fy_max > 0 else np.zeros_like(f_y),
    )
