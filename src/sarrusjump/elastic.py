"""Drive-force laws for the elastic band, stored energy, and coefficient fits.

Three interchangeable force-stretch laws are supported: an ideal linear
spring, a Gaussian (statistical, temperature-proportional) rubber law, and a
two-coefficient Mooney-Rivlin law.  Each writes its taut-branch force and
energy once, in tension(lam) and strain_energy(lam), without a branch, so
the same line takes a float or an ndarray; force(lam) and energy(lam) are
slack-clamped: the band exerts no force and stores no energy at or below its
rest length (stretch ratio lambda <= 1).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .geometry import finite, finite_fields

FORCE_STRETCH_HEADER = ("lambda", "force_N")


class _BandLaw:
    """The slack clamp shared by the band laws; tension and strain_energy
    are the taut branches."""

    def force(self, lam):
        return self.tension(lam) if lam > 1.0 else 0.0

    def energy(self, lam):
        """Stored energy at lam, a float or an ndarray; every strain_energy
        is 0 at lam = 1, so clamping lam there clamps the slack band."""
        return self.strain_energy(np.maximum(lam, 1.0))


@dataclass(frozen=True)
class LinearSpring(_BandLaw):
    """F = k (l - l0) for l > l0, else 0."""

    k: float   # stiffness [N/m]
    l0: float  # rest length [m]

    def __post_init__(self):
        finite_fields(self, positive=("l0",), non_negative=("k",))

    def tension(self, lam):
        return self.k * self.l0 * (lam - 1.0)

    def strain_energy(self, lam):
        d = lam - 1.0
        return 0.5 * self.k * self.l0 * self.l0 * d * d


@dataclass(frozen=True)
class GaussianBand(_BandLaw):
    """F = C0 T (lambda - lambda^-2) for lambda > 1, else 0.

    Isothermal: T is a fixed material temperature, never a state variable.
    A0 is carried for interface parity with the Mooney-Rivlin law; the
    Gaussian force is already per strip, not per unit area.
    """

    C0: float  # material constant [N/K]
    T: float   # temperature [K]
    l0: float  # rest length [m]
    A0: float  # cross-sectional area [m^2]

    def __post_init__(self):
        finite_fields(self, positive=("l0", "A0"), non_negative=("C0", "T"))

    def tension(self, lam):
        return self.C0 * self.T * (lam - 1.0 / (lam * lam))

    def strain_energy(self, lam):
        return self.C0 * self.T * self.l0 * (0.5 * lam * lam + 1.0 / lam - 1.5)


@dataclass(frozen=True)
class MooneyRivlinBand(_BandLaw):
    """F = A0 [2 C1 (lambda - lambda^-2) + 2 C2 (1 - lambda^-3)], slack-clamped."""

    C1: float  # [Pa]
    C2: float  # [Pa]
    l0: float  # rest length [m]
    A0: float  # cross-sectional area [m^2]

    def __post_init__(self):
        finite_fields(self, positive=("l0", "A0"), non_negative=("C1", "C2"))

    def tension(self, lam):
        inv2 = 1.0 / (lam * lam)
        return (2.0 * self.A0 * self.C1 * (lam - inv2)
                + 2.0 * self.A0 * self.C2 * (1.0 - inv2 / lam))

    def strain_energy(self, lam):
        d = lam - 1.0
        bracket = self.C1 * lam * (lam + 2.0) + 2.0 * self.C2 * lam + self.C2
        return self.A0 * self.l0 / (lam * lam) * d * d * bracket


ElasticModel = Union[LinearSpring, GaussianBand, MooneyRivlinBand]


@dataclass(frozen=True)
class ForceStretchSample:
    """One measured point of the band's force-stretch curve."""

    stretch: float  # lambda, dimensionless, >= 1
    force: float    # [N], >= 0

    def __post_init__(self):
        finite_fields(self, non_negative=("force",))
        if self.stretch < 1.0:
            raise ValueError(f"stretch must be >= 1, got {self.stretch!r}")


def drive_force(model: ElasticModel, lam: float) -> float:
    """Band tension at stretch ratio lam; exactly 0 when slack (lam <= 1)."""
    return model.force(finite("lam", lam, "positive"))


def stored_energy(model: ElasticModel, lam: float) -> float:
    """Elastic energy integral of drive_force from rest length to lam * l0.

    Zero for lam <= 1; continuous at lam = 1.
    """
    return float(model.energy(finite("lam", lam, "positive")))


@dataclass(frozen=True)
class MooneyFit:
    C1: float
    C2: float
    rmse: float
    r_squared: float
    model: MooneyRivlinBand


@dataclass(frozen=True)
class GaussianFit:
    C0: float
    rmse: float
    r_squared: float


def fit_mooney(
    data: Sequence[ForceStretchSample], A0: float, l0: float
) -> MooneyFit:
    """Least-squares Mooney-Rivlin coefficients from force-stretch samples.

    The force law is linear in (C1, C2), so the fit is an ordinary linear
    least-squares solve.  Requires at least 3 samples with at least two
    distinct stretch values above 1 (otherwise the design is rank deficient);
    the rank is the one lstsq reads from its own factorisation.
    """
    A0, l0 = finite("A0", A0, "positive"), finite("l0", l0, "positive")
    if len(data) < 3:
        raise ValueError(f"need at least 3 samples, got {len(data)}")
    lam = np.array([s.stretch for s in data], dtype=float)
    force = np.array([s.force for s in data], dtype=float)
    design = np.column_stack(
        [
            2.0 * A0 * (lam - lam**-2),
            2.0 * A0 * (1.0 - lam**-3),
        ]
    )
    coeffs, _, rank, _ = np.linalg.lstsq(design, force, rcond=None)
    if rank < 2:
        raise ValueError("rank-deficient design: need at least two distinct stretches > 1")
    c1, c2 = float(coeffs[0]), float(coeffs[1])
    predicted = design @ coeffs
    rmse, r2 = _fit_quality(force, predicted)
    return MooneyFit(c1, c2, rmse, r2, MooneyRivlinBand(c1, c2, l0, A0))


def fit_gaussian(data: Sequence[ForceStretchSample], T: float) -> GaussianFit:
    """One-parameter least-squares fit of C0 in F = C0 T (lambda - lambda^-2)."""
    T = finite("T", T, "positive")
    if len(data) < 1:
        raise ValueError("need at least 1 sample")
    lam = np.array([s.stretch for s in data], dtype=float)
    force = np.array([s.force for s in data], dtype=float)
    x = T * (lam - lam**-2)
    denom = float(x @ x)
    if denom <= 0.0:
        raise ValueError("all samples slack (stretch <= 1): C0 unidentifiable")
    c0 = float(x @ force) / denom
    rmse, r2 = _fit_quality(force, c0 * x)
    return GaussianFit(c0, rmse, r2)


def _fit_quality(observed: np.ndarray, predicted: np.ndarray) -> tuple[float, float]:
    """(rmse, R^2); R^2 is measured against the mean-force null model."""
    residual = observed - predicted
    rmse = float(np.sqrt(np.mean(residual**2)))
    ss_res = float(residual @ residual)
    centred = observed - observed.mean()
    ss_tot = float(centred @ centred)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return rmse, r2


def load_force_stretch_csv(path) -> list[ForceStretchSample]:
    """Read force-stretch samples from a two-column CSV (header lambda,force_N)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != FORCE_STRETCH_HEADER:
            raise ValueError(
                f"expected header {','.join(FORCE_STRETCH_HEADER)!r}, got {','.join(header)!r}"
            )
        samples = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"line {line_no}: expected 2 columns, got {len(row)}")
            try:
                samples.append(ForceStretchSample(*row))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
    return samples


def save_force_stretch_csv(path, samples: Iterable[ForceStretchSample]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FORCE_STRETCH_HEADER)
        for s in samples:
            writer.writerow([repr(s.stretch), repr(s.force)])
