"""Drive-force laws, stored energy, slack behaviour, and coefficient fits.

Synthetic fitting data is generated from the force formulas written out
inline, so the fits are checked against an expression independent of the
library's own force path.
"""

import math

import numpy as np
import pytest

from sarrusjump import (
    ForceStretchSample,
    GaussianBand,
    LinearSpring,
    MooneyRivlinBand,
    drive_force,
    fit_gaussian,
    fit_mooney,
    load_force_stretch_csv,
    stored_energy,
)
from sarrusjump.elastic import save_force_stretch_csv

from params import gaussian_band, mooney_band, nominal_geometry

GEOM = nominal_geometry()
MR = mooney_band()
GAUSS = gaussian_band()
LINEAR = LinearSpring(k=37.0, l0=GEOM.l0)
ALL_MODELS = (LINEAR, GAUSS, MR)


def mooney_force(lam, c1=68.88e3, c2=73.61e3, a0=7.0e-6):
    return a0 * (2 * c1 * (lam - lam**-2) + 2 * c2 * (1 - lam**-3))


def gaussian_force(lam, c0=47.94e-4, temp=296.0):
    return c0 * temp * (lam - lam**-2)


# ── force law values ──────────────────────────────────────────────────────

def test_force_zero_at_rest_length():
    for model in ALL_MODELS:
        assert drive_force(model, 1.0) == 0.0


def test_force_zero_when_slack():
    for model in ALL_MODELS:
        for lam in (0.2, 0.7, 0.999999):
            assert drive_force(model, lam) == 0.0


def test_nonpositive_stretch_rejected():
    for model in ALL_MODELS:
        with pytest.raises(ValueError):
            drive_force(model, 0.0)
        with pytest.raises(ValueError):
            stored_energy(model, -1.0)
        with pytest.raises(ValueError):
            drive_force(model, math.nan)
        with pytest.raises(ValueError):
            stored_energy(model, math.nan)


def test_gaussian_force_at_double_length():
    assert drive_force(GAUSS, 2.0) == pytest.approx(2.4833, abs=1e-4)


def test_mooney_force_at_double_length():
    assert drive_force(MR, 2.0) == pytest.approx(2.5893, abs=1e-4)


def test_linear_force_is_k_delta_l():
    lam = 1.4
    assert drive_force(LINEAR, lam) == pytest.approx(37.0 * GEOM.l0 * 0.4, rel=1e-12)


# ── stored energy ─────────────────────────────────────────────────────────

def test_energy_zero_at_rest_length():
    for model in ALL_MODELS:
        assert stored_energy(model, 1.0) == 0.0
        assert stored_energy(model, 0.5) == 0.0


def test_mooney_energy_at_squat_stretch():
    # Band energy at the squat posture; the design figure is 0.17 J.
    assert stored_energy(MR, 2.1355) == pytest.approx(0.1676, abs=2e-4)


def test_mooney_energy_near_standing_stretch():
    assert stored_energy(MR, 1.12) == pytest.approx(3.27e-3, abs=1e-5)


def test_energy_continuous_at_rest_length():
    for model in ALL_MODELS:
        assert stored_energy(model, 1.0 + 1e-9) < 1e-12


def test_energy_derivative_reproduces_force():
    """d(stored energy)/dl equals the drive force to relative 1e-6 for all
    three laws over stretch 1.05 to 2.8 (central differences in l)."""
    eps_lam = 1e-6
    for model in ALL_MODELS:
        for lam in np.linspace(1.05, 2.8, 60):
            lam = float(lam)
            de = stored_energy(model, lam + eps_lam) - stored_energy(model, lam - eps_lam)
            dl = 2 * eps_lam * model.l0
            assert de / dl == pytest.approx(drive_force(model, lam), rel=1e-6)


def test_force_strictly_increasing_when_taut():
    lams = np.linspace(1.0 + 1e-9, 3.0, 400)
    for model in ALL_MODELS:
        forces = [drive_force(model, float(l)) for l in lams]
        assert all(f1 > f0 for f0, f1 in zip(forces, forces[1:])), type(model).__name__


# ── fitting ───────────────────────────────────────────────────────────────

def test_mooney_fit_recovers_coefficients():
    data = [ForceStretchSample(lam, mooney_force(lam)) for lam in (1.2, 1.6, 2.0, 2.4)]
    fit = fit_mooney(data, A0=GEOM.A0, l0=GEOM.l0)
    assert fit.C1 == pytest.approx(68.88e3, rel=1e-9)
    assert fit.C2 == pytest.approx(73.61e3, rel=1e-9)
    assert fit.rmse < 1e-9
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.model.l0 == GEOM.l0 and fit.model.A0 == GEOM.A0


def test_mooney_fit_on_noisy_grid():
    rng = np.random.default_rng(42)
    sigma = 0.03
    lams = np.linspace(1.05, 2.8, 30)
    data = [
        ForceStretchSample(float(lam), max(0.0, mooney_force(float(lam)) + sigma * rng.standard_normal()))
        for lam in lams
    ]
    fit = fit_mooney(data, A0=GEOM.A0, l0=GEOM.l0)
    assert 0.5 * sigma < fit.rmse < 1.5 * sigma
    assert fit.r_squared >= 0.99


def test_mooney_fit_factorises_once(factorisations):
    """The fit reads its rank from the lstsq solve, so one Mooney fit is
    one factorisation."""
    data = [ForceStretchSample(lam, mooney_force(lam)) for lam in (1.2, 1.6, 2.0, 2.4)]
    fit_mooney(data, A0=GEOM.A0, l0=GEOM.l0)
    assert factorisations == ["lstsq"]


def test_mooney_fit_rank_deficient_rejected():
    data = [ForceStretchSample(1.5, 1.0)] * 3
    with pytest.raises(ValueError, match="rank"):
        fit_mooney(data, A0=GEOM.A0, l0=GEOM.l0)


def test_mooney_fit_needs_three_samples():
    data = [ForceStretchSample(1.2, 0.5), ForceStretchSample(1.8, 1.5)]
    with pytest.raises(ValueError):
        fit_mooney(data, A0=GEOM.A0, l0=GEOM.l0)


def test_gaussian_fit_recovers_coefficient():
    data = [ForceStretchSample(lam, gaussian_force(lam)) for lam in (1.3, 1.9, 2.5)]
    fit = fit_gaussian(data, T=296.0)
    assert fit.C0 == pytest.approx(47.94e-4, rel=1e-9)


def test_gaussian_fit_single_sample_exact():
    fit = fit_gaussian([ForceStretchSample(2.0, 2.4833)], T=296.0)
    assert fit.C0 == pytest.approx(47.94e-4, rel=1e-4)


def test_gaussian_fit_noisy_rmse():
    rng = np.random.default_rng(7)
    sigma = 0.18
    lams = np.linspace(1.05, 2.8, 30)
    data = [
        ForceStretchSample(float(lam), max(0.0, gaussian_force(float(lam)) + sigma * rng.standard_normal()))
        for lam in lams
    ]
    fit = fit_gaussian(data, T=296.0)
    assert 0.5 * sigma < fit.rmse < 1.5 * sigma


def test_gaussian_fit_all_slack_rejected():
    with pytest.raises(ValueError, match="slack"):
        fit_gaussian([ForceStretchSample(1.0, 0.0), ForceStretchSample(1.0, 0.0)], T=296.0)


def test_sample_validation():
    with pytest.raises(ValueError):
        ForceStretchSample(0.9, 1.0)
    with pytest.raises(ValueError):
        ForceStretchSample(1.5, -0.1)


# ── CSV interface ─────────────────────────────────────────────────────────

def test_force_stretch_csv_round_trip(tmp_path):
    samples = [ForceStretchSample(lam, mooney_force(lam)) for lam in (1.1, 1.7, 2.3)]
    path = tmp_path / "band.csv"
    save_force_stretch_csv(path, samples)
    loaded = load_force_stretch_csv(path)
    assert len(loaded) == 3
    for orig, back in zip(samples, loaded):
        assert back.stretch == orig.stretch
        assert back.force == orig.force


def test_force_stretch_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("stretch,force\n1.2,0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_force_stretch_csv(path)
