"""Property tests over random valid designs near the reference build.

Hypothesis draws geometries, masses and band laws around the defaults; each
property must hold for every draw.  The draws are derandomised, so the
suite stays deterministic, and no example database is written.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarrusjump import (
    STICTION,
    SWEEPABLE_PARAMETERS,
    TAKE_OFF,
    GaussianBand,
    LinearSpring,
    MooneyRivlinBand,
    phase_portrait,
    sensitivity,
    simulate_jump,
    solve_takeoff,
    stiction_threshold,
    stored_energy,
    stretch,
)
from sarrusjump.dynamics import TRAJECTORY_CSV_HEADER, _LegDynamics
from sarrusjump.serialize import write_csv, write_json

from params import nominal_geometry, nominal_masses, sim_options


@st.composite
def designs(draw):
    """(geometry, band law, masses) near the defaults.  A heavy foot now and
    then keeps the leg grounded past the slack point, so the slack split and
    the hard stop are drawn as well as take-off.  mu_C is a share in
    [0, 1.1] of the draw's own stiction threshold at the squat, so most
    draws break free and a few stick at rest."""
    geom = nominal_geometry(
        a=draw(st.floats(0.060, 0.075)),
        c=draw(st.floats(0.050, 0.060)),
        p=draw(st.floats(0.0, 0.010)),
        q=draw(st.floats(0.0, 0.010)),
        l0=draw(st.floats(0.080, 0.090)),
    )
    shared = dict(l0=geom.l0, A0=geom.A0)
    law = draw(st.one_of(
        st.builds(LinearSpring, k=st.floats(20.0, 60.0), l0=st.just(geom.l0)),
        st.builds(GaussianBand, C0=st.floats(3e-3, 6e-3), T=st.floats(280.0, 310.0),
                  **{k: st.just(v) for k, v in shared.items()}),
        st.builds(MooneyRivlinBand, C1=st.floats(50e3, 90e3), C2=st.floats(50e3, 90e3),
                  **{k: st.just(v) for k, v in shared.items()}),
    ))
    masses = nominal_masses(
        m1=draw(st.one_of(st.floats(1e-3, 5e-3), st.floats(20.0, 60.0))),
        m5=draw(st.floats(10e-3, 20e-3)),
    )
    threshold = stiction_threshold(geom, law, masses, sim_options().theta0)
    return geom, law, replace(masses, mu_C=draw(st.floats(0.0, 1.1)) * threshold)


def rising_designs():
    """designs() kept where the net torque from rest at the squat,
    _LegDynamics.torque at theta0, is positive in both slope conventions:
    the band lifts the leg, so no draw starts by inverting the knee.
    designs() itself is left as it is, so its draws do not move."""
    theta0 = sim_options().theta0

    def lifts(design):
        geom, law, masses = design
        for exact in (False, True):
            dm = _LegDynamics(replace(geom, exact_derivative=exact), law, masses)
            _, _, _, _, _, co, _, _, _, f_y, _ = dm.derivatives(theta0, 0.0)
            if not dm.torque(co, f_y) > 0.0:
                return False
        return True

    return designs().filter(lifts)


def _outcome(design, record):
    """(summary JSON, terminal value of each column) of one run, or the
    error it raised.

    json.dumps makes NaN fields (runs without take-off) compare equal.
    """
    geom, law, masses = design
    try:
        traj, summary = simulate_jump(geom, law, masses,
                                      sim_options(step=1e-4, t_max=0.5), record=record)
    except ValueError as exc:  # both modes must raise the same error, if any
        return repr(exc), ()
    return (json.dumps(summary.to_dict(), sort_keys=True),
            [column[-1] for column in traj.columns()])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(designs())
def test_sparse_and_recorded_runs_agree(design):
    """record=False keeps only the end rows; it must not change the answer."""
    full_summary, full_row = _outcome(design, record=True)
    sparse_summary, sparse_row = _outcome(design, record=False)
    assert full_summary == sparse_summary
    assert np.array_equal(full_row, sparse_row, equal_nan=True)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(designs(), st.booleans())
def test_reruns_write_byte_identical_files(design, exact_derivative):
    """Two runs of one design, in either slope convention, write
    trajectory.csv and summary.json with the same bytes."""
    geom, law, masses = design
    geom = replace(geom, exact_derivative=exact_derivative)
    files = []
    for _ in range(2):
        traj, summary = simulate_jump(geom, law, masses, sim_options(step=1e-4, t_max=0.5))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            write_csv(out / "trajectory.csv", TRAJECTORY_CSV_HEADER, traj.columns())
            write_json(out / "summary.json", summary.to_dict())
            files.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert sorted(files[0]) == ["summary.json", "trajectory.csv"]
    assert files[0] == files[1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(designs())
def test_takeoff_summaries_hold_the_ballistic_identities(design):
    """h_max = v0^2 / (2 g) and t_aer = 2 v0 / g hold exactly in every
    take-off summary."""
    geom, law, masses = design
    _, summary = simulate_jump(geom, law, masses, sim_options(step=1e-4, t_max=0.5),
                               record=False)
    if summary.termination == TAKE_OFF:
        assert summary.h_max_m == summary.v0_mps ** 2 / (2 * masses.g)
        assert summary.t_aer_s == 2 * summary.v0_mps / masses.g


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(designs())
def test_energy_audit_residual_closes_at_fourth_order(design):
    """The audit residual, thrust work less the kinetic, gravity and
    friction terms, is the integrator's error: relative to the largest term
    it falls by at least 12x from step 1e-4 to 5e-5 (2^4 = 16 for RK4)
    wherever it exceeds roundoff, 1e-11, at step 1e-4.  Draws stuck at
    rest never move, so every term is 0; draws that stick after they move
    are checked."""
    geom, law, masses = design
    relative = []
    for step in (1e-4, 5e-5):
        traj, summary = simulate_jump(geom, law, masses,
                                      sim_options(step=step, t_max=0.5,
                                                  event_tolerance=1e-12),
                                      record=False)
        if len(traj) == 1:  # stuck at rest
            assert summary.termination == STICTION
            return
        audit = summary.audit
        largest = max(abs(audit.thrust_work_J), abs(audit.kinetic_J),
                      abs(audit.gravity_delta_J), abs(audit.friction_work_J))
        relative.append(abs(audit.residual_J) / largest)
    if relative[0] > 1e-11:
        assert relative[0] / relative[1] >= 12.0, relative


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rising_designs(), st.booleans())
def test_takeoff_solver_agrees_with_the_integrator(design, exact_derivative):
    """solve_takeoff reports the integrator's status for every draw, in both
    slope conventions; where both take off, v0 and t_off agree to 1e-9
    relative with RK4 at step 1e-5 and event tolerance 1e-12.  The draws
    lift the leg from rest, so most reach take-off or the pi/2 stop."""
    geom, law, masses = design
    geom = replace(geom, exact_derivative=exact_derivative)
    opts = sim_options(step=1e-5, event_tolerance=1e-12, t_max=0.5)
    try:
        _, summary = simulate_jump(geom, law, masses, opts, record=False)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            solve_takeoff(geom, law, masses, opts)
        return
    state = solve_takeoff(geom, law, masses, opts)
    assert state.termination == summary.termination
    if summary.termination == TAKE_OFF:
        assert state.v0_mps == pytest.approx(summary.v0_mps, rel=1e-9)
        assert state.t_off_s == pytest.approx(summary.t_off_s, rel=1e-9)


@st.composite
def releases(draw):
    """(geometry, band law, undamped masses, theta0): a draw of designs()
    released from rest anywhere between the squat and past the equilibrium
    centre, so that closed orbits from either side, the pi/2 stop and knee
    inversions are drawn as well as take-off.  designs() itself is left as
    it is, so the draws of the tests above do not move."""
    geom, law, masses = draw(designs())
    return geom, law, replace(masses, mu_C=0.0), draw(st.floats(0.066, 1.5))


SENSITIVITY_STATUSES = {"ok", "stiction", "kneeinversion", "contactlost",
                        "horizonexceeded", "invalid"}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(releases(), st.booleans(), st.sampled_from(SWEEPABLE_PARAMETERS))
def test_undamped_releases_get_the_integrators_status(release, exact_derivative,
                                                      parameter):
    """solve_takeoff reports the status of RK4 at step 1e-5 for undamped
    releases from anywhere in [0.066, 1.5], and a sweep of any parameter
    over proportions in [0, 1.5] never raises and marks each point with a
    documented status."""
    geom, law, masses, theta0 = release
    geom = replace(geom, exact_derivative=exact_derivative)
    opts = sim_options(step=1e-5, event_tolerance=1e-12, t_max=0.2, theta0=theta0)
    _, summary = simulate_jump(geom, law, masses, opts, record=False)
    state = solve_takeoff(geom, law, masses, opts)
    assert state.termination == summary.termination
    if summary.termination == TAKE_OFF:
        assert state.v0_mps == pytest.approx(summary.v0_mps, rel=1e-9)
    curve = sensitivity(geom, law, masses, parameter, np.linspace(0.0, 1.5, 4),
                        sim_options(step=1e-4, t_max=0.2, theta0=theta0))
    assert set(curve.status) <= SENSITIVITY_STATUSES
    assert len(curve.status) == len(curve.solver) == 4


PORTRAIT_STATUSES = {"closed", "open", "escaped", "damped", "failed"}
PORTRAIT_RELEASES = (float("nan"), -0.1, 0.066, 0.7, 1.35, 1.6)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(designs())
def test_portraits_mark_failures_and_never_raise(design):
    """phase_portrait returns one trajectory per release, a NaN release
    included, each with a documented status, for the drawn masses and
    undamped; undamped energy drifts by at most 1e-5 of the band energy
    stored at the squat."""
    geom, law, masses = design
    stored = stored_energy(law, stretch(geom, sim_options().theta0))
    for drawn in (masses, replace(masses, mu_C=0.0)):
        trajs = phase_portrait(geom, law, drawn, PORTRAIT_RELEASES, t_span=0.2)
        assert len(trajs) == len(PORTRAIT_RELEASES)
        assert {traj.status for traj in trajs} <= PORTRAIT_STATUSES
        assert trajs[0].status == "failed"
    for traj in trajs[1:]:  # the undamped portrait
        if traj.status != "failed":
            assert np.ptp(traj.energy) <= 1e-5 * stored
