"""Screw algebra and mobility of n-chain Sarrus mechanisms.

Proves, among others:
  - reciprocal product identities and screw classification
  - rank(joint system) + rank(reciprocal system) = 6 for every chain
  - analytic constraint triples annihilate their chain's joint screws and
    span the same space as the numeric nullspace path
  - constraint rank 5 and a single translation along e_C for n = 2..5,
    three leg angles, and 100 randomised azimuth sets
  - locking one knee joint raises the constraint rank to six
"""

import math

import numpy as np
import pytest

from sarrusjump import (
    SarrusMechanism,
    Screw,
    actuation_analysis,
    build_sarrus,
    chain_constraint_screws,
    chain_joint_screws,
    common_constraints,
    dof,
    intersection_direction,
    mobility_report,
    platform_constraint_system,
    platform_freedoms,
    reciprocal_product,
    subspace_angle,
)
from sarrusjump.screws import _cross

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

S1_AZIMUTHS = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]


def s1_mechanism(theta=0.8):
    return build_sarrus(3, S1_AZIMUTHS, a=1.0, theta=theta)


# ── screw primitives ──────────────────────────────────────────────────────

def test_reciprocal_product_of_two_couples_is_zero():
    assert reciprocal_product(Screw.couple(X), Screw.couple(X)) == 0.0
    assert reciprocal_product(Screw.couple(X), Screw.couple(Y)) == 0.0


def test_reciprocal_product_line_with_couple():
    line_x = Screw.revolute(X, np.zeros(3))
    assert reciprocal_product(line_x, Screw.couple(X)) == pytest.approx(1.0)
    assert reciprocal_product(Screw.couple(X), line_x) == pytest.approx(1.0)


def test_reciprocal_product_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s1 = Screw(rng.standard_normal(3), rng.standard_normal(3))
        s2 = Screw(rng.standard_normal(3), rng.standard_normal(3))
        assert reciprocal_product(s1, s2) == pytest.approx(
            reciprocal_product(s2, s1), rel=1e-12)


def test_cross_helper_equals_np_cross():
    """_cross does np.cross's products and differences, so it returns the
    same bits, signed zeros included, across 16 decades of magnitude."""
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-8, 8, size=(20_000, 2, 1))
    pairs = rng.standard_normal((20_000, 2, 3)) * scale
    units = [X, Y, Z, -X, np.zeros(3), np.array([0.0, -0.0, 1.0])]
    cases = [(a, b) for a in units for b in units] + [tuple(p) for p in pairs]
    for a, b in cases:
        got = _cross(a, b)
        assert np.array_equal(got, np.cross(a, b))
        assert got.tobytes() == np.cross(a, b).tobytes()


def test_screw_classification():
    line = Screw.revolute(Y, np.array([2.0, 0.0, 1.0]))
    assert line.is_line() and not line.is_couple()
    assert line.pitch == pytest.approx(0.0, abs=1e-15)
    couple = Screw.couple(Z)
    assert couple.is_couple() and not couple.is_line()
    with pytest.raises(ValueError):
        couple.pitch


def test_screw_array_round_trip():
    s = Screw(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert np.array_equal(Screw.from_array(s.as_array()).as_array(), s.as_array())
    assert np.linalg.norm(s.normalized().as_array()) == pytest.approx(1.0)


def test_intersection_direction():
    assert np.allclose(intersection_direction(X, Y), Z)
    with pytest.raises(ValueError):
        intersection_direction(X, X)
    e1 = np.array([math.sin(0.0), -math.cos(0.0), 0.0])
    az = 2 * math.pi / 3
    e2 = np.array([math.sin(az), -math.cos(az), 0.0])
    direction = intersection_direction(e1, e2)
    assert abs(abs(direction @ Z) - 1.0) < 1e-12  # vertical up to sign


# ── chains ────────────────────────────────────────────────────────────────

def test_joint_screw_at_origin_has_no_moment():
    mech = s1_mechanism()
    shifted = SarrusMechanism(
        mech.normals,
        tuple(np.zeros(3) for _ in range(3)),
        mech.r_B, mech.r_C, mech.e_C, strict=False)
    s = chain_joint_screws(shifted, 0)[0]
    assert np.allclose(s.s0, 0.0)


def test_chain_joint_screws_rank_three():
    mech = s1_mechanism()
    for i in range(3):
        assert chain_joint_screws(mech, i).rank() == 3


def test_degenerate_chain_rank_two():
    mech = s1_mechanism()
    degenerate = SarrusMechanism(mech.normals, mech.r_A, mech.r_A, mech.r_C,
                                 mech.e_C, strict=False)  # knee on the base joint
    assert chain_joint_screws(degenerate, 0).rank() == 2


def test_rank_sum_identity_per_chain():
    mech = s1_mechanism()
    for i in range(mech.n):
        joints = chain_joint_screws(mech, i)
        assert joints.rank() + joints.reciprocal().rank() == 6


def test_analytic_constraints_annihilate_joint_screws():
    for theta in (0.2, 0.8, 1.4):
        mech = s1_mechanism(theta)
        for i in range(mech.n):
            joints = [s.normalized() for s in chain_joint_screws(mech, i)]
            constraints = [s.normalized() for s in chain_constraint_screws(mech, i)]
            for c in constraints:
                for j in joints:
                    assert abs(reciprocal_product(c, j)) < 1e-12


def test_numeric_constraints_span_analytic_space():
    mech = s1_mechanism()
    for i in range(mech.n):
        analytic = chain_constraint_screws(mech, i, "analytic")
        numeric = chain_constraint_screws(mech, i, "numeric")
        assert analytic.rank() == 3 and numeric.rank() == 3
        assert subspace_angle(analytic, numeric) < 1e-10


def test_constraint_method_validated():
    with pytest.raises(ValueError):
        chain_constraint_screws(s1_mechanism(), 0, "symbolic")


# ── platform mobility ─────────────────────────────────────────────────────

def test_classical_two_chain_rank_five():
    mech = build_sarrus(2, [0.0, math.pi / 2], a=1.0, theta=0.8)
    assert platform_constraint_system(mech).rank() == 5
    assert dof(mech) == 1


def test_s1_rank_five_with_common_couple():
    mech = s1_mechanism()
    assert platform_constraint_system(mech).rank() == 5
    shared = common_constraints(mech)
    assert len(shared) == 1
    s = shared[0]
    assert s.is_couple()
    assert abs(abs(float(s.normalized().s0 @ mech.e_C)) - 1.0) < 1e-12


def test_parallel_planes_degenerate_rank():
    z = Z
    def chain(az):
        radial = np.array([math.cos(az), math.sin(az), 0.0])
        e = np.cross(radial, z)
        A = radial
        B = A + math.cos(0.8) * radial + math.sin(0.8) * z
        C = A + 2 * math.sin(0.8) * z
        return e, A, B, C
    e1, A1, B1, C1 = chain(0.0)
    e2, A2, B2, C2 = chain(math.pi)
    mech = SarrusMechanism((e1, e2), (A1, A2), (B1, B2), (C1, C2), z,
                           strict=False)
    rank = platform_constraint_system(mech).rank()
    assert rank < 5
    report = mobility_report(mech)
    assert report["degenerate"] is True


def test_platform_translation_along_common_axis():
    for n, azimuths in ((2, [0.0, math.pi / 2]),
                        (3, S1_AZIMUTHS),
                        (4, [i * math.pi / 2 for i in range(4)]),
                        (5, [i * 2 * math.pi / 5 for i in range(5)])):
        mech = build_sarrus(n, azimuths, a=1.0, theta=0.8)
        freedoms = platform_freedoms(mech)
        assert len(freedoms) == 1
        motion = freedoms[0].normalized()
        assert np.linalg.norm(motion.s) < 1e-12  # pure translation
        assert abs(abs(float(motion.s0 @ mech.e_C)) - 1.0) < 1e-12


def test_motion_screw_unchanged_across_configurations():
    screws = []
    for theta in (0.2, 0.8, 1.4):
        mech = build_sarrus(3, S1_AZIMUTHS, a=1.0, theta=theta)
        motion = platform_freedoms(mech)[0].normalized()
        screws.append(motion.as_array() * np.sign(motion.s0[2]))
    assert np.allclose(screws[0], screws[1], atol=1e-12)
    assert np.allclose(screws[0], screws[2], atol=1e-12)


def test_mobility_invariant_under_random_azimuths():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        while True:
            azimuths = rng.uniform(0.0, 2 * math.pi, n)
            distinct = any(abs(math.sin(azimuths[i] - azimuths[j])) > 1e-2
                           for i in range(n) for j in range(i + 1, n))
            if distinct:
                break
        theta = float(rng.choice([0.2, 0.8, 1.4]))
        mech = build_sarrus(n, azimuths.tolist(), a=1.0, theta=theta)
        constraints = platform_constraint_system(mech)
        assert constraints.rank() == 5
        freedoms = platform_freedoms(mech)
        assert len(freedoms) == 1
        motion = freedoms[0].normalized()
        assert np.linalg.norm(motion.s) < 1e-9
        assert abs(abs(float(motion.s0 @ mech.e_C)) - 1.0) < 1e-9


def test_span_matrix_width_equals_rank():
    """rank and span_matrix share one threshold."""
    system = platform_constraint_system(s1_mechanism())
    assert system.span_matrix().shape[1] == system.rank()


def test_rank_and_reciprocal_rank_sum_to_six():
    """rank(system) + rank(reciprocal) = 6 on the platform constraint union."""
    system = platform_constraint_system(s1_mechanism())
    assert system.rank() + len(system.reciprocal()) == 6


# ── actuation ─────────────────────────────────────────────────────────────

def test_locking_one_knee_immobilises_platform():
    verdict = actuation_analysis(s1_mechanism(), (0, "B"))
    assert verdict.baseline_rank == 5 and verdict.baseline_dof == 1
    assert verdict.constraint_rank == 6
    assert verdict.immobilized and not verdict.redundant


def test_no_locks_is_the_baseline():
    verdict = actuation_analysis(s1_mechanism(), [])
    assert verdict.constraint_rank == 5
    assert verdict.dof == 1
    assert not verdict.immobilized


def test_double_lock_flagged_redundant():
    verdict = actuation_analysis(s1_mechanism(), [(0, "B"), (1, "B")])
    assert verdict.constraint_rank == 6
    assert verdict.immobilized and verdict.redundant


def test_lock_validation():
    with pytest.raises(ValueError):
        actuation_analysis(s1_mechanism(), (7, "B"))
    with pytest.raises(ValueError):
        actuation_analysis(s1_mechanism(), (0, "D"))


# ── construction and reporting ────────────────────────────────────────────

def test_build_sarrus_validation():
    with pytest.raises(ValueError):
        build_sarrus(1, [0.0], a=1.0, theta=0.8)
    with pytest.raises(ValueError):
        build_sarrus(2, [0.0], a=1.0, theta=0.8)  # azimuth count
    with pytest.raises(ValueError):
        build_sarrus(2, [0.0, math.pi], a=1.0, theta=0.8)  # parallel planes
    with pytest.raises(ValueError):
        build_sarrus(2, [0.0, 1.0], a=-1.0, theta=0.8)
    with pytest.raises(ValueError):
        build_sarrus(2, [0.0, 1.0], a=1.0, theta=2.0)


def test_mechanism_invariants_enforced():
    mech = s1_mechanism()
    with pytest.raises(ValueError, match="plane"):
        SarrusMechanism(mech.normals, mech.r_A, mech.r_B,
                        tuple(r + mech.normals[i] for i, r in enumerate(mech.r_C)),
                        mech.e_C)
    with pytest.raises(ValueError, match="unit"):
        SarrusMechanism(tuple(2.0 * e for e in mech.normals), mech.r_A,
                        mech.r_B, mech.r_C, mech.e_C)
    # A chain plane whose normal is parallel to the translation axis is
    # rejected before any constraint can be formed.
    with pytest.raises(ValueError, match="e_C"):
        SarrusMechanism((Z, mech.normals[1], mech.normals[2]), mech.r_A,
                        mech.r_B, mech.r_C, mech.e_C)


def test_mobility_report_contents():
    report = mobility_report(s1_mechanism(), locks_list=[[(0, "B")]])
    assert report["n_chains"] == 3
    assert report["constraint_rank"] == 5
    assert report["dof"] == 1
    assert report["degenerate"] is False
    assert len(report["chains"]) == 3
    assert len(report["chains"][0]["joint_screws"]) == 3
    assert report["actuation"][0]["immobilized"] is True
