"""Screw algebra and mobility of n-chain Sarrus mechanisms.

Screws are 6-vectors and screw systems (k, 6) arrays.  Proves, among
others:
  - reciprocal product identities
  - rank(joint system) + rank(reciprocal system) = 6 for every chain
  - analytic constraint triples annihilate their chain's joint screws and
    span the same space as the numeric nullspace path
  - constraint rank 5 and a single translation along e_C for n = 2..5,
    three leg angles, and 100 randomised azimuth sets
  - locking one knee joint raises the constraint rank to six, and every
    single lock gives the rank of the numeric nullspace path
"""

import math
import re

import numpy as np
import pytest

from sarrusjump import (
    SarrusMechanism,
    actuation_analysis,
    build_sarrus,
    chain_constraint_screws,
    chain_joint_screws,
    common_constraints,
    dof,
    mobility_report,
    platform_constraint_system,
    platform_freedoms,
    reciprocal_product,
    subspace_angle,
)
from sarrusjump.screws import (
    _TOL,
    _constraint_stack,
    _cross,
    _span,
    couple,
    line,
    rank,
    reciprocal,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

S1_AZIMUTHS = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
LEG_ANGLES = (0.2, 0.8, 1.4)


def s1_mechanism(theta=0.8):
    return build_sarrus(3, S1_AZIMUTHS, a=1.0, theta=theta)


def unit(screw):
    return screw / np.linalg.norm(screw)


# ── screw primitives ──────────────────────────────────────────────────────

def test_reciprocal_product_of_two_couples_is_zero():
    assert reciprocal_product(couple(X), couple(X)) == 0.0
    assert reciprocal_product(couple(X), couple(Y)) == 0.0


def test_reciprocal_product_line_with_couple():
    line_x = line(X, np.zeros(3))
    assert reciprocal_product(line_x, couple(X)) == pytest.approx(1.0)
    assert reciprocal_product(couple(X), line_x) == pytest.approx(1.0)


def test_reciprocal_product_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s1 = np.concatenate([rng.standard_normal(3), rng.standard_normal(3)])
        s2 = np.concatenate([rng.standard_normal(3), rng.standard_normal(3)])
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


# ── chains ────────────────────────────────────────────────────────────────

def test_joint_screw_at_origin_has_no_moment():
    mech = s1_mechanism()
    shifted = SarrusMechanism(
        mech.normals,
        tuple(np.zeros(3) for _ in range(3)),
        mech.r_B, mech.r_C, mech.e_C, strict=False)
    s = chain_joint_screws(shifted, 0)[0]
    assert np.allclose(s[3:], 0.0)


def test_chain_joint_screws_rank_three():
    mech = s1_mechanism()
    for i in range(3):
        assert rank(chain_joint_screws(mech, i)) == 3


def test_degenerate_chain_rank_two():
    mech = s1_mechanism()
    degenerate = SarrusMechanism(mech.normals, mech.r_A, mech.r_A, mech.r_C,
                                 mech.e_C, strict=False)  # knee on the base joint
    assert rank(chain_joint_screws(degenerate, 0)) == 2


def test_rank_sum_identity_per_chain():
    mech = s1_mechanism()
    for i in range(mech.n):
        joints = chain_joint_screws(mech, i)
        assert rank(joints) + rank(reciprocal(joints)) == 6


def test_analytic_constraints_annihilate_joint_screws():
    for theta in LEG_ANGLES:
        mech = s1_mechanism(theta)
        for i in range(mech.n):
            joints = [unit(s) for s in chain_joint_screws(mech, i)]
            constraints = [unit(s) for s in chain_constraint_screws(mech, i)]
            for c in constraints:
                for j in joints:
                    assert abs(reciprocal_product(c, j)) < 1e-12


def test_numeric_constraints_span_analytic_space():
    mech = s1_mechanism()
    for i in range(mech.n):
        analytic = chain_constraint_screws(mech, i)
        numeric = reciprocal(chain_joint_screws(mech, i))
        assert rank(analytic) == 3 and rank(numeric) == 3
        assert subspace_angle(analytic, numeric) < 1e-10


# ── platform mobility ─────────────────────────────────────────────────────

def test_classical_two_chain_rank_five():
    mech = build_sarrus(2, [0.0, math.pi / 2], a=1.0, theta=0.8)
    assert rank(platform_constraint_system(mech)) == 5
    assert dof(mech) == 1


def test_s1_rank_five_with_common_couple():
    mech = s1_mechanism()
    assert rank(platform_constraint_system(mech)) == 5
    shared = common_constraints(mech)
    assert len(shared) == 1
    s = shared[0]
    assert np.linalg.norm(s[:3]) <= 1e-9 < np.linalg.norm(s[3:])  # a couple
    assert abs(abs(float(unit(s)[3:] @ mech.e_C)) - 1.0) < 1e-12


def per_pair_common(stack):
    """Reference for common_constraints: the rows of chain 0's triple that
    are parallel to a row of every other chain's triple, one matrix_rank of
    each stacked pair of unit screws at a time."""
    def normalised(row):
        norm = np.linalg.norm(row)
        if norm == 0.0:
            raise ValueError("cannot normalise the zero screw")
        return row / norm

    def parallel(x, y):
        return int(np.linalg.matrix_rank(np.vstack([x, y]), tol=_TOL)) == 1

    units = [[normalised(row) for row in triple] for triple in stack]
    shared = [all(any(parallel(cand, other) for other in triple) for triple in units[1:])
              for cand in units[0]]
    return stack[0][shared]


def vertical_chains(azimuths, theta=0.8, normal=None):
    """strict=False mechanism of chains standing at the given azimuths,
    which may repeat or oppose each other; normal replaces chain 0's
    plane normal when given."""
    normals, r_a, r_b, r_c = [], [], [], []
    for az in azimuths:
        radial = np.array([math.cos(az), math.sin(az), 0.0])
        normals.append(np.cross(radial, Z))
        r_a.append(radial)
        r_b.append(radial + math.cos(theta) * radial + math.sin(theta) * Z)
        r_c.append(radial + 2 * math.sin(theta) * Z)
    if normal is not None:
        normals[0] = normal
    return SarrusMechanism(tuple(normals), tuple(r_a), tuple(r_b), tuple(r_c), Z,
                           strict=False)


def test_common_constraints_match_the_per_pair_reference():
    """The batched parallelism test keeps every row the per-pair
    matrix_rank test keeps: on random Sarrus mechanisms, on random
    unconstrained chain sets, and on chain planes that repeat, oppose or
    nearly repeat each other across the _TOL threshold."""
    rng = np.random.default_rng(18)
    mechanisms = []
    for _ in range(60):
        n = int(rng.integers(2, 7))
        mechanisms.append(build_sarrus(n, rng.uniform(0.0, 2 * math.pi, n).tolist(),
                                       a=float(rng.uniform(0.2, 2.0)),
                                       theta=float(rng.uniform(0.05, 1.5))))
    for _ in range(30):
        n = int(rng.integers(1, 5))
        e_c = unit(rng.standard_normal(3))
        normals = [unit(v) for v in rng.standard_normal((n, 3))]
        points = [tuple(rng.standard_normal((n, 3))) for _ in range(3)]
        mechanisms.append(SarrusMechanism(tuple(normals), *points, e_c, strict=False))
    for azimuths in ([0.0, 0.0], [0.0, math.pi], [0.0, 0.0, math.pi],
                     [0.3, 0.3 + math.pi, 1.0], [1.0] * 4, [0.0, math.pi, 0.0, math.pi]):
        mechanisms.append(vertical_chains(azimuths))
    for delta in (1e-6, 1e-8, 1e-9, 2e-9, 5e-10, 1e-10, 1e-12):
        mechanisms.append(vertical_chains([0.0, delta]))
        mechanisms.append(vertical_chains([0.7, 0.7 + delta, 0.7 + math.pi - delta]))
    kept = 0
    for mech in mechanisms:
        want = per_pair_common(_constraint_stack(mech))
        got = common_constraints(mech)
        assert np.array_equal(got, want), (mech.normals, got, want)
        kept += len(want)
    assert kept > len(mechanisms)  # the common couple, and more where planes repeat


def test_common_constraints_reject_the_zero_screw():
    """A chain plane whose normal is parallel to e_C has a zero couple
    about e_C x e_i; neither test can normalise it."""
    mech = vertical_chains(S1_AZIMUTHS, normal=Z)
    with pytest.raises(ValueError, match="cannot normalise the zero screw"):
        per_pair_common(_constraint_stack(mech))
    with pytest.raises(ValueError, match="cannot normalise the zero screw"):
        common_constraints(mech)


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
    assert rank(platform_constraint_system(mech)) < 5
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
        motion = unit(freedoms[0])
        assert np.linalg.norm(motion[:3]) < 1e-12  # pure translation
        assert abs(abs(float(motion[3:] @ mech.e_C)) - 1.0) < 1e-12


def test_motion_screw_unchanged_across_configurations():
    screws = []
    for theta in LEG_ANGLES:
        mech = build_sarrus(3, S1_AZIMUTHS, a=1.0, theta=theta)
        motion = unit(platform_freedoms(mech)[0])
        screws.append(motion * np.sign(motion[5]))
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
        theta = float(rng.choice(LEG_ANGLES))
        mech = build_sarrus(n, azimuths.tolist(), a=1.0, theta=theta)
        constraints = platform_constraint_system(mech)
        assert rank(constraints) == 5
        freedoms = platform_freedoms(mech)
        assert len(freedoms) == 1
        motion = unit(freedoms[0])
        assert np.linalg.norm(motion[:3]) < 1e-9
        assert abs(abs(float(motion[3:] @ mech.e_C)) - 1.0) < 1e-9


def test_span_matrix_width_equals_rank():
    """rank and the span basis share one threshold."""
    system = platform_constraint_system(s1_mechanism())
    assert _span(system).shape[1] == rank(system)


def test_rank_and_reciprocal_rank_sum_to_six():
    """rank(system) + rank(reciprocal) = 6 on the platform constraint union
    and on the empty system, whose reciprocal is every screw."""
    system = platform_constraint_system(s1_mechanism())
    assert rank(system) + len(reciprocal(system)) == 6
    empty = np.zeros((0, 6))
    assert rank(empty) == 0
    assert np.array_equal(reciprocal(empty), np.eye(6))


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
    # Chain indices are integers: no float, bool or string is truncated or
    # parsed into one.
    for lock in ((0.9, "B"), (True, "B"), ("2", "C")):
        with pytest.raises(ValueError, match=re.escape(f"lock {lock!r}")):
            actuation_analysis(s1_mechanism(), lock)
        with pytest.raises(ValueError, match=re.escape(f"lock {lock!r}")):
            actuation_analysis(s1_mechanism(), [(1, "A"), lock])
    assert actuation_analysis(s1_mechanism(), (np.int64(2), "c")).locks == ((2, "C"),)


def test_locked_rank_matches_the_numeric_nullspace():
    """Every single lock of n = 2..8 chains at three leg angles gives the
    rank of the union of each chain's numeric reciprocal, the locked
    joint's screw removed; actuation_analysis uses the closed-form triple
    for the unlocked chains."""
    for n in range(2, 9):
        azimuths = [2 * math.pi * (j + 0.25 * math.sin(3.0 * j + 1.0)) / n
                    for j in range(n)]
        for theta in LEG_ANGLES:
            mech = build_sarrus(n, azimuths, a=1.0, theta=theta)
            for chain in range(n):
                for k, joint in enumerate("ABC"):
                    union = np.vstack([
                        reciprocal(np.delete(chain_joint_screws(mech, i),
                                             [k] if i == chain else [], axis=0))
                        for i in range(n)])
                    verdict = actuation_analysis(mech, (chain, joint))
                    assert verdict.constraint_rank == rank(union), (n, theta, chain, joint)


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


def test_build_sarrus_axis_is_the_plane_intersection():
    """e_C is the unit intersection direction of the chain planes, turned
    to point up: vertical for chain planes standing on the base."""
    for n, azimuths in ((2, [0.0, math.pi / 2]), (3, S1_AZIMUTHS),
                        (2, [0.0, 2 * math.pi / 3]), (4, [2.0, 0.3, 5.0, 1.0])):
        mech = build_sarrus(n, azimuths, a=1.0, theta=0.8)
        cross = np.cross(mech.normals[0], mech.normals[1])
        assert np.allclose(mech.e_C, cross / np.linalg.norm(cross) * np.sign(cross[2]))
        assert abs(float(mech.e_C @ Z) - 1.0) < 1e-12


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


@pytest.mark.parametrize("n, locks_list, count", [
    (3, [[(0, "B")]], 4),
    (3, None, 2),
    (5, [[(0, "B"), (1, "B")]], 7),
])
def test_mobility_report_factorisation_count(n, locks_list, count, factorisations):
    """A report factorises the constraint union once (reciprocal, whose
    nullspace width also gives the rank) and every common-constraint pair
    in one batched SVD; each lock set adds the SVDs of its locked chains'
    free joints and of its locked union, and a redundancy check those of
    the subsets it tries."""
    mech = build_sarrus(n, [2 * math.pi * j / n for j in range(n)], a=1.0, theta=0.8)
    mobility_report(mech, locks_list=locks_list)
    assert len(factorisations) == count, factorisations


def test_mobility_report_contents():
    report = mobility_report(s1_mechanism(), locks_list=[[(0, "B")]])
    assert report["n_chains"] == 3
    assert report["constraint_rank"] == 5
    assert report["dof"] == 1
    assert report["degenerate"] is False
    assert len(report["chains"]) == 3
    assert len(report["chains"][0]["joint_screws"]) == 3
    assert report["actuation"][0]["immobilized"] is True
