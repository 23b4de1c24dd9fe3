"""Plücker screws, reciprocal systems, and mobility of n-chain Sarrus
mechanisms.

A screw is a six-component object [S; S0]: S is the axis direction (and
magnitude), S0 the moment part r x S + pitch * S.  A zero-pitch screw with
S != 0 is a line (a revolute joint axis or a pure force); a screw with
S = 0 is a couple (a pure torque or, read as a twist, a pure translation).
The reciprocal product S1 . S0_2 + S2 . S0_1 is the instantaneous work of a
wrench on a twist; reciprocal pairs produce none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import finite

# Block-swap pairing: reciprocal_product(x, y) = x . (_PAIRING @ y).
_PAIRING = np.zeros((6, 6))
_PAIRING[:3, 3:] = np.eye(3)
_PAIRING[3:, :3] = np.eye(3)

_TOL = 1e-9


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of two float 3-vectors: np.cross's products and differences,
    hence its result to the bit, without its general-shape overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


@dataclass(frozen=True)
class Screw:
    """Six-component screw in Plücker coordinates, stored as (s, s0)."""

    s: np.ndarray
    s0: np.ndarray

    def __post_init__(self):
        for name in ("s", "s0"):
            vec = np.array(getattr(self, name), dtype=float).reshape(3)
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)

    @classmethod
    def revolute(cls, axis, point) -> "Screw":
        """Zero-pitch line screw of a revolute joint: [e; r x e]."""
        axis = np.asarray(axis, dtype=float)
        point = np.asarray(point, dtype=float)
        return cls(axis, _cross(point, axis))

    @classmethod
    def couple(cls, direction) -> "Screw":
        """Pure couple [0; e]; as a twist this is a translation along e."""
        return cls(np.zeros(3), direction)

    @classmethod
    def from_array(cls, array) -> "Screw":
        array = np.asarray(array, dtype=float).reshape(6)
        return cls(array[:3], array[3:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.s, self.s0])

    @property
    def pitch(self) -> float:
        ss = float(self.s @ self.s)
        if ss == 0.0:
            raise ValueError("pitch undefined for a couple (S = 0)")
        return float(self.s @ self.s0) / ss

    def is_line(self, tol: float = _TOL) -> bool:
        norm = np.linalg.norm(self.s)
        return norm > tol and abs(float(self.s @ self.s0)) <= tol * max(
            1.0, norm * np.linalg.norm(self.s0))

    def is_couple(self, tol: float = _TOL) -> bool:
        return np.linalg.norm(self.s) <= tol and np.linalg.norm(self.s0) > tol

    def normalized(self) -> "Screw":
        norm = np.linalg.norm(self.as_array())
        if norm == 0.0:
            raise ValueError("cannot normalise the zero screw")
        return Screw(self.s / norm, self.s0 / norm)


def reciprocal_product(s1: Screw, s2: Screw) -> float:
    """S1 . S0_2 + S2 . S0_1; symmetric; zero for reciprocal pairs."""
    return float(s1.s @ s2.s0 + s2.s @ s1.s0)


class ScrewSystem:
    """Ordered screw collection with numeric rank and reciprocal operations."""

    def __init__(self, screws: Iterable[Screw]):
        self.screws = tuple(screws)

    def __len__(self):
        return len(self.screws)

    def __iter__(self):
        return iter(self.screws)

    def __getitem__(self, index):
        return self.screws[index]

    def matrix(self) -> np.ndarray:
        """(n, 6) stack of the screws' Plücker coordinates."""
        if not self.screws:
            return np.zeros((0, 6))
        return np.vstack([s.as_array() for s in self.screws])

    def rank(self) -> int:
        """Numeric rank by singular values."""
        m = self.matrix()
        if m.size == 0:
            return 0
        return _svd_rank(np.linalg.svd(m, compute_uv=False), m.shape)

    def reciprocal(self) -> "ScrewSystem":
        """All screws reciprocal to every screw here.

        Solved as the nullspace of M @ P with P the block-swap pairing, so
        rank(self) + rank(reciprocal) = 6 by construction.
        """
        m = self.matrix()
        if m.size == 0:
            return ScrewSystem([Screw.from_array(row) for row in np.eye(6)])
        a = m @ _PAIRING
        _, sigma, vh = np.linalg.svd(a)
        rank = _svd_rank(sigma, a.shape)
        return ScrewSystem([Screw.from_array(row) for row in vh[rank:]])

    def span_matrix(self) -> np.ndarray:
        """Orthonormal basis (columns) of the screws' span."""
        m = self.matrix()
        if m.size == 0:
            return np.zeros((6, 0))
        _, sigma, vh = np.linalg.svd(m)
        return vh[:_svd_rank(sigma, m.shape)].T


def _svd_rank(sigma: np.ndarray, shape: tuple) -> int:
    """Count of sigma > max(shape) * eps * sigma_max, the numeric rank that
    rank, reciprocal and span_matrix share."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > max(shape) * np.finfo(float).eps * sigma[0]))


def subspace_angle(system_a: ScrewSystem, system_b: ScrewSystem) -> float:
    """Largest principal angle (radians) between two screw-system spans.

    Measured through the projection residual, which stays resolvable for
    tiny angles where cosines saturate at 1.
    """
    qa = system_a.span_matrix()
    qb = system_b.span_matrix()
    if qa.shape[1] != qb.shape[1]:
        return math.pi / 2
    if qa.shape[1] == 0:
        return 0.0
    residual = qb - qa @ (qa.T @ qb)
    s = float(np.linalg.norm(residual, 2))
    return math.asin(min(1.0, s))


@dataclass(frozen=True)
class SarrusMechanism:
    """n-chain Sarrus mechanism: two platforms joined by planar RRR chains.

    Chain i lies in a plane with unit normal e_i; its three revolute joint
    axes are all parallel to e_i and pass through r_A (base), r_B (knee)
    and r_C (top).  e_C is the unit direction of the common plane
    intersection, the translation axis of the platform.
    """

    normals: tuple
    r_A: tuple
    r_B: tuple
    r_C: tuple
    e_C: np.ndarray
    strict: bool = True

    def __post_init__(self):
        def freeze(vectors):
            out = []
            for v in vectors:
                arr = np.array(v, dtype=float).reshape(3)
                arr.flags.writeable = False
                out.append(arr)
            return tuple(out)

        for name in ("normals", "r_A", "r_B", "r_C"):
            object.__setattr__(self, name, freeze(getattr(self, name)))
        object.__setattr__(self, "e_C", freeze([self.e_C])[0])
        if self.strict:
            self._validate()

    @property
    def n(self) -> int:
        return len(self.normals)

    def _validate(self):
        n = self.n
        if n < 2:
            raise ValueError("need at least two kinematic chains")
        if not (len(self.r_A) == len(self.r_B) == len(self.r_C) == n):
            raise ValueError("joint position lists must match the chain count")
        if abs(np.linalg.norm(self.e_C) - 1.0) > _TOL:
            raise ValueError("e_C must be a unit vector")
        for i, e in enumerate(self.normals):
            if abs(np.linalg.norm(e) - 1.0) > _TOL:
                raise ValueError(f"plane normal {i} is not a unit vector")
            if abs(float(e @ self.e_C)) > _TOL:
                raise ValueError(f"e_C must lie in plane {i} (e_C . e_{i} = 0)")
            for r, label in ((self.r_B[i], "B"), (self.r_C[i], "C")):
                off = float((r - self.r_A[i]) @ e)
                if abs(off) > _TOL * max(1.0, float(np.linalg.norm(r))):
                    raise ValueError(f"chain {i} joint {label} leaves its plane")
        if not any(
            np.linalg.norm(_cross(self.normals[i], self.normals[j])) > _TOL
            for i in range(n) for j in range(i + 1, n)
        ):
            raise ValueError("all chain planes are parallel: mechanism degenerate")


def intersection_direction(e1, e2) -> np.ndarray:
    """Unit direction of the intersection line of two planes, e1 x e2 / |.|."""
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    cross = _cross(e1, e2)
    norm = float(np.linalg.norm(cross))
    if norm <= _TOL:
        raise ValueError("parallel planes have no unique intersection direction")
    return cross / norm


def build_sarrus(n: int, azimuths: Sequence[float], a: float, theta: float,
                 base_radius: float = 1.0) -> SarrusMechanism:
    """Construct a symmetric-legged n-chain Sarrus mechanism.

    Chain i stands in the vertical plane at the given azimuth: its base
    joint A_i sits on the base circle, the knee B_i is displaced by
    a cos(theta) radially and a sin(theta) vertically, and the top joint
    C_i sits 2 a sin(theta) above A_i.  The platform translation axis e_C
    is vertical.
    """
    if n < 2:
        raise ValueError(f"need at least two chains, got {n}")
    if len(azimuths) != n:
        raise ValueError(f"expected {n} azimuths, got {len(azimuths)}")
    azimuths = [finite("azimuth", az) for az in azimuths]
    a = finite("a", a, "positive")
    theta = finite("theta", theta)
    base_radius = finite("base_radius", base_radius)
    if not (0.0 < theta < math.pi / 2):
        raise ValueError(f"theta must lie in (0, pi/2), got {theta}")

    z = np.array([0.0, 0.0, 1.0])
    normals, r_a, r_b, r_c = [], [], [], []
    for az in azimuths:
        radial = np.array([math.cos(az), math.sin(az), 0.0])
        normals.append(_cross(radial, z))
        A = base_radius * radial
        r_a.append(A)
        r_b.append(A + a * math.cos(theta) * radial + a * math.sin(theta) * z)
        r_c.append(A + 2.0 * a * math.sin(theta) * z)

    e_c = None
    for i in range(n):
        for j in range(i + 1, n):
            cross = _cross(normals[i], normals[j])
            if np.linalg.norm(cross) > _TOL:
                e_c = cross / np.linalg.norm(cross)
                break
        if e_c is not None:
            break
    if e_c is None:
        raise ValueError("all chain planes are parallel: mechanism degenerate")
    if e_c[2] < 0:
        e_c = -e_c
    return SarrusMechanism(tuple(normals), tuple(r_a), tuple(r_b), tuple(r_c), e_c)


def chain_joint_screws(mech: SarrusMechanism, i: int) -> ScrewSystem:
    """Motion screws of chain i: one zero-pitch line per revolute joint."""
    e = mech.normals[i]
    return ScrewSystem([
        Screw.revolute(e, mech.r_A[i]),
        Screw.revolute(e, mech.r_B[i]),
        Screw.revolute(e, mech.r_C[i]),
    ])


def chain_constraint_screws(mech: SarrusMechanism, i: int,
                            method: str = "analytic") -> ScrewSystem:
    """Constraints chain i exerts on the platform (reciprocal of its joints).

    analytic: the closed-form triple, a force line through r_C along e_i
    plus couples about e_C and e_C x e_i.
    numeric: the nullspace of the joint-screw system under the reciprocal
    pairing; spans the same 3-space and is used for cross-validation.
    """
    if method == "analytic":
        e = mech.normals[i]
        return ScrewSystem([
            Screw.revolute(e, mech.r_C[i]),
            Screw.couple(mech.e_C),
            Screw.couple(_cross(mech.e_C, e)),
        ])
    if method == "numeric":
        return chain_joint_screws(mech, i).reciprocal()
    raise ValueError(f"unknown method {method!r}; use 'analytic' or 'numeric'")


def platform_constraint_system(mech: SarrusMechanism) -> ScrewSystem:
    """Union of all chains' constraint screws acting on the platform."""
    screws = []
    for i in range(mech.n):
        screws.extend(chain_constraint_screws(mech, i))
    return ScrewSystem(screws)


def common_constraints(mech: SarrusMechanism) -> list[Screw]:
    """Constraint screws contributed identically by every chain.

    For any valid mechanism of this family the couple about e_C is common
    to all chains (the structural over-constraint).
    """
    common = []
    for cand in chain_constraint_screws(mech, 0):
        vec = cand.normalized().as_array()
        shared = all(
            any(_parallel(vec, other.normalized().as_array())
                for other in chain_constraint_screws(mech, i))
            for i in range(1, mech.n)
        )
        if shared:
            common.append(cand)
    return common


def _parallel(x: np.ndarray, y: np.ndarray, tol: float = 1e-9) -> bool:
    """True when two 6-vectors are scalar multiples of each other."""
    return int(np.linalg.matrix_rank(np.vstack([x, y]), tol=tol)) == 1


def platform_freedoms(mech: SarrusMechanism) -> ScrewSystem:
    """Motion screws of the platform: reciprocal of the constraint union.

    For a valid Sarrus mechanism this is the single translation along e_C;
    its rank is the platform's number of degrees of freedom.
    """
    return platform_constraint_system(mech).reciprocal()


def dof(mech: SarrusMechanism) -> int:
    return 6 - platform_constraint_system(mech).rank()


_JOINT_NAMES = ("A", "B", "C")


@dataclass(frozen=True)
class ActuationVerdict:
    """Outcome of locking one or more joints against the platform mobility."""

    locks: tuple
    baseline_rank: int
    baseline_dof: int
    constraint_rank: int
    dof: int
    immobilized: bool
    redundant: bool


def actuation_analysis(mech: SarrusMechanism, locks) -> ActuationVerdict:
    """Mobility of the platform when the listed joints are actuator-locked.

    locks is one (chain, joint) pair or a sequence of them, joint in
    {A, B, C}.  Locking a joint removes its screw from the chain, which
    enlarges that chain's reciprocal constraint set; rank 6 of the
    constraint union means the platform is fully determined, so a single
    lock achieving it suffices to control the mechanism.  redundant flags
    lock sets whose proper subsets already immobilise.
    """
    locks = _normalize_locks(mech, locks)
    baseline_rank = platform_constraint_system(mech).rank()
    rank = _locked_rank(mech, locks)
    immobilized = rank >= 6
    redundant = False
    if immobilized and len(locks) > 1:
        redundant = any(
            _locked_rank(mech, locks[:k] + locks[k + 1:]) >= 6
            for k in range(len(locks))
        )
    return ActuationVerdict(
        locks=locks,
        baseline_rank=baseline_rank,
        baseline_dof=6 - baseline_rank,
        constraint_rank=rank,
        dof=6 - rank,
        immobilized=immobilized,
        redundant=redundant,
    )


def _normalize_locks(mech, locks) -> tuple:
    if isinstance(locks, tuple) and len(locks) == 2 and isinstance(locks[1], str):
        locks = [locks]
    out = []
    for chain, joint in locks:
        chain = int(chain)
        joint = str(joint).upper()
        if not (0 <= chain < mech.n):
            raise ValueError(f"chain index {chain} out of range")
        if joint not in _JOINT_NAMES:
            raise ValueError(f"joint must be one of {_JOINT_NAMES}, got {joint!r}")
        out.append((chain, joint))
    return tuple(out)


def _locked_rank(mech, locks) -> int:
    locked_by_chain: dict[int, set[str]] = {}
    for chain, joint in locks:
        locked_by_chain.setdefault(chain, set()).add(joint)
    screws = []
    for i in range(mech.n):
        locked = locked_by_chain.get(i)
        if not locked:
            screws.extend(chain_constraint_screws(mech, i))
            continue
        e = mech.normals[i]
        points = {"A": mech.r_A[i], "B": mech.r_B[i], "C": mech.r_C[i]}
        remaining = [Screw.revolute(e, points[name])
                     for name in _JOINT_NAMES if name not in locked]
        screws.extend(ScrewSystem(remaining).reciprocal())
    return ScrewSystem(screws).rank()


def mobility_report(mech: SarrusMechanism, locks_list=None) -> dict:
    """JSON-ready mobility summary: screws, ranks, common constraints, DOF,
    motion screws, and optional actuation verdicts."""
    constraints = platform_constraint_system(mech)
    freedoms = constraints.reciprocal()
    rank = constraints.rank()
    chains = []
    for i in range(mech.n):
        chains.append({
            "normal": mech.normals[i].tolist(),
            "joint_screws": [s.as_array().tolist()
                             for s in chain_joint_screws(mech, i)],
            "constraint_screws": [s.as_array().tolist()
                                  for s in chain_constraint_screws(mech, i)],
        })
    report = {
        "n_chains": mech.n,
        "e_C": mech.e_C.tolist(),
        "constraint_rank": rank,
        "degenerate": rank < 5,
        "dof": 6 - rank,
        "common_constraints": [s.as_array().tolist()
                               for s in common_constraints(mech)],
        "motion_screws": [s.normalized().as_array().tolist() for s in freedoms],
        "chains": chains,
    }
    if locks_list:
        verdicts = []
        for locks in locks_list:
            v = actuation_analysis(mech, locks)
            verdicts.append({
                "locks": [[c, j] for c, j in v.locks],
                "constraint_rank": v.constraint_rank,
                "dof": v.dof,
                "immobilized": v.immobilized,
                "redundant": v.redundant,
            })
        report["actuation"] = verdicts
    return report
