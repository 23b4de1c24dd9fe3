"""Plücker screws, reciprocal systems, and mobility of n-chain Sarrus
mechanisms.

A screw is a 6-vector [S; S0]: S is the axis direction (and magnitude), S0
the moment part r x S + pitch * S.  A zero-pitch screw with S != 0 is a
line (a revolute joint axis or a pure force); a screw with S = 0 is a
couple (a pure torque or, read as a twist, a pure translation).  A screw
system is a (k, 6) float array, one screw per row.  The reciprocal product
S1 . S0_2 + S2 . S0_1 is the instantaneous work of a wrench on a twist;
reciprocal pairs produce none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def line(axis, point) -> np.ndarray:
    """Zero-pitch line screw [e; r x e]: a revolute joint axis through r, or
    a pure force along e."""
    axis = np.asarray(axis, dtype=float)
    return np.concatenate([axis, _cross(np.asarray(point, dtype=float), axis)])


def couple(direction) -> np.ndarray:
    """Pure couple [0; e]; as a twist this is a translation along e."""
    return np.concatenate([np.zeros(3), np.asarray(direction, dtype=float)])


def reciprocal_product(x: np.ndarray, y: np.ndarray) -> float:
    """S1 . S0_2 + S2 . S0_1; symmetric; zero for reciprocal pairs."""
    return float(x[:3] @ y[3:] + y[:3] @ x[3:])


def rank(system: np.ndarray) -> int:
    """Numeric rank of a (k, 6) screw system by singular values."""
    return _svd_rank(np.linalg.svd(system, compute_uv=False), system.shape)


def reciprocal(system: np.ndarray) -> np.ndarray:
    """All screws reciprocal to every row of a (k, 6) system, as rows.

    Solved as the nullspace of system @ P with P the block-swap pairing, so
    rank(system) + rank(reciprocal(system)) = 6 by construction; an empty
    system has the identity as its reciprocal.
    """
    a = system @ _PAIRING
    _, sigma, vh = np.linalg.svd(a)
    return vh[_svd_rank(sigma, a.shape):]


def _span(system: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the rows' span."""
    _, sigma, vh = np.linalg.svd(system)
    return vh[:_svd_rank(sigma, system.shape)].T


def _svd_rank(sigma: np.ndarray, shape: tuple) -> int:
    """Count of sigma > max(shape) * eps * sigma_max, the numeric rank that
    rank, reciprocal and _span share."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > max(shape) * np.finfo(float).eps * sigma[0]))


def subspace_angle(system_a: np.ndarray, system_b: np.ndarray) -> float:
    """Largest principal angle (radians) between two screw-system spans.

    Measured through the projection residual, which stays resolvable for
    tiny angles where cosines saturate at 1.
    """
    qa = _span(system_a)
    qb = _span(system_b)
    if qa.shape[1] != qb.shape[1]:
        return math.pi / 2
    if qa.shape[1] == 0:
        return 0.0
    residual = qb - qa @ (qa.T @ qb)
    s = float(np.linalg.norm(residual, 2))
    return math.asin(min(1.0, s))


def _normalized(screw: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(screw)
    if norm == 0.0:
        raise ValueError("cannot normalise the zero screw")
    return screw / norm


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
        _plane_intersection(self.normals)  # raises if every plane is parallel


def _plane_intersection(normals) -> np.ndarray:
    """Unit e_i x e_j of the first pair of non-parallel chain planes."""
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            cross = _cross(normals[i], normals[j])
            norm = np.linalg.norm(cross)
            if norm > _TOL:
                return cross / norm
    raise ValueError("all chain planes are parallel: mechanism degenerate")


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

    e_c = _plane_intersection(normals)
    if e_c[2] < 0:
        e_c = -e_c
    return SarrusMechanism(tuple(normals), tuple(r_a), tuple(r_b), tuple(r_c), e_c)


def chain_joint_screws(mech: SarrusMechanism, i: int) -> np.ndarray:
    """Motion screws of chain i, (3, 6): the joint lines through A, B, C."""
    e = mech.normals[i]
    return np.array([line(e, mech.r_A[i]), line(e, mech.r_B[i]), line(e, mech.r_C[i])])


def chain_constraint_screws(mech: SarrusMechanism, i: int) -> np.ndarray:
    """Constraints chain i exerts on the platform (reciprocal of its joints):
    the closed-form triple, a force line through r_C along e_i plus couples
    about e_C and e_C x e_i.  It spans the nullspace of the joint screws
    under the reciprocal pairing, reciprocal(chain_joint_screws(mech, i)).
    """
    e = mech.normals[i]
    return np.array([line(e, mech.r_C[i]), couple(mech.e_C),
                     couple(_cross(mech.e_C, e))])


def _constraint_stack(mech: SarrusMechanism) -> np.ndarray:
    """(n, 3, 6) constraint triples of every chain, built once per report."""
    return np.array([chain_constraint_screws(mech, i) for i in range(mech.n)])


def platform_constraint_system(mech: SarrusMechanism) -> np.ndarray:
    """Union of all chains' constraint screws acting on the platform, (3n, 6)."""
    return _constraint_stack(mech).reshape(-1, 6)


def common_constraints(mech: SarrusMechanism) -> np.ndarray:
    """Constraint screws contributed identically by every chain, (k, 6).

    For any valid mechanism of this family the couple about e_C is common
    to all chains (the structural over-constraint).
    """
    return _common(_constraint_stack(mech))


def _common(stack: np.ndarray) -> np.ndarray:
    """Rows of chain 0's triple parallel to a row of every other chain's:
    one batched SVD of every (chain 0 row, chain j row) pair of unit screws,
    parallel when the pair's smaller singular value is at most _TOL."""
    units = np.array([[_normalized(row) for row in triple] for triple in stack])
    pairs = np.stack(np.broadcast_arrays(units[0][:, None, None], units[1:]), axis=-2)
    sigma = np.linalg.svd(pairs, compute_uv=False)
    shared = (sigma[..., 1] <= _TOL).any(axis=2).all(axis=1)
    return stack[0][shared]


def platform_freedoms(mech: SarrusMechanism) -> np.ndarray:
    """Motion screws of the platform: reciprocal of the constraint union.

    For a valid Sarrus mechanism this is the single translation along e_C;
    its rank is the platform's number of degrees of freedom.
    """
    return reciprocal(platform_constraint_system(mech))


def dof(mech: SarrusMechanism) -> int:
    return 6 - rank(platform_constraint_system(mech))


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

    locks is one (chain, joint) pair or a sequence of them, chain an int
    index and joint in {A, B, C}.  Locking a joint removes its screw from
    the chain, which enlarges that chain's reciprocal constraint set; rank 6
    of the constraint union means the platform is fully determined, so a
    single lock achieving it suffices to control the mechanism.  redundant
    flags lock sets whose proper subsets already immobilise.
    """
    stack = _constraint_stack(mech)
    return _actuation(mech, stack, rank(stack.reshape(-1, 6)), locks)


def _actuation(mech, stack, baseline_rank, locks) -> ActuationVerdict:
    locks = _normalize_locks(mech, locks)
    locked_rank = _locked_rank(mech, stack, locks)
    immobilized = locked_rank >= 6
    redundant = False
    if immobilized and len(locks) > 1:
        redundant = any(
            _locked_rank(mech, stack, locks[:k] + locks[k + 1:]) >= 6
            for k in range(len(locks))
        )
    return ActuationVerdict(
        locks=locks,
        baseline_rank=baseline_rank,
        baseline_dof=6 - baseline_rank,
        constraint_rank=locked_rank,
        dof=6 - locked_rank,
        immobilized=immobilized,
        redundant=redundant,
    )


def _normalize_locks(mech, locks) -> tuple:
    if isinstance(locks, tuple) and len(locks) == 2 and isinstance(locks[1], str):
        locks = [locks]
    out = []
    for lock in locks:
        chain, joint = lock
        if isinstance(chain, bool) or not isinstance(chain, (int, np.integer)):
            raise ValueError(f"lock {lock!r}: chain index must be an int, "
                             f"got {type(chain).__name__}")
        chain = int(chain)
        joint = str(joint).upper()
        if not (0 <= chain < mech.n):
            raise ValueError(f"chain index {chain} out of range")
        if joint not in _JOINT_NAMES:
            raise ValueError(f"joint must be one of {_JOINT_NAMES}, got {joint!r}")
        out.append((chain, joint))
    return tuple(out)


def _locked_rank(mech, stack, locks) -> int:
    """Constraint rank with the locked joints' screws removed: a locked chain
    gives the reciprocal of its free joints, any other its triple in stack."""
    locked_by_chain: dict[int, set[str]] = {}
    for chain, joint in locks:
        locked_by_chain.setdefault(chain, set()).add(joint)
    rows = []
    for i in range(mech.n):
        locked = locked_by_chain.get(i)
        if not locked:
            rows.append(stack[i])
            continue
        free = [k for k, name in enumerate(_JOINT_NAMES) if name not in locked]
        rows.append(reciprocal(chain_joint_screws(mech, i)[free]))
    return rank(np.vstack(rows))


def mobility_report(mech: SarrusMechanism, locks_list=None) -> dict:
    """JSON-ready mobility summary: screws, ranks, common constraints, DOF,
    motion screws, and optional actuation verdicts.  The constraint rank is
    6 less the motion-screw count, both from reciprocal's one SVD."""
    stack = _constraint_stack(mech)
    constraints = stack.reshape(-1, 6)
    freedoms = reciprocal(constraints)
    constraint_rank = 6 - len(freedoms)
    chains = [{"normal": mech.normals[i].tolist(),
               "joint_screws": chain_joint_screws(mech, i).tolist(),
               "constraint_screws": stack[i].tolist()} for i in range(mech.n)]
    report = {
        "n_chains": mech.n,
        "e_C": mech.e_C.tolist(),
        "constraint_rank": constraint_rank,
        "degenerate": constraint_rank < 5,
        "dof": 6 - constraint_rank,
        "common_constraints": _common(stack).tolist(),
        "motion_screws": [_normalized(row).tolist() for row in freedoms],
        "chains": chains,
    }
    if locks_list:
        verdicts = [_actuation(mech, stack, constraint_rank, locks) for locks in locks_list]
        report["actuation"] = [{"locks": [list(lock) for lock in v.locks],
                                "constraint_rank": v.constraint_rank, "dof": v.dof,
                                "immobilized": v.immobilized, "redundant": v.redundant}
                               for v in verdicts]
    return report
