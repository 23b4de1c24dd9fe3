"""Simulation and design-analysis toolkit for a single-DOF Sarrus-linkage
jumping leg: kinematics, elastic drives, thrust, squat-jump dynamics,
equilibrium and sensitivity analysis, and screw-theory mobility."""

from .analysis import (
    CENTER,
    DEGENERATE,
    SADDLE,
    SWEEPABLE_PARAMETERS,
    Equilibrium,
    PortraitTrajectory,
    SensitivityCurve,
    find_equilibria,
    identify_mu,
    phase_portrait,
    sensitivity,
    stiction_threshold,
)
from .config import (
    DEFAULT_CONFIG,
    RunConfig,
    apply_overrides,
    build_config,
    default_config,
    load_config,
)
from .dynamics import (
    CONTACT_LOST,
    HORIZON_EXCEEDED,
    KNEE_INVERSION,
    STICTION,
    TAKE_OFF,
    EnergyAudit,
    JumpSummary,
    MassModel,
    SimOptions,
    TakeOffState,
    Trajectory,
    ballistic,
    efficiency,
    integrate_decompression,
    simulate_jump,
    solve_takeoff,
    takeoff_velocity,
)
from .elastic import (
    ElasticModel,
    ForceStretchSample,
    GaussianBand,
    GaussianFit,
    LinearSpring,
    MooneyFit,
    MooneyRivlinBand,
    drive_force,
    fit_gaussian,
    fit_mooney,
    load_force_stretch_csv,
    stored_energy,
)
from .geometry import (
    LegAngleInterval,
    LinkageGeometry,
    anchor_distance,
    effective_leg,
    height,
    stretch,
)
from .screws import (
    ActuationVerdict,
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
from .thrust import (
    ThrustProfile,
    distension_height,
    dl_dh,
    peak_height,
    thrust_force,
    thrust_force_linear,
    thrust_profile,
)

__version__ = "0.1.0"
