"""Globally monotonic step-response analysis and synthesis for LTI MIMO plants.

The package decides whether a plant admits a state-feedback gain that makes
every component of the step-tracking error strictly monotonic from every
initial condition, synthesizes the gain and the steady-state feedforward when
it does, and verifies the result by simulation and single-mode decomposition
of the tracking error.
"""

from .errors import (
    AssumptionViolation,
    DegenerateDirection,
    DimensionMismatch,
    FrequencyIsZero,
    GenerationFailed,
    IllConditionedPencil,
    InsufficientData,
    LambdaAtZero,
    MonotrackError,
    NotSolvable,
    NumericalInconsistency,
    RankDeficientAfterRetries,
    SaturationFailure,
    Unsolvable,
    UnstableClosedLoop,
    UnstableLambda,
    UnstableResult,
)
from .ensemble import GeneratorSpec, GenericityStats, generate, genericity_trial
from .numkernel import (
    DEFAULT_POLICY,
    Basis,
    TolerancePolicy,
    min_norm_solve,
    nullspace,
    rank_of,
    realify_pair,
    subspace_sum_dim,
)
from .simverify import (
    ModeFit,
    RateSpec,
    SimulationTrace,
    check_monotonic,
    check_rate,
    fit_single_mode,
    simulate,
    trace_to_csv,
    trace_to_json,
)
from .solvability import (
    SolvabilityVerdict,
    check_solvable,
    repair_lambda_tuple,
    validate_modes,
)
from .subspaces import (
    PairedBasis,
    default_frequency_pool,
    rstar,
    rstar_at,
    rstar_recursive,
    vstar_g,
    vstar_recursive,
)
from .synthesis import (
    DirectionPair,
    FeedbackResult,
    Replay,
    SynthesisSpec,
    control_input,
    direction_for_output,
    steady_state,
    synthesize,
)
from .sysmodel import (
    AssumptionReport,
    InvariantZero,
    LtiSystem,
    TimeDomain,
    audit_assumptions,
    invariant_zeros,
    normal_rank,
    rosenbrock,
)

__version__ = "0.1.0"

__all__ = [
    # errors
    "AssumptionViolation",
    "DegenerateDirection",
    "DimensionMismatch",
    "FrequencyIsZero",
    "GenerationFailed",
    "IllConditionedPencil",
    "InsufficientData",
    "LambdaAtZero",
    "MonotrackError",
    "NotSolvable",
    "NumericalInconsistency",
    "RankDeficientAfterRetries",
    "SaturationFailure",
    "Unsolvable",
    "UnstableClosedLoop",
    "UnstableLambda",
    "UnstableResult",
    # ensemble
    "GeneratorSpec",
    "GenericityStats",
    "generate",
    "genericity_trial",
    # numkernel
    "DEFAULT_POLICY",
    "Basis",
    "TolerancePolicy",
    "min_norm_solve",
    "nullspace",
    "rank_of",
    "realify_pair",
    "subspace_sum_dim",
    # simverify
    "ModeFit",
    "RateSpec",
    "SimulationTrace",
    "check_monotonic",
    "check_rate",
    "fit_single_mode",
    "simulate",
    "trace_to_csv",
    "trace_to_json",
    # solvability
    "SolvabilityVerdict",
    "check_solvable",
    "repair_lambda_tuple",
    "validate_modes",
    # subspaces
    "PairedBasis",
    "default_frequency_pool",
    "rstar",
    "rstar_at",
    "rstar_recursive",
    "vstar_g",
    "vstar_recursive",
    # synthesis
    "DirectionPair",
    "FeedbackResult",
    "Replay",
    "SynthesisSpec",
    "control_input",
    "direction_for_output",
    "steady_state",
    "synthesize",
    # sysmodel
    "AssumptionReport",
    "InvariantZero",
    "LtiSystem",
    "TimeDomain",
    "audit_assumptions",
    "invariant_zeros",
    "normal_rank",
    "rosenbrock",
]
