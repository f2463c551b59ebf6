"""Globally monotonic step-response analysis and synthesis for LTI MIMO plants.

The package decides whether a plant admits a state-feedback gain that makes
every component of the step-tracking error strictly monotonic from every
initial condition, synthesizes the gain and the steady-state feedforward when
it does, and verifies the result by simulation and single-mode decomposition
of the tracking error.

Only ``errors`` is imported with the package. Every other public name is
looked up in ``_EXPORTS`` on first use (PEP 562), which imports its submodule
and binds the value here, so ``import monotrack`` loads no NumPy and a CLI
job loads only the layers its command runs.
"""

from importlib import import_module as _import_module

from .errors import *  # noqa: F403 -- the exception types are cheap, and every layer raises them

__version__ = "0.1.0"

# Submodule -> the public names it exports, in the order __all__ lists them.
_EXPORTS = {
    "errors": (
        "AssumptionViolation", "DegenerateDirection", "DimensionMismatch", "FrequencyIsZero",
        "GenerationFailed", "IllConditionedPencil", "InsufficientData", "LambdaAtZero",
        "MonotrackError", "NotSolvable", "NumericalInconsistency", "RankDeficientAfterRetries",
        "SaturationFailure", "Unsolvable", "UnstableClosedLoop", "UnstableLambda", "UnstableResult",
    ),
    "ensemble": ("GeneratorSpec", "GenericityStats", "generate", "genericity_trial"),
    "numkernel": ("DEFAULT_POLICY", "TolerancePolicy", "nullspace", "rank_of", "ranks_of", "subspace_sum_dim"),
    "simverify": (
        "ModeFit", "RateSpec", "SimulationTrace", "check_monotonic", "check_rate", "fit_single_mode",
        "simulate", "trace_to_csv",
    ),
    "solvability": ("SolvabilityVerdict", "check_solvable", "validate_modes"),
    "subspaces": (
        "PairedBasis", "default_frequency_pool", "discover_rstar", "discover_vstar_g", "draw",
        "factor_pencils", "rstar_recursive", "vstar_recursive",
    ),
    "synthesis": (
        "DirectionPair", "FeedbackResult", "Replay", "SynthesisSpec", "control_input", "steady_state",
        "synthesize",
    ),
    "sysmodel": (
        "AssumptionReport", "InvariantZero", "LtiSystem", "TimeDomain", "audit_assumptions",
        "invariant_zeros", "normal_rank", "rosenbrock",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
