"""Exception hierarchy shared by all monotrack modules."""


class MonotrackError(Exception):
    """Base class for all library-specific failures."""


class DimensionMismatch(MonotrackError):
    """Operands do not share the required row/column dimensions."""


class Unsolvable(MonotrackError):
    """A linear system has no solution within the residual tolerance."""


class IllConditionedPencil(MonotrackError):
    """A candidate zero can neither be confirmed nor rejected at tolerance."""


class FrequencyIsZero(MonotrackError):
    """Requested frequency falls inside the exclusion radius of an invariant zero."""


class SaturationFailure(MonotrackError):
    """Subspace accumulation still grows when the frequency pool is exhausted."""


class RankDeficientAfterRetries(MonotrackError):
    """Randomized basis assembly fell short or stayed rank deficient on every try made."""


class UnstableLambda(MonotrackError):
    """A requested closed-loop mode lies outside the stability region."""


class LambdaAtZero(MonotrackError):
    """A requested closed-loop mode coincides with an invariant zero."""


class DegenerateDirection(MonotrackError):
    """No direction pair with nonzero output coupling was found."""


class NotSolvable(MonotrackError):
    """The dimension conditions for global monotonic tracking fail."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class UnstableResult(MonotrackError):
    """Internal consistency guard: synthesized closed loop failed verification."""


class UnstableClosedLoop(MonotrackError):
    """Simulation requested for a closed loop with unstable spectrum."""


class InsufficientData(MonotrackError):
    """Too few samples to perform the requested fit."""


class GenerationFailed(MonotrackError):
    """Random system generation could not satisfy the requested structure."""


class AssumptionViolation(MonotrackError):
    """The plant fails one of the standing assumptions of the method."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NumericalInconsistency(MonotrackError):
    """Two formulations that must agree returned different answers."""
