"""Exception hierarchy for the reliability toolkit."""


class S4isError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(S4isError, ValueError):
    """Invalid configuration, unknown problem name or bad parameters."""


class DomainError(S4isError):
    """Input outside the support of a distribution or transform."""


class EvaluationError(S4isError):
    """Performance-function evaluation failed (external process, NaN output)."""


class ProtocolError(EvaluationError):
    """External evaluator violated the stdio line protocol."""


class FitError(S4isError):
    """Surrogate fitting failed (non-finite training data, or Cholesky failure
    after nugget escalation)."""


class SupportPointError(S4isError, ValueError):
    """Invalid support points or GP training data: duplicate inputs,
    arrays of the wrong shape or of unequal lengths, or fewer than two
    points."""


class DensitySupportError(S4isError):
    """Importance density is zero at a failure sample."""


class StageFailureError(S4isError):
    """A pipeline stage could not produce the outputs the next stage needs."""


class StationaryPointError(S4isError):
    """HL-RF hit a near-zero gradient away from the limit state."""
