"""Two-stage surrogate-based importance sampling for structural
reliability analysis, with crude Monte Carlo, first-order (HL-RF) and
single-MPP importance-sampling baselines and a benchmark suite.
"""

from .benchmarks import (Band, ExperimentDef, ExperimentReport,
                         builtin_problem, oracle_is_reference,
                         reference_table, run_experiment)
from .errors import (ConfigError, DensitySupportError, DomainError,
                     EvaluationError, FitError, ProtocolError, S4isError,
                     StageFailureError, StationaryPointError,
                     SupportPointError)
from .estimators import (ReliabilityEstimate, is_estimate_from_log,
                         mcs_estimate, relative_error)
from .evaluation import (EvaluationLedger, Evaluator, ExternalEvaluator,
                         ProblemSpec, external_problem)
from .form import MppResult, form_pf, hlrf_search, multi_start_mpps
from .pipeline import (S4isConfig, S4isResult, StageReport, run_akis_baseline,
                       run_form_baseline, run_mcs_baseline, run_s4is)
from .probability import GaussianMixture, Marginal, RandomVector
from .surrogate import CompositeMinSurrogate, GpSurrogate

__version__ = "0.1.0"

__all__ = [
    "Band", "CompositeMinSurrogate", "ConfigError", "DensitySupportError",
    "DomainError", "EvaluationError", "EvaluationLedger", "Evaluator",
    "ExperimentDef", "ExperimentReport", "ExternalEvaluator", "FitError",
    "GaussianMixture", "GpSurrogate", "Marginal", "MppResult",
    "ProblemSpec", "ProtocolError", "RandomVector", "ReliabilityEstimate",
    "S4isConfig", "S4isError", "S4isResult", "StageFailureError",
    "StageReport", "StationaryPointError", "SupportPointError",
    "builtin_problem", "external_problem", "form_pf", "hlrf_search",
    "is_estimate_from_log", "mcs_estimate", "multi_start_mpps",
    "oracle_is_reference", "reference_table", "relative_error",
    "run_akis_baseline", "run_experiment", "run_form_baseline",
    "run_mcs_baseline", "run_s4is",
]
