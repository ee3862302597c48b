"""Time window temporal logic: parsing, robustness, and online monitoring."""

from .formula import (
    And,
    Concat,
    Diagnostic,
    HoldAtom,
    Not,
    Or,
    TwtlSyntaxError,
    Within,
    format_formula,
    horizon,
    parse,
    parse_file,
    steps,
    validate,
)
from .monitor import (
    MonitorFinalizedError,
    MonitorState,
    Prefix,
    RobustnessInterval,
    StepResult,
    Verdict,
    eta_interval,
    make_prefix,
    rho_interval,
)
from .semantics import DEFAULT_CONFIG, EvalConfig, agm_and, agm_or, bool_sat, eta, rho
from .trace import (
    NormalizationBounds,
    PredicateSpec,
    PredicateTable,
    Word,
    load_trace,
)

__version__ = "0.1.0"

__all__ = [
    "And", "Concat", "Diagnostic", "HoldAtom", "Not", "Or", "TwtlSyntaxError",
    "Within", "format_formula", "horizon", "parse", "parse_file", "steps",
    "validate",
    "MonitorFinalizedError", "MonitorState", "Prefix", "RobustnessInterval",
    "StepResult", "Verdict", "eta_interval", "make_prefix", "rho_interval",
    "DEFAULT_CONFIG", "EvalConfig", "agm_and", "agm_or", "bool_sat", "eta",
    "rho",
    "NormalizationBounds", "PredicateSpec", "PredicateTable", "Word",
    "load_trace",
]
