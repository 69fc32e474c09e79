"""cvlab: total-curvature and Gauss-Bonnet checks for complete surfaces
with cylindrical ends ``dt^2 + G(t, theta) dtheta^2``."""

from .curvature import gauss_curvature
from .dsl import DomainError, MetricExpr, ParseError, UnknownIdentifier, eval_jet, parse_metric
from .jets import Jet2, Overflow
from .model import (
    AnalyticCore,
    EndChart,
    ModelInvalid,
    PolarCap,
    SurfaceModel,
    chart_from_expression,
    validate_surface,
)
from .quadrature import (
    DEFAULT_TOL,
    ImproperResult,
    NotMonotone,
    QuadResult,
    TailLimit,
    Tolerance,
    estimate_tail_limit,
    integrate_bands,
)
from .sweep import (
    NonPositiveMu,
    SweepReport,
    TruncationSample,
    Verdict,
    geometric_schedule,
    run_sweep,
    sweep_samples,
)
from .zoo import InvalidParameter, Oracle, ZooEntry, all_entries, zoo_entry, zoo_names

__version__ = "0.1.0"
