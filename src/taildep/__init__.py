"""Tail dependence functions: representation, measures, estimation, envelopes.

The core object is a concave function on [0, 1] with zero endpoints, bounded
by min(s, 1 - s), stored on a uniform grid with piecewise-linear
interpolation.  Submodules add monotone scalar measures, a pointwise
preorder, a rank-based estimator with rolling windows, feasible-range
envelopes, deterministic copula samplers, and a CSV-to-report pipeline.
"""

__version__ = "0.1.0"

from .envelope import (
    EnvelopeResult,
    linf_range_given_tdc,
    measure_range,
    random_feasible,
)
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    InfeasibleError,
    ParameterError,
    TailDepError,
)
from .estimator import (
    EstimatorConfig,
    RankedSample,
    RollingEstimate,
    empirical_tdf,
    ranks,
    rolling_estimate,
)
from .measures import (
    MeasureValue,
    average_tail_dependence,
    ev_copula,
    extremal_dependence,
    lp_norm,
    max_tail_dependence,
    measure_rows,
    point_eval,
    spearman_ev,
    tdc,
)
from .order import OrderRelation, OrderResult, compare
from .panel import ReturnPanel, load_prices, log_returns, summary_stats
from .pipeline import PairReport, PipelineConfig, cross_section, run_pair, run_pairs
from .simulate import CopulaSpec, analytic_tdf, sample
from .tdf import (
    DEFAULT_GRID_SIZE,
    TailDependenceFunction,
    TDFKind,
    clayton,
    comonotone,
    from_grid,
    independence,
    least_concave_majorant,
    least_concave_majorant_rows,
    parabola,
    tent,
)

__all__ = [name for name in dir() if not name.startswith("_")]
