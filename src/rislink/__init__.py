"""RIS-assisted link analytics over Fisher-Snedecor F composite fading.

Closed-form average capacity, average BER and outage probability, their
high-SNR asymptotes, and the independent validation machinery (quadrature
oracles on a log-axis trapezoid, seeded Monte-Carlo simulation, KS tests)
behind them.
"""

from .errors import ConfigError, DomainError, NumericError
from .fading import (
    MODEL_DRAW,
    PHYSICAL_DRAW,
    FadingParams,
    SumFadingModel,
    cdf,
    sample,
    sample_sum,
    sum_cdf,
)
from .metrics import (
    LinkConfig,
    MetricResult,
    avg_ber,
    avg_ber_asymptotic,
    avg_capacity,
    avg_capacity_asymptotic,
    outage,
    outage_asymptotic,
    snr_threshold_from_db,
)
from .specfun import (
    EvalReport,
    MeijerGSpec,
    digamma,
    meijer_g,
    q_function,
)
from .validation import (
    McConfig,
    ks_statistic,
    mc_metric,
    quad_ber,
    quad_capacity,
    quad_outage,
    run_oracle_grid,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DomainError", "NumericError",
    "FadingParams", "SumFadingModel", "MODEL_DRAW", "PHYSICAL_DRAW",
    "cdf", "sample", "sum_cdf", "sample_sum",
    "LinkConfig", "MetricResult",
    "avg_capacity", "avg_capacity_asymptotic",
    "avg_ber", "avg_ber_asymptotic",
    "outage", "outage_asymptotic",
    "snr_threshold_from_db",
    "MeijerGSpec", "EvalReport", "meijer_g",
    "digamma", "q_function",
    "McConfig", "mc_metric", "ks_statistic",
    "quad_capacity", "quad_ber", "quad_outage", "run_oracle_grid",
    "__version__",
]
