"""Trimmed CUSUM change-point test for heavy-tailed data.

Modulus-trimmed CUSUM statistics stay Brownian-bridge distributed even when the
observations have infinite variance, so the classical sup-of-bridge critical
values (and bootstrap/permutation refinements of them) apply after removing the
few largest moduli.  This package provides the closed-form heavy-tailed models,
the trimmed statistic, asymptotic and resampled critical values, and a
reproducible Monte Carlo harness, plus a command line front end.
"""

from .heavy_tail_models import (
    GAUSSIAN,
    ONE_SIDED_PARETO,
    TWO_SIDED_PARETO,
    TailModel,
    UnsupportedModelError,
    cdf,
    centering_scale,
    density,
    gaussian,
    mean_shift,
    one_sided_pareto,
    quantile,
    sample_iid,
    sample_substream,
    tail_survival,
    tail_survival_inv,
    truncated_sum_scale,
    two_sided_pareto,
)
from .limit_dist import sup_bridge_cdf, sup_bridge_quantile
from .montecarlo import (
    DEFAULT_SHIFT_GRID,
    ChangeSpec,
    DiagnosticSummary,
    GapSummary,
    PowerSpec,
    SimulationSpec,
    centering_normality_diagnostic,
    critical_value_table,
    generate_null,
    null_statistics,
    power_curve,
    rejection_rate,
    size_under_finite_variance,
    trim_truncation_divergence,
)
from .resampling import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    CriticalValueEstimate,
    ResamplePlan,
    empirical_quantile,
    resampled_critical_value,
    resampled_path,
    trimmed_centered,
)
from .trimmed_cusum import (
    ChangeLocation,
    CusumPath,
    DegenerateSampleError,
    TrimmedSample,
    as_sample,
    centered_gap_process,
    cusum_path,
    default_trim_depth,
    locate_change,
    test_statistic,
    trim,
    trim_trunc_gap,
    truncated_cusum_path,
)

__version__ = "0.1.0"
