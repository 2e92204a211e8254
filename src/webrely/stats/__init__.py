"""Statistics: sample handling, Weibull MLE fitting, validation, comparison."""

from .compare import ComparisonReport, compare_models
from .fitting import FitReport, fit_weibull, score
from .gof import GofResult, goodness_of_fit
from .samples import (
    AnomalyPolicy,
    DefectSampleSet,
    DiscardRecord,
    Histogram,
    apply_policy,
    build_histogram,
)
from .weibull import WeibullModel, sample, weibull_cdf, weibull_mean, weibull_pdf

__all__ = [
    "AnomalyPolicy",
    "ComparisonReport",
    "DefectSampleSet",
    "DiscardRecord",
    "FitReport",
    "GofResult",
    "Histogram",
    "WeibullModel",
    "apply_policy",
    "build_histogram",
    "compare_models",
    "fit_weibull",
    "goodness_of_fit",
    "sample",
    "score",
    "weibull_cdf",
    "weibull_mean",
    "weibull_pdf",
]
