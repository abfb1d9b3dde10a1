"""Causal inference for right-censored time-to-event outcomes using
interactions among many candidate instruments.

Workflow: load or simulate a dataset, pick interaction moments (optionally
screened), cross-fit the censoring nuisances, and estimate the log-time
effect by generalized empirical likelihood with weak-moment-aware inference.
"""

from .data import ColumnConfig, Dataset, Finding, Observation, load_csv, validate, write_csv
from .diagnostics import TestResult, overid_test, relevance_f_test
from .gel import GelFit, fit_gel, inner_lambda, minimize_beta, rho, variance
from .interactions import (InteractionIndex, MomentSpec, build_Vk, enumerate_subsets,
                           eval_centered, interaction_count)
from .moments import (AffineMoment, MomentMatrix, build_moment_matrix, eval_g, eval_psi,
                      mean_and_cov)
from .nuisance import (CensorModel, KernelConfig, NuisanceFit, PartialFit, fit_all,
                       fit_partials, kernel_weights)
from .pipeline import FitConfig, FitReport, fit_families, fit_igsaft, predict_effect
from .screening import ScreenResult, screen_interactions
from .simulate import (McSummary, SimConfig, TruthRecord, aft_benchmark,
                       calibrate_censoring, generate, run_monte_carlo)

__version__ = "0.1.0"

__all__ = [
    "AffineMoment", "CensorModel", "ColumnConfig", "Dataset", "Finding", "FitConfig",
    "FitReport", "GelFit", "InteractionIndex", "KernelConfig", "McSummary", "MomentMatrix",
    "MomentSpec", "NuisanceFit", "Observation", "PartialFit", "ScreenResult", "SimConfig",
    "TestResult", "TruthRecord", "aft_benchmark", "build_Vk", "build_moment_matrix",
    "calibrate_censoring", "enumerate_subsets", "eval_centered", "eval_g", "eval_psi",
    "fit_all", "fit_families", "fit_gel", "fit_igsaft", "fit_partials", "generate",
    "inner_lambda", "interaction_count", "kernel_weights", "load_csv", "mean_and_cov",
    "minimize_beta", "overid_test", "predict_effect", "relevance_f_test", "rho", "run_monte_carlo",
    "screen_interactions", "validate", "variance", "write_csv",
]
