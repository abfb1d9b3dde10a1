"""Causal inference for right-censored time-to-event outcomes using
interactions among many candidate instruments.

Workflow: load or simulate a dataset, pick interaction moments (optionally
screened), cross-fit the censoring nuisance models, and estimate the log-time
effect by generalized empirical likelihood with weak-moment-aware inference.
"""

from .data import ColumnConfig, Dataset, load_csv, write_csv
from .diagnostics import TestResult, overid_test, relevance_f_test
from .gel import GelFit, fit_gel, inner_lambda, minimize_beta, rho, variance
from .interactions import InteractionIndex, MomentSpec, build_Vk, enumerate_subsets
from .moments import MomentMatrix, build_moment_matrix
from .nuisance import CensorModel, KernelConfig, NuisanceFit, PartialFit, fit_all, fit_partials
from .pipeline import FitConfig, FitReport, fit_families, fit_igsaft
from .screening import ScreenResult, screen_interactions
from .simulate import (McSummary, SimConfig, TruthRecord, aft_benchmark,
                       calibrate_censoring, generate, run_monte_carlo)

__version__ = "0.1.0"

__all__ = [
    "CensorModel", "ColumnConfig", "Dataset", "FitConfig", "FitReport", "GelFit",
    "InteractionIndex", "KernelConfig", "McSummary", "MomentMatrix", "MomentSpec",
    "NuisanceFit", "PartialFit", "ScreenResult", "SimConfig", "TestResult", "TruthRecord",
    "aft_benchmark", "build_Vk", "build_moment_matrix", "calibrate_censoring",
    "enumerate_subsets", "fit_all", "fit_families", "fit_gel", "fit_igsaft", "fit_partials",
    "generate", "inner_lambda", "load_csv", "minimize_beta", "overid_test",
    "relevance_f_test", "rho", "run_monte_carlo", "screen_interactions", "variance",
    "write_csv",
]
