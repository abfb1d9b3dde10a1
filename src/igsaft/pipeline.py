"""Top-level estimation flow: screening and the relevance test, one loop
over repeated two-fold splits (cross-fitted nuisance estimates, moment
matrix and GEL fits, median-aggregated), then the overidentification test.

What is held when: no step forms the n x k exposure design. Splits go
through one at a time, so memory does not grow with the split count. Within
a split, the moment pair (A, B) is allocated once, and a fold's nuisance
fit is made just before the fold is evaluated and dropped after its
transform. On Linux with two or more CPUs available, and outside a worker
process, one forked process per fit evaluates every split's second fold,
about one split ahead of the caller, which runs the first folds and the
GEL fits (see `moments.fold_worker`): each of the two processes then holds
one fold's nuisance fit and chunk buffers beside its A and B, and the
results are bit-identical to running the folds in turn. Otherwise the
folds go through one at a time, so one fold's nuisance fit and chunk
buffers are live beside A and B. The split's moment matrix is dropped once
every family is fitted on it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .blas import one_blas_thread
from .data import Dataset
from .diagnostics import (TestResult, check_rank, factor_exposure, overid_test,
                          relevance_f_test)
from .errors import DomainError
from .gel import FAMILIES, GelFit, fit_gel, wald_interval
from .interactions import MomentSpec
from .moments import TransformStats, build_moment_matrix, dump_moments, fold_worker
from .nuisance import KernelConfig, fit_all
from .screening import ScreenResult, screen_interactions
from .simulate import rng_stream

_FOLD_STREAM = 404


@dataclass(frozen=True)
class FitConfig:
    """Settings of one fit.

    q         highest interaction order of the candidate moments (>= 2)
    gel       GEL family: 'el', 'et' or 'cue'
    kernel    kernel smoothing of the local Kaplan-Meier censoring model
    screen    screen the candidates by adaptive lasso before fitting
    max_keep  most candidates screening may keep
    search    (lo, hi) interval of the outer beta search
    alpha     level of the reported confidence interval
    seed      seed of the fold assignments
    n_splits  repeated random two-fold splits, median-aggregated
    indices   manual interaction subsets (1-based); replaces screening
    """

    q: int = 2
    gel: str = "el"
    kernel: KernelConfig = field(default_factory=KernelConfig)
    screen: bool = True
    max_keep: int = 100
    search: tuple[float, float] = (-10.0, 10.0)
    alpha: float = 0.05
    seed: int = 0
    n_splits: int = 5
    indices: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.gel not in FAMILIES:
            raise DomainError(f"gel must be one of {FAMILIES}, got {self.gel!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if self.n_splits < 1:
            raise DomainError("n_splits must be at least 1")
        if self.q < 2:
            raise DomainError("q must be at least 2")
        if self.max_keep < 1:
            raise DomainError("max_keep must be at least 1")
        lo, hi = self.search
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"search must be finite with lo < hi, got {self.search}")


@dataclass
class FitReport:
    gel_fit: GelFit
    screen: ScreenResult | None
    relevance: TestResult
    over_id: TestResult | None
    spec: MomentSpec
    fold_sizes: tuple[int, int]
    fold_seed: int
    bandwidths: tuple[list[float], list[float]]
    clip_count: int
    empty_risk_sets: int
    warnings: list[str]

    def to_dict(self) -> dict:
        out = self.gel_fit.to_dict()
        out.update({
            "p_F": self.relevance.p_value,
            "relevance_F": self.relevance.to_dict(),
            "p_overid": self.over_id.p_value if self.over_id else None,
            "over_id": (self.over_id.to_dict() if self.over_id
                        else {"not_applicable": "fit did not converge" if self.spec.m >= 2
                              else "just identified (m = 1)"}),
            "screen": self.screen.to_dict() if self.screen else None,
            "selected_indices": [list(ix.subset) for ix in self.spec.indices],
            "fold_sizes": list(self.fold_sizes),
            "fold_seed": self.fold_seed,
            "bandwidths": [list(b) for b in self.bandwidths],
            "clip_count": self.clip_count,
            "empty_risk_sets": self.empty_risk_sets,
            "pipeline_warnings": self.warnings,
        })
        return out


def _fold_assignment(n: int, seed: int, split: int = 0) -> np.ndarray:
    perm = rng_stream(seed, _FOLD_STREAM, split).permutation(n)
    assign = np.zeros(n, dtype=np.int64)
    assign[perm[n // 2:]] = 1
    return assign


def _screen_once(dataset: Dataset, config: FitConfig):
    """The fitted spec plus the (split-independent) screening outcome."""
    if config.indices is not None:
        return MomentSpec.from_subsets(dataset.p, config.q, config.indices), None
    candidates = MomentSpec.full(dataset.p, config.q)
    if not config.screen:
        return candidates, None
    screen = screen_interactions(dataset, candidates, max_keep=config.max_keep)
    return screen.selected, screen


def _median(values) -> float:
    """np.median's value, NaN if any value is NaN, from a sorted copy: the
    NaN check of np.median imports numpy.ma."""
    s = np.sort(np.asarray(values, dtype=float))
    k = (s.size - 1) // 2
    if np.isnan(s[-1]):
        return math.nan
    return float(s[k] if s.size % 2 else (s[k] + s[k + 1]) / 2)


def combine_split_fits(fits: list[GelFit], alpha: float) -> GelFit:
    """Median-aggregate repeated-split fits.

    The point estimate is the median across splits; the standard error folds
    split dispersion in via median_s sqrt(se_s^2 + (beta_s - beta_med)^2), so
    the interval accounts for the split-to-split variability. lambda_hat,
    q_hat, h_hat and v_hat are those of the middle split by beta, the lower
    middle one for an even count. Only converged splits enter (all, if none
    did), and the result is converged when more than half of the splits are.
    """
    if len(fits) == 1:
        return fits[0]
    good = [f for f in fits if f.converged]
    usable = good or fits
    betas = np.array([f.beta_hat for f in usable])
    med = _median(betas)
    se = math.sqrt(_median([f.se ** 2 + (f.beta_hat - med) ** 2 for f in usable]))
    # by rank, not by distance to the median: with an even count both middle
    # splits are equally near it and the distance pick turns on rounding
    pick = usable[np.argsort(betas, kind="stable")[(len(usable) - 1) // 2]]
    out = GelFit(family=pick.family, beta_hat=med, lambda_hat=pick.lambda_hat,
                 q_hat=pick.q_hat, n=pick.n, m=pick.m,
                 converged=len(good) > len(fits) // 2,
                 h_hat=pick.h_hat, v_hat=pick.v_hat, se=se, alpha=alpha,
                 boundary_warning=any(f.boundary_warning for f in fits),
                 warnings=sorted({w for f in fits for w in f.warnings}))
    if math.isfinite(se):
        out.ci, out.exp_scale = wald_interval(med, se, alpha)
    if out.converged and len(good) < len(fits):
        out.warnings.append(f"{len(fits) - len(good)} of {len(fits)} splits "
                            "did not converge and were dropped")
    return out


def _fit_splits(dataset: Dataset, config: FitConfig, spec: MomentSpec, families,
                dump_moments_path=None):
    """Each family's fits on the repeated splits, median-aggregated, with the
    summed stats, split 0's fold sizes and bandwidths, and the warnings. Per
    split: assign the folds, build the moment matrix with `fit_all` as the
    fold fitter (`build_moment_matrix` picks each fold's training rows), take
    each fold's bandwidths and ridge fallback from it in label order, fit
    every family on it (and dump it if it is split 0's), and drop it before
    the next split is built. Where `moments.fold_worker` forks, its one
    process evaluates every split's second fold while this one runs the
    first fold and the GEL fits."""
    warnings = []
    if dataset.n < 200:
        warnings.append(f"n = {dataset.n} is small; local censoring estimates may be noisy")
    fits = {fam: [] for fam in families}
    stats = TransformStats()
    # the fit_all this module holds at the call, so that a traced span runs
    fit = partial(fit_all, spec=spec, cfg=config.kernel)
    assignment = partial(_fold_assignment, dataset.n, config.seed)
    with fold_worker(dataset, map(assignment, range(config.n_splits)), fit, spec) as worker:
        for split in range(config.n_splits):
            assign = assignment(split)
            M = build_moment_matrix(dataset, assign, fit, spec, worker)
            stats.merge(M.stats)
            warnings.extend(f"split {split}, fold {lab}: partialling used a ridge fallback"
                            for lab, fold in enumerate(M.folds) if fold.ridge_fallback)
            if split == 0:
                fold_sizes = (int((assign == 0).sum()), int((assign == 1).sum()))
                bandwidths = tuple(list(fold.bandwidth) for fold in M.folds)
                if dump_moments_path:
                    dump_moments(M, dump_moments_path)
            for fam, fam_fits in fits.items():
                fam_fits.append(fit_gel(M, fam, search=config.search, alpha=config.alpha))
            del M  # else it stays alive through the next split's construction
    return ({fam: combine_split_fits(f, config.alpha) for fam, f in fits.items()},
            stats, fold_sizes, bandwidths, warnings)


@one_blas_thread
def fit_igsaft(dataset: Dataset, config: FitConfig,
               dump_moments_path=None) -> FitReport:
    """Run the full estimation procedure for one GEL family, with one BLAS
    thread (see `blas.one_blas_thread`).

    The relevance test runs right after screening: it needs only the data
    and the spec, and it refuses designs too small to fit before any
    nuisance or GEL work is spent on them. One split's moment matrix is held
    at a time; split 0's is written to dump_moments_path as CSV if given.
    """
    spec, screen = _screen_once(dataset, config)
    relevance = relevance_f_test(dataset, spec)
    fits, stats, fold_sizes, bandwidths, warnings = _fit_splits(
        dataset, config, spec, (config.gel,), dump_moments_path)
    gel_fit = fits[config.gel]
    over = None
    if spec.m >= 2 and gel_fit.converged:
        over = overid_test(gel_fit, dataset.n, spec.m)
    elif spec.m >= 2:
        warnings.append("overidentification test skipped: fit did not converge")
    return FitReport(gel_fit=gel_fit, screen=screen, relevance=relevance,
                     over_id=over, spec=spec, fold_sizes=fold_sizes,
                     fold_seed=config.seed, bandwidths=bandwidths,
                     clip_count=stats.clip_count, empty_risk_sets=stats.empty_risk_sets,
                     warnings=warnings)


@one_blas_thread
def fit_families(dataset: Dataset, config: FitConfig, families) -> dict[str, GelFit]:
    """Fit several GEL families on one shared moment construction, with one
    BLAS thread, holding one split's moment matrix at a time. The rank check
    of the exposure design [1, Z, interactions] that `fit_igsaft` gets from
    the relevance test runs here on its own, on the same row-block R."""
    spec = _screen_once(dataset, config)[0]
    check_rank(*factor_exposure(dataset, spec)[:2], spec)
    return _fit_splits(dataset, config, spec, families)[0]
