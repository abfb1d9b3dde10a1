"""Top-level estimation flow: fold split, cross-fitted nuisances, moment
construction, screening, GEL estimation, variance, and diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .diagnostics import TestResult, overid_test, relevance_f_test
from .errors import DomainError, EstimationError
from .gel import FAMILIES, GelFit, fit_gel
from .interactions import MomentSpec
from .moments import build_moment_matrix
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
                        else {"not_applicable": "just identified (m = 1)"}),
            "screen": self.screen.to_dict() if self.screen else None,
            "selected_indices": [list(ix.subset) for ix in self.spec.indices],
            "fold_sizes": list(self.fold_sizes),
            "fold_seed": self.fold_seed,
            "bandwidths": [list(b) for b in self.bandwidths],
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


def _one_split(dataset: Dataset, config: FitConfig, spec: MomentSpec, split: int):
    """Fold assignment, cross-fitted nuisances and the moment matrix for one
    random two-fold split."""
    warnings = []
    assign = _fold_assignment(dataset.n, config.seed, split)
    fold_idx = {lab: np.flatnonzero(assign == lab) for lab in (0, 1)}
    nuisances = {}
    for lab in (0, 1):
        aux = fold_idx[1 - lab]
        nuisances[lab] = fit_all(dataset.subset(aux), spec, config.kernel,
                                 training_ids=aux)
    M = build_moment_matrix(dataset, assign, nuisances, spec)
    for lab in (0, 1):
        if nuisances[lab].ridge_fallbacks:
            warnings.append(f"split {split}, fold {lab}: partialling used a ridge fallback")
    bandwidths = tuple([float(h) for h in nuisances[lab].censor_model.bandwidth]
                       for lab in (0, 1))
    fold_sizes = (int(fold_idx[0].size), int(fold_idx[1].size))
    return M, fold_sizes, bandwidths, warnings


def _prepare_splits(dataset: Dataset, config: FitConfig):
    """Screening plus one moment matrix per repeated split."""
    warnings = []
    if dataset.n < 200:
        warnings.append(f"n = {dataset.n} is small; local censoring estimates may be noisy")
    if not 2 <= config.q <= dataset.p:
        raise DomainError(f"need 2 <= q <= p, got q={config.q}, p={dataset.p}")
    spec, screen = _screen_once(dataset, config)
    mats = []
    fold_sizes = bandwidths = None
    for split in range(config.n_splits):
        M, fs, bw, warn = _one_split(dataset, config, spec, split)
        mats.append(M)
        warnings.extend(warn)
        if split == 0:
            fold_sizes, bandwidths = fs, bw
    return mats, spec, screen, fold_sizes, bandwidths, warnings


def combine_split_fits(fits: list[GelFit], alpha: float) -> GelFit:
    """Median-aggregate repeated-split fits.

    The point estimate is the median across splits; the standard error folds
    split dispersion in via median_s sqrt(se_s^2 + (beta_s - beta_med)^2), so
    the interval accounts for the split-to-split variability.
    """
    usable = [f for f in fits if f.converged] or fits
    if len(usable) == 1 and len(fits) == 1:
        return fits[0]
    betas = np.array([f.beta_hat for f in usable])
    med = float(np.median(betas))
    se = float(np.sqrt(np.median([f.se ** 2 + (f.beta_hat - med) ** 2 for f in usable])))
    pick = usable[int(np.argmin(np.abs(betas - med)))]
    out = GelFit(family=pick.family, beta_hat=med, lambda_hat=pick.lambda_hat,
                 q_hat=pick.q_hat, n=pick.n, m=pick.m,
                 converged=all(f.converged for f in fits),
                 h_hat=pick.h_hat, v_hat=pick.v_hat, se=se, alpha=alpha,
                 clip_count=sum(f.clip_count for f in fits),
                 boundary_warning=any(f.boundary_warning for f in fits),
                 warnings=sorted({w for f in fits for w in f.warnings}))
    if math.isfinite(se):
        z = _z_crit(alpha)
        out.ci = (med - z * se, med + z * se)
        out.exp_scale = (math.exp(med), math.exp(med) * se)
    if not out.converged and len(usable) >= max(1, len(fits) // 2 + 1):
        # a minority of bad splits does not invalidate the median fit
        out.converged = True
        out.warnings.append(f"{len(fits) - len(usable)} of {len(fits)} splits "
                            "did not converge and were dropped")
    return out


def _z_crit(alpha: float) -> float:
    from scipy.stats import norm

    return float(norm.ppf(1.0 - alpha / 2.0))


def _fit_family(mats, family: str, config: FitConfig) -> GelFit:
    """GEL fit of one family on every split, median-aggregated."""
    fits = [fit_gel(M, family, search=config.search, alpha=config.alpha) for M in mats]
    return combine_split_fits(fits, config.alpha)


def fit_igsaft(dataset: Dataset, config: FitConfig,
               dump_moments_path=None) -> FitReport:
    """Run the full estimation procedure for one GEL family."""
    mats, spec, screen, fold_sizes, bandwidths, warnings = _prepare_splits(dataset, config)
    if dump_moments_path:
        from .moments import dump_moments

        dump_moments(mats[0], dump_moments_path)
    gel_fit = _fit_family(mats, config.gel, config)
    relevance = relevance_f_test(dataset, spec)
    over = None
    if spec.m >= 2 and gel_fit.converged:
        over = overid_test(gel_fit, mats[0].n, mats[0].m)
    elif spec.m >= 2:
        warnings.append("overidentification test skipped: fit did not converge")
    return FitReport(gel_fit=gel_fit, screen=screen, relevance=relevance,
                     over_id=over, spec=spec, fold_sizes=fold_sizes,
                     fold_seed=config.seed, bandwidths=bandwidths,
                     clip_count=sum(M.stats.clip_count for M in mats),
                     empty_risk_sets=sum(M.stats.empty_risk_sets for M in mats),
                     warnings=warnings)


def fit_families(dataset: Dataset, config: FitConfig, families) -> dict[str, GelFit]:
    """Fit several GEL families on one shared moment construction."""
    mats, *_ = _prepare_splits(dataset, config)
    return {fam: _fit_family(mats, fam, config) for fam in families}


def predict_effect(fit: GelFit, delta_d: float) -> tuple[float, float]:
    """Multiplicative time ratio for an exposure change and its SE."""
    if not fit.converged:
        raise EstimationError("predict_effect requires a converged fit")
    ratio = math.exp(fit.beta_hat * delta_d)
    return ratio, ratio * abs(delta_d) * fit.se
