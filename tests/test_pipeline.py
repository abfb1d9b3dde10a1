"""Golden regression of `fit_igsaft` reports on small fixed designs.

A change to the pipeline must reproduce these frozen reports. Estimates use
the benchmark's tolerances (beta_hat 1e-7 absolute, se 1e-4 relative, q_hat
1e-6 relative); counts and selections must match exactly.
"""

from dataclasses import replace
from itertools import combinations

import pytest

from igsaft.pipeline import FitConfig, fit_families, fit_igsaft
from igsaft.simulate import SimConfig, generate

ALL_PAIRS = [list(c) for c in combinations(range(1, 7), 2)]

# name: (simulation seed, fit configuration, frozen report entries)
GOLDEN = {
    "default_one_split": (11, FitConfig(n_splits=1), {
        "beta_hat": 0.9429843887746321, "se": 0.019649274235547416,
        "q_hat": 0.02453083119235815, "m": 15, "converged": True,
        "selected_indices": ALL_PAIRS, "fold_sizes": [300, 300],
        "clip_count": 25, "empty_risk_sets": 0}),
    # screening drops 9 of 15 candidates; three splits go through combine_split_fits
    "three_splits_screened": (12, FitConfig(n_splits=3, seed=5, max_keep=6), {
        "beta_hat": 0.9370381043083473, "se": 0.047799657393121135,
        "q_hat": 0.004630657375034716, "m": 6, "converged": True,
        "selected_indices": [[1, 2], [1, 3], [2, 5], [2, 6], [3, 5], [5, 6]],
        "fold_sizes": [300, 300], "clip_count": 2136, "empty_risk_sets": 0}),
    "no_screen": (13, FitConfig(n_splits=1, screen=False), {
        "beta_hat": 0.9351997352124899, "se": 0.020009051347967922,
        "q_hat": 0.03930851517020895, "m": 15, "converged": True,
        "selected_indices": ALL_PAIRS, "fold_sizes": [300, 300],
        "clip_count": 762, "empty_risk_sets": 0}),
    "manual_indices": (14, FitConfig(n_splits=1,
                                     indices=((1, 2), (1, 3), (2, 5), (3, 4), (4, 6))), {
        "beta_hat": 1.057167396492853, "se": 0.08596132018035921,
        "q_hat": 0.012859401949276587, "m": 5, "converged": True,
        "selected_indices": [[1, 2], [1, 3], [2, 5], [3, 4], [4, 6]],
        "fold_sizes": [300, 300], "clip_count": 107, "empty_risk_sets": 0}),
}
EXACT = ("m", "converged", "selected_indices", "fold_sizes", "clip_count", "empty_risk_sets")


def design(seed):
    cfg = SimConfig(case=1, n=600, p=6, target_cr=0.2, seed=seed, reps=1)
    return generate(cfg, 0, taus=(-2.0, 14.0))[0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name):
    seed, cfg, want = GOLDEN[name]
    got = fit_igsaft(design(seed), cfg).to_dict()
    assert got["beta_hat"] == pytest.approx(want["beta_hat"], rel=0, abs=1e-7)
    assert got["se"] == pytest.approx(want["se"], rel=1e-4)
    assert got["q_hat"] == pytest.approx(want["q_hat"], rel=1e-6)
    assert {k: got[k] for k in EXACT} == {k: want[k] for k in EXACT}


def test_fit_families_matches_single_family_fits():
    ds = design(15)
    cfg = FitConfig(n_splits=2, max_keep=8)
    fits = fit_families(ds, cfg, ("el", "cue"))
    assert list(fits) == ["el", "cue"]
    for fam, fit in fits.items():
        assert fit.to_dict() == fit_igsaft(ds, replace(cfg, gel=fam)).gel_fit.to_dict()
