"""Monte Carlo driver: estimator names are checked before any replication."""

import pytest

from igsaft import simulate
from igsaft.errors import DomainError
from igsaft.pipeline import FitConfig
from igsaft.simulate import SimConfig, run_monte_carlo


@pytest.mark.parametrize("bad", ["foo", "truth"])
def test_unknown_estimator_rejected_before_fitting(bad, monkeypatch):
    def no_replication(*args, **kwargs):
        raise AssertionError("a replication ran before the names were checked")

    monkeypatch.setattr(simulate, "generate", no_replication)
    monkeypatch.setattr(simulate, "calibrate_censoring", no_replication)
    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.2, reps=3)
    with pytest.raises(DomainError, match=f"unknown estimator '{bad}'"):
        run_monte_carlo(cfg, FitConfig(), ["el", bad, "aft"])


def test_known_estimators_give_one_row_each():
    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.0, reps=2, seed=4)
    summary = run_monte_carlo(cfg, FitConfig(n_splits=1), ["cue", "aft"])
    assert [r.estimator for r in summary.rows] == ["cue", "aft"]
    assert all(r.n_used + r.n_excluded == 2 for r in summary.rows)
