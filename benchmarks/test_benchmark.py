"""Smoke and determinism tests of the benchmark itself, at 400 rows.

    python3 -m pytest benchmarks -q
"""

import json
import math
from dataclasses import replace

import pytest

import run
import workloads
from spans import Tracer

SMOKE_ROWS = 400
EXACT_COUNTS = ("gel.inner_solves", "nuisance.km_pairs", "moments.clip_count",
                "screening.m_selected")


def small(name):
    return replace(workloads.WORKLOADS[name], n=SMOKE_ROWS)


def assert_metrics(out, units):
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_metric_and_span(name):
    wl = small(name)
    assert_metrics(run.timed_run(wl, seed=0, seconds=0.0), run.END_TO_END_UNITS)
    # traced_run raises when an expected layer span never fired
    assert_metrics(run.traced_run(wl, seed=0, seconds=0.0), run.LAYER_UNITS)


def test_layer_counts_repeat_exactly():
    wl = small("fit_p10_cr20")
    first, second = (run.traced_run(wl, seed=3, seconds=0.0)["metrics"] for _ in range(2))
    assert {k: first[k]["value"] for k in EXACT_COUNTS} == \
        {k: second[k]["value"] for k in EXACT_COUNTS}


def test_missing_traced_name_fails_loudly(monkeypatch):
    import igsaft.pipeline

    monkeypatch.delattr(igsaft.pipeline, "fit_families")
    with pytest.raises(AttributeError, match="fit_families"):
        with Tracer():
            pass
    # the names wrapped before the failure are restored
    assert not hasattr(igsaft.pipeline.fit_all, "__wrapped__")


def test_gate_rejects_a_moved_estimate():
    wl = workloads.WORKLOADS["fit_p5_cr0"]
    ref = workloads.load_reference(wl, workloads.REFERENCE_SEED)[0]
    moved = dict(ref, beta_hat=ref["beta_hat"] + 2 * workloads.BETA_ABS_TOL)
    assert workloads.check(wl, dict(ref), ref) == []
    assert any("beta_hat" in p for p in workloads.check(wl, moved, ref))
    assert workloads.check(wl, dict(ref, clip_count=1), ref)


def test_non_convergence_fails_the_unit_but_is_wrong_only_against_the_reference():
    wl = workloads.WORKLOADS["fit_p10_cr20"]
    ref = workloads.load_reference(wl, workloads.REFERENCE_SEED)[0]
    stalled = dict(ref, converged=False, se=math.nan)
    assert not workloads.converged(wl, stalled)
    assert workloads.check(wl, stalled, None) == []
    assert workloads.check(wl, stalled, ref)
    assert workloads.check(wl, dict(ref, se=math.nan), None)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
