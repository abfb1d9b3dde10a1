"""Benchmark workloads: the inputs each one makes from its seed, the unit of
work it times, and the correctness gate against stored reference outputs.

Every unit of work goes through the public igsaft API as a user runs it:
`fit_igsaft` on a simulated dataset, or `run_monte_carlo` on a simulation
design. `generate` and `calibrate_censoring` are called through their module
so that the traced run sees them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "igsaft").is_dir():
    raise ImportError(f"no igsaft package under {ROOT / 'src'}; "
                      "run the benchmark from a checkout of the repository")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from igsaft import FitConfig, SimConfig, fit_igsaft, run_monte_carlo, simulate  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
ITEMS = 16              # distinct inputs per seed; the timed loop cycles through them
POOL_WORKERS = 2        # workers of the traced run's process-pool batch
ESTIMATORS = ("el", "aft")  # the CLI default for `igsaft simulate`

# Reference tolerances. beta_hat is held to 1e-7 absolute. se comes from a
# finite-difference curvature whose own error is near 1e-5 relative, so an
# exact curvature must still pass; q_hat is the attained objective.
BETA_ABS_TOL = 1e-7
SE_REL_TOL = 1e-4
Q_REL_TOL = 1e-6
BIAS_PCT_ABS_TOL = 100 * BETA_ABS_TOL  # bias_pct = 100 (mean beta - beta0) / beta0, beta0 = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload. A unit of work is one `fit_igsaft` call
    (kind "fit") or one replication, a `run_monte_carlo` call with reps=1 in
    this process (kind "mc"); `trace_items` inputs make one traced pass."""

    name: str
    kind: str
    n: int
    p: int
    target_cr: float
    n_splits: int
    trace_items: int


WORKLOADS = {w.name: w for w in (
    # the paper's p = 10 setting: d_only conditioning, m = 45 moments; time
    # splits between AIPCW and the GEL search
    Workload("fit_p10_cr20", "fit", n=4000, p=10, target_cr=0.2, n_splits=1, trace_items=2),
    # no censoring: full 6-dimensional kernel, m = 10; the AIPCW transform
    # dominates although psi == g exactly, and GEL is small
    Workload("fit_p5_cr0", "fit", n=4000, p=5, target_cr=0.0, n_splits=1, trace_items=2),
    # Monte Carlo replications with 5 repeated splits each; many small fits
    # whose fixed costs weigh more than in one large fit
    Workload("mc_p10_s5", "mc", n=2000, p=10, target_cr=0.2, n_splits=5, trace_items=1),
)}


def sim_config(wl: Workload, seed: int) -> SimConfig:
    return SimConfig(case=1, n=wl.n, p=wl.p, target_cr=wl.target_cr, seed=seed, reps=1)


def fit_config(wl: Workload, seed: int) -> FitConfig:
    return FitConfig(q=2, gel="el", n_splits=wl.n_splits, seed=seed)


def prepare(wl: Workload, seed: int) -> list:
    """Inputs of the ITEMS units of work, made from the seed.

    Fit workloads get ITEMS datasets, replications 0..ITEMS-1 of the seed's
    design. The Monte Carlo workload gets ITEMS designs with seeds derived
    from the seed; run_monte_carlo draws their data itself, so set-up
    generates the first design's data once to cover calibration and
    generation.
    """
    if wl.kind == "fit":
        cfg = sim_config(wl, seed)
        taus = (math.inf, math.inf) if wl.target_cr == 0.0 else simulate.calibrate_censoring(cfg)
        return [simulate.generate(cfg, rep, taus=taus)[0] for rep in range(ITEMS)]
    designs = [sim_config(wl, seed * ITEMS + i) for i in range(ITEMS)]
    simulate.generate(designs[0], 0)
    return designs


def run_unit(wl: Workload, unit, seed: int, threads: int = 1):
    if wl.kind == "fit":
        return fit_igsaft(unit, fit_config(wl, seed))
    return run_monte_carlo(unit, fit_config(wl, unit.seed), ESTIMATORS, threads=threads)


def summarize(wl: Workload, result) -> dict:
    """The outputs the correctness gate compares."""
    if wl.kind == "fit":
        g = result.gel_fit
        return {"beta_hat": g.beta_hat, "se": g.se, "q_hat": g.q_hat, "m": g.m,
                "converged": g.converged, "clip_count": result.clip_count,
                "empty_risk_sets": result.empty_risk_sets}
    return {"rows": [asdict(row) for row in result.rows]}


def load_reference(wl: Workload, seed: int) -> list | None:
    """Stored summaries of the ITEMS units, for the reference seed at the
    stored workload size; None otherwise."""
    if seed != REFERENCE_SEED or not REFERENCE.exists():
        return None
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")).get(wl.name)
    if stored is None or stored["workload"] != asdict(wl):
        return None
    return stored["items"]


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def converged(wl: Workload, summary: dict) -> bool:
    """Whether the estimator reported success: the fit converged, or no
    replication was excluded as non-converged."""
    if wl.kind == "fit":
        return summary["converged"]
    return not any(row["n_excluded"] for row in summary["rows"])


def check(wl: Workload, summary: dict, ref: dict | None) -> list[str]:
    """Wrong outputs of one unit; empty when it passes.

    Outputs must be finite, se only for a converged fit. A fit that reports
    non-convergence is counted as failed, not as wrong. At the reference
    seed every output, convergence included, must also match the stored one
    within the tolerances above.
    """
    if wl.kind == "mc":
        return _check_mc(summary, ref)
    problems = []
    keys = ("beta_hat", "q_hat", "se") if summary["converged"] else ("beta_hat", "q_hat")
    if not all(math.isfinite(summary[k]) for k in keys):
        problems.append(f"non-finite {' or '.join(keys)}")
    if ref is None:
        return problems
    if abs(summary["beta_hat"] - ref["beta_hat"]) > BETA_ABS_TOL:
        problems.append(f"beta_hat {summary['beta_hat']!r} != reference {ref['beta_hat']!r}")
    if not _rel_close(summary["se"], ref["se"], SE_REL_TOL):
        problems.append(f"se {summary['se']!r} != reference {ref['se']!r}")
    if not _rel_close(summary["q_hat"], ref["q_hat"], Q_REL_TOL):
        problems.append(f"q_hat {summary['q_hat']!r} != reference {ref['q_hat']!r}")
    for key in ("m", "converged"):
        if summary[key] != ref[key]:
            problems.append(f"{key} {summary[key]!r} != reference {ref[key]!r}")
    if wl.target_cr == 0.0 and (summary["clip_count"] or summary["empty_risk_sets"]):
        problems.append("uncensored data clipped probabilities or met empty risk sets")
    return problems


def _check_mc(summary: dict, ref: dict | None) -> list[str]:
    problems = []
    for row in summary["rows"]:
        if row["n_used"] and not all(math.isfinite(row[k])
                                     for k in ("bias_pct", "mean_se", "coverage")):
            problems.append(f"{row['estimator']}: non-finite summary of used replications")
    if ref is None:
        return problems
    if [r["estimator"] for r in summary["rows"]] != [r["estimator"] for r in ref["rows"]]:
        return problems + ["estimator rows differ from the reference"]
    for row, want in zip(summary["rows"], ref["rows"]):
        est = row["estimator"]
        if abs(row["bias_pct"] - want["bias_pct"]) > BIAS_PCT_ABS_TOL:
            problems.append(f"{est}: bias_pct {row['bias_pct']!r} != reference {want['bias_pct']!r}")
        if not _rel_close(row["mean_se"], want["mean_se"], SE_REL_TOL):
            problems.append(f"{est}: mean_se {row['mean_se']!r} != reference {want['mean_se']!r}")
        if (row["sd"] is None) != (want["sd"] is None) or (
                row["sd"] is not None and abs(row["sd"] - want["sd"]) > BETA_ABS_TOL):
            problems.append(f"{est}: sd {row['sd']!r} != reference {want['sd']!r}")
        for key in ("coverage", "n_used", "n_excluded"):
            if row[key] != want[key]:
                problems.append(f"{est}: {key} {row[key]!r} != reference {want[key]!r}")
    return problems
