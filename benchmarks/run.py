"""Benchmark of igsaft on three workloads: end-to-end time, throughput,
set-up time and memory, or per-layer times and counts from a traced run.

    python3 benchmarks/run.py --workload fit_p10_cr20 --seed 0 --seconds 25 --trace 0

The package is imported from the checkout's src/. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the environment, as information only.
The exit code is 0 only when no unit of work gave a wrong output (see
workloads.check) and, when traced, every unit reproduced its untraced outputs
bit for bit. A unit whose fit reports non-convergence on a seed without
reference outputs is counted as failed but is not wrong.

A unit of work is one fit_igsaft call, or on mc_p10_s5 one Monte Carlo
replication: a run_monte_carlo call in this process. The timed run cycles
through the seed's inputs until --seconds have passed. Its metrics (--trace 0):

  fit_s          median wall seconds per unit
  mc_reps_per_s  units completed per second of unit wall time
  setup_s        median, over SETUP_PROBES fresh processes, of importing igsaft
                 and making the workload's inputs
  peak_rss_mb    peak resident memory of this process
  success_share  share of attempted units that converged and were not wrong

mc_p10_s5 times replications in one process, the CLI's default. A pool of
POOL_WORKERS processes runs only in the traced run (simulate.scaling_eff,
simulate.worker_rss_mb): each worker starts one BLAS thread per core, so on
a machine with as many cores as workers the pool's wall time varies several
fold between identical runs and cannot be gated.

The traced run (--trace 1) runs whole passes over the first trace_items
inputs untraced for half of --seconds, then the same passes with spans.Tracer
installed; per-layer metrics come from the traced passes and are per fit (a
fit_igsaft call, or the fit_families call of one replication) unless named
otherwise. Metrics of a layer the workload does not run read 0. Spans are
written to benchmarks/traces/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import workloads
from spans import TRACED, Tracer, span_name

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3

END_TO_END_UNITS = {"fit_s": "s", "mc_reps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_share": "share"}
LAYER_UNITS = {
    "simulate.calibrate_s": "s", "simulate.generate_s": "s", "simulate.aft_s": "s",
    "simulate.rep_s": "s", "simulate.scaling_eff": "ratio", "simulate.worker_rss_mb": "MB",
    "screening.screen_s": "s", "screening.m_selected": "count",
    "nuisance.fit_all_s": "s", "nuisance.km_tables_s": "s",
    "nuisance.km_tables_calls": "count", "nuisance.km_pairs": "count",
    "moments.build_s": "s", "moments.g_values_s": "s", "moments.aipcw_s": "s",
    "moments.aipcw_self_s": "s", "moments.clip_count": "count",
    "moments.empty_risk_sets": "count",
    "gel.minimize_s": "s", "gel.variance_s": "s", "gel.inner_s": "s",
    "gel.inner_solves": "count", "gel.inner_converged_share": "share",
    "diagnostics.relevance_s": "s", "diagnostics.overid_s": "s",
    "pipeline.self_s": "s", "trace.overhead_share": "share",
}


@dataclass
class Outcome:
    seconds: float
    summary: dict | None
    problems: list[str]  # wrong outputs; any of them makes the run incorrect
    converged: bool


def run_item(wl, unit, seed: int, ref: dict | None, tracer=None, threads: int = 1) -> Outcome:
    """Run one unit of work, time it and check its outputs."""
    name = "pipeline.fit_igsaft" if wl.kind == "fit" else "simulate.run_monte_carlo"
    t0 = perf_counter()
    try:
        with tracer.span(name) if tracer else nullcontext():
            result = workloads.run_unit(wl, unit, seed, threads=threads)
    except Exception as exc:  # a failed unit is counted and the run goes on
        traceback.print_exc(file=sys.stderr)
        return Outcome(perf_counter() - t0, None, [f"raised {exc!r}"], False)
    seconds = perf_counter() - t0
    summary = workloads.summarize(wl, result)
    return Outcome(seconds, summary, workloads.check(wl, summary, ref),
                   workloads.converged(wl, summary))


def tally(wl, outcomes: list[Outcome], reps: int = 1) -> tuple[int, int, bool]:
    """(attempted, failed, correct), counted in fits or replications. A unit
    fails when it is wrong or did not converge; prints each such unit."""
    for o in outcomes:
        for problem in o.problems + ([] if o.converged else ["did not converge"]):
            print(f"{wl.name}: {problem}", file=sys.stderr)
    failed = sum(bool(o.problems) or not o.converged for o in outcomes)
    return reps * len(outcomes), reps * failed, not any(o.problems for o in outcomes)


def probe_setup(wl, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed), str(wl.n)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    return float(done.stdout.split()[-1])


def timed_run(wl, seed: int, seconds: float) -> dict:
    setup = statistics.median(probe_setup(wl, seed) for _ in range(SETUP_PROBES))
    units = workloads.prepare(wl, seed)
    refs = workloads.load_reference(wl, seed) or [None] * len(units)
    outcomes: list[Outcome] = []
    start = perf_counter()
    while not outcomes or perf_counter() - start < seconds:
        k = len(outcomes) % len(units)
        outcomes.append(run_item(wl, units[k], seed, refs[k]))
    attempted, failed, correct = tally(wl, outcomes)
    times = [o.seconds for o in outcomes]
    metrics = {
        "fit_s": statistics.median(times),
        "mc_reps_per_s": len(times) / sum(times),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_share": (attempted - failed) / attempted,
    }
    return result(correct, attempted, failed, metrics, END_TO_END_UNITS, samples=len(times))


def expected_spans(wl) -> set[str]:
    names = {span_name(module, path) for module, path, _ in TRACED}
    if wl.kind == "fit":
        names -= {"pipeline.fit_families", "simulate.aft_benchmark"}
    else:
        names -= {"pipeline.relevance_f_test", "pipeline.overid_test"}
    if wl.target_cr == 0.0:
        names.discard("simulate.calibrate_censoring")
    return names


def traced_run(wl, seed: int, seconds: float) -> dict:
    tracer = Tracer()
    with tracer:
        units = workloads.prepare(wl, seed)
    refs = workloads.load_reference(wl, seed) or [None] * len(units)
    order: list[int] = []
    untraced: list[Outcome] = []
    start = perf_counter()
    while not order or perf_counter() - start < seconds / 2:
        for k in range(wl.trace_items):
            order.append(k)
            untraced.append(run_item(wl, units[k], seed, refs[k]))

    if wl.kind == "mc":
        pool = run_item(wl, replace(units[0], reps=workloads.POOL_WORKERS), seed, None,
                        threads=workloads.POOL_WORKERS)
        pool_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    with tracer:
        traced = [run_item(wl, units[k], seed, refs[k], tracer) for k in order]
    write_spans(tracer, wl, seed)
    missing = expected_spans(wl) - {s.name for s in tracer.spans}
    if missing:
        raise RuntimeError(f"traced layers never ran: {sorted(missing)}")
    for u, t in zip(untraced, traced):
        if json.dumps(u.summary) != json.dumps(t.summary):  # NaN-safe, exact repr
            t.problems.append("traced outputs differ from the untraced run")

    attempted, failed, correct = tally(wl, untraced + traced)
    metrics = layer_metrics(wl, tracer)
    metrics["trace.overhead_share"] = (statistics.median(o.seconds for o in traced)
                                       / statistics.median(o.seconds for o in untraced) - 1.0)
    if wl.kind == "mc":
        pool_attempted, pool_failed, pool_correct = tally(wl, [pool], workloads.POOL_WORKERS)
        attempted, failed = attempted + pool_attempted, failed + pool_failed
        correct = correct and pool_correct
        # reps * rep_s / (workers * wall), with reps == workers in the batch
        metrics["simulate.scaling_eff"] = metrics["simulate.rep_s"] / pool.seconds
        metrics["simulate.worker_rss_mb"] = pool_rss
    return result(correct, attempted, failed, metrics, LAYER_UNITS, samples=len(traced))


def layer_metrics(wl, tracer: Tracer) -> dict:
    spans = tracer.spans
    self_s = tracer.self_seconds()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name):
        return sum(spans[i].seconds for i in by_name.get(name, ()))

    def count(name, key=None):
        idx = by_name.get(name, ())
        return len(idx) if key is None else sum(spans[i].counts.get(key, 0) for i in idx)

    def per_call(name):
        return total(name) / count(name) if count(name) else 0.0

    pipe = "pipeline.fit_igsaft" if wl.kind == "fit" else "pipeline.fit_families"
    fits = count(pipe)
    inner = "gel.inner_lambda"
    return {
        "simulate.calibrate_s": per_call("simulate.calibrate_censoring"),
        "simulate.generate_s": per_call("simulate.generate"),
        "simulate.aft_s": per_call("simulate.aft_benchmark"),
        "simulate.rep_s": per_call("simulate.run_monte_carlo"),
        "simulate.scaling_eff": 0.0,
        "simulate.worker_rss_mb": 0.0,
        "screening.screen_s": total("pipeline.screen_interactions") / fits,
        "screening.m_selected": count("pipeline.screen_interactions", "m_selected")
                                / count("pipeline.screen_interactions"),
        "nuisance.fit_all_s": total("pipeline.fit_all") / fits,
        "nuisance.km_tables_s": total("nuisance.CensorModel.tables") / fits,
        "nuisance.km_tables_calls": count("nuisance.CensorModel.tables") / fits,
        "nuisance.km_pairs": count("nuisance.CensorModel.tables", "pairs") / fits,
        "moments.build_s": total("pipeline.build_moment_matrix") / fits,
        "moments.g_values_s": total("moments.fold_g_values") / fits,
        "moments.aipcw_s": total("moments.aipcw_transform") / fits,
        "moments.aipcw_self_s": sum(self_s[i] for i in by_name["moments.aipcw_transform"]) / fits,
        "moments.clip_count": count("pipeline.build_moment_matrix", "clip_count") / fits,
        "moments.empty_risk_sets": count("pipeline.build_moment_matrix", "empty_risk_sets") / fits,
        "gel.minimize_s": total("gel.minimize_beta") / fits,
        "gel.variance_s": total("gel.variance") / fits,
        "gel.inner_s": total(inner) / fits,
        "gel.inner_solves": count(inner) / fits,
        "gel.inner_converged_share": count(inner, "converged") / count(inner),
        "diagnostics.relevance_s": total("pipeline.relevance_f_test") / fits,
        "diagnostics.overid_s": total("pipeline.overid_test") / fits,
        "pipeline.self_s": sum(self_s[i] for i in by_name[pipe]) / fits,
    }


def write_spans(tracer: Tracer, wl, seed: int) -> None:
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    (out / f"{wl.name}_seed{seed}.json").write_text(json.dumps(tracer.to_json()), encoding="utf-8")


def result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict,
           samples: int) -> dict:
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from the declared ones: "
                           f"{sorted(set(metrics) ^ set(units))}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "samples": samples}


def blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy bundle."""
    out = {}
    for mod in (numpy, scipy):
        for lib in sorted((Path(mod.__file__).parent.parent / f"{mod.__name__}.libs")
                          .glob("lib*openblas*.so*")):
            try:
                cdll = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(cdll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[mod.__name__] = fn()
                    break
    return out


def environment() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (workloads.ROOT / "src").rglob("*.py"))
    return {"blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    out = run(wl, args.seed, args.seconds)
    info = environment()
    info["samples"] = out.pop("samples")
    print(json.dumps({"info": info}))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
