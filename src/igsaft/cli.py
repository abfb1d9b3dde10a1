"""Command-line surface: fit, simulate, diagnose.

Exit codes: 0 success, 1 schema or usage problems, 2 estimation failures.
Every run writes a manifest sufficient for exact replay; config precedence
is flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time

from . import __version__
from .data import ColumnConfig, load_csv
from .errors import CalibrationError, DomainError, EstimationError, IllPosedError, SchemaError
from .nuisance import KernelConfig
from .pipeline import FitConfig, fit_igsaft
from .simulate import SimConfig, run_monte_carlo

SCHEMA_VERSION = 1


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _expand_ivs(text: str) -> list[str]:
    """Comma-separated names; 'z1..z10' expands a numeric range."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        mm = re.fullmatch(r"([A-Za-z_.\-]*?)(\d+)\.\.\1?(\d+)", token)
        if mm:
            prefix, lo, hi = mm.group(1), int(mm.group(2)), int(mm.group(3))
            if hi < lo:
                raise CliError(f"bad instrument range {token!r}")
            out.extend(f"{prefix}{i}" for i in range(lo, hi + 1))
        else:
            out.append(token)
    return out


def _merge_config(args) -> dict:
    """flags > config file; defaults are applied where the values are read."""
    merged = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path, encoding="utf-8") as fh:
                merged.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {cfg_path}: {exc}") from exc
    for key, value in vars(args).items():
        if value is not None and key not in ("command", "config"):
            merged[key] = value
    return merged


def _require(cfg: dict, names: list[str]):
    for name in names:
        if cfg.get(name) in (None, ""):
            raise CliError(f"missing required option --{name.replace('_', '-')}")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _manifest(command: str, cfg: dict, started: float, input_path=None) -> dict:
    man = {
        "command": command,
        "argv": sys.argv[1:],
        "resolved_config": {k: v for k, v in sorted(cfg.items())},
        "software_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "wall_time_s": round(time.time() - started, 3),
    }
    if input_path:
        man["input_sha256"] = _sha256(input_path)
    return man


def _kernel_config(cfg: dict) -> KernelConfig:
    bw = cfg.get("bandwidth")
    return KernelConfig(kernel=cfg.get("kernel", "gaussian"),
                        bandwidth_rule="fixed" if bw else "silverman",
                        fixed_h=bw,
                        trunc_eps=cfg.get("trunc_eps", 0.01),
                        km_conditioning=cfg.get("km_conditioning", "auto"))


def _fit_config(cfg: dict) -> FitConfig:
    return FitConfig(q=int(cfg.get("q", 2)),
                     gel=cfg.get("gel", "el"),
                     kernel=_kernel_config(cfg),
                     screen=not cfg.get("no_screen", False),
                     max_keep=int(cfg.get("max_keep", 100)),
                     search=(float(cfg.get("search_lo", -10.0)),
                             float(cfg.get("search_hi", 10.0))),
                     alpha=float(cfg.get("alpha", 0.05)),
                     seed=int(cfg.get("seed", 0)),
                     n_splits=int(cfg.get("n_splits", 5)))


def _load_dataset(cfg: dict):
    _require(cfg, ["data", "time", "status", "exposure", "iv"])
    columns = ColumnConfig(time=cfg["time"], status=cfg["status"],
                           exposure=cfg["exposure"],
                           instruments=tuple(_expand_ivs(cfg["iv"])),
                           time_scale=cfg.get("time_scale", "raw"))
    return load_csv(cfg["data"], columns)


def _write_out(report: dict, out_path: str | None):
    text = json.dumps(report, indent=2, default=_json_default)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def _json_default(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"not JSON-serializable: {type(value)}")


def cmd_fit(cfg: dict) -> int:
    started = time.time()
    dataset = _load_dataset(cfg)
    report = fit_igsaft(dataset, _fit_config(cfg),
                        dump_moments_path=cfg.get("dump_moments"))
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict()}
    payload["manifest"] = _manifest("fit", cfg, started, cfg["data"])
    text = _write_out(payload, cfg.get("out"))
    if not cfg.get("out"):
        print(text)
    else:
        g = report.gel_fit
        print(f"beta_hat = {g.beta_hat:.6f}  se = {g.se:.6f}  "
              f"ci = [{g.ci[0]:.6f}, {g.ci[1]:.6f}]")
        print(f"exp(beta) = {g.exp_scale[0]:.6f}  (se {g.exp_scale[1]:.6f})")
        print(f"p_F = {report.relevance.p_value:.3e}  p_overid = "
              f"{report.over_id.p_value if report.over_id else float('nan'):.3f}")
        print(f"report written to {cfg['out']}")
    return 0


def cmd_simulate(cfg: dict) -> int:
    started = time.time()
    sim = SimConfig(case=int(cfg.get("case", 1)), n=int(cfg.get("n", 10000)),
                    p=int(cfg.get("p", 10)), target_cr=float(cfg.get("cr", 0.2)),
                    c_weak=float(cfg.get("c_weak", 4.0)),
                    beta0=float(cfg.get("beta0", 1.0)),
                    reps=int(cfg.get("reps", 500)), seed=int(cfg.get("seed", 0)),
                    nonzero_frac=float(cfg.get("nonzero_frac", 0.4)),
                    fix_support=bool(cfg.get("fix_support", False)))
    estimators = [e.strip() for e in cfg.get("estimators", "el,aft").split(",") if e.strip()]
    fit_cfg = _fit_config(cfg)
    summary = run_monte_carlo(sim, fit_cfg, estimators,
                              threads=int(cfg.get("threads", 1)))
    table = summary.to_table()
    print(table, end="")
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(table)
    sidecar = cfg.get("json")
    if sidecar:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rows": [vars(r) for r in summary.rows],
            "manifest": _manifest("simulate", cfg, started),
        }
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, default=_json_default) + "\n")
    return 0


def cmd_diagnose(cfg: dict) -> int:
    started = time.time()
    dataset = _load_dataset(cfg)
    fit_cfg = _fit_config(cfg)
    report = fit_igsaft(dataset, fit_cfg, dump_moments_path=cfg.get("dump_moments"))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "relevance_F": report.relevance.to_dict(),
        "p_F": report.relevance.p_value,
        "over_id": (report.over_id.to_dict() if report.over_id
                    else {"not_applicable": "just identified (m = 1)"}),
        "p_overid": report.over_id.p_value if report.over_id else None,
        "manifest": _manifest("diagnose", cfg, started, cfg["data"]),
    }
    text = _write_out(payload, cfg.get("out"))
    if not cfg.get("out"):
        print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="igsaft",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--seed", type=int)
        p.add_argument("--gel", choices=("el", "et", "cue"))
        p.add_argument("--alpha", type=float)
        p.add_argument("--q", type=int)
        p.add_argument("--kernel", choices=("gaussian", "uniform", "epanechnikov"))
        p.add_argument("--bandwidth", type=float)
        p.add_argument("--trunc-eps", dest="trunc_eps", type=float)
        p.add_argument("--km-conditioning", dest="km_conditioning",
                       choices=("auto", "full", "d_only", "marginal"))
        p.add_argument("--no-screen", dest="no_screen", action="store_const", const=True)
        p.add_argument("--max-keep", dest="max_keep", type=int)
        p.add_argument("--n-splits", dest="n_splits", type=int,
                       help="repeated two-fold splits, median-aggregated")
        p.add_argument("--search-lo", dest="search_lo", type=float)
        p.add_argument("--search-hi", dest="search_hi", type=float)
        p.add_argument("--out")

    def add_data(p):
        p.add_argument("--data")
        p.add_argument("--time")
        p.add_argument("--status")
        p.add_argument("--exposure")
        p.add_argument("--iv", help="comma list; z1..z10 expands")
        p.add_argument("--time-scale", dest="time_scale", choices=("raw", "log"))
        p.add_argument("--dump-moments", dest="dump_moments")

    p_fit = sub.add_parser("fit", help="estimate the exposure effect from a CSV")
    add_common(p_fit)
    add_data(p_fit)

    p_sim = sub.add_parser("simulate", help="Monte Carlo performance table")
    add_common(p_sim)
    p_sim.add_argument("--case", type=int)
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--p", type=int)
    p_sim.add_argument("--cr", type=float)
    p_sim.add_argument("--c-weak", dest="c_weak", type=float)
    p_sim.add_argument("--beta0", type=float)
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--estimators", help="comma list from el,et,cue,aft")
    p_sim.add_argument("--nonzero-frac", dest="nonzero_frac", type=float)
    p_sim.add_argument("--fix-support", dest="fix_support", action="store_const", const=True)
    p_sim.add_argument("--threads", type=int, help="worker processes for replications")
    p_sim.add_argument("--json", help="JSON sidecar path")

    p_diag = sub.add_parser("diagnose", help="relevance and overidentification tests")
    add_common(p_diag)
    add_data(p_diag)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    cfg = _merge_config(args)
    handlers = {"fit": cmd_fit, "simulate": cmd_simulate, "diagnose": cmd_diagnose}
    try:
        return handlers[args.command](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (SchemaError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EstimationError, IllPosedError, CalibrationError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
