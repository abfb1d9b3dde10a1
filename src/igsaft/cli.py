"""Command-line surface: fit, simulate, diagnose.

The censoring model always uses a Gaussian product kernel; --bandwidth,
--trunc-eps and --km-conditioning set its bandwidth, clip and coordinates.
Exit codes: 0 success, 1 schema or usage problems, 2 estimation failures.
Every run writes a manifest sufficient for exact replay; config precedence
is flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import re
import sys
import time

import numpy

from . import __version__
from .blas import blas_threads, one_blas_thread
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
    """flags > config file; an option set by neither takes its config dataclass's default.

    The config file may set only the options the subcommand's flags define,
    under their destination names (e.g. "n_splits").
    """
    merged = {}
    known = set(vars(args)) - {"command", "config"}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {cfg_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise CliError(f"config file {cfg_path} must hold a JSON object")
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise CliError(f"config file {cfg_path}: unknown key(s) "
                           f"{', '.join(map(repr, unknown))} for {args.command}")
        merged.update(loaded)
    for key, value in vars(args).items():
        if value is not None and key in known:
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
    with one_blas_thread:
        fit_blas_threads = blas_threads()
    man = {
        "command": command,
        "argv": sys.argv[1:],
        "resolved_config": {k: v for k, v in sorted(cfg.items())},
        "software_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "wall_time_s": round(time.time() - started, 3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        # per bundled OpenBLAS; empty when none was found to pin
        "fit_blas_threads": fit_blas_threads,
    }
    if input_path:
        man["input_sha256"] = _sha256(input_path)
    return man


# option -> (config field, type); only the options the user set are passed,
# so KernelConfig, FitConfig and SimConfig hold the only copy of each default
_KERNEL_FIELDS = {"bandwidth": ("fixed_h", float), "trunc_eps": ("trunc_eps", float),
                  "km_conditioning": ("km_conditioning", str)}
_FIT_FIELDS = {"q": ("q", int), "gel": ("gel", str), "max_keep": ("max_keep", int),
               "alpha": ("alpha", float), "seed": ("seed", int), "n_splits": ("n_splits", int)}
_SIM_FIELDS = {"p": ("p", int), "cr": ("target_cr", float), "c_weak": ("c_weak", float),
               "beta0": ("beta0", float), "reps": ("reps", int), "seed": ("seed", int),
               "nonzero_frac": ("nonzero_frac", float), "fix_support": ("fix_support", bool)}


def _given(cfg: dict, fields: dict) -> dict:
    return {name: kind(cfg[key]) for key, (name, kind) in fields.items()
            if cfg.get(key) is not None}


def _fit_config(cfg: dict) -> FitConfig:
    kwargs = _given(cfg, _FIT_FIELDS)
    if cfg.get("no_screen"):
        kwargs["screen"] = False
    if "search_lo" in cfg or "search_hi" in cfg:
        lo, hi = FitConfig.search
        kwargs["search"] = (float(cfg.get("search_lo", lo)), float(cfg.get("search_hi", hi)))
    return FitConfig(kernel=KernelConfig(**_given(cfg, _KERNEL_FIELDS)), **kwargs)


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
                    **_given(cfg, _SIM_FIELDS))
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
    p_sim.add_argument("--threads", type=int,
                       help="worker processes for replications; each fit uses one "
                            "BLAS thread, so more workers are how more cores get used")
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
    handlers = {"fit": cmd_fit, "simulate": cmd_simulate, "diagnose": cmd_diagnose}
    try:
        return handlers[args.command](_merge_config(args))
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
