"""Command-line surface: fit, simulate, diagnose.

The censoring model always uses a Gaussian product kernel; --bandwidth,
--trunc-eps and --km-conditioning set its bandwidth, clip and coordinates.
Exit codes: 0 success, 1 schema or usage problems, 2 estimation failures.
Every run writes a manifest sufficient for exact replay; config precedence
is flags > config file > defaults, and config values are parsed like the
flags they name. The fit report (diagnose writes four of its keys) and the
simulate sidecar are strict JSON: a non-finite number is written as null.
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

from . import __version__, moments
from .blas import blas_threads, one_blas_thread
from .data import TIME_SCALES, ColumnConfig, load_csv
from .errors import CalibrationError, EstimationError, IllPosedError
from .gel import FAMILIES
from .nuisance import CONDITIONINGS, KernelConfig
from .pipeline import FitConfig, fit_igsaft
from .simulate import SimConfig, run_monte_carlo

SCHEMA_VERSION = 1


class CliError(ValueError):
    """A usage problem: a bad option, config file or instrument list."""


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


def _merge_config(args, parser: argparse.ArgumentParser) -> dict:
    """flags > config file; an option set by neither takes its config dataclass's default.

    The config file may set only the options the subcommand's flags define,
    under their destination names (e.g. "n_splits"). The subcommand's parser
    reads each value as the flag --key=value: true sets a switch, false and
    null leave the option unset, and a list or an object is refused.
    """
    known = set(vars(args)) - {"command", "config"}
    merged = {}
    path = args.config
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise CliError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise CliError(f"config file {path}: unknown key(s) "
                           f"{', '.join(map(repr, unknown))} for {args.command}")
        argv = []
        for key, value in loaded.items():
            if isinstance(value, (list, dict)):
                raise CliError(f"config file {path}: {key!r} must be a string, "
                               "a number or a boolean")
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif value is not None and value is not False:
                argv.append(f"{flag}={value}")
        parser.exit_on_error = False  # the flags are parsed; a bad value now raises
        try:
            merged = vars(parser.parse_args(argv))
        except argparse.ArgumentError as exc:
            raise CliError(f"config file {path}: {exc}") from exc
    merged.update((key, value) for key, value in vars(args).items() if value is not None)
    return {key: value for key, value in merged.items() if value is not None and key in known}


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


def _manifest(command: str, cfg: dict, started: float, input_path=None, argv=()) -> dict:
    """The replay manifest; argv is the argument list the command was run
    with, so that `igsaft *argv` runs it again."""
    with one_blas_thread:
        fit_blas_threads = blas_threads()
    man = {
        "command": command,
        "argv": list(argv),
        "resolved_config": {k: v for k, v in sorted(cfg.items())},
        "software_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "wall_time_s": round(time.time() - started, 3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        # per bundled OpenBLAS; empty when none was found to pin
        "fit_blas_threads": fit_blas_threads,
        # 2 where each fit had a fold worker (the generator `moments.fold_worker`):
        # where fits ran here, not in a pool (min(threads, reps) > 1)
        "fold_processes": 2 if moments._fan_out() and min(
            cfg.get("threads", 1), cfg.get("reps", SimConfig.reps)) == 1 else 1,
    }
    if input_path:
        man["input_sha256"] = _sha256(input_path)
    return man


# only the options the user set are passed, so KernelConfig, FitConfig and
# SimConfig hold the only copy of each default; _FIELD maps the options that
# a config field names otherwise
_FIELD = {"bandwidth": "fixed_h", "cr": "target_cr"}
_KERNEL_OPTIONS = ("bandwidth", "trunc_eps", "km_conditioning")
_FIT_OPTIONS = ("q", "gel", "max_keep", "alpha", "seed", "n_splits")
_SIM_OPTIONS = ("p", "cr", "c_weak", "beta0", "reps", "seed", "nonzero_frac", "fix_support")


def _given(cfg: dict, options: tuple) -> dict:
    return {_FIELD.get(key, key): cfg[key] for key in options if key in cfg}


def _fit_config(cfg: dict) -> FitConfig:
    kwargs = _given(cfg, _FIT_OPTIONS)
    if cfg.get("no_screen"):
        kwargs["screen"] = False
    if "search_lo" in cfg or "search_hi" in cfg:
        lo, hi = FitConfig.search
        kwargs["search"] = (cfg.get("search_lo", lo), cfg.get("search_hi", hi))
    return FitConfig(kernel=KernelConfig(**_given(cfg, _KERNEL_OPTIONS)), **kwargs)


def _load_dataset(cfg: dict):
    _require(cfg, ["data", "time", "status", "exposure", "iv"])
    columns = ColumnConfig(time=cfg["time"], status=cfg["status"],
                           exposure=cfg["exposure"],
                           instruments=tuple(_expand_ivs(cfg["iv"])),
                           time_scale=cfg.get("time_scale", "raw"))
    return load_csv(cfg["data"], columns)


def _plain(value):
    """value with every tuple as a list and every non-finite float as None:
    JSON has no number for NaN or infinity."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(command: str, body: dict, cfg: dict, started: float, argv,
                path: str | None, input_path=None) -> str:
    """{schema_version, **body, manifest} as JSON text, also written to path
    if one is given. allow_nan=False refuses a non-finite number that _plain
    did not reach."""
    payload = {"schema_version": SCHEMA_VERSION, **body,
               "manifest": _manifest(command, cfg, started, input_path, argv)}
    text = json.dumps(_plain(payload), indent=2, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


# the keys of fit's report that diagnose writes, in this order
_DIAGNOSE_KEYS = ("relevance_F", "p_F", "over_id", "p_overid")


def cmd_fit(cfg: dict, argv, command: str = "fit") -> int:
    """fit writes the whole report of `fit_igsaft`, diagnose its _DIAGNOSE_KEYS."""
    started = time.time()
    dataset = _load_dataset(cfg)
    report = fit_igsaft(dataset, _fit_config(cfg),
                        dump_moments_path=cfg.get("dump_moments"))
    body = report.to_dict()
    if command == "diagnose":
        body = {key: body[key] for key in _DIAGNOSE_KEYS}
    text = _write_json(command, body, cfg, started, argv, cfg.get("out"), cfg["data"])
    if not cfg.get("out"):
        print(text)
    elif command == "fit":
        g = report.gel_fit
        print(f"beta_hat = {g.beta_hat:.6f}  se = {g.se:.6f}  "
              f"ci = [{g.ci[0]:.6f}, {g.ci[1]:.6f}]")
        print(f"exp(beta) = {g.exp_scale[0]:.6f}  (se {g.exp_scale[1]:.6f})")
        print(f"p_F = {report.relevance.p_value:.3e}  p_overid = "
              f"{report.over_id.p_value if report.over_id else float('nan'):.3f}")
        print(f"report written to {cfg['out']}")
    return 0


def cmd_simulate(cfg: dict, argv) -> int:
    started = time.time()
    sim = SimConfig(case=cfg.get("case", 1), n=cfg.get("n", 10000), **_given(cfg, _SIM_OPTIONS))
    estimators = [e.strip() for e in cfg.get("estimators", "el,aft").split(",") if e.strip()]
    summary = run_monte_carlo(sim, _fit_config(cfg), estimators, threads=cfg.get("threads", 1))
    table = summary.to_table()
    print(table, end="")
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(table)
    if cfg.get("json"):
        _write_json("simulate", {"rows": [vars(r) for r in summary.rows]}, cfg, started,
                    argv, cfg["json"])
    return 0


def _build_parser():
    # no prefix abbreviations: a flag must be spelt out, as a config key must
    parser = argparse.ArgumentParser(prog="igsaft", allow_abbrev=False,
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--seed", type=int)
        p.add_argument("--gel", choices=FAMILIES)
        p.add_argument("--alpha", type=float)
        p.add_argument("--q", type=int)
        p.add_argument("--bandwidth", type=float)
        p.add_argument("--trunc-eps", dest="trunc_eps", type=float)
        p.add_argument("--km-conditioning", dest="km_conditioning", choices=CONDITIONINGS)
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
        p.add_argument("--time-scale", dest="time_scale", choices=TIME_SCALES)
        p.add_argument("--dump-moments", dest="dump_moments")

    p_fit = sub.add_parser("fit", help="estimate the exposure effect from a CSV",
                           allow_abbrev=False)
    add_common(p_fit)
    add_data(p_fit)

    p_sim = sub.add_parser("simulate", help="Monte Carlo performance table",
                           allow_abbrev=False)
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
                       help="worker processes for replications; each fit uses one BLAS "
                            "thread. Results do not depend on it")
    p_sim.add_argument("--json", help="JSON sidecar path")

    p_diag = sub.add_parser("diagnose", help="relevance and overidentification tests",
                            allow_abbrev=False)
    add_common(p_diag)
    add_data(p_diag)
    return parser, sub.choices


def main(argv=None) -> int:
    """Run one command; argv defaults to sys.argv[1:] and is recorded in the
    replay manifest of the JSON the command writes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args, commands[args.command])
        if args.command == "simulate":
            return cmd_simulate(cfg, argv)
        return cmd_fit(cfg, argv, args.command)
    except ValueError as exc:  # CliError, SchemaError and DomainError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EstimationError, IllPosedError, CalibrationError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
