"""Command-line surface: exit codes, option precedence and the manifest."""

import csv
import json
import platform
from functools import partial

import numpy as np
import pytest

from igsaft.blas import bundled_openblas
from igsaft import moments
from igsaft.cli import _fit_config, _manifest, main
from igsaft.data import ColumnConfig, Dataset, load_csv, write_csv
from igsaft.interactions import MomentSpec
from igsaft.moments import build_moment_matrix
from igsaft.nuisance import KernelConfig, fit_all
from igsaft.pipeline import FitConfig, _fold_assignment
from igsaft.simulate import SimConfig, generate

COLS = ColumnConfig(time="time", status="status", exposure="d",
                    instruments=("z1", "z2", "z3", "z4"), time_scale="log")


def data_args(path):
    return ["--data", str(path), "--time", "time", "--status", "status",
            "--exposure", "d", "--iv", "z1..z4", "--time-scale", "log"]


def write_design(path, rows):
    ds, _ = generate(SimConfig(case=1, n=300, p=4, seed=3, reps=1), 0, taus=(-2.0, 14.0))
    write_csv(path, ds.subset(range(rows)), COLS)
    return path


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return write_design(tmp_path_factory.mktemp("cli") / "d.csv", 300)


def strict_json(path):
    """The file's JSON, refusing NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.fixture(scope="module")
def large_effect_csv(tmp_path_factory):
    # y += 749 d moves beta_hat to about 750, where e^beta overflows a double
    ds, _ = generate(SimConfig(case=1, n=600, p=4, seed=3, reps=1), 0, taus=(-2.0, 14.0))
    path = tmp_path_factory.mktemp("cli") / "large.csv"
    write_csv(path, Dataset(ds.z, ds.d, ds.y + 749.0 * ds.d, ds.delta), COLS)
    return path


LARGE_SEARCH = ["--search-lo", "-1000", "--search-hi", "1000", "--n-splits", "2"]


def test_overflowing_exp_scale_is_written_as_null(large_effect_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["fit", *data_args(large_effect_csv), *LARGE_SEARCH, "--out", str(out)]) == 0
    report = strict_json(out)
    assert report["converged"] and 749.0 < report["beta_hat"] < 751.0
    assert report["ci"][0] < report["beta_hat"] < report["ci"][1]
    assert report["exp_beta"] == {"point": None, "se": None}
    assert "exp(beta) = inf" in capsys.readouterr().out


def test_diagnose_writes_four_keys_of_the_fit_report(large_effect_csv, tmp_path):
    fit_out, diag_out = tmp_path / "fit.json", tmp_path / "diag.json"
    for command, out in (("fit", fit_out), ("diagnose", diag_out)):
        assert main([command, *data_args(large_effect_csv), *LARGE_SEARCH,
                     "--out", str(out)]) == 0
    fit, diag = strict_json(fit_out), strict_json(diag_out)
    keys = ["relevance_F", "p_F", "over_id", "p_overid"]
    assert list(diag) == ["schema_version", *keys, "manifest"]
    assert {k: diag[k] for k in keys} == {k: fit[k] for k in keys}
    assert diag["manifest"]["command"] == "diagnose"


def test_fit_writes_report_and_exits_0(csv_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["fit", *data_args(csv_path), "--n-splits", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["converged"] and report["fold_sizes"] == [150, 150]
    manifest = report["manifest"]
    assert len(manifest["input_sha256"]) == 64
    assert manifest["numpy"] == np.__version__
    assert manifest["python"] == platform.python_version()
    assert manifest["platform"] == platform.platform()
    # fits run with one thread in every bundled OpenBLAS that was found
    assert set(manifest["fit_blas_threads"]) == {lib.package for lib in bundled_openblas()}
    assert set(manifest["fit_blas_threads"].values()) <= {1}
    assert manifest["fold_processes"] == (2 if moments._fan_out() else 1)
    assert "beta_hat =" in capsys.readouterr().out


def test_flag_beats_config_file_beats_default(csv_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "alpha": 0.1, "n_splits": 1}))
    out = tmp_path / "report.json"
    assert main(["diagnose", *data_args(csv_path), "--config", str(cfg),
                 "--seed", "7", "--out", str(out)]) == 0
    resolved = json.loads(out.read_text())["manifest"]["resolved_config"]
    assert resolved["seed"] == 7          # flag over config file
    assert resolved["alpha"] == 0.1       # config file over default
    assert "gel" not in resolved          # default, applied where read

    fit_out = tmp_path / "fit.json"
    assert main(["fit", *data_args(csv_path), "--config", str(cfg),
                 "--seed", "7", "--out", str(fit_out)]) == 0
    report = json.loads(fit_out.read_text())
    assert (report["fold_seed"], report["alpha"], report["family"]) == (7, 0.1, "el")


SIM_ARGS = ["--n", "200", "--p", "3", "--cr", "0", "--reps", "1", "--estimators", "aft"]


def test_unset_options_take_the_dataclass_defaults():
    # the CLI restates no default: an option set neither by flag nor by file
    # is left out of the config it builds
    assert _fit_config({}) == FitConfig()
    assert _fit_config({}).kernel == KernelConfig()
    fit = _fit_config({"search_hi": 4, "no_screen": True, "bandwidth": 0.3})
    assert fit == FitConfig(search=(FitConfig.search[0], 4.0), screen=False,
                            kernel=KernelConfig(fixed_h=0.3))


@pytest.mark.parametrize("command, extra", [
    ("fit", ["--no-such-flag"]),
    ("fit", ["--threads", "2"]),
    ("diagnose", ["--threads", "2"]),
    ("fit", ["--screen-stage", "post"]),
    ("simulate", ["--screen-stage", "post"]),
])
def test_unknown_or_removed_flags_exit_1(command, extra, csv_path, capsys):
    rest = SIM_ARGS if command == "simulate" else [*data_args(csv_path), "--n-splits", "1"]
    assert main([command, *rest, *extra]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_iv_is_named(capsys):
    argv = ["fit", "--data", "x.csv", "--time", "time", "--status", "status", "--exposure", "d"]
    assert main(argv) == 1
    assert "missing required option --iv" in capsys.readouterr().err


def test_too_small_csv_is_an_estimation_error(tmp_path, capsys):
    path = write_design(tmp_path / "tiny.csv", 20)
    assert main(["fit", *data_args(path), "--n-splits", "1"]) == 2
    assert "estimation error" in capsys.readouterr().err


@pytest.mark.parametrize("cell, column, scale, message", [
    ("inf", "z2", "log", "non-finite value 'inf' in column 'z2' at row 3"),
    ("1e999", "time", "log", "non-finite value '1e999' in column 'time' at row 3"),
    ("2", "status", "log", "status '2' in column 'status' at row 3 is not 0 or 1"),
    ("-1.5", "time", "raw", "nonpositive raw time '-1.5' in column 'time' at row 3"),
])
def test_bad_cell_exits_1_naming_row_and_column(cell, column, scale, message, tmp_path,
                                                capsys):
    rows = [{"time": f"{i + 1.0}", "status": "1", "d": "0.1", "z1": "0.2", "z2": "0.3",
             "z3": "0.4", "z4": "0.5"} for i in range(6)]
    rows[3][column] = cell
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([",".join(rows[0]), *(",".join(r.values()) for r in rows)]) + "\n")
    argv = ["fit", *data_args(path)]
    argv[argv.index("--time-scale") + 1] = scale
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("header, flag, message", [
    ("time,status,d,z1,z2,z3,z4,z2", None, "column 'z2' appears 2 times in "),
    ("time,status,d,z1,z2,z3,z4", ("--exposure", "time"),
     "column 'time' is named for more than one field"),
])
def test_ambiguous_columns_exit_1(header, flag, message, tmp_path, capsys):
    path = tmp_path / "d.csv"
    cells = ",".join(["0.1"] * (header.count(",") - 1))
    path.write_text("\n".join([header, *(f"{i + 1.0},1,{cells}" for i in range(2))]) + "\n")
    argv = ["fit", *data_args(path)]
    if flag:
        argv[argv.index(flag[0]) + 1] = flag[1]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_simulate_accepts_threads(tmp_path, capsys):
    sidecar = tmp_path / "mc.json"
    assert main(["simulate", *SIM_ARGS, "--reps", "2", "--threads", "1",
                 "--json", str(sidecar)]) == 0
    assert capsys.readouterr().out.startswith("Method,Bias,SD,SE,CP\nAFT,")
    payload = json.loads(sidecar.read_text())
    assert payload["manifest"]["resolved_config"]["threads"] == 1
    assert {"python", "numpy", "platform", "fit_blas_threads"} <= set(payload["manifest"])
    assert payload["manifest"]["fold_processes"] == (2 if moments._fan_out() else 1)
    assert [r["n_used"] for r in payload["rows"]] == [2]
    # the workers of --threads 2 run each split's folds in turn
    assert _manifest("simulate", {"threads": 2}, 0.0)["fold_processes"] == 1


def test_simulate_null_design_writes_bias_as_na_and_null(tmp_path, capsys):
    sidecar = tmp_path / "mc.json"
    assert main(["simulate", *SIM_ARGS, "--beta0", "0", "--json", str(sidecar)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("AFT,NA,NA,")
    assert strict_json(sidecar)["rows"][0]["bias_pct"] is None


@pytest.mark.parametrize("command, extra, field", [
    ("fit", ["--max-keep", "-1"], "max_keep"),
    ("simulate", ["--max-keep", "0"], "max_keep"),
    ("simulate", ["--search-lo", "5", "--search-hi", "5"], "search"),
    ("simulate", ["--search-hi", "inf"], "search"),
    ("simulate", ["--nonzero-frac", "-0.1"], "nonzero_frac"),
    ("simulate", ["--threads", "0"], "threads"),
])
def test_bad_config_values_exit_1(command, extra, field, csv_path, capsys):
    rest = SIM_ARGS if command == "simulate" else [*data_args(csv_path), "--n-splits", "1"]
    assert main([command, *rest, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ")


def test_simulate_unknown_estimator_exits_1(capsys):
    assert main(["simulate", *SIM_ARGS, "--estimators", "el,foo"]) == 1
    assert "unknown estimator 'foo'" in capsys.readouterr().err


def test_manifest_records_the_argument_list_main_was_given(tmp_path, capsys):
    sidecar = tmp_path / "mc.json"
    argv = ["simulate", *SIM_ARGS, "--json", str(sidecar)]
    assert main(argv) == 0
    assert strict_json(sidecar)["manifest"]["argv"] == argv


def test_abbreviated_flags_exit_1(capsys):
    # a prefix of --n-splits is refused, as the config key "n_split" is
    assert main(["simulate", *SIM_ARGS, "--n-split", "1"]) == 1
    assert "--n-split" in capsys.readouterr().err


@pytest.mark.parametrize("keys", [{"bogus": 1}, {"threads": 2}, {"screen_stage": "post"},
                                  {"seed": 1, "n_split": 1}])
def test_unknown_config_keys_exit_1(keys, csv_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(keys))
    assert main(["fit", *data_args(csv_path), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert all(f"'{k}'" in err for k in keys if k != "seed") and "'seed'" not in err


def test_config_file_must_hold_an_object(csv_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[[\"seed\", 1]]")
    assert main(["fit", *data_args(csv_path), "--config", str(cfg)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("keys, named", [
    ({"estimators": ["el"]}, "'estimators'"),
    ({"no_screen": "false"}, "--no-screen"),
    ({"seed": 1.7}, "--seed"),
])
def test_config_values_are_parsed_like_flags(keys, named, tmp_path, capsys):
    # once a traceback, or a value the fit did not use: screening off for
    # "false", seed 1 run while the manifest recorded 1.7
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(keys))
    assert main(["simulate", *SIM_ARGS, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_true_sets_a_switch_and_null_or_false_leaves_an_option_unset(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"search_lo": None, "fix_support": False, "no_screen": True,
                               "seed": 2}))
    sidecar = tmp_path / "mc.json"
    assert main(["simulate", *SIM_ARGS, "--config", str(cfg), "--json", str(sidecar)]) == 0
    resolved = strict_json(sidecar)["manifest"]["resolved_config"]
    assert (resolved["seed"], resolved["no_screen"]) == (2, True)
    assert not {"search_lo", "fix_support"} & set(resolved)


def test_config_keys_follow_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 1, "reps": 1}))
    assert main(["simulate", *SIM_ARGS, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("Method,Bias,SD,SE,CP\n")


@pytest.mark.parametrize("bandwidth", ["0", "-0.5"])
def test_nonpositive_bandwidth_exits_1(bandwidth, csv_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["fit", *data_args(csv_path), "--n-splits", "1", "--bandwidth", bandwidth,
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_kernel_is_not_an_option(csv_path, tmp_path, capsys):
    # the censoring model has one kernel, so neither a flag nor a config key picks it
    assert main(["fit", *data_args(csv_path), "--kernel", "uniform"]) == 1
    assert "--kernel" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "gaussian"}))
    assert main(["fit", *data_args(csv_path), "--config", str(cfg)]) == 1
    assert "'kernel'" in capsys.readouterr().err


def test_dump_moments_is_split_0_matrix(csv_path, tmp_path):
    dump = tmp_path / "moments.csv"
    assert main(["fit", *data_args(csv_path), "--no-screen", "--n-splits", "2",
                 "--out", str(tmp_path / "r.json"), "--dump-moments", str(dump)]) == 0
    with open(dump, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    spec = MomentSpec.full(4, 2)
    m = spec.m
    assert header == ["row", "fold", *(f"a_{t}" for t in range(1, m + 1)),
                      *(f"b_{t}" for t in range(1, m + 1))]
    ds = load_csv(csv_path, COLS)
    assert len(rows) == ds.n
    assign = _fold_assignment(ds.n, 0, split=0)
    M = build_moment_matrix(ds, assign, partial(fit_all, spec=spec, cfg=KernelConfig()), spec)
    vals = np.array([[float(v) for v in r] for r in rows])
    assert np.array_equal(vals[:, 0], np.arange(ds.n))
    assert np.array_equal(vals[:, 1], assign)
    assert np.array_equal(vals[:, 2:2 + m], M.A)
    assert np.array_equal(vals[:, 2 + m:], M.B)
