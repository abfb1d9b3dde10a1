"""Command-line surface: exit codes, option precedence and the manifest."""

import json

import pytest

from igsaft.cli import main
from igsaft.data import ColumnConfig, write_csv
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


def test_fit_writes_report_and_exits_0(csv_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["fit", *data_args(csv_path), "--n-splits", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["converged"] and report["fold_sizes"] == [150, 150]
    assert len(report["manifest"]["input_sha256"]) == 64
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


def test_simulate_accepts_threads(tmp_path, capsys):
    sidecar = tmp_path / "mc.json"
    assert main(["simulate", *SIM_ARGS, "--reps", "2", "--threads", "1",
                 "--json", str(sidecar)]) == 0
    assert capsys.readouterr().out.startswith("Method,Bias,SD,SE,CP\nAFT,")
    payload = json.loads(sidecar.read_text())
    assert payload["manifest"]["resolved_config"]["threads"] == 1
    assert [r["n_used"] for r in payload["rows"]] == [2]


def test_simulate_unknown_estimator_exits_1(capsys):
    assert main(["simulate", *SIM_ARGS, "--estimators", "el,foo"]) == 1
    assert "unknown estimator 'foo'" in capsys.readouterr().err
