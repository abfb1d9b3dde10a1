import math

import numpy as np
import pytest

from igsaft.data import ColumnConfig, Dataset, Observation, load_csv, validate, write_csv
from igsaft.errors import SchemaError
from igsaft.simulate import SimConfig, generate


COLS = ColumnConfig(time="time", status="status", exposure="bmi",
                    instruments=("z1", "z2"), time_scale="raw")


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_load_raw_times_are_logged(tmp_path):
    f = tmp_path / "d.csv"
    e = math.e
    write_lines(f, ["time,status,bmi,z1,z2",
                    f"{e},1,0.1,0.5,0.2",
                    f"{e**2},0,0.3,-0.5,0.8",
                    f"{e**3},1,0.2,1.5,-0.2"])
    ds = load_csv(f, COLS)
    np.testing.assert_allclose(ds.y, [1.0, 2.0, 3.0], atol=1e-12)
    np.testing.assert_array_equal(ds.delta, [1, 0, 1])


def test_bad_status_cites_row(tmp_path):
    f = tmp_path / "d.csv"
    rows = [f"{i + 1.0},1,0.1,0.2,0.3" for i in range(10)]
    rows[7] = "8.0,2,0.1,0.2,0.3"
    write_lines(f, ["time,status,bmi,z1,z2", *rows])
    with pytest.raises(ValueError, match="row 7"):
        load_csv(f, COLS)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    f = tmp_path / "d.csv"
    rows = [f"{i + 1.0},1,0.1,0.2,0.3" for i in range(6)]
    rows[4] = "5.0,1,0.1,abc,0.3"
    write_lines(f, ["time,status,bmi,z1,z2", *rows])
    with pytest.raises(SchemaError, match=r"'abc' in column 'z1' at row 4"):
        load_csv(f, COLS)


def test_missing_column_named(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["time,status,z1,z2", "1.0,1,0.2,0.3"])
    with pytest.raises(SchemaError, match="bmi"):
        load_csv(f, COLS)


def test_nonpositive_raw_time(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["time,status,bmi,z1,z2", "1.0,1,0.1,0.2,0.3", "-2.0,1,0.1,0.2,0.3"])
    with pytest.raises(ValueError, match="row 1"):
        load_csv(f, COLS)


def test_missing_values_dropped_with_warning(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["time,status,bmi,z1,z2",
                    "1.0,1,0.1,0.2,0.3",
                    "2.0,1,,0.2,0.3",
                    "3.0,0,0.1,0.2,0.3"])
    with pytest.warns(UserWarning, match="dropped 1"):
        ds = load_csv(f, COLS)
    assert ds.n == 2


def test_round_trip_bit_for_bit(tmp_path):
    cfg = SimConfig(case=1, n=150, p=4, target_cr=0.3, reps=1, seed=44)
    ds, _ = generate(cfg, 0, taus=(-1.0, 9.0))
    cols = ColumnConfig(time="t", status="s", exposure="d",
                        instruments=tuple(f"z{i}" for i in range(1, 5)),
                        time_scale="log")
    f = tmp_path / "sim.csv"
    write_csv(f, ds, cols)
    back = load_csv(f, cols)
    assert back == ds


def test_round_trip_raw_scale(tmp_path):
    ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.0]),
                 np.array([-1.0, 0.5, 2.0]), np.array([1, 0, 1]))
    cols = ColumnConfig(time="t", status="s", exposure="d", instruments=("z1",))
    f = tmp_path / "raw.csv"
    write_csv(f, ds, cols)
    back = load_csv(f, cols)
    np.testing.assert_allclose(back.y, ds.y, rtol=0, atol=1e-15)


def test_validate_censoring_rate_zero():
    ds = Dataset(np.random.default_rng(0).normal(size=(10, 2)),
                 np.zeros(10) + np.arange(10), np.arange(10.0), np.ones(10, dtype=int))
    findings = validate(ds)
    cr = [f for f in findings if f.kind == "censoring_rate"][0]
    assert cr.value == 0.0


def test_validate_flags_duplicate_instrument():
    rng = np.random.default_rng(3)
    z1 = rng.normal(size=50)
    ds = Dataset(np.column_stack([z1, z1]), rng.normal(size=50),
                 rng.normal(size=50), np.ones(50, dtype=int))
    pairs = [f.value for f in validate(ds) if f.kind == "instrument_correlation"]
    assert (1, 2) in pairs


def test_validate_case1_censoring_rate_near_target():
    cfg = SimConfig(case=1, n=20_000, p=10, target_cr=0.2, reps=1, seed=7)
    ds, _ = generate(cfg, 0)
    cr = [f for f in validate(ds) if f.kind == "censoring_rate"][0].value
    assert abs(cr - 0.20) < 0.02


def test_validate_does_not_mutate():
    rng = np.random.default_rng(9)
    ds = Dataset(rng.normal(size=(30, 3)), rng.normal(size=30),
                 rng.normal(size=30), np.ones(30, dtype=int))
    before = (ds.z.copy(), ds.d.copy(), ds.y.copy(), ds.delta.copy())
    validate(ds)
    assert np.array_equal(ds.z, before[0]) and np.array_equal(ds.d, before[1])
    assert np.array_equal(ds.y, before[2]) and np.array_equal(ds.delta, before[3])


def test_dataset_invariants():
    with pytest.raises(ValueError, match="delta"):
        Dataset(np.zeros((3, 1)), np.zeros(3), np.zeros(3), np.array([1, 2, 0]))
    with pytest.raises(ValueError, match="event"):
        Dataset(np.zeros((3, 1)), np.zeros(3), np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 1)), np.zeros(1), np.zeros(1), np.ones(1, dtype=int))
    with pytest.raises(ValueError):
        Observation(z=np.array([np.nan]), d=0.0, y=0.0, delta=1)


def test_dataset_immutable():
    ds = Dataset(np.zeros((2, 1)), np.zeros(2), np.zeros(2), np.ones(2, dtype=int))
    with pytest.raises(ValueError):
        ds.y[0] = 1.0


def test_from_observations_round_trip():
    obs = [Observation(z=np.array([1.0, 2.0]), d=0.5, y=0.1, delta=1),
           Observation(z=np.array([0.0, 1.0]), d=-0.5, y=-0.3, delta=0)]
    ds = Dataset.from_observations(obs)
    assert ds.n == 2 and ds.p == 2
    o = ds.observation(1)
    assert o.delta == 0 and o.d == -0.5
