import math

import numpy as np
import pytest

from igsaft.data import ColumnConfig, Dataset, load_csv, write_csv
from igsaft.errors import SchemaError
from igsaft.simulate import SimConfig, generate
from scalar_reference import Observation


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


@pytest.mark.parametrize("cell, column", [("inf", "z1"), ("-inf", "bmi"), ("Infinity", "time"),
                                          ("1e999", "z2")])
def test_non_finite_cell_names_row_and_column(tmp_path, cell, column):
    # float() accepts these; they once surfaced only as "dataset contains
    # non-finite values", with no row or column
    f = tmp_path / "d.csv"
    rows = [{"time": f"{i + 1.0}", "status": "1", "bmi": "0.1", "z1": "0.2", "z2": "0.3"}
            for i in range(6)]
    rows[3][column] = cell
    write_lines(f, ["time,status,bmi,z1,z2", *(",".join(r.values()) for r in rows)])
    with pytest.raises(SchemaError, match=rf"non-finite value '{cell}' in column '{column}' "
                                          r"at row 3"):
        load_csv(f, COLS)


def test_bad_status_and_raw_time_name_row_and_column(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["time,status,bmi,z1,z2", "1.0,1,0.1,0.2,0.3", "2.0,0.5,0.1,0.2,0.3"])
    with pytest.raises(SchemaError, match=r"status '0.5' in column 'status' at row 1 "
                                          r"is not 0 or 1"):
        load_csv(f, COLS)
    write_lines(f, ["time,status,bmi,z1,z2", "1.0,1,0.1,0.2,0.3", "0,1,0.1,0.2,0.3"])
    with pytest.raises(SchemaError, match=r"nonpositive raw time '0' in column 'time' at row 1"):
        load_csv(f, COLS)


def test_dataset_names_the_array_and_row_of_a_non_finite_value():
    z = np.zeros((4, 2))
    z[2, 1] = np.inf
    with pytest.raises(ValueError, match=r"non-finite value in z at row 2"):
        Dataset(z, np.zeros(4), np.zeros(4), np.ones(4, dtype=int))
    with pytest.raises(ValueError, match=r"non-finite value in y at row 1"):
        Dataset(np.zeros((4, 2)), np.zeros(4), [0.0, np.nan, 0.0, -np.inf],
                np.ones(4, dtype=int))


def test_missing_column_named(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["time,status,z1,z2", "1.0,1,0.2,0.3"])
    with pytest.raises(SchemaError, match="bmi"):
        load_csv(f, COLS)


def test_repeated_header_column_named(tmp_path):
    # the first of the two z1 columns used to be read, the second ignored
    f = tmp_path / "d.csv"
    write_lines(f, ["time,status,bmi,z1,z2,z1", "1.0,1,0.1,0.2,0.3,9.0", "2.0,0,0.1,0.4,0.5,9.0"])
    with pytest.raises(SchemaError, match=r"column 'z1' appears 2 times"):
        load_csv(f, COLS)


@pytest.mark.parametrize("fields, name", [
    ({"exposure": "time"}, "time"),
    ({"status": "z2"}, "z2"),
    ({"instruments": ("z1", "z2", "z1")}, "z1"),
])
def test_column_named_for_two_fields_is_refused(fields, name):
    args = {"time": "time", "status": "status", "exposure": "bmi", "instruments": ("z1", "z2")}
    with pytest.raises(SchemaError, match=rf"column '{name}' is named for more than one field"):
        ColumnConfig(**{**args, **fields})


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


def test_dataset_invariants():
    with pytest.raises(ValueError, match="delta"):
        Dataset(np.zeros((3, 1)), np.zeros(3), np.zeros(3), np.array([1, 2, 0]))
    # every fold is a Dataset, so no nuisance fit or AIPCW transform sees a
    # training fold without an observed event
    with pytest.raises(ValueError, match="observed event"):
        Dataset(np.zeros((3, 1)), np.zeros(3), np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 1)), np.zeros(1), np.zeros(1), np.ones(1, dtype=int))
    with pytest.raises(ValueError):
        Observation(z=np.array([np.nan]), d=0.0, y=0.0, delta=1)


def test_dataset_immutable():
    ds = Dataset(np.zeros((2, 1)), np.zeros(2), np.zeros(2), np.ones(2, dtype=int))
    with pytest.raises(ValueError):
        ds.y[0] = 1.0

