"""Dataset representation and CSV ingestion.

Internally the outcome is always on the log-time scale; raw event times are
transformed once at the load boundary.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

TIME_SCALES = ("raw", "log")


class Dataset:
    """Immutable column-major sample of n observations.

    Attributes
    ----------
    z : (n, p) instrument matrix
    d : (n,) exposure
    y : (n,) observed log-time, min(log T, log C)
    delta : (n,) event indicator, 1 = failure observed
    """

    __slots__ = ("z", "d", "y", "delta")

    def __init__(self, z, d, y, delta):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        d = np.asarray(d, dtype=float)
        y = np.asarray(y, dtype=float)
        delta = np.asarray(delta)
        n = z.shape[0]
        if not (d.shape == y.shape == delta.shape == (n,)):
            raise ValueError("z, d, y, delta must share the same length")
        if n < 2:
            raise ValueError(f"need at least 2 observations, got {n}")
        if not np.isin(delta, (0, 1)).all():
            bad = int(np.flatnonzero(~np.isin(delta, (0, 1)))[0])
            raise ValueError(f"delta outside {{0,1}} at row {bad}")
        if not int(delta.sum()) >= 1:
            raise ValueError("dataset must contain at least one observed event")
        for name, arr in (("z", z), ("d", d), ("y", y)):
            if not np.isfinite(arr).all():
                row = int(np.argwhere(~np.isfinite(arr))[0, 0])
                raise ValueError(f"non-finite value in {name} at row {row}")
        for name, arr in (("z", z), ("d", d), ("y", y), ("delta", delta.astype(np.int8))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def p(self) -> int:
        return self.z.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.z[idx], self.d[idx], self.y[idx], self.delta[idx])

    def __eq__(self, other):
        return (
            isinstance(other, Dataset)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.d, other.d)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.delta, other.delta)
        )


@dataclass(frozen=True)
class ColumnConfig:
    """Mapping from CSV header names onto the dataset fields."""

    time: str
    status: str
    exposure: str
    instruments: tuple[str, ...]
    time_scale: str = "raw"  # "raw" applies log at the boundary, "log" is passed through

    def __post_init__(self):
        if self.time_scale not in TIME_SCALES:
            raise SchemaError(f"time_scale must be 'raw' or 'log', got {self.time_scale!r}")
        object.__setattr__(self, "instruments", tuple(self.instruments))
        if not self.instruments:
            raise SchemaError("at least one instrument column required")


def load_csv(path, config: ColumnConfig) -> Dataset:
    """Read a comma-separated file into a checked Dataset.

    Rows with a missing value in any required column are dropped with a
    warning. Every other cell must be a finite number, raw times strictly
    positive and status 0 or 1; a bad cell raises SchemaError naming its
    column and its row (0-based, header excluded).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = list(reader)

    required = [config.time, config.status, config.exposure, *config.instruments]
    positions = {}
    for name in required:
        if name not in header:
            raise SchemaError(f"missing column {name!r} in {path}")
        positions[name] = header.index(name)

    z_rows, d_vals, y_vals, deltas = [], [], [], []
    dropped = 0
    for ridx, row in enumerate(rows):
        cells = [row[positions[name]].strip() if positions[name] < len(row) else ""
                 for name in required]
        if any(c == "" or c.upper() in ("NA", "NAN") for c in cells):
            dropped += 1
            continue
        vals = []
        for name, cell in zip(required, cells):
            try:
                vals.append(float(cell))
            except ValueError:
                raise SchemaError(f"non-numeric value {cell!r} in column {name!r} "
                                  f"at row {ridx}") from None
            if not math.isfinite(vals[-1]):
                raise SchemaError(f"non-finite value {cell!r} in column {name!r} at row {ridx}")
        t_raw, status_f, d_val, *z_vals = vals
        if status_f not in (0.0, 1.0):
            raise SchemaError(f"status {cells[1]!r} in column {config.status!r} at row {ridx} "
                              "is not 0 or 1")
        if config.time_scale == "raw":
            if t_raw <= 0:
                raise SchemaError(f"nonpositive raw time {cells[0]!r} in column "
                                  f"{config.time!r} at row {ridx}")
            y = math.log(t_raw)
        else:
            y = t_raw
        y_vals.append(y)
        deltas.append(int(status_f))
        d_vals.append(d_val)
        z_rows.append(z_vals)

    if dropped:
        warnings.warn(f"load_csv: dropped {dropped} row(s) with missing required values",
                      stacklevel=2)
    if not z_rows:
        raise SchemaError(f"{path}: no usable rows")
    return Dataset(np.array(z_rows), np.array(d_vals), np.array(y_vals), np.array(deltas))


def write_csv(path, dataset: Dataset, config: ColumnConfig) -> None:
    """Write a Dataset back out with round-trip float precision.

    The time column honors config.time_scale: 'raw' exponentiates the stored
    log-times, 'log' writes them as is.
    """
    if len(config.instruments) != dataset.p:
        raise SchemaError("instrument column count does not match dataset p")
    header = [config.time, config.status, config.exposure, *config.instruments]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            t = math.exp(dataset.y[i]) if config.time_scale == "raw" else dataset.y[i]
            writer.writerow([repr(float(t)), int(dataset.delta[i]), repr(float(dataset.d[i])),
                             *(repr(float(v)) for v in dataset.z[i])])
