"""Dataset representation, validation and CSV ingestion.

Internally the outcome is always on the log-time scale; raw event times are
transformed once at the load boundary.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError


@dataclass(frozen=True)
class Observation:
    """One unit: instruments, exposure, observed log-time, event indicator."""

    z: np.ndarray
    d: float
    y: float
    delta: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        if not (np.all(np.isfinite(z)) and math.isfinite(self.d) and math.isfinite(self.y)):
            raise ValueError("observation contains non-finite values")


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
        if not (np.isfinite(z).all() and np.isfinite(d).all() and np.isfinite(y).all()):
            raise ValueError("dataset contains non-finite values")
        for name, arr in (("z", z), ("d", d), ("y", y), ("delta", delta.astype(np.int8))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def p(self) -> int:
        return self.z.shape[1]

    @property
    def censoring_rate(self) -> float:
        return float(1.0 - self.delta.mean())

    def observation(self, i: int) -> Observation:
        return Observation(z=self.z[i].copy(), d=float(self.d[i]), y=float(self.y[i]),
                           delta=int(self.delta[i]))

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.z[idx], self.d[idx], self.y[idx], self.delta[idx])

    @classmethod
    def from_observations(cls, observations) -> "Dataset":
        obs = list(observations)
        if not obs:
            raise ValueError("empty observation list")
        p = obs[0].z.shape[0]
        if any(o.z.shape[0] != p for o in obs):
            raise ValueError("observations disagree on instrument dimension")
        return cls(
            np.stack([o.z for o in obs]),
            np.array([o.d for o in obs]),
            np.array([o.y for o in obs]),
            np.array([o.delta for o in obs]),
        )

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
        if self.time_scale not in ("raw", "log"):
            raise SchemaError(f"time_scale must be 'raw' or 'log', got {self.time_scale!r}")
        object.__setattr__(self, "instruments", tuple(self.instruments))
        if not self.instruments:
            raise SchemaError("at least one instrument column required")


@dataclass(frozen=True)
class Finding:
    """Advisory item produced by validate()."""

    kind: str
    message: str
    value: object = None


def load_csv(path, config: ColumnConfig) -> Dataset:
    """Read a comma-separated file into a validated Dataset.

    Rows with a missing value in any required column are dropped with a
    warning. Raw times must be strictly positive; status must be 0 or 1.
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
        t_raw, status_f, d_val, *z_vals = vals
        if status_f not in (0.0, 1.0):
            raise ValueError(f"status value {cells[1]} outside {{0,1}} at row {ridx}")
        if config.time_scale == "raw":
            if t_raw <= 0:
                raise ValueError(f"nonpositive raw time {t_raw} at row {ridx}")
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


def validate(dataset: Dataset, corr_threshold: float = 0.2) -> list[Finding]:
    """Advisory checks: censoring rate, constant columns, duplicate event
    times, and instrument-pair correlations above corr_threshold."""
    findings = [Finding("censoring_rate", f"censoring rate {dataset.censoring_rate:.4f}",
                        dataset.censoring_rate)]
    for j in range(dataset.p):
        if np.ptp(dataset.z[:, j]) == 0.0:
            findings.append(Finding("constant_column", f"instrument {j + 1} is constant", j + 1))
    if np.ptp(dataset.d) == 0.0:
        findings.append(Finding("constant_column", "exposure is constant", "d"))

    event_times = dataset.y[dataset.delta == 1]
    n_dup = event_times.size - np.unique(event_times).size
    if n_dup:
        findings.append(Finding("duplicate_event_times",
                                f"{n_dup} duplicated event time(s)", n_dup))

    # Pairwise correlations bear on the mutual-independence requirement.
    sd = dataset.z.std(axis=0)
    ok = sd > 0
    if ok.sum() >= 2:
        zc = (dataset.z[:, ok] - dataset.z[:, ok].mean(axis=0)) / sd[ok]
        corr = zc.T @ zc / dataset.n
        cols = np.flatnonzero(ok)
        for a in range(len(cols)):
            for b in range(a + 1, len(cols)):
                if abs(corr[a, b]) > corr_threshold:
                    pair = (int(cols[a]) + 1, int(cols[b]) + 1)
                    findings.append(Finding(
                        "instrument_correlation",
                        f"instruments {pair[0]} and {pair[1]} correlate at {corr[a, b]:.3f}",
                        pair))
    return findings
