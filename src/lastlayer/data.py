"""Datasets, standardization, and deterministic CSV round-tripping.

CSV schema for datasets: ``x_0..x_{n_x-1}, t_0..t_{n_y-1}, split`` with
split in ``SPLITS``, rows read back in ``SPLITS`` order.  Floats are written
with ``repr`` so files are byte-identical across reruns and parse back to the
exact same doubles.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .rng import make_rng

SPLITS = ("train", "val", "test")

__all__ = [
    "SPLITS",
    "Dataset",
    "Standardizer",
    "fit_standardizer",
    "split_train_val",
    "read_splits_csv",
    "write_splits_csv",
]


@dataclass(frozen=True)
class Dataset:
    """Input matrix (m, n_x) and target matrix (m, n_y)."""

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        t = np.atleast_2d(np.asarray(self.t, dtype=float))
        if t.shape[0] == 1 and x.shape[0] > 1:
            t = t.T
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        if self.x.shape[0] != self.t.shape[0]:
            raise ValueError("inputs and targets disagree on sample count")
        if not (np.isfinite(self.x).all() and np.isfinite(self.t).all()):
            raise ValueError("dataset contains non-finite values")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def n_x(self) -> int:
        return self.x.shape[1]

    @property
    def n_y(self) -> int:
        return self.t.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.x[idx], self.t[idx])


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine map to zero mean / unit variance."""

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.scale

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.scale + self.mean


def fit_standardizer(values: np.ndarray) -> Standardizer:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    mean = values.mean(axis=0)
    scale = values.std(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    return Standardizer(mean, scale)


def identity_standardizer(n: int) -> Standardizer:
    return Standardizer(np.zeros(n), np.ones(n))


def split_train_val(
    data: Dataset, val_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic shuffle split; the validation part gets the tail."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    n_val = max(1, int(round(data.m * val_fraction)))
    if n_val >= data.m:
        raise ValueError("validation split would consume the whole dataset")
    perm = make_rng(seed).permutation(data.m)
    return data.subset(perm[:-n_val]), data.subset(perm[-n_val:])


def _fmt(value: float) -> str:
    return repr(float(value))


def _splits_header(n_x: int, n_y: int) -> list[str]:
    return [f"x_{i}" for i in range(n_x)] + [f"t_{j}" for j in range(n_y)] + ["split"]


def write_splits_csv(path, splits: dict[str, Dataset]) -> None:
    first = next(iter(splits.values()))
    header = _splits_header(first.n_x, first.n_y)
    rows = [[*d.x[i], *d.t[i], name] for name, d in splits.items() for i in range(d.m)]
    write_table_csv(path, header, rows)


def read_splits_csv(path) -> dict[str, Dataset]:
    """Read a dataset CSV in ``SPLITS`` order; raises ValueError off the schema."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"dataset file is empty: {path}")
        n_x = sum(1 for c in header if c.startswith("x_"))
        n_y = sum(1 for c in header if c.startswith("t_"))
        if n_x == 0 or n_y == 0 or header != _splits_header(n_x, n_y):
            raise ValueError(f"dataset header must read x_0.., t_0.., split; got {header}")
        buckets: dict[str, list[list[float]]] = {name: [] for name in SPLITS}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"dataset line {reader.line_num} has {len(row)} cells, "
                    f"the header has {len(header)}"
                )
            if row[-1] not in buckets:
                raise ValueError(
                    f"dataset line {reader.line_num} has split {row[-1]!r}; "
                    f"the split must be one of {', '.join(SPLITS)}"
                )
            buckets[row[-1]].append([float(v) for v in row[:-1]])
    out = {}
    for name, rows in buckets.items():
        if rows:
            arr = np.array(rows)
            out[name] = Dataset(arr[:, :n_x], arr[:, n_x : n_x + n_y])
    return out


def write_table_csv(path, header: list[str], rows: list[list[float]]) -> None:
    """Generic numeric table writer with deterministic float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def read_table_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)
