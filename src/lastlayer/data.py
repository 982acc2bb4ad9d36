"""Datasets, standardization, and deterministic CSV round-tripping.

CSV schema for datasets: ``x_0..x_{n_x-1}, t_0..t_{n_y-1}, split`` with
split in ``SPLITS``, rows read back in ``SPLITS`` order.  Floats are written
with ``repr`` so files are byte-identical across reruns and parse back to the
exact same doubles; ``column_names`` builds every numbered column name.
Both readers raise ``ValueError`` naming the path for an empty file, and
naming the line for a row whose cell count is not the header's or a cell
(its column named too) that is not a float; a header-only table is (0, n).
``check_integers`` and ``check_numbers`` type-check settings read from JSON.
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


def check_integers(**values) -> None:
    """Raise TypeError unless every value is an int; bool (JSON true) is not one."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")


def check_numbers(**values) -> None:
    """Raise TypeError unless every value is an int or a float; bool (JSON true) is neither."""
    for name, value in values.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class Dataset:
    """Input matrix (m, n_x) and target matrix (m, n_y)."""

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        t = np.atleast_2d(np.asarray(self.t, dtype=float))
        if x.ndim > 2 or t.ndim > 2:
            raise ValueError(f"inputs {x.shape} and targets {t.shape} must be at most 2-D")
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


def column_names(prefix: str, n: int) -> list[str]:
    """``prefix_0`` .. ``prefix_{n-1}``: the numbered columns of every CSV the package writes."""
    return [f"{prefix}_{i}" for i in range(n)]


def _splits_header(n_x: int, n_y: int) -> list[str]:
    return column_names("x", n_x) + column_names("t", n_y) + ["split"]


def write_splits_csv(path, splits: dict[str, Dataset]) -> None:
    first = next(iter(splits.values()))
    blocks = [(np.hstack([d.x, d.t]), f",{name}\r\n") for name, d in splits.items()]
    _write_csv(path, _splits_header(first.n_x, first.n_y), blocks)


def read_splits_csv(path) -> dict[str, Dataset]:
    """Read a dataset CSV in ``SPLITS`` order; raises ValueError off the schema."""
    rows = _read_csv(path, "dataset", n_text=1)
    header = next(rows)
    n_x = sum(1 for c in header if c.startswith("x_"))
    n_y = sum(1 for c in header if c.startswith("t_"))
    if n_x == 0 or n_y == 0 or header != _splits_header(n_x, n_y):
        raise ValueError(f"dataset header must read x_0.., t_0.., split; got {header}")
    buckets: dict[str, list[list[float]]] = {name: [] for name in SPLITS}
    for line, cells, (split,) in rows:
        if split not in buckets:
            raise ValueError(
                f"dataset line {line} has split {split!r}; "
                f"the split must be one of {', '.join(SPLITS)}"
            )
        buckets[split].append(cells)
    tables = {name: np.array(cells) for name, cells in buckets.items() if cells}
    return {name: Dataset(table[:, :n_x], table[:, n_x:]) for name, table in tables.items()}


def write_table_csv(path, header: list[str], rows: np.ndarray) -> None:
    """Numeric table writer with deterministic float formatting: ``rows`` is a 2-D float array."""
    _write_csv(path, header, [(rows, "\r\n")])


def _write_csv(path, header: list[str], blocks) -> None:
    """The header, then the rows of each (float array, line end) block.

    Every cell is the ``repr`` of a Python float, which never holds a comma,
    a quote or a line break, and every header name is one the package
    builds, so joining them with commas writes the bytes ``csv.writer``
    writes for the same cells.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rows, end in blocks:
            for row in rows.astype(float, copy=False).tolist():
                fh.write(",".join(map(repr, row)) + end)


def read_table_csv(path) -> tuple[list[str], np.ndarray]:
    """The header and a (rows, columns) float array; raises ValueError as the module says."""
    rows = _read_csv(path, "table")
    header = next(rows)
    table = [cells for _, cells, _ in rows]
    return header, np.array(table).reshape(len(table), len(header))


def _read_csv(path, noun: str, n_text: int = 0):
    """Yield the header, then each row's line, float cells and last ``n_text`` (text) cells."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{noun} file is empty: {path}")
        yield header
        n = len(header)
        for row in reader:
            line = reader.line_num
            if len(row) != n:
                raise ValueError(f"{noun} line {line} has {len(row)} cells, the header has {n}")
            cells = []
            for name, cell in zip(header[: n - n_text], row):
                try:
                    cells.append(float(cell))
                except ValueError:
                    raise ValueError(f"{noun} line {line} has {cell!r} in column {name}") from None
            yield line, cells, row[n - n_text :]
