"""Dataset loading, splitting, and standardization.

CSV for tabular regression data, IDX (optionally gzipped) for image
classification data. Standardization statistics always come from the
train split only; predictive log-likelihoods are reported in original
target units via the -log(std_y) change-of-variables correction.
"""

from __future__ import annotations

import gzip
import numbers
import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
GZIP_MAGIC = b"\x1f\x8b"
TRAIN_FRACTION = 0.9  # of the rows of a split that train


class DataError(Exception):
    """Malformed or unusable input data."""


@dataclass
class Dataset:
    features: np.ndarray  # (N, d) or (N, H, W, C)
    targets: np.ndarray  # (N,) regression floats or class labels
    target_column: int | None = None  # the CSV column the targets came from

    def __post_init__(self):
        if len(self.features) != len(self.targets):
            raise DataError("feature/target length mismatch")

    @property
    def n(self) -> int:
        return len(self.features)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return replace(self, features=self.features[idx], targets=self.targets[idx])


@dataclass(frozen=True)
class SplitPlan:
    """Which shuffled train/test split of a table ``make_splits`` draws; an
    index or seed that is not a non-negative integer is a ValueError."""

    split_index: int
    seed: int = 0

    def __post_init__(self):
        for value in (self.split_index, self.seed):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"split index and seed must be non-negative integers, "
                                 f"not {value!r}")


def load_csv(path: str | Path, target_column: int = -1) -> Dataset:
    """Parse a comma-separated numeric CSV with an optional (auto-detected)
    header row.

    Every other column than the target is a feature, constant or not, and
    the targets stay floats; a cell that does not parse raises DataError
    with its row and column, and so do a header with no rows, a target
    column outside the rows and no column besides the target.
    """
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")

    def parse_row(line: str, row_no: int) -> list[float]:
        out = []
        for col_no, cell in enumerate(line.split(",")):
            try:
                out.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: unparseable cell at row {row_no}, column {col_no}: {cell!r}"
                ) from None
        return out

    try:
        rows = [parse_row(lines[0], 0)]
    except DataError:
        rows = []  # header row
    rows += [parse_row(ln, i) for i, ln in enumerate(lines[1:], start=1)]
    if not rows:
        raise DataError(f"{path}: no data rows below the header")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows with widths {sorted(widths)}")
    mat = np.asarray(rows, dtype=np.float64)
    if np.any(~np.isfinite(mat)):
        raise DataError(f"{path}: non-finite values in data")

    width = mat.shape[1]
    if not -width <= target_column < width:
        raise DataError(f"{path}: target column {target_column} outside the {width} columns")
    tcol = target_column % width
    y = mat[:, tcol]
    x = np.delete(mat, tcol, axis=1)
    if x.shape[1] == 0:
        raise DataError(f"{path}: no feature column besides the target")
    return Dataset(x, y, target_column=int(tcol))


def _read_maybe_gzip(path: Path) -> bytes:
    raw = path.read_bytes()
    if raw[:2] == GZIP_MAGIC:
        return gzip.decompress(raw)
    return raw


def _parse_idx(raw: bytes, expect_magic: int, path: Path) -> np.ndarray:
    if len(raw) < 4:
        raise DataError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expect_magic:
        raise DataError(f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DataError(f"{path}: truncated IDX dimension block")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims))
    if len(raw) != header + count:
        raise DataError(f"{path}: IDX payload size mismatch ({len(raw) - header} vs {count})")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Load an IDX image/label pair (MNIST-style, optionally gzipped);
    pixels scaled to [0, 1]."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    images = _parse_idx(_read_maybe_gzip(images_path), IDX_IMAGES_MAGIC, images_path)
    labels = _parse_idx(_read_maybe_gzip(labels_path), IDX_LABELS_MAGIC, labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataError("image/label count mismatch")
    x = images.astype(np.float64) / 255.0
    return Dataset(x[..., None], labels.astype(np.int64))


def make_splits(n: int, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled split: first ceil(TRAIN_FRACTION * n)
    indices train, rest test."""
    if n < 10:
        raise DataError(f"need at least 10 data points to split, got {n}")
    rng = np.random.default_rng([plan.seed, plan.split_index])
    perm = rng.permutation(n)
    n_train = int(np.ceil(TRAIN_FRACTION * n))
    return perm[:n_train], perm[n_train:]


def standardize(ds: Dataset, train_idx: np.ndarray) -> tuple[Dataset, float]:
    """Z-score the features and targets of a regression table by train-split
    statistics; returns the table and the train-split std of its targets.

    The one place that drops feature columns, with a warning that names
    them: those constant (max == min) on the train split, since the float std
    of a constant column need not be 0 (7.77 over 455 rows gives 2.7e-15).
    A kept column or a target whose std overflows is a DataError naming it.
    """
    x = ds.features.astype(np.float64)
    if x.ndim != 2:
        raise DataError("standardize expects flat (N, d) features")
    xt = x[train_idx]
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = xt.mean(axis=0), xt.std(axis=0)
    keep = np.flatnonzero(np.ptp(xt, axis=0) > 0.0)
    if keep.size == 0:
        raise DataError("no feature column varies on the train split")
    if keep.size < x.shape[1]:
        dropped = np.setdiff1d(np.arange(x.shape[1]), keep).tolist()
        warnings.warn(f"dropping {len(dropped)} zero-variance train columns {dropped}")
    huge = keep[~np.isfinite(sd[keep])]
    if huge.size:
        raise DataError(f"feature columns {huge.tolist()} are too large to standardize")
    xs = (x[:, keep] - mu[keep]) / sd[keep]

    y = ds.targets.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        ym, ys = float(y[train_idx].mean()), float(y[train_idx].std())
    if np.ptp(y[train_idx]) == 0.0:
        raise DataError("constant regression target on train split")
    if not np.isfinite(ys):
        raise DataError("the regression targets are too large to standardize")
    return replace(ds, features=xs, targets=(y - ym) / ys), ys


def check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Class labels as a flat integer array; a label that is not a finite
    integer, or one outside [0, n_classes), is a DataError."""
    labels = np.asarray(labels).reshape(-1)
    fractional = np.flatnonzero(~np.isfinite(labels) | (labels != np.trunc(labels)))
    if fractional.size:
        raise DataError(f"class label {labels[fractional[0]]:g} is not an integer")
    if labels.size and not 0 <= labels.min() <= labels.max() < n_classes:
        raise DataError(f"labels run from {labels.min():g} to {labels.max():g}, outside the "
                        f"{n_classes} classes 0 to {n_classes - 1}")
    return labels.astype(np.int64, copy=False)
