"""Core tensors, label representations, and logit/soft/hard label conversions.

Labels being purified live in unconstrained logit space (an N x c real
matrix); the soft labels any consumer sees are always the row-softmax of
``alpha * logits``, and hard labels are the row argmax.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FormatError

MAGIC = b"DMLPFEAT"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIQI")  # magic, version, rows (u64), dim (u32)


@dataclass(frozen=True)
class FeatureMatrix:
    """N x d matrix of frozen per-sample embeddings (rows are samples)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(
                f"feature matrix must be 2-D with at least one row and one "
                f"column, got shape {np.shape(self.values)}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("feature matrix contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class HardLabels:
    """Length-N sequence of class indices in [0, n_classes)."""

    values: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.int64)
        if v.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {np.shape(self.values)}")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        if v.size and (v.min() < 0 or v.max() >= self.n_classes):
            raise ValueError(
                f"label indices must lie in [0, {self.n_classes}), "
                f"got range [{v.min()}, {v.max()}]"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LabelLogits:
    """N x c real matrix of label logits; soft labels are softmax(alpha * values)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError(f"logits must be a 2-D matrix, got shape {np.shape(self.values)}")
        if not np.all(np.isfinite(v)):
            raise ValueError("logits contain non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CleanValidationSet:
    """Trusted validation samples: features paired with exact one-hot labels."""

    features: FeatureMatrix
    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = np.array(self.labels, dtype=np.float64)
        if lab.ndim != 2:
            raise ValueError(f"validation labels must be 2-D, got shape {np.shape(self.labels)}")
        if lab.shape[0] != self.features.n:
            raise ValueError(
                f"validation size mismatch: {self.features.n} feature rows vs "
                f"{lab.shape[0]} label rows"
            )
        if not (np.all((lab == 0.0) | (lab == 1.0)) and np.all(lab.sum(axis=1) == 1.0)):
            raise ValueError("validation labels must be exact one-hot rows")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.features.n

    @property
    def n_classes(self) -> int:
        return self.labels.shape[1]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stabilized softmax (max subtraction, safe for large magnitudes)."""
    return np.exp(log_softmax(x, axis=axis))


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax_entropy(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ``(log q, q, H, dH/dx)`` for q = softmax(x), from one log-softmax.

    H = -sum(q log q) is the Shannon entropy in nats, and its gradient w.r.t.
    x is -q * (log q + H).
    """
    logq = log_softmax(x)
    q = np.exp(logq)
    h = -(q * logq).sum(axis=-1)
    return logq, q, h, -q * (logq + h[..., None])


def one_hot(labels: HardLabels) -> np.ndarray:
    return np.eye(labels.n_classes, dtype=np.float64)[labels.values]


def init_logits(labels: HardLabels, scale: float = 1.0) -> LabelLogits:
    """One-hot initialization of the label logits, optionally scaled."""
    if not scale > 0:
        raise ValueError(f"init scale must be positive, got {scale}")
    return LabelLogits(one_hot(labels) * scale)


def effective_labels(logits: LabelLogits | np.ndarray, alpha: float) -> np.ndarray:
    """Soft labels softmax(alpha * logits), one probability row per sample."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    values = logits.values if isinstance(logits, LabelLogits) else np.asarray(logits)
    return softmax(alpha * values)


def hard_labels(logits: LabelLogits) -> HardLabels:
    """Row argmax of the logits; ties break to the lowest class index."""
    return HardLabels(np.argmax(logits.values, axis=1), logits.n_classes)


def logits_from_probabilities(probs: np.ndarray, alpha: float) -> np.ndarray:
    """Logits Y with softmax(alpha * Y) equal to the given probability rows."""
    return np.log(np.maximum(probs, 1e-300)) / alpha


def l2_normalize_rows(values: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    return values / np.where(norms > 0, norms, 1.0)


def write_features(matrix: FeatureMatrix, path: str | Path, format: str = "binary") -> None:
    """Write a feature matrix to disk.

    The binary container stores IEEE-754 f32 values; matrices whose entries
    are f32-representable round-trip bitwise.
    """
    path = Path(path)
    if format == "binary":
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, matrix.n, matrix.dim)
        payload = matrix.values.astype("<f4").tobytes(order="C")
        path.write_bytes(header + payload)
    elif format == "csv":
        with path.open("w", encoding="utf-8") as fh:
            for row in matrix.values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    else:
        raise ValueError(f"unknown feature format {format!r}")


def load_features(path: str | Path, format: str = "binary") -> FeatureMatrix:
    """Load a feature matrix, validating the container byte-for-byte.

    Binary layout: magic ``DMLPFEAT``, u32 version, u64 row count, u32 dim
    (all little-endian), then rows*dim little-endian f32 values, row-major.
    CSV: one comma-separated row of decimal floats per line.
    """
    path = Path(path)
    if format == "binary":
        return _load_features_binary(path)
    if format == "csv":
        return _load_features_csv(path)
    raise ValueError(f"unknown feature format {format!r}")


def _load_features_binary(path: Path) -> FeatureMatrix:
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(
            f"{path}: truncated header: need {_HEADER.size} bytes, file has {len(raw)}"
        )
    magic, version, rows, dim = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic at byte offset 0: {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 8")
    if rows < 1 or dim < 1:
        raise FormatError(f"{path}: invalid dimensions {rows}x{dim} in header")
    expected = rows * dim * 4
    have = len(raw) - _HEADER.size
    if have < expected:
        raise FormatError(
            f"{path}: truncated payload at byte offset {_HEADER.size + have}: "
            f"expected {expected} payload bytes, file has {have}"
        )
    if have > expected:
        raise FormatError(f"{path}: trailing data at byte offset {_HEADER.size + expected}")
    flat = np.frombuffer(raw, dtype="<f4", count=rows * dim, offset=_HEADER.size)
    bad = ~np.isfinite(flat)
    if bad.any():
        idx = int(np.argmax(bad))
        raise FormatError(f"{path}: non-finite value at byte offset {_HEADER.size + idx * 4}")
    return FeatureMatrix(flat.reshape(rows, dim))  # converts to float64 once


def _read_csv_rows(path: Path, row_ok: Callable[[list[float]], bool], problem: str, what: str) -> np.ndarray:
    """Parse equal-width rows of comma-separated floats, skipping blank lines.

    A row failing ``row_ok`` is reported as ``problem`` at its line; an empty
    file as "no ``what`` rows".
    """
    rows: list[list[float]] = []
    width = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(part) for part in line.split(",")]
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FormatError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
                )
            if not row_ok(row):
                raise FormatError(f"{path}: line {lineno}: {problem}")
            rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no {what} rows")
    return np.asarray(rows, dtype=np.float64)


def _load_features_csv(path: Path) -> FeatureMatrix:
    return FeatureMatrix(_read_csv_rows(path, lambda row: all(np.isfinite(row)), "non-finite value", "data"))


def write_hard_labels(labels: HardLabels, path: str | Path) -> None:
    """Write labels as text, one decimal class index per line."""
    Path(path).write_text("".join(f"{v}\n" for v in labels.values), encoding="utf-8")


def load_hard_labels(path: str | Path, n_classes: int | None = None) -> HardLabels:
    """Read a text label file; class count defaults to max index + 1."""
    path = Path(path)
    values: list[int] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: not a class index: {line!r}") from None
            if values[-1] < 0:
                raise FormatError(f"{path}: line {lineno}: negative class index {values[-1]}")
    if not values:
        raise FormatError(f"{path}: no labels")
    c = max(values) + 1 if n_classes is None else n_classes
    if max(values) >= c:
        raise FormatError(f"{path}: label {max(values)} outside declared {c} classes")
    return HardLabels(np.asarray(values, dtype=np.int64), c)


def write_onehot_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a one-hot matrix as CSV of 0/1 integers."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in np.asarray(matrix):
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def load_onehot_csv(path: str | Path) -> np.ndarray:
    """Read a CSV one-hot label matrix, enforcing exact one-hot rows."""

    def one_hot_row(row: list[float]) -> bool:
        return all(v in (0.0, 1.0) for v in row) and sum(row) == 1.0

    return _read_csv_rows(Path(path), one_hot_row, "not a one-hot row", "label")
