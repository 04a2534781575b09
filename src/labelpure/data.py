"""Core tensors and label representations, their file formats, and the row
softmax that turns an N x c matrix of label logits into soft labels.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ASCII_WHITESPACE, LABEL_TEXT, FormatError, check_config, read_text

MAGIC = b"DMLPFEAT"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIQI")  # magic, version, rows (u64), dim (u32)

# Values per block when a feature matrix is checked or written a piece at a
# time, so no temporary grows with the matrix (256 KiB of f32).
_CHUNK_VALUES = 1 << 16

# Largest class index a label file may hold: labels are int64 arrays.
_MAX_INDEX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class FeatureMatrix:
    """N x d matrix of frozen per-sample embeddings (rows are samples); also
    the N x c label logits that ``purify`` returns.

    A C-contiguous float64 or float32 input is not copied: ``values`` is a
    read-only view of it, so the caller must not write to that array
    afterwards. Any other dtype or layout is converted once to float64. A
    float32 matrix stays float32, at half the bytes: consumers widen the rows
    they use at that moment, so every product sees the same float64 values.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.dtype != np.float32 or not v.flags.c_contiguous:
            v = np.ascontiguousarray(v, dtype=np.float64)
        v = v.view()
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(
                f"feature matrix must be 2-D with at least one row and one "
                f"column, got shape {np.shape(self.values)}"
            )
        step = max(1, _CHUNK_VALUES // v.shape[1])
        for lo in range(0, v.shape[0], step):
            if not np.isfinite(v[lo : lo + step]).all():
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
    """Length-N sequence (N >= 1) of class indices in [0, n_classes)."""

    values: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        raw = np.asarray(self.values)
        with np.errstate(invalid="ignore"):
            v = np.array(raw, dtype=np.int64)
        if raw.dtype != v.dtype and not np.array_equal(v, raw):
            raise ValueError(f"labels must be whole class indices; casting {raw.dtype} to int64 changed some")
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"labels must be a non-empty 1-D array, got shape {np.shape(self.values)}")
        check_config({"n_classes": self.n_classes}, at_least={"n_classes": 1})
        if v.min() < 0 or v.max() >= self.n_classes:
            raise ValueError(
                f"label indices must lie in [0, {self.n_classes}), "
                f"got range [{v.min()}, {v.max()}]"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


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
    def n_classes(self) -> int:
        return self.labels.shape[1]


def softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax of an N x c matrix (max subtraction, safe for large magnitudes)."""
    return np.exp(log_softmax(x))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Row log-softmax of an N x c matrix, returned column-major.

    The max and the sum over the short class axis run on a column-major copy:
    there numpy reduces by adding whole columns, several times faster than
    over c contiguous values per row. Up to 7 classes the additions happen in
    the same order as a row-major sum; from 8 on, numpy's pairwise row sum
    groups them differently, a difference at rounding level.
    """
    x = np.asfortranarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"softmax needs a 2-D matrix, one row per sample, got shape {x.shape}")
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_entropy(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ``(log q, q, H, dH/dx)`` for q = softmax(x), from one log-softmax.

    H = -sum(q log q) is the Shannon entropy in nats, and its gradient w.r.t.
    x is -q * (log q + H). The matrices are column-major, like log_softmax's.
    """
    logq = log_softmax(x)
    q = np.exp(logq)
    h = -(q * logq).sum(axis=1)
    return logq, q, h, -q * (logq + h[:, None])


def one_hot(labels: HardLabels, order: str = "C") -> np.ndarray:
    """The N x c float64 one-hot matrix; ``order="F"`` lays it out class-major."""
    out = np.zeros((len(labels), labels.n_classes), order=order)
    out[np.arange(len(labels)), labels.values] = 1.0
    return out


def write_features(matrix: FeatureMatrix, path: str | Path) -> None:
    """Write a feature matrix to disk.

    The binary container stores IEEE-754 f32 values; matrices whose entries
    are f32-representable round-trip bitwise. A finite value that rounds to
    infinity in f32 raises ValueError naming its row and column, and the file
    is removed: every reader would refuse it.
    """
    path = Path(path)
    flat = matrix.values.reshape(-1)
    buf = np.empty(min(_CHUNK_VALUES, flat.size), dtype="<f4")
    try:
        with path.open("wb") as fh, np.errstate(over="ignore"):
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, matrix.n, matrix.dim))
            for lo in range(0, flat.size, buf.size):
                chunk = buf[: flat.size - lo]
                np.copyto(chunk, flat[lo : lo + chunk.size], casting="same_kind")
                finite = np.isfinite(chunk)
                if not finite.all():
                    row, col = divmod(lo + int(np.argmin(finite)), matrix.dim)
                    raise ValueError(
                        f"{path}: value {matrix.values[row, col]!r} at row {row}, column {col} "
                        f"is beyond the float32 range"
                    )
                fh.write(chunk)
    except ValueError:
        path.unlink()
        raise


def load_features(path: str | Path) -> FeatureMatrix:
    """Load a feature matrix, validating the container byte-for-byte.

    Layout: magic ``DMLPFEAT``, u32 version, u64 row count, u32 dim (all
    little-endian), then rows*dim little-endian f32 values, row-major. The
    header is checked against the file size, then the payload is read
    straight into one f32 matrix, which ``FeatureMatrix`` keeps without a
    copy after its one finiteness scan.
    """
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise FormatError(
                f"{path}: truncated header: need {_HEADER.size} bytes, file has {len(raw)}"
            )
        magic, version, rows, dim = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic at byte offset 0: {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte offset 8")
        if rows < 1 or dim < 1:
            raise FormatError(f"{path}: invalid dimensions {rows}x{dim} in header")
        total = rows * dim
        _check_payload_size(path, size - _HEADER.size, total * 4)

        out = np.empty((rows, dim), dtype="<f4")
        flat = out.reshape(-1)
        got = fh.readinto(flat)
        if got < flat.nbytes:  # the file shrank after the size check
            _check_payload_size(path, got, total * 4)
        if fh.read(1):
            _check_payload_size(path, total * 4 + 1, total * 4)
    try:
        return FeatureMatrix(out)
    except ValueError:  # only a non-finite value fails here: find the first one
        for lo in range(0, total, _CHUNK_VALUES):
            finite = np.isfinite(flat[lo : lo + _CHUNK_VALUES])
            if not finite.all():
                idx = lo + int(np.argmin(finite))
                raise FormatError(f"{path}: non-finite value at byte offset {_HEADER.size + idx * 4}") from None
        raise


def _check_payload_size(path: Path, have: int, expected: int) -> None:
    if have < expected:
        raise FormatError(
            f"{path}: truncated payload at byte offset {_HEADER.size + have}: "
            f"expected {expected} payload bytes, file has {have}"
        )
    if have > expected:
        raise FormatError(f"{path}: trailing data at byte offset {_HEADER.size + expected}")


def write_hard_labels(labels: HardLabels, path: str | Path) -> None:
    """Write labels as text, one decimal class index per line. The text goes
    out 2048 labels at a time, so no list of N strings is ever built."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for lo in range(0, len(labels), 2048):
            fh.write("".join([f"{v}\n" for v in labels.values[lo : lo + 2048].tolist()]))


def _read_label_text(path: Path, refusal: str) -> str:
    """The text of a label file. A line that holds a character outside
    ``LABEL_TEXT`` is refused as ``refusal``, naming its line. One scan passes
    the usual file."""
    text = read_text(path)
    at = LABEL_TEXT.match(text).end()
    if at < len(text):
        lineno = text.count("\n", 0, at) + 1
        line = text.split("\n")[lineno - 1].strip(ASCII_WHITESPACE)
        raise FormatError(f"{path}: line {lineno}: {refusal}: {line!r}")
    return text


def load_hard_labels(path: str | Path, n_classes: int | None = None) -> HardLabels:
    """Read a text label file; class count defaults to max index + 1."""
    path = Path(path)
    values = []
    for lineno, line in enumerate(_read_label_text(path, "not a class index").split("\n"), 1):
        line = line.strip(ASCII_WHITESPACE)
        if not line:
            continue
        try:
            value = int(line)
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: not a class index: {line!r}") from None
        if value < 0:
            raise FormatError(f"{path}: line {lineno}: negative class index {value}")
        if value > _MAX_INDEX:
            raise FormatError(f"{path}: line {lineno}: class index {value} does not fit in int64")
        values.append(value)
    if not values:
        raise FormatError(f"{path}: no labels")
    top = max(values)
    c = top + 1 if n_classes is None else n_classes
    if top >= c:
        raise FormatError(f"{path}: label {top} outside declared {c} classes")
    return HardLabels(np.asarray(values, dtype=np.int64), c)


def write_onehot_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a one-hot matrix as CSV of 0/1 integers."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in np.asarray(matrix):
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def load_onehot_csv(path: str | Path) -> np.ndarray:
    """Read a CSV one-hot label matrix: equal-width rows of 0/1 values, one 1
    per row; blank lines are skipped."""
    path = Path(path)
    rows: list[list[float]] = []
    for lineno, line in enumerate(_read_label_text(path, "not a one-hot row").split("\n"), 1):
        line = line.strip(ASCII_WHITESPACE)
        if not line:
            continue
        try:
            row = [float(part) for part in line.split(",")]
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise FormatError(f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(row)}")
        if not (all(v in (0.0, 1.0) for v in row) and sum(row) == 1.0):
            raise FormatError(f"{path}: line {lineno}: not a one-hot row")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no label rows")
    return np.asarray(rows, dtype=np.float64)
