import re
import struct
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from labelpure import data
from labelpure.data import (
    _CHUNK_VALUES,
    CleanValidationSet,
    FeatureMatrix,
    HardLabels,
    log_softmax,
    load_features,
    load_hard_labels,
    load_onehot_csv,
    one_hot,
    softmax,
    softmax_entropy,
    write_features,
    write_hard_labels,
    write_onehot_csv,
)
from labelpure.errors import FormatError

from oracles import rowmajor_log_softmax, rowmajor_softmax, rowmajor_softmax_entropy

mpmath.mp.dps = 50


# ---------------------------------------------------------------- types


def test_feature_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        FeatureMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        FeatureMatrix(np.array([[np.inf], [0.0]]))


def test_feature_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FeatureMatrix(np.zeros(3))
    with pytest.raises(ValueError):
        FeatureMatrix(np.zeros((0, 3)))


def test_feature_matrix_is_immutable():
    m = FeatureMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0


def test_feature_matrix_shares_float64_and_float32_input_and_converts_the_rest():
    values = np.arange(6.0).reshape(3, 2)
    for shared in (values, values.astype(np.float32)):
        m = FeatureMatrix(shared)
        assert np.shares_memory(m.values, shared) and shared.flags.writeable and not m.values.flags.writeable
        assert m.values.dtype == shared.dtype
    small = values.astype(np.float32)
    for other in (np.asfortranarray(values), values[:, ::-1], values.tolist(), np.asfortranarray(small), small[::2]):
        m = FeatureMatrix(other)
        assert not np.shares_memory(m.values, other)
        assert m.values.dtype == np.float64 and m.values.flags.c_contiguous
        assert np.array_equal(m.values, np.asarray(other, dtype=np.float64))


def test_feature_matrix_finds_a_nonfinite_entry_past_the_first_block():
    values = np.zeros((3 * _CHUNK_VALUES // 8, 8))
    values[-1, -1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        FeatureMatrix(values)


def test_hard_labels_refuse_non_integral_values():
    assert HardLabels(np.array([0.0, 1.0, 2.0]), 3).values.tolist() == [0, 1, 2]
    for bad in ([0.5, 1.9, 2.2], [0.0, np.nan], [0.0, 1e30]):
        with pytest.raises(ValueError, match="whole class indices"):
            HardLabels(np.array(bad), 3)


def test_hard_labels_bounds():
    HardLabels(np.array([0, 1, 2]), 3)
    with pytest.raises(ValueError):
        HardLabels(np.array([0, 3]), 3)
    with pytest.raises(ValueError):
        HardLabels(np.array([-1]), 3)
    with pytest.raises(ValueError, match="n_classes must be >= 1, got 0"):
        HardLabels(np.array([0]), 0)


def test_validation_set_requires_one_hot():
    feats = FeatureMatrix(np.ones((2, 3)))
    CleanValidationSet(feats, np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        CleanValidationSet(feats, np.array([[0.5, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        CleanValidationSet(feats, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        CleanValidationSet(feats, np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="validation labels must be 2-D"):
        CleanValidationSet(feats, np.array([1.0, 0.0]))


# ---------------------------------------------------------------- conversions


@pytest.mark.parametrize("order", ["C", "F"])
def test_one_hot_allocates_only_its_matrix(order):
    labels = HardLabels(np.array([3999, 0, 17, 3999, 5, 1, 2, 2, 0, 42]), 4000)
    out, peak = _traced_peak(one_hot, labels, order)
    assert peak < 2 * out.nbytes  # indexing np.eye(4000) allocates 128 MB
    assert out.flags[f"{order}_CONTIGUOUS"] and out.dtype == np.float64
    assert out.tobytes("C") == (labels.values[:, None] == np.arange(4000)).astype(np.float64).tobytes()


def test_effective_labels_uniform_row():
    out = softmax(np.zeros((1, 3)))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-12)


def test_effective_labels_saturation():
    out = softmax(100.0 * np.array([[0.0, 0.0, 1.0]]))
    assert np.abs(out - np.array([0.0, 0.0, 1.0])).max() < 1e-6


def test_effective_labels_matches_high_precision_value():
    # independent high-precision evaluation of exp(x)/sum(exp(x))
    exps = [mpmath.exp(v) for v in (0.0, 0.0, 1.0)]
    total = sum(exps)
    expected = np.array([float(v / total) for v in exps])
    out = softmax(np.array([[0.0, 0.0, 1.0]]))
    assert np.abs(out[0] - expected).max() < 1e-15
    assert np.allclose(expected, [0.2119, 0.2119, 0.5761], atol=5e-5)


def test_hard_labels_matches_effective_argmax():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(40, 6))
    base = np.argmax(logits, axis=1)
    for alpha in (0.25, 1.0, 8.0):
        soft = softmax(alpha * logits)
        assert np.array_equal(base, np.argmax(soft, axis=1))


# ---------------------------------------------------------------- properties

_grid = st.floats(-50, 50).map(lambda v: round(v, 3))


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6), elements=_grid))
def test_softmax_rows_normalize(values):
    sums = softmax(values).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-6


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6), elements=_grid),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 64.0]),
    st.floats(-100, 100).map(lambda v: round(v, 3)),
)
def test_argmax_invariant_to_alpha_and_row_shift(values, alpha, shift):
    base = np.argmax(values, axis=1)
    assert np.array_equal(base, np.argmax(softmax(alpha * values), axis=1))
    assert np.array_equal(base, np.argmax(values + shift, axis=1))


def _layouts(rng, n, c):
    """The same n x c values row-major, column-major, and as strided views."""
    x = rng.normal(size=(n, c)) * 3
    wide = np.zeros((2 * n, 3 * c))
    wide[::2, ::3] = x
    return x, [x, np.asfortranarray(x), wide[::2, ::3], np.asfortranarray(wide)[::2, ::3]]


@pytest.mark.parametrize("c", [1, 2, 5, 7, 8, 10, 33])
def test_softmax_kernels_match_the_row_major_formula_on_any_layout(c):
    # Up to 7 classes a column-major row sum adds in the same order as a
    # row-major one; from 8 on numpy's pairwise row sum regroups the additions,
    # so entries agree to 1e-15 relative to the largest magnitude (log values
    # near 17 are spaced 3.6e-15 apart).
    rng = np.random.default_rng(c)
    x, inputs = _layouts(rng, 300, c)
    want = [rowmajor_softmax(x), rowmajor_log_softmax(x), *rowmajor_softmax_entropy(x)]
    for values in inputs:
        got = [softmax(values), log_softmax(values), *softmax_entropy(values)]
        for a, b in zip(got, want):
            assert a.shape == b.shape
            if c <= 7:
                assert np.array_equal(a, b)
            else:
                assert np.abs(a - b).max() <= 1e-15 * max(1.0, np.abs(b).max())


def test_softmax_kernels_need_a_matrix():
    for shape in [(4,), (2, 3, 4)]:
        with pytest.raises(ValueError, match="2-D"):
            log_softmax(np.zeros(shape))


# ---------------------------------------------------------------- binary format


def test_binary_round_trip(tmp_path):
    m = FeatureMatrix(np.array([[1.0, 2.0, -3.5], [0.25, 1e-4, 7.0]], dtype=np.float32))
    path = tmp_path / "f.bin"
    write_features(m, path)
    back = load_features(path)
    assert np.array_equal(back.values, m.values)
    assert back.n == 2 and back.dim == 3


def test_binary_round_trip_random(tmp_path):
    rng = np.random.default_rng(0)
    m = FeatureMatrix(rng.normal(size=(17, 5)).astype(np.float32))
    path = tmp_path / "f.bin"
    write_features(m, path)
    assert np.array_equal(load_features(path).values, m.values)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_binary_load_reads_the_payload_into_one_f32_array(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "f.bin"
    write_features(FeatureMatrix(rng.normal(size=(20000, 64)).astype(np.float32)), path)
    m, peak = _traced_peak(load_features, path)
    assert m.values.dtype == np.float32 and m.values.flags.c_contiguous
    # One f32 result plus one block's finiteness mask; a chunk buffer or a
    # float64 fill beside the result would take the peak past 1.05x.
    assert peak < 1.05 * m.values.nbytes, peak / m.values.nbytes


def test_binary_write_streams_f32_chunks(tmp_path):
    values = np.random.default_rng(2).normal(size=(20000, 64))
    path = tmp_path / "f.bin"
    _, peak = _traced_peak(write_features, FeatureMatrix(values), path)
    assert peak < 0.25 * values.nbytes, peak / values.nbytes
    header = struct.pack("<8sIQI", b"DMLPFEAT", 1, 20000, 64)
    assert path.read_bytes() == header + values.astype("<f4").tobytes()


def test_binary_write_refuses_values_beyond_float32_and_leaves_no_file(tmp_path):
    path = tmp_path / "f.bin"
    past_first_chunk = np.zeros((_CHUNK_VALUES // 4 + 3, 4))
    past_first_chunk[-1, 2] = -1e39
    for values, where in (
        (np.array([[1.0, 1e39]]), "row 0, column 1"),
        (past_first_chunk, f"row {_CHUNK_VALUES // 4 + 2}, column 2"),
    ):
        path.write_bytes(b"an older file")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: value .* at {where} is beyond the float32 range$"):
            write_features(FeatureMatrix(values), path)
        assert not path.exists()
    # A value just above the f32 maximum rounds down to it, so it is written.
    top = float(np.finfo(np.float32).max) * (1 + 2.0**-25)
    write_features(FeatureMatrix(np.array([[top, -top]])), path)
    assert load_features(path).values.tolist() == [[np.finfo(np.float32).max, -np.finfo(np.float32).max]]


def test_binary_header_claiming_more_rows_than_the_file_holds(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(struct.pack("<8sIQI", b"DMLPFEAT", 1, 1 << 40, 512) + b"\x00" * 8)
    # Allocating the claimed 4 PiB first would raise MemoryError instead.
    with pytest.raises(FormatError, match="truncated payload at byte offset 32"):
        load_features(path)


def test_binary_nonfinite_past_the_first_chunk_names_offset(tmp_path):
    path = tmp_path / "f.bin"
    write_features(FeatureMatrix(np.zeros((2 * _CHUNK_VALUES + 5, 1))), path)
    raw = bytearray(path.read_bytes())
    offset = 24 + (_CHUNK_VALUES + 3) * 4
    raw[offset : offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"non-finite value at byte offset {offset}$"):
        load_features(path)


def test_binary_payload_ending_mid_chunk_names_offset(tmp_path):
    path = tmp_path / "f.bin"
    rows = 3 * _CHUNK_VALUES // 4
    write_features(FeatureMatrix(np.ones((rows, 4))), path)
    cut = 24 + (_CHUNK_VALUES + 10) * 4 + 2
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(FormatError, match=f"truncated payload at byte offset {cut}: expected {rows * 16} payload"):
        load_features(path)


@pytest.mark.parametrize("change, message", [(-6, "truncated payload at byte offset {end}"), (3, "trailing data at byte offset {end}")])
def test_binary_file_resized_during_the_read_names_offset(tmp_path, monkeypatch, change, message):
    path = tmp_path / "f.bin"
    write_features(FeatureMatrix(np.ones((_CHUNK_VALUES + 7, 2))), path)
    end = path.stat().st_size
    # The size check passes on the written size; the bytes then read differ.
    monkeypatch.setattr(data.os, "fstat", lambda fd: SimpleNamespace(st_size=end))
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0 else raw + b"\x00" * change)
    end += min(change, 0)
    with pytest.raises(FormatError, match=message.format(end=end)):
        load_features(path)


def test_binary_truncated_payload(tmp_path):
    path = tmp_path / "f.bin"
    write_features(FeatureMatrix(np.ones((2, 3))), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(FormatError, match="truncated payload"):
        load_features(path)


def test_binary_header_errors(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"short")
    with pytest.raises(FormatError, match="truncated header"):
        load_features(path)
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad magic"):
        load_features(path)
    path.write_bytes(struct.pack("<8sIQI", b"DMLPFEAT", 9, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="version"):
        load_features(path)
    path.write_bytes(struct.pack("<8sIQI", b"DMLPFEAT", 1, 0, 2))
    with pytest.raises(FormatError, match="invalid dimensions 0x2 in header"):
        load_features(path)


def test_binary_trailing_data(tmp_path):
    path = tmp_path / "f.bin"
    write_features(FeatureMatrix(np.ones((1, 2))), path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing data"):
        load_features(path)


def test_binary_nonfinite_names_offset(tmp_path):
    path = tmp_path / "f.bin"
    header = struct.pack("<8sIQI", b"DMLPFEAT", 1, 1, 2)
    payload = np.array([1.0, np.inf], dtype="<f4").tobytes()
    path.write_bytes(header + payload)
    with pytest.raises(FormatError, match="byte offset 28"):
        load_features(path)


# ---------------------------------------------------------------- label files


@pytest.mark.parametrize(
    "loader, text, message",
    [
        (load_onehot_csv, "1,0\n0,1,0\n", "line 2: expected 2 columns, got 3"),
        (load_onehot_csv, "1,0\n1,1\n", "line 2: not a one-hot row"),
        (load_onehot_csv, "", "no label rows"),
        (load_onehot_csv, "0,x\n", "line 1: could not convert"),
        (load_onehot_csv, "1,0\n\n  \n0,1\n1,1\n", "line 5: not a one-hot row"),
        (load_hard_labels, "0\n\n1.5\n", "line 3: not a class index: '1.5'"),
        (load_hard_labels, "0\n-1\n", "line 2: negative class index -1"),
        (load_hard_labels, "\n", "no labels"),
        (load_hard_labels, "1\n99999999999999999999\n", "line 2: class index 99999999999999999999 does not fit in int64"),
        (load_onehot_csv, "0,1\n\udcfe,0\n", "line 2: not UTF-8 text"),
        (load_hard_labels, "1\n\udcff\n", "line 2: not UTF-8 text"),
        # int() and float() read non-ASCII digits and "_" digit groups as numbers.
        (load_hard_labels, "1_0\n\u0663\n", "line 1: not a class index: '1_0'"),
        (load_hard_labels, "0\n \u0663 \n", "line 2: not a class index: '\u0663'"),
        (load_onehot_csv, "0,1\n\u0661,0\n", "line 2: not a one-hot row: '\u0661,0'"),
        (load_onehot_csv, "0_0,1\n", "line 1: not a one-hot row: '0_0,1'"),
        # str.strip() takes the controls \x1c-\x1f for whitespace.
        (load_hard_labels, "0\n\x1f3\x1c\n", "line 2: not a class index: '\\x1f3\\x1c'"),
        (load_hard_labels, "0\n1\n\x00\n", "line 3: not a class index: '\\x00'"),
        (load_hard_labels, " 2\x7f\n", "line 1: not a class index: '2\\x7f'"),
        (load_onehot_csv, "0,1\n\x1e1,0\n", "line 2: not a one-hot row: '\\x1e1,0'"),
    ],
)
def test_csv_loaders_error_messages(tmp_path, loader, text, message):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}: {message}")):
        loader(path)


# load_hard_labels reads the text line by line: each line form gives its
# value, and a bad label appended after them is named by its line number,
# which the loop reaches only by accepting every line before it.
@pytest.mark.parametrize("text, values", [
    ("3\r\n1\r\n", [3, 1]),
    ("\n2\n\n\n0\n", [2, 0]),
    ("  4 \n\t1\t\n", [4, 1]),
    ("+3\n0\n", [3, 0]),
    ("1\r2\r", [1, 2]),
    ("\x0b5\x0c\n", [5]),  # vertical tab and form feed are ASCII whitespace
])
@pytest.mark.parametrize("bad, message", [("x", "not a class index: 'x'"), ("-1", "negative class index -1")])
def test_hard_labels_one_pass_and_line_loop_read_alike(tmp_path, text, values, bad, message):
    path = tmp_path / "y.txt"
    path.write_bytes(text.encode())
    assert load_hard_labels(path).values.tolist() == values
    path.write_bytes((text + bad + "\n").encode())
    lineno = len(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}: line {lineno}: {message}") + "$"):
        load_hard_labels(path)


def test_hard_labels_mixed_line_forms(tmp_path):
    path = tmp_path / "y.txt"
    path.write_bytes(b"\n 2 \r\n\r\n+3\r\n\t1\t\n\n0")
    assert load_hard_labels(path).values.tolist() == [2, 3, 1, 0]


def test_hard_labels_text_round_trip(tmp_path):
    labels = HardLabels(np.array([0, 2, 1, 2]), 3)
    path = tmp_path / "y.txt"
    write_hard_labels(labels, path)
    back = load_hard_labels(path)
    assert np.array_equal(back.values, labels.values)
    assert back.n_classes == 3


@pytest.mark.parametrize("values, text", [
    ([0, 12, 3, 12, 10], b"0\n12\n3\n12\n10\n"),
    ([7], b"7\n"),
])
def test_hard_labels_text_bytes_are_pinned(values, text, tmp_path):
    path = tmp_path / "y.txt"
    write_hard_labels(HardLabels(np.array(values, dtype=np.int64), 13), path)
    assert path.read_bytes() == text


def test_hard_labels_text_in_blocks_is_the_one_join_text(tmp_path):
    # 10000 labels fill four 2048-label blocks and part of a fifth; indices of
    # one to four digits put lines of every length across the block edges.
    values = np.random.default_rng(7).integers(0, 10000, size=10000)
    path = tmp_path / "y.txt"
    write_hard_labels(HardLabels(values, 10000), path)
    assert path.read_bytes() == "".join([f"{v}\n" for v in values.tolist()]).encode()


def test_hard_labels_write_holds_one_block_of_strings(tmp_path):
    # One block's strings and their join read 0.14 MB; a list of all 100000
    # lines and the one text joined from it read 6.39 MB.
    labels = HardLabels(np.random.default_rng(8).integers(0, 10, size=100000), 10)
    _, peak = _traced_peak(write_hard_labels, labels, tmp_path / "y.txt")
    assert peak < 0.5 * 2**20, peak / 2**20


# The text format cannot hold zero labels (an empty file reads as "no labels"),
# so neither labels nor logits, a FeatureMatrix, hold zero rows.
def test_zero_length_labels_and_logits_are_refused(tmp_path):
    with pytest.raises(ValueError, match="non-empty"):
        HardLabels(np.array([], dtype=np.int64), 3)
    with pytest.raises(ValueError, match="at least one row"):
        FeatureMatrix(np.zeros((0, 3)))
    path = tmp_path / "y.txt"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="no labels"):
        load_hard_labels(path, n_classes=3)


def test_hard_labels_text_declared_classes(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("0\n1\n")
    assert load_hard_labels(path, n_classes=5).n_classes == 5
    with pytest.raises(FormatError):
        load_hard_labels(path, n_classes=1)
    path.write_text("0\nx\n")
    with pytest.raises(FormatError, match="line 2"):
        load_hard_labels(path)


def test_onehot_csv_round_trip(tmp_path):
    m = one_hot(HardLabels(np.array([1, 0, 2]), 3))
    path = tmp_path / "v.csv"
    write_onehot_csv(m, path)
    assert np.array_equal(load_onehot_csv(path), m)


def test_onehot_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1,0\n0.5,0.5\n")
    with pytest.raises(FormatError, match="line 2"):
        load_onehot_csv(path)
