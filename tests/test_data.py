import re
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from labelpure.data import (
    CleanValidationSet,
    FeatureMatrix,
    HardLabels,
    LabelLogits,
    effective_labels,
    hard_labels,
    init_logits,
    l2_normalize_rows,
    load_features,
    load_hard_labels,
    load_onehot_csv,
    logits_from_probabilities,
    one_hot,
    softmax,
    write_features,
    write_hard_labels,
    write_onehot_csv,
)
from labelpure.errors import FormatError

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


def test_hard_labels_bounds():
    HardLabels(np.array([0, 1, 2]), 3)
    with pytest.raises(ValueError):
        HardLabels(np.array([0, 3]), 3)
    with pytest.raises(ValueError):
        HardLabels(np.array([-1]), 3)


def test_validation_set_requires_one_hot():
    feats = FeatureMatrix(np.ones((2, 3)))
    CleanValidationSet(feats, np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        CleanValidationSet(feats, np.array([[0.5, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        CleanValidationSet(feats, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        CleanValidationSet(feats, np.array([[1.0, 0.0]]))


# ---------------------------------------------------------------- conversions


def test_init_logits_one_hot_rows():
    assert np.array_equal(
        init_logits(HardLabels(np.array([2]), 3)).values, [[0.0, 0.0, 1.0]]
    )
    assert np.array_equal(init_logits(HardLabels(np.array([0]), 2)).values, [[1.0, 0.0]])
    assert np.array_equal(
        init_logits(HardLabels(np.array([1, 1]), 2)).values, [[0.0, 1.0], [0.0, 1.0]]
    )


def test_init_logits_scale():
    scaled = init_logits(HardLabels(np.array([1]), 2), scale=4.0)
    assert np.array_equal(scaled.values, [[0.0, 4.0]])
    with pytest.raises(ValueError):
        init_logits(HardLabels(np.array([1]), 2), scale=0.0)


def test_effective_labels_uniform_row():
    out = effective_labels(LabelLogits(np.zeros((1, 3))), alpha=1.0)
    assert np.allclose(out, 1.0 / 3.0, atol=1e-12)


def test_effective_labels_saturation():
    out = effective_labels(LabelLogits(np.array([[0.0, 0.0, 1.0]])), alpha=100.0)
    assert np.abs(out - np.array([0.0, 0.0, 1.0])).max() < 1e-6


def test_effective_labels_matches_high_precision_value():
    # independent high-precision evaluation of exp(x)/sum(exp(x))
    exps = [mpmath.exp(v) for v in (0.0, 0.0, 1.0)]
    total = sum(exps)
    expected = np.array([float(v / total) for v in exps])
    out = effective_labels(LabelLogits(np.array([[0.0, 0.0, 1.0]])), alpha=1.0)
    assert np.abs(out[0] - expected).max() < 1e-15
    assert np.allclose(expected, [0.2119, 0.2119, 0.5761], atol=5e-5)


def test_effective_labels_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        effective_labels(LabelLogits(np.zeros((1, 2))), alpha=0.0)


def test_hard_labels_argmax_and_tie_break():
    assert hard_labels(LabelLogits(np.array([[0.1, 0.7, 0.2]]))).values[0] == 1
    assert hard_labels(LabelLogits(np.array([[0.5, 0.5]]))).values[0] == 0


def test_hard_labels_matches_effective_argmax():
    rng = np.random.default_rng(5)
    logits = LabelLogits(rng.normal(size=(40, 6)))
    base = hard_labels(logits).values
    for alpha in (0.25, 1.0, 8.0):
        soft = effective_labels(logits, alpha)
        assert np.array_equal(base, np.argmax(soft, axis=1))


def test_logits_from_probabilities_inverts_softmax():
    rng = np.random.default_rng(6)
    probs = softmax(rng.normal(size=(10, 4)))
    for alpha in (0.5, 1.0, 3.0):
        back = softmax(alpha * logits_from_probabilities(probs, alpha))
        assert np.abs(back - probs).max() < 1e-12


def test_l2_normalize_rows_handles_zero_rows():
    out = l2_normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert np.allclose(out[0], [0.6, 0.8])
    assert np.array_equal(out[1], [0.0, 0.0])


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
    logits = LabelLogits(values)
    base = hard_labels(logits).values
    assert np.array_equal(base, np.argmax(effective_labels(logits, alpha), axis=1))
    shifted = LabelLogits(values + shift)
    assert np.array_equal(base, hard_labels(shifted).values)


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


def test_binary_load_converts_to_float64_once(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "f.bin"
    write_features(FeatureMatrix(rng.normal(size=(2000, 64)).astype(np.float32)), path)
    tracemalloc.start()
    try:
        m = load_features(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.values.dtype == np.float64
    # f32 file bytes + one float64 copy + the finiteness masks; a second
    # float64 copy would take the peak past 2x.
    assert peak < 2 * m.values.nbytes, peak / m.values.nbytes


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


# ---------------------------------------------------------------- csv format


def test_csv_parse(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    m = load_features(path, format="csv")
    assert np.array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = FeatureMatrix(rng.normal(size=(4, 3)))
    path = tmp_path / "f.csv"
    write_features(m, path, format="csv")
    assert np.array_equal(load_features(path, format="csv").values, m.values)


def test_csv_errors_name_lines(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(FormatError, match="line 2"):
        load_features(path, format="csv")
    path.write_text("1.0,2.0\n1.0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_features(path, format="csv")
    path.write_text("1.0,inf\n")
    with pytest.raises(FormatError, match="line 1"):
        load_features(path, format="csv")


@pytest.mark.parametrize(
    "loader, text, message",
    [
        (lambda p: load_features(p, format="csv"), "1.0,2.0\n\n1.0\n", "line 3: expected 2 columns, got 1"),
        (lambda p: load_features(p, format="csv"), "1.0,nan\n", "line 1: non-finite value"),
        (lambda p: load_features(p, format="csv"), "\n\n", "no data rows"),
        (lambda p: load_features(p, format="csv"), "1,x\n", "line 1: could not convert"),
        (load_onehot_csv, "1,0\n0,1,0\n", "line 2: expected 2 columns, got 3"),
        (load_onehot_csv, "1,0\n1,1\n", "line 2: not a one-hot row"),
        (load_onehot_csv, "", "no label rows"),
        (load_onehot_csv, "0,x\n", "line 1: could not convert"),
    ],
)
def test_csv_loaders_error_messages(tmp_path, loader, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}: {message}")):
        loader(path)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_features(tmp_path / "x", format="parquet")


# ---------------------------------------------------------------- label files


def test_hard_labels_text_round_trip(tmp_path):
    labels = HardLabels(np.array([0, 2, 1, 2]), 3)
    path = tmp_path / "y.txt"
    write_hard_labels(labels, path)
    back = load_hard_labels(path)
    assert np.array_equal(back.values, labels.values)
    assert back.n_classes == 3


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
