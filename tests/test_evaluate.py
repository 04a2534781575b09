import tracemalloc

import numpy as np
import pytest

from labelpure.data import FeatureMatrix, HardLabels, one_hot
from labelpure.eac import LinearClassifier, classifier_forward
from labelpure.errors import FormatError
from labelpure.evaluate import (
    TrainConfig,
    evaluate_classifier,
    load_classifier,
    save_classifier,
    train_linear_ce,
    train_linear_on_targets,
)
from labelpure.noise import MixtureSpec, gen_gaussian_mixture_split, inject_symmetric

from oracles import label_accuracy, linear_probe, reference_train_linear_ce


# ---------------------------------------------------------------- training


def test_separable_pair_is_fit_perfectly():
    features = FeatureMatrix(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    labels = HardLabels(np.array([0, 1]), 2)
    clf = train_linear_ce(features, labels, TrainConfig(epochs=200, seed=0))
    assert evaluate_classifier(clf, features, labels) == 1.0


def test_zero_lr_leaves_zero_classifier():
    rng = np.random.default_rng(0)
    features = FeatureMatrix(rng.normal(size=(10, 3)))
    labels = HardLabels(rng.integers(0, 2, size=10), 2)
    clf = train_linear_ce(features, labels, TrainConfig(epochs=3, lr=0.0, seed=0))
    assert np.array_equal(clf.weights, np.zeros((3, 2)))
    assert np.array_equal(clf.bias, np.zeros(2))


def test_clean_benchmark_reaches_high_heldout_accuracy():
    spec = MixtureSpec(2000, 32, 5, 8.0, seed=1)
    train, _, test = gen_gaussian_mixture_split(spec, n_test=1000)
    clf = train_linear_ce(train[0], train[1], TrainConfig(seed=1))
    assert evaluate_classifier(clf, test[0], test[1]) >= 0.99


def test_soft_targets_match_hard_training_on_one_hot():
    rng = np.random.default_rng(2)
    features = FeatureMatrix(rng.normal(size=(30, 4)))
    labels = HardLabels(rng.integers(0, 3, size=30), 3)
    cfg = TrainConfig(epochs=5, seed=3)
    a = train_linear_ce(features, labels, cfg)
    b = train_linear_on_targets(features, one_hot(labels), cfg)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_float32_features_train_and_score_as_their_float64_copy():
    spec = MixtureSpec(3000, 12, 5, 3.0, seed=4)
    (features, labels), _, _ = gen_gaussian_mixture_split(spec)
    narrow = FeatureMatrix(features.values.astype(np.float32))
    wide = FeatureMatrix(narrow.values.astype(np.float64))
    cfg = TrainConfig(epochs=3, lr=0.05, seed=5)
    a, b = train_linear_ce(narrow, labels, cfg), train_linear_ce(wide, labels, cfg)
    assert a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()
    assert evaluate_classifier(a, narrow, labels) == evaluate_classifier(a, wide, labels)


def test_retraining_peak_stays_under_two_label_matrices():
    # The one-hot targets are scattered straight into one class-major matrix,
    # so retraining's traced peak is 1.21 label matrices at purify's memory
    # test shape; a row-major one-hot and a class-major copy of it read 2.21.
    n, d, c = 20000, 16, 10
    rng = np.random.default_rng(11)
    features = FeatureMatrix(rng.normal(size=(n, d)))
    labels = HardLabels(rng.integers(0, c, size=n), c)
    tracemalloc.start()
    try:
        train_linear_ce(features, labels, TrainConfig(epochs=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    label_matrices = peak / (n * c * 8)
    assert label_matrices < 1.6, label_matrices


def test_training_is_deterministic():
    rng = np.random.default_rng(3)
    features = FeatureMatrix(rng.normal(size=(40, 5)))
    labels = HardLabels(rng.integers(0, 4, size=40), 4)
    cfg = TrainConfig(epochs=4, seed=9)
    a = train_linear_ce(features, labels, cfg)
    b = train_linear_ce(features, labels, cfg)
    assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_targets_are_refused_before_training(bad):
    targets = np.full((6, 3), 1.0 / 3)
    targets[4] = [bad, 0.0, 1.0]
    features = FeatureMatrix(np.ones((6, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        train_linear_on_targets(features, targets, TrainConfig(epochs=1))


@pytest.mark.parametrize("c", [5, 10])
def test_retraining_matches_the_functional_reference(c):
    spec = MixtureSpec(300, 12, c, 3.0, seed=c)
    (features, clean), _, _ = gen_gaussian_mixture_split(spec, n_val=c)
    labels = inject_symmetric(clean, 0.4, seed=1)
    cfg = TrainConfig(epochs=6, batch=64, lr=0.05, seed=2)
    clf = train_linear_ce(features, labels, cfg)
    ref = reference_train_linear_ce(features, labels, cfg)
    assert np.abs(clf.weights - ref.weights).max() < 1e-12
    assert np.abs(clf.bias - ref.bias).max() < 1e-12
    assert np.abs(ref.weights).max() > 0.1


def test_train_config_validation():
    with pytest.raises(ValueError, match="^epochs must be >= 1, got 0$"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="^batch must be >= 1, got 0$"):
        TrainConfig(batch=0)
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="^lr must be nonnegative, got -0.001$"):  # as EacConfig
        TrainConfig(lr=-1e-3)
    with pytest.raises(ValueError):
        train_linear_ce(
            FeatureMatrix(np.ones((3, 2))), HardLabels(np.array([0, 1]), 2), TrainConfig()
        )


# ---------------------------------------------------------------- evaluation


def test_evaluate_perfect_classifier():
    rng = np.random.default_rng(5)
    labels = HardLabels(rng.integers(0, 3, size=20), 3)
    features = FeatureMatrix(one_hot(labels) * 10.0)
    clf = LinearClassifier(np.eye(3), np.zeros(3))
    assert evaluate_classifier(clf, features, labels) == 1.0


def test_evaluate_zero_classifier_ties_to_class_zero():
    labels = HardLabels(np.array([0, 1, 2, 3] * 5), 4)
    features = FeatureMatrix(np.random.default_rng(6).normal(size=(20, 3)))
    clf = LinearClassifier(np.zeros((3, 4)), np.zeros(4))
    acc = evaluate_classifier(clf, features, labels)
    assert acc == float(np.mean(labels.values == 0))


def test_evaluate_matches_scalar_loop():
    rng = np.random.default_rng(7)
    features = FeatureMatrix(rng.normal(size=(25, 4)))
    labels = HardLabels(rng.integers(0, 3, size=25), 3)
    clf = LinearClassifier(rng.normal(size=(4, 3)), rng.normal(size=3))
    logits = classifier_forward(clf, features.values)
    hits = 0
    for i in range(25):
        best, best_k = -np.inf, 0
        for k in range(3):
            if logits[i, k] > best:
                best, best_k = logits[i, k], k
        hits += int(best_k == labels.values[i])
    assert evaluate_classifier(clf, features, labels) == hits / 25


def test_evaluate_equals_label_accuracy_of_predictions():
    rng = np.random.default_rng(13)
    features = FeatureMatrix(rng.normal(size=(30, 5)))
    labels = HardLabels(rng.integers(0, 4, size=30), 4)
    clf = LinearClassifier(rng.normal(size=(5, 4)), rng.normal(size=4))
    preds = HardLabels(np.argmax(classifier_forward(clf, features.values), axis=1), 4)
    assert evaluate_classifier(clf, features, labels) == label_accuracy(preds, labels)


def test_evaluate_equals_row_major_recount():
    """The benchmark recounts eval accuracy from F @ W + b; at a held-out split
    shape the class-major forward must give exactly that fraction."""
    rng = np.random.default_rng(17)
    features = FeatureMatrix(rng.normal(size=(5000, 512)))
    labels = HardLabels(rng.integers(0, 10, size=5000), 10)
    clf = LinearClassifier(rng.normal(size=(512, 10)), rng.normal(size=10))
    pred = np.argmax(features.values @ clf.weights + clf.bias, axis=1)
    assert evaluate_classifier(clf, features, labels) == float(np.mean(pred == labels.values))


def test_evaluate_size_mismatch():
    with pytest.raises(ValueError):
        evaluate_classifier(
            LinearClassifier(np.zeros((2, 2)), np.zeros(2)),
            FeatureMatrix(np.ones((3, 2))),
            HardLabels(np.array([0, 1]), 2),
        )


# ---------------------------------------------------------------- linear probe


def test_probe_full_clean_subset_is_accurate():
    spec = MixtureSpec(1000, 16, 4, 8.0, seed=8)
    train, _, test = gen_gaussian_mixture_split(spec, n_test=500)
    acc = linear_probe(train[0], train[1], test[0], test[1], TrainConfig(seed=0, epochs=60))
    assert acc >= 0.99


def test_probe_single_class_subset_predicts_prior():
    spec = MixtureSpec(200, 8, 4, 8.0, seed=9)
    train, _, test = gen_gaussian_mixture_split(spec, n_test=400)
    mask = train[1].values == 2
    # mean-centering keeps the weight gradient identically zero, so the
    # single-class fit degenerates to a bias-only constant predictor
    centered = train[0].values[mask] - train[0].values[mask].mean(axis=0)
    subset_f = FeatureMatrix(centered)
    subset_y = HardLabels(train[1].values[mask], 4)
    acc = linear_probe(subset_f, subset_y, test[0], test[1], TrainConfig(seed=0, epochs=20))
    assert acc == float(np.mean(test[1].values == 2))


def test_probe_invariant_to_subset_order():
    spec = MixtureSpec(300, 8, 3, 6.0, seed=10)
    train, _, test = gen_gaussian_mixture_split(spec, n_test=300)
    cfg = TrainConfig(seed=4, epochs=15)
    base = linear_probe(train[0], train[1], test[0], test[1], cfg)
    perm = np.random.default_rng(11).permutation(train[0].n)
    shuffled_f = FeatureMatrix(train[0].values[perm])
    shuffled_y = HardLabels(train[1].values[perm], 3)
    assert linear_probe(shuffled_f, shuffled_y, test[0], test[1], cfg) == base


# ---------------------------------------------------------------- persistence


def test_classifier_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    clf = LinearClassifier(rng.normal(size=(5, 3)), rng.normal(size=3))
    path = tmp_path / "model.json"
    save_classifier(clf, path)
    back = load_classifier(path)
    assert np.array_equal(back.weights, clf.weights)
    assert np.array_equal(back.bias, clf.bias)


def test_classifier_version_check(tmp_path):
    path = tmp_path / "model.json"
    # true == 1 and 1.0 == 1 in Python, but save_classifier writes the integer 1.
    for version in ("2", "true", "1.0", "null"):
        path.write_text(f'{{"version": {version}, "weights": [[0.0]], "bias": [0.0]}}')
        with pytest.raises(FormatError) as exc:
            load_classifier(path)
        assert str(exc.value) == f"{path}: unsupported classifier version {version}"


@pytest.mark.parametrize("text, message", [
    ('{"version": 1}', "missing key 'weights'"),
    ('{"version": 1, "weights": [[0.0]]}', "missing key 'bias'"),
    ("[1, 2]", "a classifier must be a JSON object, got list"),
    ('{"version": 1, "weights": [["a"]], "bias": [0.0]}', "weights must be an array of numbers"),
    ('{"version": 1, "weights": [[0.0]], "bias": {"b": 0.0}}', "bias must be an array of numbers"),
    # numpy reads a numeric string or a bool as a number; JSON does not.
    ('{"version": 1, "weights": [[1.5], [true]], "bias": [0.0]}', "weights must be an array of numbers"),
    ('{"version": 1, "weights": [["1.5"], [1.0]], "bias": [0.0]}', "weights must be an array of numbers"),
    ('{"version": 1, "weights": [[1.5], [1.0]], "bias": ["0"]}', "bias must be an array of numbers"),
    ('{"version": 1, "weights": [[1.0]], "bias": [null]}', "bias must be an array of numbers"),
    pytest.param('{"version": 1, "weights": [[1' + "0" * 400 + ']], "bias": [0.0]}',
                 "weights holds an integer beyond the float64 range", id="401-digit-weight"),
    pytest.param('{"version": 1, "weights": [[' + "9" * 5000 + ']], "bias": [0.0]}',
                 "line 1: integer with more than 4300 digits: column 29", id="5000-digit-weight"),
    ('{"version": 1, "weights": [[1.0, 2.0]], "bias": [0.0]}', "inconsistent classifier shapes (1, 2) / (1,)"),
    ('{"version": 1, "weights": [[NaN]], "bias": [0.0]}', "classifier parameters contain non-finite entries"),
    ('{"version": 1, "weights": [[0.0]], "bias"', "line 1: Expecting ':' delimiter: column 42"),
    ('{"version": 1,\n "weights": [[0.0]],\n "bias": [0.', "line 3: Expecting ',' delimiter: column 12"),
    ("\udcff{}", "line 1: not UTF-8 text"),
    # save_classifier writes weights two levels deep and bias one level deep.
    ('{"version": 1, "weights": [0.0], "bias": [0.0]}', "weights must be an array of numbers"),
    ('{"version": 1, "weights": [[0.0]], "bias": [[0.0]]}', "bias must be an array of numbers"),
    pytest.param('{"version": 1, "weights": [' + "[" * 500 + "]" * 500 + '], "bias": [0.0]}',
                 "weights must be an array of numbers", id="500-deep-weights"),
    pytest.param('{"version": 1, "weights": ' + "[" * 100000 + "]" * 100000 + ', "bias": [0.0]}',
                 "line 1: JSON nested too deeply", id="100000-deep-weights"),
    pytest.param('{"version": 1,\n "weights": ' + "[" * 100000 + "]" * 100000 + ',\n "bias": [0.0]}',
                 "line 2: JSON nested too deeply", id="100000-deep-weights-on-line-2"),
])
def test_malformed_classifier_file_names_path_and_key(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
    with pytest.raises(FormatError) as exc:
        load_classifier(path)
    assert str(exc.value) == f"{path}: {message}"
