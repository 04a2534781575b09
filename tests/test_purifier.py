import inspect
import re
import tracemalloc

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from labelpure.data import (
    CleanValidationSet,
    FeatureMatrix,
    HardLabels,
    one_hot,
)
from labelpure import purifier
from labelpure.eac import EacConfig, eac_label_update, minibatches
from labelpure.errors import FormatError
from labelpure.ipc import IpcConfig, ipc_step
from labelpure.noise import (
    MixtureSpec,
    gen_gaussian_mixture_split,
    inject_symmetric,
)
from labelpure.purifier import PurifierConfig, purify, save_report
from labelpure.report import CorrectionReport, IterationRecord, load_report

from oracles import label_accuracy, reference_purify


def _small_problem(seed=0, n=64, d=6, c=3, n_val=12):
    rng = np.random.default_rng(seed)
    spec = MixtureSpec(n, d, c, 6.0, seed=seed)
    train, val, _ = gen_gaussian_mixture_split(spec, n_val=n_val)
    noisy = inject_symmetric(train[1], 0.3, seed=seed + 100)
    val_set = CleanValidationSet(val[0], one_hot(val[1]))
    return train[0], train[1], noisy, val_set


def _quick_config(**overrides):
    base = dict(
        ipc=IpcConfig(),
        eac=EacConfig(period=5),
        batch_size=32,
        epochs=3,
        shuffle_seed=0,
    )
    base.update(overrides)
    return PurifierConfig(**base)


# ---------------------------------------------------------------- loop shape


def test_record_count_matches_batches():
    rng = np.random.default_rng(0)
    features = FeatureMatrix(rng.normal(size=(512, 4)))
    noisy = HardLabels(rng.integers(0, 3, size=512), 3)
    val = CleanValidationSet(
        FeatureMatrix(rng.normal(size=(10, 4))), one_hot(HardLabels(rng.integers(0, 3, 10), 3))
    )
    cfg = PurifierConfig(batch_size=256, epochs=1)
    _, _, report = purify(features, noisy, val, cfg)
    assert len(report.records) == 2
    assert [r.p for r in report.records] == [1, 2]
    assert report.summary["iterations"] == 2


def test_ragged_final_batch_counts():
    features, _, noisy, val = _small_problem(n=70)
    _, _, report = purify(features, noisy, val, _quick_config(epochs=2))
    # 70 samples in batches of 32 -> 3 iterations per epoch
    assert len(report.records) == 6


def test_eac_update_flag_fires_on_period():
    features, _, noisy, val = _small_problem(n=64)
    _, _, report = purify(features, noisy, val, _quick_config(epochs=5))
    flags = {r.p for r in report.records if r.eac_update}
    assert flags == {p for p in range(1, 11) if p % 5 == 0}


def test_clean_labels_stay_put_on_separable_benchmark():
    spec = MixtureSpec(2000, 32, 5, 8.0, seed=0)
    train, val, _ = gen_gaussian_mixture_split(spec, n_val=100)
    val_set = CleanValidationSet(val[0], one_hot(val[1]))
    cfg = PurifierConfig()
    logits, purified, _ = purify(train[0], train[1], val_set, cfg)
    assert label_accuracy(purified, train[1]) >= 0.99


# ---------------------------------------------------------------- isolation & determinism


def test_truth_tracking_never_changes_outputs():
    features, clean, noisy, val = _small_problem()
    cfg = _quick_config()
    logits_a, labels_a, report_a = purify(features, noisy, val, cfg)
    logits_b, labels_b, report_b = purify(features, noisy, val, cfg, truth=clean)
    assert np.array_equal(logits_a.values, logits_b.values)
    assert np.array_equal(labels_a.values, labels_b.values)
    assert all(r.acc is None for r in report_a.records)
    assert all(r.acc is not None for r in report_b.records)
    assert "final_accuracy" in report_b.summary
    assert "final_accuracy" not in report_a.summary


def test_tracked_accuracy_equals_a_full_recount(monkeypatch):
    # Every record's acc equals a recount over a shadow copy of the logits,
    # which takes the rows each ridge step returns and the matrix each
    # replacement returns. 2 iterations per epoch and a replacement every 3, so
    # records follow ridge steps before and after replacements as well as
    # replacements; a large eta makes ridge steps flip labels.
    features, clean, noisy, val = _small_problem()
    cfg = _quick_config(ipc=IpcConfig(eta=100.0), eac=EacConfig(period=3), epochs=4)
    batches = (idx for _, idx, _ in minibatches(features.values, cfg.batch_size, cfg.epochs, cfg.shuffle_seed))
    shadow = one_hot(noisy)
    recounts = []

    def ridge_step(rows, grad, eta):
        out = ipc_step(rows, grad, eta)
        shadow[next(batches)] = out
        return out

    def replacement(Y, logits_all, eta):
        out = eac_label_update(Y, logits_all, eta)
        shadow[...] = out
        return out

    def record(**fields):
        recounts.append(float(np.mean(np.argmax(shadow, axis=1) == clean.values)))
        return IterationRecord(**fields)

    monkeypatch.setattr(purifier, "ipc_step", ridge_step)
    monkeypatch.setattr(purifier, "eac_label_update", replacement)
    monkeypatch.setattr(purifier, "IterationRecord", record)
    _, purified, report = purify(features, noisy, val, cfg, truth=clean)
    assert [r.acc for r in report.records] == recounts
    assert len(recounts) == 8 and next(batches, None) is None
    assert recounts[0] != label_accuracy(noisy, clean) and len(set(recounts)) > 2
    assert recounts[-1] == label_accuracy(purified, clean)
    # The summary takes its accuracies from the same counter.
    assert report.summary["final_accuracy"] == report.records[-1].acc
    assert report.summary["initial_accuracy"] == label_accuracy(noisy, clean)


def _reference_problem(c, d, n=240, b=48):
    spec = MixtureSpec(n, d, c, 3.0, seed=c + d)
    train, val, _ = gen_gaussian_mixture_split(spec, n_val=4 * c)
    noisy = inject_symmetric(train[1], 0.4, seed=1)
    return train[0], noisy, CleanValidationSet(val[0], one_hot(val[1])), b


# Ids as pytest derived them before the n column was added.
@pytest.mark.parametrize("c, d, eac, n", [
    (5, 8, {}, 240), (10, 8, {}, 240), (5, 60, {}, 240), (10, 60, {"eta": 0.6}, 240), (5, 8, {}, 250), (10, 60, {}, 250),
], ids=["5-8-eac0", "10-8-eac1", "5-60-eac2", "10-60-eac3", "5-8-ragged", "10-60-ragged"])
def test_purify_matches_the_sequential_reference(c, d, eac, n):
    # d = 8 takes the primal ridge factor and d = 60 > b = 48 the dual one; the
    # reference builds the primal operator explicitly in both cases. eta = 0.6
    # blends the classifier's logits in partway. 250 rows make five batches of
    # 48 and a ragged one of 10 per epoch.
    features, noisy, val, b = _reference_problem(c, d, n)
    cfg = PurifierConfig(ipc=IpcConfig(eta=2.0), eac=EacConfig(period=4, lr=0.05, **eac), batch_size=b, epochs=5)
    logits, purified, _ = purify(features, noisy, val, cfg)
    ref = reference_purify(features, noisy, val, cfg)
    assert np.array_equal(purified.values, np.argmax(ref, axis=1))
    assert np.abs(logits.values - ref).max() < 1e-12
    assert not np.array_equal(purified.values, noisy.values)


def test_reference_purify_forms_its_own_forward():
    """The reference stays sequential and row-major: its replacement is
    F_t @ W + b, not the library's class-major classifier_forward."""
    source = inspect.getsource(reference_purify)
    assert "F_t @ clf.weights + clf.bias" in source
    assert "classifier_forward" not in source


def test_purify_is_deterministic():
    features, _, noisy, val = _small_problem()
    cfg = _quick_config()
    logits_a, _, _ = purify(features, noisy, val, cfg)
    logits_b, _, _ = purify(features, noisy, val, cfg)
    assert np.array_equal(logits_a.values, logits_b.values)
    assert isinstance(logits_a, FeatureMatrix) and not logits_a.values.flags.writeable


def test_float32_features_purify_to_the_bytes_of_their_float64_copy():
    # 3000 rows, so each replacement's forward runs in more than one chunk.
    features, truth, noisy, val = _small_problem(n=3000, d=8, n_val=30)
    narrow = features.values.astype(np.float32), val.features.values.astype(np.float32)
    runs = []
    for dtype in (np.float32, np.float64):
        f, vf = (FeatureMatrix(a.astype(dtype, copy=False)) for a in narrow)
        assert f.values.dtype == vf.values.dtype == dtype
        runs.append(purify(f, noisy, CleanValidationSet(vf, val.labels), _quick_config(batch_size=256), truth=truth))
    (logits_a, hard_a, rep_a), (logits_b, hard_b, rep_b) = runs
    assert logits_a.values.dtype == np.float64
    assert logits_a.values.tobytes() == logits_b.values.tobytes()
    assert np.array_equal(hard_a.values, hard_b.values)
    assert rep_a.records == rep_b.records
    assert {**rep_a.summary, "wall_time_s": 0} == {**rep_b.summary, "wall_time_s": 0}


def test_validation_set_is_read_only_but_influences_result():
    features, _, noisy, val = _small_problem()
    before_feats = val.features.values.copy()
    before_labels = val.labels.copy()
    cfg = _quick_config()
    logits_a, _, _ = purify(features, noisy, val, cfg)
    assert np.array_equal(val.features.values, before_feats)
    assert np.array_equal(val.labels, before_labels)
    # flip one validation label: gradients change, so outputs change
    flipped = val.labels.copy()
    flipped[0] = np.roll(flipped[0], 1)
    val_flipped = CleanValidationSet(val.features, flipped)
    logits_b, _, _ = purify(features, noisy, val_flipped, cfg)
    assert not np.array_equal(logits_a.values, logits_b.values)


# ---------------------------------------------------------------- variants


def test_ipc_only_skips_classifier():
    features, _, noisy, val = _small_problem()
    for off in (False, 0):  # a falsy int still records false, which load_report requires
        _, _, report = purify(features, noisy, val, _quick_config(use_eac=off))
        assert all(r.eac_update is False for r in report.records)
        assert all(r.val_loss is not None for r in report.records)


def test_eac_only_has_no_validation_loss():
    features, _, noisy, val = _small_problem()
    _, _, report = purify(features, noisy, val, _quick_config(use_ipc=False))
    assert all(r.val_loss is None and r.grad_norm is None for r in report.records)
    assert any(r.eac_update for r in report.records)


def test_single_batch_when_batch_exceeds_n():
    features, _, noisy, val = _small_problem(n=20)
    _, _, report = purify(features, noisy, val, _quick_config(batch_size=64, epochs=3))
    assert len(report.records) == 3


# ---------------------------------------------------------------- memory


@pytest.mark.parametrize("with_truth, dtype", [
    pytest.param(False, np.float64, id="no-truth"),
    pytest.param(True, np.float64, id="truth"),
    pytest.param(False, np.float32, id="no-truth-float32"),
    pytest.param(True, np.float32, id="truth-float32"),
])
def test_purify_peak_stays_under_four_label_matrices(with_truth, dtype):
    # The loop keeps one N x c label buffer, and a replacement forms and blends
    # one 2048-row forward chunk at a time, so its traced peak is 1.45 label
    # matrices (1.55 with truth). A full-N forward blended into its own array
    # reads 3.25 (3.34); blending that into a new matrix and rebinding the
    # buffer to it reads 4.17 (4.26). float32 features are widened a batch or
    # a forward chunk at a time and read the same; widening the whole matrix to
    # float64 reads 4.84 (4.94) with full-N replacements.
    n, d, c = 20000, 16, 10
    rng = np.random.default_rng(11)
    features = FeatureMatrix(rng.normal(size=(n, d)).astype(dtype))
    noisy = HardLabels(rng.integers(0, c, size=n), c)
    truth = HardLabels(rng.integers(0, c, size=n), c) if with_truth else None
    val = CleanValidationSet(FeatureMatrix(rng.normal(size=(5 * c, d))), one_hot(HardLabels(np.arange(5 * c) % c, c)))
    cfg = PurifierConfig(eac=EacConfig(period=10), epochs=1)
    tracemalloc.start()
    try:
        purify(features, noisy, val, cfg, truth=truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    label_matrices = peak / (n * c * 8)
    assert label_matrices < 2.0, label_matrices


# ---------------------------------------------------------------- errors


def test_singular_gram_error_names_iteration():
    rng = np.random.default_rng(1)
    features = FeatureMatrix(rng.normal(size=(8, 16)))  # batch rank < dim
    noisy = HardLabels(rng.integers(0, 2, size=8), 2)
    val = CleanValidationSet(
        FeatureMatrix(rng.normal(size=(4, 16))), one_hot(HardLabels(rng.integers(0, 2, 4), 2))
    )
    cfg = PurifierConfig(ipc=IpcConfig(lam=0.0), batch_size=8, epochs=1)
    with pytest.raises(LinAlgError, match=r"epoch 0, iteration 1"):
        purify(features, noisy, val, cfg)


def test_zero_lambda_with_more_dims_than_batch_rows_names_lambda():
    rng = np.random.default_rng(2)
    features = FeatureMatrix(rng.normal(size=(12, 10)))
    noisy = HardLabels(rng.integers(0, 2, size=12), 2)
    val = CleanValidationSet(
        FeatureMatrix(rng.normal(size=(4, 10))), one_hot(HardLabels(rng.integers(0, 2, 4), 2))
    )
    cfg = PurifierConfig(ipc=IpcConfig(lam=0.0), batch_size=6, epochs=1)
    with pytest.raises(LinAlgError, match=r"singular at lam=0\.0.*\(epoch 0, iteration 1\)"):
        purify(features, noisy, val, cfg)


def test_one_row_last_batch_with_more_dims_than_rows_is_finite():
    rng = np.random.default_rng(3)
    features = FeatureMatrix(rng.normal(size=(9, 6)))  # batches of 4, 4 and 1 rows, all d > b
    noisy = HardLabels(rng.integers(0, 3, size=9), 3)
    val = CleanValidationSet(
        FeatureMatrix(rng.normal(size=(5, 6))), one_hot(HardLabels(rng.integers(0, 3, 5), 3))
    )
    cfg = PurifierConfig(ipc=IpcConfig(lam=0.1), eac=EacConfig(period=2), batch_size=4, epochs=2)
    logits, _, report = purify(features, noisy, val, cfg)
    assert np.all(np.isfinite(logits.values))
    assert all(np.isfinite(r.val_loss) and np.isfinite(r.grad_norm) for r in report.records)


def test_class_absent_from_validation_gives_finite_logits():
    features, _, noisy, val = _small_problem()
    keep = val.labels[:, 2] == 0.0
    val_without_2 = CleanValidationSet(FeatureMatrix(val.features.values[keep]), val.labels[keep])
    assert val_without_2.n_classes == 3 and keep.sum() < len(keep)
    logits, _, report = purify(features, noisy, val_without_2, _quick_config())
    assert np.all(np.isfinite(logits.values))
    assert all(np.isfinite(r.val_loss) and np.isfinite(r.grad_norm) for r in report.records)


def test_purify_validates_shapes():
    features, clean, noisy, val = _small_problem()
    bad_val = CleanValidationSet(
        FeatureMatrix(np.ones((3, features.dim + 1))), one_hot(HardLabels(np.array([0, 1, 2]), 3))
    )
    with pytest.raises(ValueError):
        purify(features, noisy, bad_val, _quick_config())
    short = HardLabels(noisy.values[:-1], noisy.n_classes)
    with pytest.raises(ValueError):
        purify(features, short, val, _quick_config())
    wide = HardLabels(noisy.values, noisy.n_classes + 1)
    with pytest.raises(ValueError, match="class count mismatch: labels 4 vs validation 3"):
        purify(features, wide, val, _quick_config())
    bad_truth = HardLabels(clean.values[:-1], clean.n_classes)
    with pytest.raises(ValueError):
        purify(features, noisy, val, _quick_config(), truth=bad_truth)


def test_config_validation():
    with pytest.raises(ValueError):
        PurifierConfig(batch_size=1)
    with pytest.raises(ValueError):
        PurifierConfig(epochs=0)
    with pytest.raises(ValueError):
        PurifierConfig(use_ipc=False, use_eac=False)


# ---------------------------------------------------------------- report io


def test_report_round_trip(tmp_path):
    features, clean, noisy, val = _small_problem()
    _, _, report = purify(features, noisy, val, _quick_config(), truth=clean)
    path = tmp_path / "report.jsonl"
    save_report(report, path)
    back = load_report(path)
    assert back.records == report.records
    assert back.summary == report.summary
    # Lines are stripped of ASCII whitespace, and those left blank are skipped.
    path.write_text(path.read_text().replace("\n", "\t\x0c\n\n \x0b\t\x0c\n\x0b "))
    assert load_report(path) == back


def test_report_without_truth_has_no_accuracy_keys(tmp_path):
    features, _, noisy, val = _small_problem()
    _, _, report = purify(features, noisy, val, _quick_config())
    path = tmp_path / "report.jsonl"
    save_report(report, path)
    text = path.read_text()
    assert '"acc"' not in text
    assert '"accuracy"' not in text


def test_empty_report_is_summary_only(tmp_path):
    report = CorrectionReport(records=[], summary={"schema": 1, "iterations": 0})
    path = tmp_path / "report.jsonl"
    save_report(report, path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    assert len(lines) == 1
    back = load_report(path)
    assert back.records == []
    assert back.summary["iterations"] == 0


def test_report_missing_summary_rejected(tmp_path):
    path = tmp_path / "report.jsonl"
    path.write_text('{"p": 1, "epoch": 0, "val_loss": null, "grad_norm": null, "eac_update": false}\n')
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}: missing summary line") + "$"):
        load_report(path)


def test_iteration_record_fields():
    rec = IterationRecord(p=1, epoch=0, val_loss=0.5, grad_norm=0.1, eac_update=False)
    assert rec.acc is None
