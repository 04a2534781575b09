import numpy as np
import pytest
from numpy.linalg import LinAlgError

from labelpure.data import (
    CleanValidationSet,
    FeatureMatrix,
    HardLabels,
    effective_labels,
    one_hot,
    softmax,
)
from labelpure.eac import EacConfig
from labelpure.ipc import IpcConfig
from labelpure.noise import (
    MixtureSpec,
    gen_gaussian_mixture_split,
    inject_symmetric,
    label_accuracy,
)
from labelpure.purifier import (
    CorrectionReport,
    IterationRecord,
    PurifierConfig,
    load_report,
    purify,
    save_report,
)


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
    cfg_plain = _quick_config()
    cfg_tracked = _quick_config(track_truth=clean)
    logits_a, labels_a, report_a = purify(features, noisy, val, cfg_plain)
    logits_b, labels_b, report_b = purify(features, noisy, val, cfg_tracked)
    assert np.array_equal(logits_a.values, logits_b.values)
    assert np.array_equal(labels_a.values, labels_b.values)
    assert all(r.acc is None for r in report_a.records)
    assert all(r.acc is not None for r in report_b.records)
    assert "final_accuracy" in report_b.summary
    assert "final_accuracy" not in report_a.summary


def test_purify_is_deterministic():
    features, _, noisy, val = _small_problem()
    cfg = _quick_config()
    logits_a, _, _ = purify(features, noisy, val, cfg)
    logits_b, _, _ = purify(features, noisy, val, cfg)
    assert np.array_equal(logits_a.values, logits_b.values)


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


def test_val_batch_subsampling_is_deterministic():
    features, _, noisy, val = _small_problem(n_val=16)
    cfg = _quick_config(ipc=IpcConfig(val_batch=4))
    logits_a, _, _ = purify(features, noisy, val, cfg)
    logits_b, _, _ = purify(features, noisy, val, cfg)
    assert np.array_equal(logits_a.values, logits_b.values)


# ---------------------------------------------------------------- variants


def test_ipc_only_skips_classifier():
    features, _, noisy, val = _small_problem()
    _, _, report = purify(features, noisy, val, _quick_config(use_eac=False))
    assert not any(r.eac_update for r in report.records)
    assert all(r.val_loss is not None for r in report.records)


def test_eac_only_has_no_validation_loss():
    features, _, noisy, val = _small_problem()
    _, _, report = purify(features, noisy, val, _quick_config(use_ipc=False))
    assert all(r.val_loss is None and r.grad_norm is None for r in report.records)
    assert any(r.eac_update for r in report.records)


def test_probability_blend_space_runs_and_matches_classifier_argmax():
    features, _, noisy, val = _small_problem()
    cfg = _quick_config(eac=EacConfig(period=3, blend_space="probability"), epochs=4)
    logits, purified, report = purify(features, noisy, val, cfg)
    assert np.all(np.isfinite(logits.values))
    soft = effective_labels(logits, cfg.ipc.alpha)
    assert np.array_equal(np.argmax(soft, axis=1), purified.values)


def test_single_batch_when_batch_exceeds_n():
    features, _, noisy, val = _small_problem(n=20)
    _, _, report = purify(features, noisy, val, _quick_config(batch_size=64, epochs=3))
    assert len(report.records) == 3


def test_multiple_eac_steps_per_iteration():
    features, _, noisy, val = _small_problem()
    cfg_single = _quick_config()
    cfg_double = _quick_config(eac_steps_per_iter=2)
    logits_a, _, _ = purify(features, noisy, val, cfg_single)
    logits_b, _, _ = purify(features, noisy, val, cfg_double)
    # extra classifier steps change the replaced logits
    assert not np.array_equal(logits_a.values, logits_b.values)


def test_hard_targets_mode_runs():
    features, _, noisy, val = _small_problem()
    cfg = _quick_config(eac=EacConfig(period=5, hard_targets=True))
    _, purified, _ = purify(features, noisy, val, cfg)
    assert purified.values.shape == (64,)


def test_feature_transforms_change_geometry_not_contracts():
    features, _, noisy, val = _small_problem()
    cfg = _quick_config(normalize_features=True, add_bias_feature=True)
    logits, _, _ = purify(features, noisy, val, cfg)
    assert logits.values.shape == (features.n, noisy.n_classes)


def test_init_scale_sharpens_initial_labels():
    features, _, noisy, val = _small_problem()
    cfg = _quick_config(init_scale=10.0, use_eac=False, epochs=1)
    logits, _, _ = purify(features, noisy, val, cfg)
    assert softmax(logits.values).max() > 0.99


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
    bad_truth = HardLabels(clean.values[:-1], clean.n_classes)
    with pytest.raises(ValueError):
        purify(features, noisy, val, _quick_config(track_truth=bad_truth))


def test_config_validation():
    with pytest.raises(ValueError):
        PurifierConfig(batch_size=1)
    with pytest.raises(ValueError):
        PurifierConfig(epochs=0)
    with pytest.raises(ValueError):
        PurifierConfig(use_ipc=False, use_eac=False)
    with pytest.raises(ValueError):
        PurifierConfig(init_scale=0.0)
    with pytest.raises(ValueError):
        PurifierConfig(eac_steps_per_iter=0)


# ---------------------------------------------------------------- report io


def test_report_round_trip(tmp_path):
    features, clean, noisy, val = _small_problem()
    _, _, report = purify(features, noisy, val, _quick_config(track_truth=clean))
    path = tmp_path / "report.jsonl"
    save_report(report, path)
    back = load_report(path)
    assert back.records == report.records
    assert back.summary == report.summary


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
    with pytest.raises(ValueError):
        load_report(path)


def test_iteration_record_fields():
    rec = IterationRecord(p=1, epoch=0, val_loss=0.5, grad_norm=0.1, eac_update=False)
    assert rec.acc is None


@pytest.mark.parametrize("scale", [float("inf"), float("nan")])
def test_init_scale_must_be_finite(scale):
    # purify scales one-hot rows by it directly, and inf * 0 is NaN.
    with pytest.raises(ValueError, match="init_scale"):
        PurifierConfig(init_scale=scale)
