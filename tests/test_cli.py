import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from labelpure import eac
from labelpure.cli import (
    _COMMANDS, _THREAD_ENV_VARS, _defaults, _load_config_file, build_parser, dispatch, load_manifest
)
from labelpure.data import load_features, load_hard_labels
from labelpure.evaluate import load_classifier
from labelpure.purifier import CorrectionReport, IterationRecord, load_report, save_report


def _synth(tmp_path, n=800, dim=16, classes=4, sep=8.0, seed=3, n_val=80, n_test=400):
    args = [
        "synth", "--n", str(n), "--dim", str(dim), "--classes", str(classes),
        "--separation", str(sep), "--seed", str(seed),
        "--out-features", str(tmp_path / "f.bin"),
        "--out-labels", str(tmp_path / "y.txt"),
        "--n-val", str(n_val),
        "--out-val-features", str(tmp_path / "vf.bin"),
        "--out-val-labels", str(tmp_path / "vy.csv"),
        "--n-test", str(n_test),
        "--out-test-features", str(tmp_path / "tf.bin"),
        "--out-test-labels", str(tmp_path / "ty.txt"),
    ]
    assert dispatch(args) == 0


# ---------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    assert dispatch(["purify", "--help"]) == 0
    assert "purify" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_no_subcommand_exits_two():
    assert dispatch([]) == 2


def test_runtime_failure_exits_one(tmp_path, capsys):
    code = dispatch(["corrupt", "--labels", str(tmp_path / "missing.txt"), "--ratio", "0.5", "--out", str(tmp_path / "o.txt")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bad_ratio_exits_one(tmp_path, capsys):
    (tmp_path / "y.txt").write_text("0\n1\n")
    code = dispatch(["corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "1.5", "--out", str(tmp_path / "o.txt")])
    assert code == 1


def test_console_script_help():
    out = subprocess.run(
        [sys.executable, "-m", "labelpure.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert "labelpure" in out.stdout


# ---------------------------------------------------------------- pipeline


def test_full_pipeline_improves_labels(tmp_path, capsys):
    _synth(tmp_path)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--kind", "symmetric",
        "--ratio", "0.5", "--seed", "7", "--out", str(tmp_path / "noisy.txt"),
    ]) == 0
    assert dispatch([
        "purify",
        "--features", str(tmp_path / "f.bin"),
        "--labels", str(tmp_path / "noisy.txt"),
        "--val-features", str(tmp_path / "vf.bin"),
        "--val-labels", str(tmp_path / "vy.csv"),
        "--truth", str(tmp_path / "y.txt"),
        "--epochs", "40", "--batch", "128",
        "--out-labels", str(tmp_path / "pure.txt"),
        "--out-logits", str(tmp_path / "pure_logits.bin"),
        "--report", str(tmp_path / "rep.jsonl"),
    ]) == 0
    report = load_report(tmp_path / "rep.jsonl")
    assert report.summary["final_accuracy"] > report.summary["initial_accuracy"]
    assert report.summary["final_accuracy"] >= 0.9

    assert dispatch([
        "retrain", "--features", str(tmp_path / "f.bin"),
        "--labels", str(tmp_path / "pure.txt"),
        "--out-model", str(tmp_path / "model.json"),
    ]) == 0
    capsys.readouterr()
    assert dispatch([
        "eval", "--model", str(tmp_path / "model.json"),
        "--features", str(tmp_path / "tf.bin"),
        "--labels", str(tmp_path / "ty.txt"),
        "--out-json", str(tmp_path / "metrics.json"),
    ]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["accuracy"] >= 0.9
    assert json.loads((tmp_path / "metrics.json").read_text())["accuracy"] == printed["accuracy"]


def test_report_flattens_to_csv(tmp_path):
    _synth(tmp_path, n=200, n_val=40, n_test=0)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.3",
        "--seed", "1", "--out", str(tmp_path / "noisy.txt"),
    ]) == 0
    assert dispatch([
        "purify",
        "--features", str(tmp_path / "f.bin"),
        "--labels", str(tmp_path / "noisy.txt"),
        "--val-features", str(tmp_path / "vf.bin"),
        "--val-labels", str(tmp_path / "vy.csv"),
        "--epochs", "2", "--batch", "64",
        "--out-labels", str(tmp_path / "pure.txt"),
        "--report", str(tmp_path / "rep.jsonl"),
    ]) == 0
    assert dispatch(["report", "--in", str(tmp_path / "rep.jsonl"), "--csv", str(tmp_path / "rep.csv")]) == 0
    lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
    assert lines[0] == "p,epoch,val_loss,grad_norm,eac_update,acc"
    assert len(lines) == 1 + len(load_report(tmp_path / "rep.jsonl").records)


def test_report_files_are_pinned_bytes(tmp_path):
    report = CorrectionReport(
        records=[
            IterationRecord(p=1, epoch=0, val_loss=None, grad_norm=None, eac_update=True),
            IterationRecord(p=2, epoch=1, val_loss=0.25, grad_norm=1.5, eac_update=False, acc=0.75),
        ],
        summary={"schema": 1, "iterations": 2},
    )
    save_report(report, tmp_path / "rep.jsonl")
    assert (tmp_path / "rep.jsonl").read_bytes() == (
        b'{"p": 1, "epoch": 0, "val_loss": null, "grad_norm": null, "eac_update": true}\n'
        b'{"p": 2, "epoch": 1, "val_loss": 0.25, "grad_norm": 1.5, "eac_update": false, "acc": 0.75}\n'
        b'{"summary": {"schema": 1, "iterations": 2}}\n'
    )
    assert load_report(tmp_path / "rep.jsonl").records == report.records
    assert dispatch(["report", "--in", str(tmp_path / "rep.jsonl"), "--csv", str(tmp_path / "rep.csv")]) == 0
    assert (tmp_path / "rep.csv").read_bytes() == (
        b"p,epoch,val_loss,grad_norm,eac_update,acc\r\n"
        b"1,0,,,1,\r\n"
        b"2,1,0.25,1.5,0,0.75\r\n"
    )


# ---------------------------------------------------------------- manifests & replay


def test_manifest_replay_is_bitwise(tmp_path):
    _synth(tmp_path, n=400, n_val=40, n_test=0)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.4",
        "--seed", "2", "--out", str(tmp_path / "noisy.txt"),
    ]) == 0
    purify_args = [
        "purify",
        "--features", str(tmp_path / "f.bin"),
        "--labels", str(tmp_path / "noisy.txt"),
        "--val-features", str(tmp_path / "vf.bin"),
        "--val-labels", str(tmp_path / "vy.csv"),
        "--epochs", "10", "--batch", "128",
        "--out-labels", str(tmp_path / "pure.txt"),
        "--out-logits", str(tmp_path / "logits.bin"),
    ]
    assert dispatch(purify_args) == 0
    labels_first = (tmp_path / "pure.txt").read_bytes()
    logits_first = (tmp_path / "logits.bin").read_bytes()

    manifest_path = tmp_path / "pure.txt.manifest.json"
    manifest = load_manifest(manifest_path)
    assert manifest.command == "purify"
    assert manifest.config["purifier"]["epochs"] == 10
    assert set(manifest.inputs) == {"features", "labels", "val_features", "val_labels"}

    assert dispatch(["purify", "--config", str(manifest_path)]) == 0
    assert (tmp_path / "pure.txt").read_bytes() == labels_first
    assert (tmp_path / "logits.bin").read_bytes() == logits_first


def test_truth_flag_does_not_change_outputs(tmp_path):
    _synth(tmp_path, n=400, n_val=40, n_test=0)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.4",
        "--seed", "2", "--out", str(tmp_path / "noisy.txt"),
    ]) == 0
    base = [
        "purify",
        "--features", str(tmp_path / "f.bin"),
        "--labels", str(tmp_path / "noisy.txt"),
        "--val-features", str(tmp_path / "vf.bin"),
        "--val-labels", str(tmp_path / "vy.csv"),
        "--epochs", "8", "--batch", "128",
    ]
    assert dispatch(base + ["--out-labels", str(tmp_path / "a.txt"), "--out-logits", str(tmp_path / "a.bin")]) == 0
    assert dispatch(base + [
        "--truth", str(tmp_path / "y.txt"),
        "--out-labels", str(tmp_path / "b.txt"), "--out-logits", str(tmp_path / "b.bin"),
    ]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_synth_manifest_replay(tmp_path):
    assert dispatch([
        "synth", "--n", "60", "--dim", "3", "--classes", "3", "--separation", "4",
        "--seed", "8", "--out-features", str(tmp_path / "f.bin"), "--out-labels", str(tmp_path / "y.txt"),
    ]) == 0
    first = (tmp_path / "f.bin").read_bytes()
    assert dispatch(["synth", "--config", str(tmp_path / "f.bin.manifest.json")]) == 0
    assert (tmp_path / "f.bin").read_bytes() == first


def test_synth_is_deterministic(tmp_path):
    for sub in ("run1", "run2"):
        d = tmp_path / sub
        d.mkdir()
        assert dispatch([
            "synth", "--n", "50", "--dim", "4", "--classes", "3", "--separation", "5",
            "--seed", "11", "--out-features", str(d / "f.bin"), "--out-labels", str(d / "y.txt"),
        ]) == 0
    assert (tmp_path / "run1/f.bin").read_bytes() == (tmp_path / "run2/f.bin").read_bytes()
    assert (tmp_path / "run1/y.txt").read_bytes() == (tmp_path / "run2/y.txt").read_bytes()


def test_flags_override_config_file(tmp_path):
    _synth(tmp_path, n=200, n_val=40, n_test=0)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.4",
        "--seed", "2", "--out", str(tmp_path / "noisy.txt"),
    ]) == 0
    config = {
        "version": 1,
        "features": str(tmp_path / "f.bin"),
        "labels": str(tmp_path / "noisy.txt"),
        "val_features": str(tmp_path / "vf.bin"),
        "val_labels": str(tmp_path / "vy.csv"),
        "out_labels": str(tmp_path / "pure.txt"),
        "purifier": {"epochs": 2, "batch_size": 64, "ipc": {"alpha": 2.0}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert dispatch(["purify", "--config", str(cfg_path), "--epochs", "3"]) == 0
    manifest = load_manifest(tmp_path / "pure.txt.manifest.json")
    assert manifest.config["purifier"]["epochs"] == 3          # flag wins
    assert manifest.config["purifier"]["batch_size"] == 64     # file wins over default
    assert manifest.config["purifier"]["ipc"]["alpha"] == 2.0


# ---------------------------------------------------------------- corrupt variants


def test_corrupt_asymmetric_with_map(tmp_path):
    (tmp_path / "y.txt").write_text("0\n" * 50 + "1\n" * 50)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--kind", "asymmetric",
        "--ratio", "1.0", "--map", "0:1", "--seed", "0", "--out", str(tmp_path / "n.txt"),
    ]) == 0
    out = load_hard_labels(tmp_path / "n.txt")
    assert np.all(out.values == 1)


def test_corrupt_asymmetric_default_map_needs_ten_classes(tmp_path):
    (tmp_path / "y.txt").write_text("0\n1\n2\n")
    code = dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--kind", "asymmetric",
        "--ratio", "0.4", "--out", str(tmp_path / "n.txt"),
    ])
    assert code == 1


def test_corrupt_default_map_on_ten_classes(tmp_path):
    (tmp_path / "y.txt").write_text("".join(f"{i % 10}\n" for i in range(200)))
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--kind", "asymmetric",
        "--ratio", "0.4", "--seed", "3", "--out", str(tmp_path / "n.txt"),
    ]) == 0
    manifest = load_manifest(tmp_path / "n.txt.manifest.json")
    assert manifest.config["map"] == "2:0,3:5,4:7,5:3,9:1"


def test_corrupt_exact_count(tmp_path):
    (tmp_path / "y.txt").write_text("".join(f"{i % 4}\n" for i in range(100)))
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.25",
        "--seed", "5", "--exact-count", "--out", str(tmp_path / "n.txt"),
    ]) == 0
    noisy = load_hard_labels(tmp_path / "n.txt", 4)
    clean = load_hard_labels(tmp_path / "y.txt", 4)
    assert int((noisy.values != clean.values).sum()) == 25


# ---------------------------------------------------------------- retrain variants


def test_retrain_soft_logits(tmp_path):
    _synth(tmp_path, n=200, n_val=40, n_test=100)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.3",
        "--seed", "1", "--out", str(tmp_path / "noisy.txt"),
    ]) == 0
    assert dispatch([
        "purify",
        "--features", str(tmp_path / "f.bin"),
        "--labels", str(tmp_path / "noisy.txt"),
        "--val-features", str(tmp_path / "vf.bin"),
        "--val-labels", str(tmp_path / "vy.csv"),
        "--epochs", "20", "--batch", "64", "--period", "10",
        "--out-labels", str(tmp_path / "pure.txt"),
        "--out-logits", str(tmp_path / "logits.bin"),
    ]) == 0
    assert dispatch([
        "retrain", "--features", str(tmp_path / "f.bin"),
        "--soft-logits", str(tmp_path / "logits.bin"), "--alpha", "1.0",
        "--epochs", "30",
        "--out-model", str(tmp_path / "model.json"),
    ]) == 0
    assert (tmp_path / "model.json").exists()


def test_eval_scores_rows_of_a_class_the_head_lacks_as_misses(tmp_path, capsys):
    _synth(tmp_path, n=300, classes=3, n_val=0, n_test=150)
    labels = load_hard_labels(tmp_path / "y.txt").values
    (tmp_path / "lost.txt").write_text("".join(f"{min(v, 1)}\n" for v in labels))  # class 2 is gone
    assert dispatch([
        "retrain", "--features", str(tmp_path / "f.bin"), "--labels", str(tmp_path / "lost.txt"),
        "--epochs", "5", "--out-model", str(tmp_path / "model.json"),
    ]) == 0
    capsys.readouterr()
    assert dispatch([
        "eval", "--model", str(tmp_path / "model.json"),
        "--features", str(tmp_path / "tf.bin"), "--labels", str(tmp_path / "ty.txt"),
    ]) == 0
    clf = load_classifier(tmp_path / "model.json")
    truth = load_hard_labels(tmp_path / "ty.txt")
    assert (clf.n_classes, truth.n_classes) == (2, 3)
    pred = np.argmax(load_features(tmp_path / "tf.bin").values @ clf.weights + clf.bias, axis=1)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["accuracy"] == float(np.mean(pred == truth.values))
    assert printed["accuracy"] <= float(np.mean(truth.values < 2))


def test_purify_probability_blend_flag(tmp_path):
    _synth(tmp_path, n=200, n_val=40, n_test=0)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.3",
        "--seed", "1", "--out", str(tmp_path / "noisy.txt"),
    ]) == 0
    assert dispatch([
        "purify",
        "--features", str(tmp_path / "f.bin"),
        "--labels", str(tmp_path / "noisy.txt"),
        "--val-features", str(tmp_path / "vf.bin"),
        "--val-labels", str(tmp_path / "vy.csv"),
        "--epochs", "4", "--batch", "64", "--period", "4",
        "--blend-space", "probability",
        "--out-labels", str(tmp_path / "pure.txt"),
    ]) == 0
    manifest = load_manifest(tmp_path / "pure.txt.manifest.json")
    assert manifest.config["purifier"]["eac"]["blend_space"] == "probability"


def test_purify_requires_out_labels(tmp_path, capsys):
    code = dispatch(["purify", "--features", "x", "--labels", "y", "--val-features", "z", "--val-labels", "w"])
    assert code == 1
    assert "out-labels" in capsys.readouterr().err


# ---------------------------------------------------------------- option tables


_OPTION_STRINGS = {
    "synth": """--config --n --dim --classes --separation --seed --out-features --out-labels --n-val
        --out-val-features --out-val-labels --n-test --out-test-features --out-test-labels --manifest""",
    "corrupt": """--config --labels --kind --ratio --map --seed --classes --exact-count --no-exact-count
        --out --manifest""",
    "purify": """--config --features --labels --val-features --val-labels --truth --out-labels --out-logits
        --report --alpha --lambda --eta-i --eta-e --period --batch --epochs --seed --ipc-gamma-ent
        --eac-gamma-ent --eac-lr --eac-steps --val-batch --init-scale --blend-space --hard-targets
        --no-hard-targets --bias --no-bias --normalize-features --no-normalize-features --normalize-gram
        --no-normalize-gram --add-bias --no-add-bias --ipc --no-ipc --eac --no-eac --threads --manifest""",
    "retrain": """--config --features --labels --soft-logits --alpha --epochs --batch --lr --seed
        --weight-decay --out-model --threads --manifest""",
    "eval": "--config --model --features --labels --out-json --threads --manifest",
    "report": "--in --csv --manifest",
}


def test_option_strings_are_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == {name: set(text.split()) for name, text in _OPTION_STRINGS.items()}


def _lookup(tree, dotted):
    for key in dotted.split("."):
        tree = tree[key]
    return tree


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_option_key_is_in_the_default_tree(command):
    defaults = _defaults(command)
    options = _COMMANDS[command].options
    assert len({opt.key for opt in options}) == len(options), "two flags set one key"
    for opt in options:
        _lookup(defaults, opt.key)  # raises KeyError for a key the tree lacks
        if "." in opt.key:
            assert opt.default is None, f"{opt.flag}: nested defaults come from the config dataclass"


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_default_key_has_a_flag(command):
    leaves = set(_flatten(_defaults(command))) - {"version"}
    assert leaves == {opt.key for opt in _COMMANDS[command].options}


def test_readme_purify_config_is_the_default_tree():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    (block,) = [b for b in blocks if "purifier" in b]
    assert block["purifier"] == _defaults("purify")["purifier"]


def _flatten(tree, prefix=""):
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _other_value(opt, current):
    """Command-line words that set ``opt`` to something other than ``current``."""
    if opt.type is bool:
        return [f"--no-{opt.flag[2:]}"] if current else [opt.flag]
    if opt.choices:
        return [opt.flag, next(c for c in opt.choices if c != current)]
    if opt.type is str:
        return [opt.flag, f"{current}-other"]
    return [opt.flag, str(opt.type((current or 0) + 3))]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_each_flag_sets_exactly_its_key_in_the_manifest(command, tmp_path, monkeypatch):
    cmd = _COMMANDS[command]
    primary = tmp_path / "primary"
    monkeypatch.setitem(_COMMANDS, command, cmd._replace(func=lambda cfg: (str(primary), {}, {}, {})))
    defaults = _defaults(command)
    base = [command]
    for opt in cmd.options:
        if opt.required:
            base += _other_value(opt, defaults[opt.key])
    assert dispatch(base) == 0
    before = _flatten(load_manifest(f"{primary}.manifest.json").config)
    for opt in cmd.options:
        if opt.key == "manifest":
            words = [opt.flag, str(tmp_path / "elsewhere.json")]
        else:
            words = _other_value(opt, before[opt.key])
        assert dispatch(base + words) == 0
        written = words[1] if opt.key == "manifest" else f"{primary}.manifest.json"
        after = _flatten(load_manifest(written).config)
        changed = {k for k in before.keys() | after.keys() if before.get(k) != after.get(k)}
        assert changed == {opt.key}, opt.flag


# A purify manifest exactly as the first release wrote it (key order included),
# for inputs made below with the same relative paths.
_SEED_FORMAT_MANIFEST = """{
  "command": "purify", "artifact_version": "0.1.0", "created_utc": "2026-10-17T22:35:18.659979+00:00",
  "config": {
    "version": 1, "features": "f.bin", "labels": "noisy.txt", "val_features": "vf.bin",
    "val_labels": "vy.csv", "truth": null, "out_labels": "pure.txt", "out_logits": "logits.bin",
    "report": null, "manifest": null, "threads": null,
    "purifier": {
      "ipc": {"alpha": 1.0, "lam": 1.0, "eta": 0.01, "gamma_ent": 1.0, "val_batch": null, "normalize_gram": false},
      "eac": {"eta": 1.0, "period": 10, "gamma_ent": 1.0, "lr": 0.001, "beta1": 0.9, "beta2": 0.999,
              "eps": 1e-08, "seed": 0, "blend_space": "logit", "hard_targets": false, "use_bias": true},
      "batch_size": 64, "epochs": 5, "shuffle_seed": 0, "init_scale": 1.0, "normalize_features": false,
      "add_bias_feature": false, "use_ipc": true, "use_eac": true, "eac_steps_per_iter": 1
    }
  },
  "inputs": {
    "features": {"path": "f.bin", "sha256": "6cdc33fe465538a3c45c66c1826d88b00ffa3dc68eac591b0bd46daba1323ed7"},
    "labels": {"path": "noisy.txt", "sha256": "0326b69a076295208e74c68a3e8a68fc363158300943e23a1bc5228445f747ec"},
    "val_features": {"path": "vf.bin", "sha256": "82e9a3a5ca3666346dfb2b3224a07a86c59146f97260848c18d5f04e43bcc00e"},
    "val_labels": {"path": "vy.csv", "sha256": "be76215af3645e5063e0303fbb8aafaaeae58d3448fb5ad30fa2db080c9211fb"}
  },
  "outputs": {"labels": "pure.txt", "logits": "logits.bin"},
  "seeds": {"shuffle_seed": 0, "eac_seed": 0}
}
"""


def test_seed_format_manifest_replays_bitwise(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert dispatch([
        "synth", "--n", "200", "--dim", "16", "--classes", "4", "--separation", "8", "--seed", "3",
        "--out-features", "f.bin", "--out-labels", "y.txt",
        "--n-val", "40", "--out-val-features", "vf.bin", "--out-val-labels", "vy.csv",
    ]) == 0
    assert dispatch(["corrupt", "--labels", "y.txt", "--ratio", "0.4", "--seed", "2", "--out", "noisy.txt"]) == 0
    Path("seed.json").write_text(_SEED_FORMAT_MANIFEST)
    assert dispatch(["purify", "--config", "seed.json"]) == 0
    replayed = load_manifest("pure.txt.manifest.json")
    expected = json.loads(_SEED_FORMAT_MANIFEST)["config"]
    for retired in ("beta1", "beta2", "eps", "seed"):
        del expected["purifier"]["eac"][retired]
    assert replayed.config == expected
    assert dispatch([
        "purify", "--features", "f.bin", "--labels", "noisy.txt", "--val-features", "vf.bin",
        "--val-labels", "vy.csv", "--epochs", "5", "--batch", "64", "--period", "10",
        "--out-labels", "flags.txt", "--out-logits", "flags.bin",
    ]) == 0
    assert Path("pure.txt").read_bytes() == Path("flags.txt").read_bytes()
    assert Path("logits.bin").read_bytes() == Path("flags.bin").read_bytes()


def test_legacy_eac_seed_replays_bitwise(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _synth(tmp_path, n=200, n_val=40, n_test=0)
    legacy = {
        "version": 1, "features": "f.bin", "labels": "y.txt", "val_features": "vf.bin", "val_labels": "vy.csv",
        "out_labels": "legacy.txt", "out_logits": "legacy.bin",
        "purifier": {"epochs": 3, "batch_size": 64, "eac": {
            "period": 5, "seed": 7, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08,
        }},
    }
    Path("legacy.json").write_text(json.dumps(legacy))
    assert dispatch(["purify", "--config", "legacy.json"]) == 0
    assert dispatch([
        "purify", "--features", "f.bin", "--labels", "y.txt", "--val-features", "vf.bin", "--val-labels", "vy.csv",
        "--epochs", "3", "--batch", "64", "--period", "5", "--out-labels", "flags.txt", "--out-logits", "flags.bin",
    ]) == 0
    assert Path("legacy.txt").read_bytes() == Path("flags.txt").read_bytes()
    assert Path("legacy.bin").read_bytes() == Path("flags.bin").read_bytes()
    manifest = load_manifest("legacy.txt.manifest.json")
    assert "seed" not in manifest.config["purifier"]["eac"]
    assert manifest.seeds == {"shuffle_seed": 0}


@pytest.mark.parametrize("tree", ["purifier.eac", "train"])
@pytest.mark.parametrize("key", ["beta1", "beta2", "eps"])
def test_retired_adam_key_replays_only_at_its_constant(tree, key, tmp_path, capsys):
    def config(value):
        node = {key: value}
        for part in reversed(tree.split(".")):
            node = {part: node}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"version": 1, **node}))
        return path

    ran_with = {"beta1": eac._BETA1, "beta2": eac._BETA2, "eps": eac._EPS}[key]
    assert _lookup(_load_config_file(config(ran_with)), tree) == {}
    command = "purify" if tree == "purifier.eac" else "retrain"
    assert dispatch([command, "--config", str(config(ran_with * 1.5))]) == 1
    assert f"{tree}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "flag"])
def test_threads_pin_blas_before_numpy_loads(tmp_path, source):
    _synth(tmp_path, n=60, n_val=0, n_test=0)
    config = {
        "version": 1, "features": str(tmp_path / "f.bin"), "labels": str(tmp_path / "y.txt"),
        "out_model": str(tmp_path / "m.json"), "train": {"epochs": 1},
    }
    args = ["retrain", "--config", str(tmp_path / "cfg.json")]
    if source == "config":
        config["threads"] = "1"
    else:
        args += ["--threads", "1"]
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    script = (
        "import os, sys\n"
        "from labelpure.cli import dispatch\n"
        "assert 'numpy' not in sys.modules\n"
        "code = dispatch(sys.argv[1:])\n"
        "print(code, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_ENV_VARS}
    out = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-2:] == ["0", "1"]
    assert load_manifest(tmp_path / "m.json.manifest.json").config["threads"] == "1"


@pytest.mark.parametrize("misplaced, dotted", [
    ({"epochs": 1}, "epochs"),
    ({"purifier": {"epoch": 1}}, "purifier.epoch"),
    ({"purifier": {"ipc": {"lambda": 0.5}}}, "purifier.ipc.lambda"),
])
def test_unknown_config_key_exits_one_naming_it(misplaced, dotted, tmp_path, capsys):
    _synth(tmp_path, n=60, n_val=20, n_test=0)
    config = {
        "version": 1, "features": str(tmp_path / "f.bin"), "labels": str(tmp_path / "y.txt"),
        "val_features": str(tmp_path / "vf.bin"), "val_labels": str(tmp_path / "vy.csv"),
        "out_labels": str(tmp_path / "pure.txt"), **misplaced,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert dispatch(["purify", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"labelpure: error: {path}: unknown config key '{dotted}'\n"
    assert not (tmp_path / "pure.txt").exists()
