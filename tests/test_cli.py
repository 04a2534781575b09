import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelpure import cli, eac
from labelpure.cli import (
    _COMMANDS, _REPLAY_HELP, _RETIRED_KEYS, _THREAD_ENV_VARS, _defaults, _parse_class_map, _resolve, build_parser,
    dispatch
)
from labelpure.data import FeatureMatrix, load_features, load_hard_labels, softmax, write_features
from labelpure.evaluate import TrainConfig, load_classifier, train_linear_on_targets
from labelpure.purifier import PurifierConfig, save_report
from labelpure.report import CorrectionReport, IterationRecord, load_report

from oracles import reference_parse_class_map


def _manifest(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _synth(tmp_path, n=800, dim=16, classes=4, sep=8.0, seed=3, n_val=80, n_test=400):
    assert dispatch(_synth_args(tmp_path, n, dim, classes, sep, seed, n_val, n_test)) == 0


def _synth_args(tmp_path, n, dim, classes, sep, seed, n_val, n_test):
    return [
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


def test_negative_retrain_lr_exits_one(tmp_path, capsys):
    _synth(tmp_path, n=60, n_val=0, n_test=0)
    code = dispatch([
        "retrain", "--features", str(tmp_path / "f.bin"), "--labels", str(tmp_path / "y.txt"),
        "--lr=-0.001", "--out-model", str(tmp_path / "m.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "labelpure: error: lr must be nonnegative, got -0.001\n"
    assert not (tmp_path / "m.json").exists()


def test_retrain_ignores_alpha_with_hard_labels(tmp_path):
    _synth(tmp_path, n=60, n_val=0, n_test=0)
    assert dispatch([
        "retrain", "--features", str(tmp_path / "f.bin"), "--labels", str(tmp_path / "y.txt"),
        "--alpha=0", "--epochs", "1", "--out-model", str(tmp_path / "m.json"),
    ]) == 0


@pytest.mark.parametrize("targets", ["labels", "soft-logits"])
def test_retrain_refuses_targets_of_another_row_count(targets, tmp_path, capsys):
    _synth(tmp_path, n=60, classes=4, n_val=0, n_test=0)
    if targets == "labels":
        (tmp_path / "t.txt").write_text("0\n1\n2\n3\n" * 10)
        words = ["--labels", str(tmp_path / "t.txt")]
    else:
        write_features(FeatureMatrix(np.zeros((50, 4))), tmp_path / "t.bin")
        words = ["--soft-logits", str(tmp_path / "t.bin")]
    assert dispatch([
        "retrain", "--features", str(tmp_path / "f.bin"), *words, "--out-model", str(tmp_path / "m.json"),
    ]) == 1
    rows = 40 if targets == "labels" else 50
    assert capsys.readouterr().err == f"labelpure: error: 60 feature rows vs target shape ({rows}, 4)\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, flag, message", [
    ("retrain", "--lr=-1", "lr must be nonnegative, got -1.0"),
    ("purify", "--lambda=-1", "lam must be nonnegative, got -1.0"),
    ("retrain", "--alpha=0", "alpha must be positive, got 0.0"),
    ("purify", "--threads=abc", 'threads must be a positive integer such as "1", got "abc"'),
    ("retrain", "--threads=0", 'threads must be a positive integer such as "1", got "0"'),
    ("purify", "--threads=-1", 'threads must be a positive integer such as "1", got "-1"'),
    ("purify", "--lambda=nan", "lam must be finite, got nan"),
    ("purify", "--lambda=inf", "lam must be finite, got inf"),
    ("purify", "--alpha=inf", "alpha must be finite, got inf"),
    ("purify", "--eta-i=nan", "eta must be finite, got nan"),
    ("purify", "--ipc-gamma-ent=inf", "gamma_ent must be finite, got inf"),
    ("purify", "--eac-gamma-ent=nan", "gamma_ent must be finite, got nan"),
    ("purify", "--eac-lr=inf", "lr must be finite, got inf"),
    ("purify", "--eac-lr=-1", "lr must be nonnegative, got -1.0"),
    ("purify", "--eta-e=nan", "eta must be finite, got nan"),
    ("retrain", "--lr=nan", "lr must be finite, got nan"),
    ("retrain", "--lr=-inf", "lr must be finite, got -inf"),
    ("retrain", "--alpha=inf", "alpha must be finite, got inf"),
    ("purify", "--seed=-1", "shuffle_seed must be nonnegative, got -1"),
    ("retrain", "--seed=-1", "seed must be nonnegative, got -1"),
    ("purify", "--eta-e=1.5", "eta must lie in [0, 1], got 1.5"),
    ("purify", "--period=0", "period must be >= 1, got 0"),
    ("purify", "--batch=1", "batch_size must be >= 2, got 1"),
    ("retrain", "--epochs=0", "epochs must be >= 1, got 0"),
    ("corrupt", "--ratio=1.5", "ratio must lie in [0, 1], got 1.5"),
    ("corrupt", "--seed=-1", "seed must be nonnegative, got -1"),
    ("corrupt", "--kind=asymmetric --map=0-1", "bad class map entry '0-1', expected 'src:dst'"),
])
def test_bad_config_value_is_refused_before_any_input_is_read(command, flag, message, tmp_path, capsys):
    words = {
        "corrupt": ["--labels", "y.txt", "--ratio=0.5", "--out", "n.txt"],
        "retrain": ["--features", "f.bin", "--soft-logits", "logits.bin", "--out-model", "m.json"],
        "purify": [
            "--features", "f.bin", "--labels", "y.txt", "--val-features", "vf.bin", "--val-labels", "vy.csv",
            "--out-labels", "pure.txt",
        ],
    }[command]
    # No input file exists, so a handler that read one first would report it instead.
    args = [word if word.startswith("--") else str(tmp_path / word) for word in words]
    assert dispatch([command, *args, *flag.split()]) == 1
    assert capsys.readouterr().err == f"labelpure: error: {message}\n"


# Each case names one file twice. The check runs before any file is read or
# written, so every file is left as it was and no manifest appears.
@pytest.mark.parametrize("words, keys, name", [
    (["corrupt", "--labels", "y.txt", "--ratio=0.4", "--out", "y.txt"], "labels and out", "y.txt"),
    (["corrupt", "--labels", "y.txt", "--ratio=0.4", "--out", "sub/../y.txt"], "labels and out", "sub/../y.txt"),
    (["report", "--in", "rep.jsonl", "--csv", "rep.jsonl"], "in and csv", "rep.jsonl"),
    (["report", "--in", "rep.jsonl", "--csv", "rep.csv", "--manifest", "rep.jsonl"], "in and manifest", "rep.jsonl"),
    ([
        "purify", "--features", "f.bin", "--labels", "y.txt", "--val-features", "vf.bin", "--val-labels", "vy.csv",
        "--out-labels", "pure.txt", "--report", "pure.txt",
    ], "out_labels and report", "pure.txt"),
    # The manifest goes beside the primary output unless --manifest names it.
    ([
        "purify", "--features", "f.bin", "--labels", "y.txt", "--val-features", "vf.bin", "--val-labels", "vy.csv",
        "--out-labels", "pure.txt", "--out-logits", "pure.txt.manifest.json",
    ], "out_logits and manifest", "pure.txt.manifest.json"),
    (["corrupt", "--labels", "noisy.txt.manifest.json", "--ratio=0.4", "--out", "noisy.txt"],
     "labels and manifest", "noisy.txt.manifest.json"),
    # The --config file is an input too; only a manifest may be rewritten by its own replay.
    (["corrupt", "--config", "c.json", "--labels", "y.txt", "--ratio=0.4", "--out", "c.json"], "config and out", "c.json"),
    (["corrupt", "--config", "c.json", "--labels", "y.txt", "--ratio=0.4", "--out", "noisy.txt", "--manifest", "c.json"],
     "config and manifest", "c.json"),
])
def test_file_options_naming_one_file_are_refused(words, keys, name, tmp_path, capsys):
    for existing in ("y.txt", "rep.jsonl", "pure.txt", "noisy.txt.manifest.json"):
        (tmp_path / existing).write_bytes(b"0\n1\n")
    (tmp_path / "c.json").write_text('{"version": 1}')
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    args = [words[0]] + [w if w.startswith("--") else os.path.join(tmp_path, w) for w in words[1:]]
    assert dispatch(args) == 1
    assert capsys.readouterr().err == f"labelpure: error: {keys} name the same file {os.path.join(tmp_path, name)}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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


_RECORD = '{"p": 1, "epoch": 0, "val_loss": null, "grad_norm": null, "eac_update": true}'


@pytest.mark.parametrize("line, message", [
    (_RECORD[:28], "line 2: Unterminated string starting at: column 22"),
    (_RECORD[:-1] + ', "extra": 1}', "line 2: unknown record field(s) extra"),
    ("[1, 2]", "line 2: a record must be a JSON object, got list"),
    ('{"p": 2}', "line 2: missing record field(s) epoch, val_loss, grad_norm, eac_update"),
    ('{"p": "x", "epoch": [], "val_loss": "a", "grad_norm": null, "eac_update": 7}', 'line 2: p must be an integer, got "x"'),
    ('{"p": true, "epoch": 0, "val_loss": null, "grad_norm": null, "eac_update": true}', "line 2: p must be an integer, got true"),
    ('{"p": 2, "epoch": 1.0, "val_loss": null, "grad_norm": null, "eac_update": true}', "line 2: epoch must be an integer, got 1.0"),
    ('{"p": 2, "epoch": 0, "val_loss": null, "grad_norm": null, "eac_update": 7}', "line 2: eac_update must be true or false, got 7"),
    ('{"p": 2, "epoch": 0, "val_loss": "a", "grad_norm": null, "eac_update": true}', 'line 2: val_loss must be a number or null, got "a"'),
    ('{"p": 2, "epoch": 0, "val_loss": null, "grad_norm": [1], "eac_update": true}', "line 2: grad_norm must be a number or null, got [1]"),
    ('{"p": 2, "epoch": 0, "val_loss": 1, "grad_norm": 0.5, "eac_update": true, "acc": false}', "line 2: acc must be a number or null, got false"),
    ('{"summary": 5}', "line 2: the summary must be a JSON object, got int"),
    ('{"summary": {"a": 1}}\n\n{"summary": {"b": 2}}', "line 4: the summary on line 2 must be the last line"),
    ('{"summary": {}}\n' + _RECORD, "line 3: the summary on line 2 must be the last line"),
    ("\udcff{}", "line 2: not UTF-8 text"),
    ('{"p": ' + "1" * 5000 + "}", "line 2: integer with more than 4300 digits: column 7"),
    ("[" * 100000, "line 2: JSON nested too deeply"),
    # str.strip() takes these for whitespace; the report, like label files, strips ASCII whitespace only.
    (_RECORD + "\x1c", "line 2: Extra data: column 78"),
    (_RECORD + "\x85", "line 2: Extra data: column 78"),
    (_RECORD + "\xa0", "line 2: Extra data: column 78"),
    ("\u3000", "line 2: Expecting value: column 1"),
], ids=[
    "cut-mid-line", "extra-key", "list-row", "missing-fields", "every-field-mistyped", "bool-p", "float-epoch",
    "int-eac-update", "string-val-loss", "list-grad-norm", "bool-acc", "non-object-summary", "second-summary",
    "record-after-summary", "not-utf-8", "5000-digit-p", "100000-deep", "trailing-x1c", "trailing-nel",
    "trailing-no-break-space", "ideographic-space-only",
])
def test_report_command_names_the_file_and_line_of_a_bad_record(tmp_path, capsys, line, message):
    path = tmp_path / "rep.jsonl"
    path.write_bytes(f"{_RECORD}\n{line}\n".encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
    assert dispatch(["report", "--in", str(path), "--csv", str(tmp_path / "rep.csv")]) == 1
    assert capsys.readouterr().err == f"labelpure: error: {path}: {message}\n"
    assert not (tmp_path / "rep.csv").exists()


def test_report_command_loads_neither_numpy_nor_scipy(tmp_path):
    report = CorrectionReport([IterationRecord(p=1, epoch=0, val_loss=0.5, grad_norm=1.0, eac_update=False)], {})
    save_report(report, tmp_path / "rep.jsonl")
    script = (
        "import sys\n"
        "from labelpure.cli import dispatch\n"
        "code = dispatch(sys.argv[1:])\n"
        "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    args = ["report", "--in", str(tmp_path / "rep.jsonl"), "--csv", str(tmp_path / "rep.csv")]
    out = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "rep.csv").read_text().splitlines()[1] == "1,0,0.5,1.0,0,"


def test_pipeline_commands_never_load_scipy_linalg(tmp_path):
    """synth, corrupt, retrain and eval load numpy alone; purify adds scipy's
    LAPACK extension but neither the scipy nor the scipy.linalg package
    around it."""
    commands = [
        _synth_args(tmp_path, n=200, dim=8, classes=3, sep=8.0, seed=1, n_val=30, n_test=30),
        ["corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.3", "--out", str(tmp_path / "noisy.txt")],
        ["retrain", "--features", str(tmp_path / "f.bin"), "--labels", str(tmp_path / "noisy.txt"),
         "--epochs", "2", "--out-model", str(tmp_path / "m.json")],
        ["eval", "--model", str(tmp_path / "m.json"), "--features", str(tmp_path / "tf.bin"),
         "--labels", str(tmp_path / "ty.txt")],
        ["purify", "--features", str(tmp_path / "f.bin"), "--labels", str(tmp_path / "noisy.txt"),
         "--val-features", str(tmp_path / "vf.bin"), "--val-labels", str(tmp_path / "vy.csv"),
         "--epochs", "2", "--out-labels", str(tmp_path / "pure.txt")],
    ]
    script = (
        "import json, sys\n"
        "from labelpure.cli import dispatch\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    code = dispatch(args)\n"
        "    print('loaded:', args[0], code, sorted(m for m in ('scipy', 'scipy.linalg') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert [line for line in out.stdout.splitlines() if line.startswith("loaded:")] == [
        "loaded: synth 0 []", "loaded: corrupt 0 []", "loaded: retrain 0 []", "loaded: eval 0 []",
        "loaded: purify 0 []",
    ]


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
    manifest = _manifest(manifest_path)
    assert manifest["command"] == "purify"
    assert manifest["config"]["purifier"] == asdict(PurifierConfig(epochs=10, batch_size=128))
    assert set(manifest["inputs"]) == {"features", "labels", "val_features", "val_labels"}

    assert dispatch(["purify", "--config", str(manifest_path)]) == 0
    assert (tmp_path / "pure.txt").read_bytes() == labels_first
    assert (tmp_path / "logits.bin").read_bytes() == logits_first


def test_manifest_top_level_keys_in_order(tmp_path):
    (tmp_path / "y.txt").write_text("0\n1\n")
    out = tmp_path / "n.txt"
    assert dispatch(["corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.5", "--out", str(out)]) == 0
    manifest = _manifest(f"{out}.manifest.json")
    assert list(manifest) == ["command", "artifact_version", "created_utc", "config", "inputs", "outputs", "seeds"]


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


def _tiny_pipeline(tmp_path):
    """Each command's argv in a six-step pipeline, and its primary output."""
    def t(name):
        return str(tmp_path / name)
    return {
        "synth": (_synth_args(tmp_path, n=60, dim=4, classes=3, sep=6.0, seed=5, n_val=20, n_test=20), t("f.bin")),
        "corrupt": (["corrupt", "--labels", t("y.txt"), "--ratio", "0.3", "--out", t("noisy.txt")], t("noisy.txt")),
        "purify": ([
            "purify", "--features", t("f.bin"), "--labels", t("noisy.txt"), "--val-features", t("vf.bin"),
            "--val-labels", t("vy.csv"), "--epochs", "2", "--batch", "16", "--period", "2",
            "--out-labels", t("pure.txt"), "--out-logits", t("logits.bin"), "--report", t("run.jsonl"),
        ], t("pure.txt")),
        "retrain": (["retrain", "--features", t("f.bin"), "--labels", t("pure.txt"), "--epochs", "2",
                     "--out-model", t("m.json")], t("m.json")),
        "eval": (["eval", "--model", t("m.json"), "--features", t("tf.bin"), "--labels", t("ty.txt"),
                  "--out-json", t("acc.json")], t("acc.json")),
        "report": (["report", "--in", t("run.jsonl"), "--csv", t("run.csv")], t("run.csv")),
    }


def _without_wall_time(path):
    """A report's bytes with the summary's wall time, the one key no replay repeats, dropped."""
    *records, summary = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    summary = json.loads(summary)
    del summary["summary"]["wall_time_s"]
    return "".join(records) + json.dumps(summary)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_replays_its_fresh_manifest(command, tmp_path):
    for name, (args, primary) in _tiny_pipeline(tmp_path).items():
        assert dispatch(args) == 0, name
        if name == command:
            break
    manifest_path = f"{primary}.manifest.json"
    first = _manifest(manifest_path)
    assert primary in first["outputs"].values()

    def outputs():
        return {
            name: _without_wall_time(path) if name == "report" else Path(path).read_bytes()
            for name, path in first["outputs"].items()
        }

    before = outputs()
    assert dispatch([command, "--config", manifest_path]) == 0
    assert outputs() == before
    assert {**_manifest(manifest_path), "created_utc": None} == {**first, "created_utc": None}


def test_report_requires_its_input_as_the_other_commands_do(tmp_path, capsys):
    assert dispatch(["report", "--csv", str(tmp_path / "rep.csv")]) == 1
    assert capsys.readouterr().err == "labelpure: error: missing required option(s): --in\n"


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


def test_synth_refuses_features_beyond_float32_and_leaves_no_feature_file(tmp_path, capsys):
    args = _synth_args(tmp_path, n=50, dim=4, classes=3, sep=1e39, seed=0, n_val=10, n_test=0)
    assert dispatch(args) == 1
    assert re.fullmatch(r"labelpure: error: \S+f\.bin: value .* is beyond the float32 range\n", capsys.readouterr().err)
    assert not any(tmp_path.iterdir())  # no feature, label or manifest file


def test_negative_seed_is_refused_by_name_and_writes_nothing(tmp_path, capsys):
    assert dispatch(_synth_args(tmp_path, n=50, dim=4, classes=3, sep=6.0, seed=-1, n_val=10, n_test=0)) == 1
    assert capsys.readouterr().err == "labelpure: error: seed must be nonnegative, got -1\n"
    assert not any(tmp_path.iterdir())
    (tmp_path / "y.txt").write_text("0\n1\n2\n")
    for kind in ("symmetric", "asymmetric"):
        assert dispatch([
            "corrupt", "--labels", str(tmp_path / "y.txt"), "--kind", kind, "--map", "0:1", "--ratio", "0.5",
            "--seed", "-1", "--out", str(tmp_path / "n.txt"),
        ]) == 1
        assert capsys.readouterr().err == "labelpure: error: seed must be nonnegative, got -1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["y.txt"]


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
    manifest = _manifest(tmp_path / "pure.txt.manifest.json")
    assert manifest["config"]["purifier"]["epochs"] == 3          # flag wins
    assert manifest["config"]["purifier"]["batch_size"] == 64     # file wins over default
    assert manifest["config"]["purifier"]["ipc"]["alpha"] == 2.0


# ---------------------------------------------------------------- corrupt variants


def test_symmetric_corrupt_ignores_the_class_map(tmp_path):
    (tmp_path / "y.txt").write_text("0\n1\n2\n" * 10)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.5", "--map", "0-1", "--out", str(tmp_path / "n.txt"),
    ]) == 0
    assert len(load_hard_labels(tmp_path / "n.txt")) == 30


def test_corrupt_asymmetric_with_map(tmp_path):
    (tmp_path / "y.txt").write_text("0\n" * 50 + "1\n" * 50)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--kind", "asymmetric",
        "--ratio", "1.0", "--map", "0:1", "--seed", "0", "--out", str(tmp_path / "n.txt"),
    ]) == 0
    out = load_hard_labels(tmp_path / "n.txt")
    assert np.all(out.values == 1)


@pytest.mark.parametrize("route", ["flag", "config"])
def test_corrupt_refuses_a_repeated_source_class(route, tmp_path, capsys):
    (tmp_path / "y.txt").write_text("3\n5\n7\n" * 10)
    args = [
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--kind", "asymmetric",
        "--ratio", "0.5", "--out", str(tmp_path / "n.txt"),
    ]
    if route == "flag":
        args += ["--map", "3:5,3:7"]
    else:
        (tmp_path / "c.json").write_text(json.dumps({"version": 1, "map": "3:5,3:7"}))
        args += ["--config", str(tmp_path / "c.json")]
    assert dispatch(args) == 1
    assert capsys.readouterr().err == "labelpure: error: class map gives source class 3 twice\n"
    assert not (tmp_path / "n.txt").exists()


@pytest.mark.parametrize("class_map, message", [
    ("0-1", "bad class map entry '0-1', expected 'src:dst'"),
    (",", "empty class map"),
    ("1_0:2,\u0663:1", "bad class map entry '1_0:2', expected 'src:dst'"),
    ("0:1,\u0663:1", "bad class map entry '\u0663:1', expected 'src:dst'"),
    # str.strip() and int() take the controls \x1c-\x1f for whitespace; label files refuse them.
    ("\x1c2:3\x1f,0:1", "bad class map entry '\\x1c2:3\\x1f', expected 'src:dst'"),
    ("0:1,\x1c", "bad class map entry '\\x1c', expected 'src:dst'"),
    ("0:1" + "0" * 5000, "bad class map entry '0:1" + "0" * 5000 + "', expected 'src:dst'"),
    # A long whitespace run inside an entry is refused in linear time.
    pytest.param("0:1,a" + " " * 100000 + "b", "bad class map entry 'a" + " " * 100000 + "b', expected 'src:dst'",
                 id="100000-spaces-between-words"),
    pytest.param("0:1,0" + " " * 100000 + "1", "bad class map entry '0" + " " * 100000 + "1', expected 'src:dst'",
                 id="100000-spaces-between-indices"),
])
def test_corrupt_refuses_a_malformed_class_map(class_map, message, tmp_path, capsys):
    (tmp_path / "y.txt").write_text("0\n1\n" * 10)
    assert dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--kind", "asymmetric",
        "--ratio", "0.5", "--map", class_map, "--out", str(tmp_path / "n.txt"),
    ]) == 1
    assert capsys.readouterr().err == f"labelpure: error: {message}\n"
    assert not (tmp_path / "n.txt").exists()


@pytest.mark.parametrize("class_map, parsed, resolved", [
    (" 0 : 1 ,\t+2:03\n", {0: 1, 2: 3}, "0:1,2:3"),
    (",0:1,", {0: 1}, "0:1"),
    ("-1:2", {-1: 2}, None),
])
def test_corrupt_reads_a_class_map_with_signs_zeros_and_ascii_whitespace(class_map, parsed, resolved, tmp_path, capsys):
    assert _parse_class_map(class_map) == parsed
    (tmp_path / "y.txt").write_text("0\n1\n2\n3\n" * 10)
    code = dispatch([
        "corrupt", "--labels", str(tmp_path / "y.txt"), "--kind", "asymmetric",
        "--ratio", "0.5", f"--map={class_map}", "--out", str(tmp_path / "n.txt"),  # "-1:2" alone reads as a flag
    ])
    if resolved is None:  # a negative index passes the grammar and is refused by inject_asymmetric
        assert code == 1
        assert capsys.readouterr().err == "labelpure: error: class map entry -1->2 has a negative index\n"
        assert not (tmp_path / "n.txt").exists()
    else:
        assert code == 0
        assert _manifest(tmp_path / "n.txt.manifest.json")["config"]["map"] == resolved


# Indices, signs, separators, "_", ASCII whitespace, the controls str.strip() takes,
# non-ASCII spaces, an Arabic-Indic digit and a letter.
_CLASS_MAP_PIECES = list("0123456789+-:,_ \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\xa0\x85\u3000\u0663a") + ["12", "0:1", "3:05"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_CLASS_MAP_PIECES), max_size=16).map("".join))
def test_class_map_grammar_matches_its_reference_pattern(text):
    def outcome(parse):
        try:
            return parse(text)
        except ValueError as exc:
            return str(exc)

    assert outcome(_parse_class_map) == outcome(reference_parse_class_map)


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
    manifest = _manifest(tmp_path / "n.txt.manifest.json")
    assert manifest["config"]["map"] == "2:0,3:5,4:7,5:3,9:1"


def test_corrupt_refuses_an_unknown_kind(tmp_path, capsys):
    (tmp_path / "y.txt").write_text("0\n1\n")
    out = str(tmp_path / "n.txt")
    flags = ["corrupt", "--labels", str(tmp_path / "y.txt"), "--ratio", "0.5", "--out", out]
    assert dispatch([*flags, "--kind", "gaussian"]) == 2
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"version": 1, "kind": "gaussian"}))
    capsys.readouterr()
    assert dispatch([*flags, "--config", str(config)]) == 1
    message = f'labelpure: error: {config}: kind must be one of symmetric, asymmetric, got "gaussian"\n'
    assert capsys.readouterr().err == message
    assert not (tmp_path / "n.txt").exists()


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
        "--soft-logits", str(tmp_path / "logits.bin"), "--alpha", "2.5",
        "--epochs", "30",
        "--out-model", str(tmp_path / "model.json"),
    ]) == 0
    # The library path on float64 logits: the command widens the f32 logits
    # it reads before scaling them, since 2.5 times a float32 array stays f32
    # and rounds there (a power of two such as 2 would scale exactly).
    logits = load_features(tmp_path / "logits.bin").values.astype(np.float64)
    want = train_linear_on_targets(load_features(tmp_path / "f.bin"), softmax(2.5 * logits), TrainConfig(epochs=30))
    got = load_classifier(tmp_path / "model.json")
    assert np.array_equal(got.weights, want.weights) and np.array_equal(got.bias, want.bias)


def test_retrain_soft_logits_in_row_chunks_is_the_one_shot_softmax(tmp_path):
    # 7000 rows are the chunks [0, 2048), [2048, 4096) and [4096, 7000).
    n, d, c = 7000, 4, 12
    rng = np.random.default_rng(13)
    features = FeatureMatrix(rng.normal(size=(n, d)).astype(np.float32))
    logits = FeatureMatrix((4.0 * rng.normal(size=(n, c))).astype(np.float32))
    write_features(features, tmp_path / "f.bin")
    write_features(logits, tmp_path / "logits.bin")
    assert dispatch([
        "retrain", "--features", str(tmp_path / "f.bin"), "--soft-logits", str(tmp_path / "logits.bin"),
        "--alpha", "0.7", "--epochs", "1", "--out-model", str(tmp_path / "m.json"),
    ]) == 0
    targets = softmax(0.7 * logits.values.astype(np.float64))
    want = train_linear_on_targets(features, targets, TrainConfig(epochs=1))
    got = load_classifier(tmp_path / "m.json")
    assert got.weights.tobytes() == want.weights.tobytes() and got.bias.tobytes() == want.bias.tobytes()


def test_retrain_soft_logits_peak_stays_under_three_label_matrices(tmp_path):
    # The soft targets are built a row chunk at a time into one class-major
    # matrix, so above the features' and logits' float32 bytes the traced
    # peak reads 1.65 label matrices; widening, scaling and taking the softmax
    # of all rows at once read 4.65.
    n, d, c = 20000, 16, 10
    rng = np.random.default_rng(12)
    write_features(FeatureMatrix(rng.normal(size=(n, d)).astype(np.float32)), tmp_path / "f.bin")
    write_features(FeatureMatrix(rng.normal(size=(n, c)).astype(np.float32)), tmp_path / "logits.bin")
    tracemalloc.start()
    try:
        assert dispatch([
            "retrain", "--features", str(tmp_path / "f.bin"), "--soft-logits", str(tmp_path / "logits.bin"),
            "--alpha", "2.5", "--epochs", "2", "--out-model", str(tmp_path / "m.json"),
        ]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    label_matrices = (peak - n * (d + c) * 4) / (n * c * 8)
    assert label_matrices < 2.5, label_matrices


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
    assert (clf.weights.shape[1], truth.n_classes) == (2, 3)
    pred = np.argmax(load_features(tmp_path / "tf.bin").values @ clf.weights + clf.bias, axis=1)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["accuracy"] == float(np.mean(pred == truth.values))
    assert printed["accuracy"] <= float(np.mean(truth.values < 2))


def test_purify_requires_out_labels(tmp_path, capsys):
    code = dispatch(["purify", "--features", "x", "--labels", "y", "--val-features", "z", "--val-labels", "w"])
    assert code == 1
    assert "out-labels" in capsys.readouterr().err


# ---------------------------------------------------------------- option tables


_OPTION_STRINGS = {
    "synth": """--config --n --dim --classes --separation --seed --out-features --out-labels --n-val
        --out-val-features --out-val-labels --n-test --out-test-features --out-test-labels --manifest""",
    "corrupt": "--config --labels --kind --ratio --map --seed --classes --out --manifest",
    "purify": """--config --features --labels --val-features --val-labels --truth --out-labels --out-logits
        --report --alpha --lambda --eta-i --eta-e --period --batch --epochs --seed --ipc-gamma-ent
        --eac-gamma-ent --eac-lr --ipc --no-ipc --eac --no-eac --threads --manifest""",
    "retrain": """--config --features --labels --soft-logits --alpha --epochs --batch --lr --seed
        --out-model --threads --manifest""",
    "eval": "--config --model --features --labels --out-json --threads --manifest",
    "report": "--config --in --csv --manifest",
}


def _subparsers():
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_option_strings_are_pinned():
    got = {
        name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
        for name, p in _subparsers().items()
    }
    assert got == {name: set(text.split()) for name, text in _OPTION_STRINGS.items()}


def test_every_replayable_command_has_the_same_config_help():
    for name, p in _subparsers().items():
        helps = [action.help for action in p._actions if "--config" in action.option_strings]
        assert helps == [_REPLAY_HELP], name


@pytest.mark.parametrize("flag, commands", [("--threads", ["eval", "purify", "retrain"]), ("--manifest", sorted(_COMMANDS))])
def test_shared_options_have_one_help_text(flag, commands):
    helps = {
        name: action.help for name, p in _subparsers().items() for action in p._actions if flag in action.option_strings
    }
    assert sorted(helps) == commands
    assert len(set(helps.values())) == 1 and None not in helps.values(), helps


def _lookup(tree, dotted):
    for key in dotted.split("."):
        tree = tree[key]
    return tree


# The nested sub-tree each handler fills in from its config dataclass.
_DATACLASS_TREES = {"purify": ("purifier", PurifierConfig), "retrain": ("train", TrainConfig)}


def _default_tree(command):
    """The config a run of ``command`` with no file and no flag records: the
    option table's top-level defaults, and the config dataclass's sub-tree."""
    tree = _defaults(command)
    if command in _DATACLASS_TREES:
        name, config = _DATACLASS_TREES[command]
        tree[name] = asdict(config())
    return tree


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_option_key_is_in_the_default_tree(command):
    defaults = _default_tree(command)
    options = _COMMANDS[command].options
    assert len({opt.key for opt in options}) == len(options), "two flags set one key"
    for opt in options:
        _lookup(defaults, opt.key)  # raises KeyError for a key the tree lacks
        if "." in opt.key:
            assert opt.default is None, f"{opt.flag}: nested defaults come from the config dataclass"


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_default_key_has_a_flag(command):
    leaves = set(_flatten(_default_tree(command))) - {"version"}
    assert leaves == {opt.key for opt in _COMMANDS[command].options}


def test_readme_purify_config_is_the_default_tree():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    (block,) = [b for b in blocks if "purifier" in b]
    assert block["purifier"] == asdict(PurifierConfig())


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
    if opt.key == "threads":  # a string, but only of a positive integer
        return [opt.flag, str(int(current or 0) + 3)]
    if opt.type is str:  # a name of its own, which the same-file check takes
        return [opt.flag, f"{current}-{opt.flag[2:]}"]
    return [opt.flag, str(opt.type((current or 0) + 3))]


# No file is read or written: the handler is stubbed, and each manifest's path
# and config are recorded instead. A stubbed purify or retrain handler writes
# no sub-tree back, so the keys it would fill in come from its dataclass.
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_each_flag_sets_exactly_its_key_in_the_manifest(command, monkeypatch):
    cmd = _COMMANDS[command]
    monkeypatch.setitem(_COMMANDS, command, cmd._replace(func=lambda cfg: ({}, {}, {})))
    written = []
    monkeypatch.setattr(cli, "_write_manifest", lambda path, _, config, *rest: written.append((path, config)))
    defaults = _flatten(_default_tree(command))
    base = [command]
    for opt in cmd.options:
        if opt.required:
            base += _other_value(opt, defaults[opt.key])
    assert dispatch(base) == 0
    before = {**defaults, **_flatten(written.pop()[1])}
    for opt in cmd.options:
        words = _other_value(opt, before[opt.key])
        assert dispatch(base + words) == 0
        path, config = written.pop()
        if opt.key == "manifest":
            assert path == words[1]
        after = {**defaults, **_flatten(config)}
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
    replayed = _manifest("pure.txt.manifest.json")
    expected = json.loads(_SEED_FORMAT_MANIFEST)["config"]
    purifier = expected["purifier"]
    for tree, retired in [
        (purifier["eac"], ("beta1", "beta2", "eps", "seed", "blend_space", "hard_targets", "use_bias")),
        (purifier["ipc"], ("normalize_gram", "val_batch")),
        (purifier, ("init_scale", "normalize_features", "add_bias_feature", "eac_steps_per_iter")),
    ]:
        for key in retired:
            del tree[key]
    assert replayed["config"] == expected
    assert dispatch([
        "purify", "--features", "f.bin", "--labels", "noisy.txt", "--val-features", "vf.bin",
        "--val-labels", "vy.csv", "--epochs", "5", "--batch", "64", "--period", "10",
        "--out-labels", "flags.txt", "--out-logits", "flags.bin",
    ]) == 0
    assert Path("pure.txt").read_bytes() == Path("flags.txt").read_bytes()
    assert Path("logits.bin").read_bytes() == Path("flags.bin").read_bytes()


# corrupt and retrain manifests as written before exact_count and
# train.weight_decay were retired, for inputs made below with the same paths.
_LEGACY_CORRUPT_MANIFEST = """{
  "command": "corrupt", "artifact_version": "0.1.0", "created_utc": "2026-10-18T15:03:02.457794+00:00",
  "config": {
    "version": 1, "labels": "y.txt", "kind": "symmetric", "ratio": 0.4, "map": null, "seed": 2,
    "classes": null, "exact_count": false, "out": "noisy.txt", "manifest": null
  },
  "inputs": {"labels": {"path": "y.txt", "sha256": "68df641380aad57a56210efd52a5760a8038c1f1c0b1589ef4f92c37d9ce0b17"}},
  "outputs": {"labels": "noisy.txt"},
  "seeds": {"seed": 2}
}
"""
_LEGACY_RETRAIN_MANIFEST = """{
  "command": "retrain", "artifact_version": "0.1.0", "created_utc": "2026-10-18T15:03:02.838980+00:00",
  "config": {
    "version": 1, "features": "f.bin", "labels": "noisy.txt", "soft_logits": null, "alpha": 1.0,
    "out_model": "model.json", "threads": null, "manifest": null,
    "train": {"epochs": 5, "batch": 64, "lr": 0.001, "seed": 0, "weight_decay": 0.0}
  },
  "inputs": {
    "features": {"path": "f.bin", "sha256": "6cdc33fe465538a3c45c66c1826d88b00ffa3dc68eac591b0bd46daba1323ed7"},
    "labels": {"path": "noisy.txt", "sha256": "0326b69a076295208e74c68a3e8a68fc363158300943e23a1bc5228445f747ec"}
  },
  "outputs": {"model": "model.json"},
  "seeds": {"seed": 0}
}
"""


def test_legacy_corrupt_and_retrain_manifests_replay_bitwise(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert dispatch([
        "synth", "--n", "200", "--dim", "16", "--classes", "4", "--separation", "8", "--seed", "3",
        "--out-features", "f.bin", "--out-labels", "y.txt",
        "--n-val", "40", "--out-val-features", "vf.bin", "--out-val-labels", "vy.csv",
    ]) == 0
    Path("corrupt.json").write_text(_LEGACY_CORRUPT_MANIFEST)
    assert dispatch(["corrupt", "--config", "corrupt.json"]) == 0
    expected = json.loads(_LEGACY_CORRUPT_MANIFEST)["config"]
    del expected["exact_count"]
    assert _manifest("noisy.txt.manifest.json")["config"] == expected
    assert _manifest("noisy.txt.manifest.json")["inputs"] == json.loads(_LEGACY_CORRUPT_MANIFEST)["inputs"]
    assert dispatch(["corrupt", "--labels", "y.txt", "--ratio", "0.4", "--seed", "2", "--out", "flags.txt"]) == 0
    assert Path("noisy.txt").read_bytes() == Path("flags.txt").read_bytes()
    # The retrain manifest recorded the digest of the noisy labels it was run on.
    recorded_noisy = json.loads(_LEGACY_RETRAIN_MANIFEST)["inputs"]["labels"]["sha256"]
    assert hashlib.sha256(Path("noisy.txt").read_bytes()).hexdigest() == recorded_noisy

    Path("retrain.json").write_text(_LEGACY_RETRAIN_MANIFEST)
    assert dispatch(["retrain", "--config", "retrain.json"]) == 0
    expected = json.loads(_LEGACY_RETRAIN_MANIFEST)["config"]
    del expected["train"]["weight_decay"]
    assert _manifest("model.json.manifest.json")["config"] == expected
    assert dispatch([
        "retrain", "--features", "f.bin", "--labels", "noisy.txt", "--epochs", "5", "--batch", "64",
        "--out-model", "flags.json",
    ]) == 0
    assert Path("model.json").read_bytes() == Path("flags.json").read_bytes()


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
    manifest = _manifest("legacy.txt.manifest.json")
    assert "seed" not in manifest["config"]["purifier"]["eac"]
    assert manifest["seeds"] == {"shuffle_seed": 0}


# Each retired config key: the values that replay, which are the one every run
# used (Adam's from the library's constants, the switches' at their old
# defaults), and values refused. The seed never reached the loop: any value.
# Validation subsampling replays only off, at null.
_RETIRED = {
    "purifier.eac.beta1": ([eac._BETA1], [eac._BETA1 * 1.5]),
    "purifier.eac.beta2": ([eac._BETA2], [eac._BETA2 * 1.5]),
    "purifier.eac.eps": ([eac._EPS], [eac._EPS * 1.5]),
    "purifier.eac.seed": ([0, 7, "x", None], []),
    "train.beta1": ([eac._BETA1], [eac._BETA1 * 1.5]),
    "train.beta2": ([eac._BETA2], [eac._BETA2 * 1.5]),
    "train.eps": ([eac._EPS], [eac._EPS * 1.5]),
    "purifier.normalize_features": ([False], [True, 0]),
    "purifier.add_bias_feature": ([False], [True, 0]),
    "purifier.init_scale": ([1.0, 1], [10.0, True, "1.0"]),
    "purifier.eac_steps_per_iter": ([1], [2, 1.0, True]),
    "purifier.ipc.normalize_gram": ([False], [True, 0]),
    "purifier.eac.hard_targets": ([False], [True, 0]),
    "purifier.eac.use_bias": ([True], [False, 1]),
    "purifier.eac.blend_space": (["logit"], ["probability"]),
    "purifier.ipc.val_batch": ([None], [4, 0, "x"]),
    "train.weight_decay": ([0.0, 0], [0.01, True, "0.0", None]),
    "exact_count": ([False], [True, 0, None]),
}


# Each retired key and the one command that wrote it.
_RETIRED_OWNER = {dotted: command for command, rows in _RETIRED_KEYS.items() for dotted in rows}


def _nested(dotted, value):
    node = value
    for part in reversed(dotted.split(".")):
        node = {part: node}
    return node


# A top-level key (exact_count) has the empty tree.
@pytest.mark.parametrize("key, tree", [(key, tree) for tree, _, key in (d.rpartition(".") for d in _RETIRED_OWNER)])
def test_retired_adam_key_replays_only_at_its_constant(tree, key, tmp_path, capsys):
    assert _RETIRED.keys() == _RETIRED_OWNER.keys()
    dotted = f"{tree}.{key}" if tree else key
    command = _RETIRED_OWNER[dotted]

    def config(value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"version": 1, **_nested(dotted, value)}))
        return path

    def resolved(*words):  # required options as flags, so the config resolves in full; no file is read
        required = [f"{opt.flag}={opt.key if opt.type is str else 1}" for opt in _COMMANDS[command].options if opt.required]
        return _resolve(build_parser().parse_args([command, *words, *required]))

    replays, refused = _RETIRED[dotted]
    for value in replays:  # dropped: the config resolves as if the key were absent
        assert resolved("--config", str(config(value))) == resolved()
    for value in refused:
        assert dispatch([command, "--config", str(config(value))]) == 1
        assert f"{dotted} = {json.dumps(value)} is no longer configurable" in capsys.readouterr().err


def test_replayed_manifest_drops_a_retired_key_and_keeps_its_neighbour(tmp_path):
    _synth(tmp_path, n=60, n_val=20, n_test=0)
    assert dispatch([
        "purify", "--features", str(tmp_path / "f.bin"), "--labels", str(tmp_path / "y.txt"),
        "--val-features", str(tmp_path / "vf.bin"), "--val-labels", str(tmp_path / "vy.csv"),
        "--epochs", "1", "--out-labels", str(tmp_path / "pure.txt"),
    ]) == 0
    manifest = _manifest(tmp_path / "pure.txt.manifest.json")
    manifest["config"]["purifier"]["eac"].update(beta1=0.9, eta=0.5)  # as an older release wrote it
    (tmp_path / "old.json").write_text(json.dumps(manifest))
    assert dispatch(["purify", "--config", str(tmp_path / "old.json")]) == 0
    replayed = _manifest(tmp_path / "pure.txt.manifest.json")["config"]["purifier"]["eac"]
    assert replayed["eta"] == 0.5
    assert "beta1" not in replayed


# A retired key replays only for the command that wrote it: to any other it is
# an unknown key, at the value every run used as at any other.
@pytest.mark.parametrize("dotted", list(_RETIRED_OWNER))
def test_retired_key_is_unknown_to_the_other_commands(dotted, tmp_path, capsys):
    replays, refused = _RETIRED[dotted]
    path = tmp_path / "cfg.json"
    for command in (c for c in _COMMANDS if c != _RETIRED_OWNER[dotted]):
        for value in replays[:1] + refused[:1]:
            path.write_text(json.dumps({"version": 1, **_nested(dotted, value)}))
            assert dispatch([command, "--config", str(path)]) == 1, (command, value)
            assert f"unknown config key '{dotted.split('.')[0]}'" in capsys.readouterr().err, (command, value)


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
    config = _manifest(tmp_path / "m.json.manifest.json")["config"]
    assert config["threads"] == "1"
    assert config["train"] == asdict(TrainConfig(epochs=1))  # the handler fills in the keys the file left out


# Each command resolved with every flag set, and purify and retrain also from a
# file with nested keys (a retired one among them); then a purify file with an
# unknown nested key, which is refused. None of it may load numpy or scipy.
def test_resolving_any_config_loads_neither_numpy_nor_scipy(tmp_path):
    configs = {
        "purify": {"purifier": {"ipc": {"lam": 2}, "eac": {"beta1": 0.9}}, "out_logits": None},
        "retrain": {"train": {"epochs": 2, "weight_decay": 0.0}, "alpha": 2.0},
        "bad": {"purifier": {"ipc": {"lambda": 0.5}}},
    }
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"version": 1, **config}))
    resolved = [[name, *(w for opt in cmd.options for w in _other_value(opt, None))] for name, cmd in _COMMANDS.items()]
    for name in ("purify", "retrain"):
        required = (f"{opt.flag}={opt.key}" for opt in _COMMANDS[name].options if opt.required)
        resolved.append([name, "--config", str(tmp_path / f"{name}.json"), *required])
    script = (
        "import json, sys\n"
        "from labelpure.cli import _resolve, build_parser, dispatch\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    _resolve(build_parser().parse_args(argv))\n"
        "code = dispatch(['purify', '--config', sys.argv[2]])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    bad = tmp_path / "bad.json"
    out = subprocess.run([sys.executable, "-c", script, json.dumps(resolved), str(bad)], capture_output=True, text=True)
    assert out.stdout.splitlines()[-1:] == ["1 []"], out.stderr
    assert out.stderr == f"labelpure: error: {bad}: unknown config key 'purifier.ipc.lambda'\n"


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


# Config files nest their keys. A key spelled with a dot names no option, even
# one whose flag sets that dotted key: the handler would never read it, yet the
# manifest would record it as if the run had used it.
@pytest.mark.parametrize("command, misplaced, dotted", [
    ("purify", {"purifier.epochs": 1}, "purifier.epochs"),
    ("purify", {"purifier": {"ipc.alpha": 2}}, "purifier.ipc.alpha"),
    ("purify", {"purifier.eac.beta1": 0.9}, "purifier.eac.beta1"),  # retired only where nested
    ("retrain", {"train.epochs": 1}, "train.epochs"),
])
def test_dotted_config_key_is_unknown(command, misplaced, dotted, tmp_path, capsys):
    _synth(tmp_path, n=60, n_val=20, n_test=0)
    config = {"version": 1, "features": str(tmp_path / "f.bin"), "labels": str(tmp_path / "y.txt"), **misplaced}
    if command == "purify":
        config.update(
            val_features=str(tmp_path / "vf.bin"), val_labels=str(tmp_path / "vy.csv"), out_labels=str(tmp_path / "out")
        )
    else:
        config["out_model"] = str(tmp_path / "out")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert dispatch([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"labelpure: error: {path}: unknown config key '{dotted}'\n"
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]


# threads is a key of purify, retrain and eval alone, and one check judges it
# in a config file as on the command line: to any other command it is an
# unknown key, whatever its value. The handler is stubbed, so no file is read.
@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("value", ["abc", "0", "2", 2, True], ids=json.dumps)
def test_config_file_threads_meets_the_flag_rule(command, value, tmp_path, capsys, monkeypatch):
    cmd = _COMMANDS[command]
    monkeypatch.setitem(_COMMANDS, command, cmd._replace(func=lambda cfg: ({}, {}, {})))
    written = []
    monkeypatch.setattr(cli, "_write_manifest", lambda path, _, config, *rest: written.append(config))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "threads": value}))
    required = [f"{opt.flag}={tmp_path / opt.key if opt.type is str else 1}" for opt in cmd.options if opt.required]
    code = dispatch([command, "--config", str(path), *required])
    err = capsys.readouterr().err
    if not any(opt.key == "threads" for opt in cmd.options):
        assert (code, err) == (1, f"labelpure: error: {path}: unknown config key 'threads'\n")
    elif value != "2":
        message = f'threads must be a positive integer such as "1", got {json.dumps(value)}'
        assert (code, err) == (1, f"labelpure: error: {path}: {message}\n")
    else:
        assert (code, err, [config["threads"] for config in written]) == (0, "", ["2"])


@pytest.mark.parametrize("tree, message", [
    ({"purifier": {"epochs": "3"}}, 'purifier.epochs must be int, got "3"'),
    ({"purifier": {"ipc": None}}, "purifier.ipc must be an object, got null"),
    ({"purifier": None}, "purifier must be an object, got null"),
    ({"purifier": {"epochs": None}}, "purifier.epochs must be int, got null"),
    ({"purifier": {"epochs": True}}, "purifier.epochs must be int, got true"),
    ({"purifier": {"use_ipc": 1}}, "purifier.use_ipc must be bool, got 1"),
    ({"purifier": {"eac": {"period": 2.5}}}, "purifier.eac.period must be int, got 2.5"),
    ({"features": 5}, "features must be str, got 5"),
    ({"version": 2}, "unsupported config version 2"),
    ({"version": True}, "unsupported config version true"),
    ({"version": 1.0}, "unsupported config version 1.0"),
])
def test_mistyped_config_value_exits_one_naming_its_key(tree, message, tmp_path, capsys):
    config = {
        "version": 1, "features": "f.bin", "labels": "y.txt", "val_features": "vf.bin",
        "val_labels": "vy.csv", "out_labels": "pure.txt", **tree,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert dispatch(["purify", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"labelpure: error: {path}: {message}\n"


@pytest.mark.parametrize("text, message", [
    pytest.param(text, "a config must be a JSON object", id=text) for text in ("[1, 2]", '"purify"')
] + [
    pytest.param('{"version": 1,', "line 1: Expecting property name enclosed in double quotes: column 15", id="cut"),
    pytest.param("\udcff{}", "line 1: not UTF-8 text", id="not-utf-8"),
    # int() refuses more than 4300 digits, and json.loads then names no position.
    pytest.param('{"version": 1,\n "purifier": {"epochs": ' + "9" * 5000 + "}}",
                 "line 2: integer with more than 4300 digits: column 25", id="5000-digit-int"),
    pytest.param('{"features": "' + "9" * 5000 + '", "version": -' + "9" * 5000 + "}",
                 "line 1: integer with more than 4300 digits: column 5029", id="5000-digit-int-after-digit-string"),
    # json.loads recurses once per level and gives no position past its limit: the line is where the text first
    # reaches its deepest nesting.
    pytest.param('{"version": 1,\n "purifier": ' + "[" * 100000 + "]" * 100000 + "}",
                 "line 2: JSON nested too deeply", id="100000-deep-value"),
])
def test_non_object_config_exits_one(text, message, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
    assert dispatch(["purify", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"labelpure: error: {path}: {message}\n"


@pytest.mark.parametrize("wrote, command", [("synth", "corrupt"), ("retrain", "eval")])
def test_manifest_of_another_command_is_refused(wrote, command, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"command": wrote, "config": _defaults(wrote)}))
    assert dispatch([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"labelpure: error: {path}: a manifest of {wrote}, not {command}\n"


def test_config_takes_ints_for_float_keys_and_null_for_unset_keys(tmp_path):
    _synth(tmp_path, n=60, n_val=20, n_test=0)
    flags = [
        "--features", str(tmp_path / "f.bin"), "--labels", str(tmp_path / "y.txt"),
        "--val-features", str(tmp_path / "vf.bin"), "--val-labels", str(tmp_path / "vy.csv"),
        "--epochs", "2", "--manifest", str(tmp_path / "m.json"),
    ]
    config = {"purifier": {"ipc": {"lam": 2}}, "out_logits": None}
    (tmp_path / "c.json").write_text(json.dumps(config))
    config_flags = ["--config", str(tmp_path / "c.json")]
    assert dispatch(["purify", *flags, "--out-labels", str(tmp_path / "a.txt"), *config_flags]) == 0
    assert dispatch(["purify", *flags, "--out-labels", str(tmp_path / "b.txt"), "--lambda", "2.0"]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
