"""Command-line pipelines: synth, corrupt, purify, retrain, eval, report.

Each subcommand has one option table in ``_COMMANDS``; each row is a flag and
the one config key it sets (dotted when nested). It alone says which keys a
config may hold, and ``_check_value`` is the one check of a value, whether a
file or a flag gave it. Config files nest their keys: a key spelled with a dot
is unknown, as is any key no option sets (``threads`` outside purify, retrain
and eval), unless an older release wrote it for the command (``_RETIRED_KEYS``)
and it holds the value every run used, when it is dropped. The nested
``purifier`` and ``train`` sub-trees hold only the keys a file or flag gave:
the purify and retrain handlers fill in the rest from ``PurifierConfig`` and
``TrainConfig`` and write the whole tree back.

Every run resolves its configuration (defaults < config file < flags) and
``dispatch`` writes a manifest recording the config the handler resolved,
input digests, and seeds; re-running a subcommand with ``--config <manifest>``
reproduces the outputs bitwise. Resolving loads neither numpy nor scipy, so a
resolved ``threads`` pins BLAS thread counts before the handler loads numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, astuple, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ASCII_WHITESPACE, LABEL_TEXT, check_config, json_is, parse_json, read_text

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"
)

_REPLAY_HELP = "JSON config file or manifest to replay"

# The top-level string keys whose values are not file names.
_NOT_FILES = ("kind", "map", "threads")

# Keys that older config files and manifests carry, per command that wrote
# them, each with the value every run used: Adam's constants in
# ``labelpure.eac`` and switches the purify, retrain and corrupt code paths no
# longer have. A key replays only at its value, and only for its command;
# _ANY means any value, as the key never reached the loop.
_ANY = object()
_RETIRED_KEYS = {
    "purify": {
        "purifier.eac.beta1": 0.9, "purifier.eac.beta2": 0.999, "purifier.eac.eps": 1e-8, "purifier.eac.seed": _ANY,
        "purifier.normalize_features": False, "purifier.add_bias_feature": False, "purifier.init_scale": 1.0,
        "purifier.eac_steps_per_iter": 1, "purifier.ipc.normalize_gram": False, "purifier.eac.hard_targets": False,
        "purifier.eac.use_bias": True, "purifier.eac.blend_space": "logit", "purifier.ipc.val_batch": None,
    },
    "retrain": {"train.beta1": 0.9, "train.beta2": 0.999, "train.eps": 1e-8, "train.weight_decay": 0.0},
    "corrupt": {"exact_count": False},
}


class _Opt(NamedTuple):
    """One flag and the config key it sets. ``default`` applies to top-level
    keys only (nested ones come from the config dataclasses)."""

    flag: str
    key: str
    type: type = str
    help: str | None = None
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None


# The rows several commands share, each declared once.
_THREADS = _Opt("--threads", "threads", help="BLAS thread count (set before numpy loads)")
_MANIFEST = _Opt("--manifest", "manifest", help="path of the run's manifest (default: beside the main output)")


class _Command(NamedTuple):
    """``func`` maps the resolved config to ``(inputs, outputs, seeds)`` for the
    manifest, which goes beside the output keyed ``primary`` unless
    ``--manifest`` names it."""

    func: Callable[[dict], tuple]
    help: str
    options: tuple[_Opt, ...]
    primary: str


def _apply_threads(threads) -> None:
    # Best effort: only effective when numpy has not been imported yet.
    if threads is None or "numpy" in sys.modules:
        return
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: str, command: str, config: dict, inputs: dict, outputs: dict, seeds: dict) -> None:
    from . import __version__

    manifest = {
        "command": command,
        "artifact_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in inputs.items()},
        "outputs": {name: str(p) for name, p in outputs.items()},
        "seeds": seeds,
    }
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _deep_update(base: dict, overlay: dict, source: str | None, options: dict, retired: dict, prefix: str = "") -> dict:
    """Overlay ``source``'s config on ``base``. Each key, which holds no dot,
    is an option's (``options``, by dotted key), with a value ``_check_value``
    passes; a prefix of an option's key, with an object; or the top-level
    ``version``, which the loader checked. Any other key is dropped if
    ``retired`` (the command's ``_RETIRED_KEYS`` row) has it at that value,
    and so is an object left empty."""
    for key, value in overlay.items():
        dotted = prefix + key
        if "." in key:  # files nest their keys; the handlers read only the nested trees
            raise ValueError(f"{source}: unknown config key '{dotted}'")
        if dotted in options:
            opt = options[dotted]
            _check_value(opt, value, not prefix and opt.default is None, f"{source}: {dotted}")
            base[key] = value
        elif any(k.startswith(dotted + ".") for k in options):
            if not isinstance(value, dict):
                raise ValueError(f"{source}: {dotted} must be an object, got {json.dumps(value)}")
            if not _deep_update(base.setdefault(key, {}), value, source, options, retired, dotted + "."):
                del base[key]
        elif dotted != "version":
            if dotted not in retired:
                raise ValueError(f"{source}: unknown config key '{dotted}'")
            ran_with = retired[dotted]
            if ran_with is not _ANY and not (json_is(value, type(ran_with)) and value == ran_with):
                raise ValueError(
                    f"{source}: {dotted} = {json.dumps(value)} is no longer configurable"
                    f" (every run used {json.dumps(ran_with)})"
                )
    return base


def _check_value(opt: _Opt, value, nullable: bool, where: str) -> None:
    """Refuse a config value, from a file or a flag, that its flag could not
    have produced; null passes where ``nullable`` (a top-level key unset by
    default). A thread count stays a string, as manifests record it, of a
    positive decimal integer: OpenBLAS reads "abc" or "0" as every core."""
    if value is None and nullable:
        return
    if opt.key == "threads" and not (json_is(value, str) and value.isascii() and value.isdigit() and int(value) > 0):
        raise ValueError(f'{where} must be a positive integer such as "1", got {json.dumps(value)}')
    if not json_is(value, opt.type):
        raise ValueError(f"{where} must be {opt.type.__name__}, got {json.dumps(value)}")
    if opt.choices is not None and value not in opt.choices:
        raise ValueError(f"{where} must be one of {', '.join(opt.choices)}, got {json.dumps(value)}")


def _load_config_file(path: str | Path, command: str) -> tuple[dict, bool]:
    data = parse_json(read_text(path), path)
    replay = isinstance(data, dict) and "command" in data and "config" in data
    if replay:  # a manifest: replay its config
        if data["command"] != command:
            raise ValueError(f"{path}: a manifest of {data['command']}, not {command}")
        data = data["config"]
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a config must be a JSON object")
    version = data.get("version", 1)
    if not (json_is(version, int) and version == 1):
        raise ValueError(f"{path}: unsupported config version {json.dumps(version)}")
    return data, replay


def _defaults(command: str) -> dict:
    return {"version": 1, **{opt.key: opt.default for opt in _COMMANDS[command].options if "." not in opt.key}}


def _resolve(args: argparse.Namespace) -> tuple[dict, str]:
    """The run's config, defaults < ``--config`` file < flags, with required
    keys and file names checked, and the path its manifest goes to."""
    cmd = _COMMANDS[args.command]
    source = args.config
    overlay, replay = _load_config_file(source, args.command) if source else ({}, False)
    options = {opt.key: opt for opt in cmd.options}
    cfg = _deep_update(_defaults(args.command), overlay, source, options, _RETIRED_KEYS.get(args.command, {}))
    for opt in cmd.options:
        value = getattr(args, opt.flag[2:].replace("-", "_"))
        if value is not None:
            _check_value(opt, value, False, opt.key)
            node = cfg
            *parents, leaf = opt.key.split(".")
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = value
    _require(cfg, *(opt.key for opt in cmd.options if opt.required))
    primary = cfg[cmd.primary] or f"{cfg['model']}.eval"  # only eval's primary output, --out-json, is optional
    manifest = cfg["manifest"] or f"{primary}.manifest.json"
    rewrite = replay and os.path.realpath(source) == os.path.realpath(manifest)  # a replay rewrites itself
    _check_distinct_files({"config": None if rewrite else source, **cfg, "manifest": manifest})
    _apply_threads(cfg.get("threads"))
    return cfg, manifest


def _check_distinct_files(cfg: dict) -> None:
    """Refuse two file options that name one file, so that no output replaces
    an input or another output; ``_resolve`` runs it before any file but the
    config is read, with the config's and manifest's paths. Every top-level
    string key names a file, except those in ``_NOT_FILES``."""
    seen: dict[str, str] = {}
    for key, value in cfg.items():
        if isinstance(value, str) and key not in _NOT_FILES:
            real = os.path.realpath(value)
            if real in seen:
                raise ValueError(f"{seen[real]} and {key} name the same file {value}")
            seen[real] = key


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


# ---------------------------------------------------------------- synth


_SYNTH_OPTIONS = (
    _Opt("--n", "n", int, required=True),
    _Opt("--dim", "dim", int, required=True),
    _Opt("--classes", "classes", int, required=True),
    _Opt("--separation", "separation", float, required=True),
    _Opt("--seed", "seed", int, default=0),
    _Opt("--out-features", "out_features", required=True),
    _Opt("--out-labels", "out_labels", required=True),
    _Opt("--n-val", "n_val", int, "also draw a validation split from the same mixture", default=0),
    _Opt("--out-val-features", "out_val_features"),
    _Opt("--out-val-labels", "out_val_labels", help="one-hot CSV for the validation split"),
    _Opt("--n-test", "n_test", int, default=0),
    _Opt("--out-test-features", "out_test_features"),
    _Opt("--out-test-labels", "out_test_labels"),
    _MANIFEST,
)


def _cmd_synth(cfg: dict) -> tuple:
    from . import data, noise

    if cfg["n_val"] > 0:
        _require(cfg, "out_val_features", "out_val_labels")
    if cfg["n_test"] > 0:
        _require(cfg, "out_test_features", "out_test_labels")

    spec = noise.MixtureSpec(cfg["n"], cfg["dim"], cfg["classes"], cfg["separation"], cfg["seed"])
    train, val, test = noise.gen_gaussian_mixture_split(spec, cfg["n_val"], cfg["n_test"])
    data.write_features(train[0], cfg["out_features"])
    data.write_hard_labels(train[1], cfg["out_labels"])
    outputs = {"features": cfg["out_features"], "labels": cfg["out_labels"]}
    if val is not None:
        data.write_features(val[0], cfg["out_val_features"])
        data.write_onehot_csv(data.one_hot(val[1]), cfg["out_val_labels"])
        outputs.update(val_features=cfg["out_val_features"], val_labels=cfg["out_val_labels"])
    if test is not None:
        data.write_features(test[0], cfg["out_test_features"])
        data.write_hard_labels(test[1], cfg["out_test_labels"])
        outputs.update(test_features=cfg["out_test_features"], test_labels=cfg["out_test_labels"])
    print(f"synth: wrote {spec.n} samples ({spec.classes} classes, dim {spec.dim}) to {cfg['out_features']}")
    return {}, outputs, {"seed": cfg["seed"]}


# ---------------------------------------------------------------- corrupt


_CORRUPT_OPTIONS = (
    _Opt("--labels", "labels", required=True),
    _Opt("--kind", "kind", default="symmetric", choices=("symmetric", "asymmetric")),
    _Opt("--ratio", "ratio", float, required=True),
    _Opt("--map", "map", help="asymmetric class map, e.g. '0:1,2:3'"),
    _Opt("--seed", "seed", int, default=0),
    _Opt("--classes", "classes", int, "class count (default: max index + 1)"),
    _Opt("--out", "out", required=True),
    _MANIFEST,
)


def _parse_class_map(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip(ASCII_WHITESPACE)
        if not part:
            continue
        try:
            if not LABEL_TEXT.fullmatch(part):
                raise ValueError
            src, dst = map(int, part.split(":"))
        except ValueError:  # a character label files refuse, not "src:dst", or more digits than int() converts
            raise ValueError(f"bad class map entry {part!r}, expected 'src:dst'") from None
        if src in out:
            raise ValueError(f"class map gives source class {src} twice")
        out[src] = dst
    if not out:
        raise ValueError("empty class map")
    return out


def _cmd_corrupt(cfg: dict) -> tuple:
    from . import data, noise

    noise.check_flip(cfg["ratio"], cfg["seed"])
    class_map = _parse_class_map(cfg["map"]) if cfg["kind"] == "asymmetric" and cfg["map"] else None
    labels = data.load_hard_labels(cfg["labels"], cfg["classes"])
    if cfg["kind"] == "symmetric":
        noisy = noise.inject_symmetric(labels, cfg["ratio"], cfg["seed"])
    else:  # asymmetric, the only other choice of --kind
        if class_map is None and labels.n_classes != 10:
            raise ValueError(f"asymmetric noise over {labels.n_classes} classes needs an explicit --map")
        class_map = class_map or dict(noise.CIFAR10_CLASS_MAP)
        noisy = noise.inject_asymmetric(labels, cfg["ratio"], class_map, cfg["seed"])
        cfg["map"] = ",".join(f"{k}:{v}" for k, v in sorted(class_map.items()))
    data.write_hard_labels(noisy, cfg["out"])
    changed = float((noisy.values != labels.values).mean())
    print(f"corrupt: flipped {changed:.1%} of {len(labels)} labels -> {cfg['out']}")
    return {"labels": cfg["labels"]}, {"labels": cfg["out"]}, {"seed": cfg["seed"]}


# ---------------------------------------------------------------- purify


_PURIFY_OPTIONS = (
    _Opt("--features", "features", required=True),
    _Opt("--labels", "labels", required=True),
    _Opt("--val-features", "val_features", required=True),
    _Opt("--val-labels", "val_labels", help="one-hot CSV", required=True),
    _Opt("--truth", "truth", help="ground-truth labels, for reporting only"),
    _Opt("--out-labels", "out_labels", required=True),
    _Opt("--out-logits", "out_logits"),
    _Opt("--report", "report", help="JSON-lines iteration report"),
    _Opt("--alpha", "purifier.ipc.alpha", float, "softmax scaling of the label logits"),
    _Opt("--lambda", "purifier.ipc.lam", float, "ridge coefficient"),
    _Opt("--eta-i", "purifier.ipc.eta", float, "logit correction rate"),
    _Opt("--eta-e", "purifier.eac.eta", float, "replacement momentum (1 = replace outright)"),
    _Opt("--period", "purifier.eac.period", int, "iterations between label replacements"),
    _Opt("--batch", "purifier.batch_size", int),
    _Opt("--epochs", "purifier.epochs", int),
    _Opt("--seed", "purifier.shuffle_seed", int, "epoch shuffle seed"),
    _Opt("--ipc-gamma-ent", "purifier.ipc.gamma_ent", float),
    _Opt("--eac-gamma-ent", "purifier.eac.gamma_ent", float),
    _Opt("--eac-lr", "purifier.eac.lr", float),
    _Opt("--ipc", "purifier.use_ipc", bool, "enable the ridge corrector"),
    _Opt("--eac", "purifier.use_eac", bool, "enable the classifier corrector"),
    _THREADS,
    _MANIFEST,
)


def _cmd_purify(cfg: dict) -> tuple:
    from . import data
    from .eac import EacConfig
    from .ipc import IpcConfig
    from .purifier import PurifierConfig, purify, save_report

    # The config first, so a bad value is refused before any input is read.
    tree = dict(cfg.get("purifier", {}))
    ipc, eac = IpcConfig(**tree.pop("ipc", {})), EacConfig(**tree.pop("eac", {}))
    pcfg = PurifierConfig(ipc=ipc, eac=eac, **tree)
    cfg["purifier"] = asdict(pcfg)
    val = data.CleanValidationSet(data.load_features(cfg["val_features"]), data.load_onehot_csv(cfg["val_labels"]))
    features = data.load_features(cfg["features"])
    noisy = data.load_hard_labels(cfg["labels"], val.n_classes)
    truth = data.load_hard_labels(cfg["truth"], val.n_classes) if cfg["truth"] else None
    logits, purified, rep = purify(features, noisy, val, pcfg, truth=truth)

    data.write_hard_labels(purified, cfg["out_labels"])
    outputs = {"labels": cfg["out_labels"]}
    if cfg["out_logits"]:
        data.write_features(logits, cfg["out_logits"])
        outputs["logits"] = cfg["out_logits"]
    if cfg["report"]:
        save_report(rep, cfg["report"])
        outputs["report"] = cfg["report"]

    inputs = {k: cfg[k] for k in ("features", "labels", "val_features", "val_labels", "truth") if cfg[k]}
    tail = ""
    if "final_accuracy" in rep.summary:
        tail = f", accuracy {rep.summary['initial_accuracy']:.4f} -> {rep.summary['final_accuracy']:.4f}"
    print(f"purify: {rep.summary['iterations']} iterations{tail} -> {cfg['out_labels']}")
    return inputs, outputs, {"shuffle_seed": cfg["purifier"]["shuffle_seed"]}


# ---------------------------------------------------------------- retrain


_RETRAIN_OPTIONS = (
    _Opt("--features", "features", required=True),
    _Opt("--labels", "labels"),
    _Opt("--soft-logits", "soft_logits", help="train on soft labels from this logits file instead"),
    _Opt("--alpha", "alpha", float, "softmax scaling for --soft-logits", default=1.0),
    _Opt("--epochs", "train.epochs", int),
    _Opt("--batch", "train.batch", int),
    _Opt("--lr", "train.lr", float),
    _Opt("--seed", "train.seed", int),
    _Opt("--out-model", "out_model", required=True),
    _THREADS,
    _MANIFEST,
)


def _cmd_retrain(cfg: dict) -> tuple:
    import numpy as np

    from . import data
    from .eac import row_chunks
    from .evaluate import TrainConfig, save_classifier, train_linear_ce, train_linear_on_targets

    tconfig = TrainConfig(**cfg.get("train", {}))  # before any input is read, so a bad value is refused first
    cfg["train"] = asdict(tconfig)
    if cfg["soft_logits"]:
        check_config({"alpha": cfg["alpha"]}, positive=("alpha",))
    features = data.load_features(cfg["features"])
    inputs = {"features": cfg["features"]}
    if cfg["soft_logits"]:
        logits = data.load_features(cfg["soft_logits"]).values
        # Class-major, filled a row chunk at a time: the softmax is per row, so
        # bitwise. Widened first, as a Python float times float32 stays float32.
        targets = np.empty(logits.shape, order="F")
        for lo, hi in row_chunks(len(logits)):
            targets[lo:hi] = data.softmax(cfg["alpha"] * logits[lo:hi].astype(float))
        clf = train_linear_on_targets(features, targets, tconfig)
        inputs["soft_logits"] = cfg["soft_logits"]
    else:
        _require(cfg, "labels")
        labels = data.load_hard_labels(cfg["labels"])
        clf = train_linear_ce(features, labels, tconfig)
        inputs["labels"] = cfg["labels"]
    save_classifier(clf, cfg["out_model"])
    print(f"retrain: {features.n} samples -> {cfg['out_model']}")
    return inputs, {"model": cfg["out_model"]}, {"seed": cfg["train"]["seed"]}


# ---------------------------------------------------------------- eval


_EVAL_OPTIONS = (
    _Opt("--model", "model", required=True),
    _Opt("--features", "features", required=True),
    _Opt("--labels", "labels", required=True),
    _Opt("--out-json", "out_json"),
    _THREADS,
    _MANIFEST,
)


def _cmd_eval(cfg: dict) -> tuple:
    from . import data
    from .evaluate import evaluate_classifier, load_classifier

    clf = load_classifier(cfg["model"])
    features = data.load_features(cfg["features"])
    # Not the head's width: a head retrained on labels that lost the top class is
    # narrower than the test labels; rows of a class it lacks count as misses.
    labels = data.load_hard_labels(cfg["labels"])
    metrics = {"accuracy": evaluate_classifier(clf, features, labels), "n": features.n}
    print(json.dumps(metrics))
    outputs = {}
    if cfg["out_json"]:
        Path(cfg["out_json"]).write_text(json.dumps(metrics) + "\n", encoding="utf-8")
        outputs["metrics"] = cfg["out_json"]
    inputs = {"model": cfg["model"], "features": cfg["features"], "labels": cfg["labels"]}
    return inputs, outputs, {}


# ---------------------------------------------------------------- report


_REPORT_OPTIONS = (
    _Opt("--in", "in", required=True),
    _Opt("--csv", "csv", required=True),
    _MANIFEST,
)


def _cmd_report(cfg: dict) -> tuple:
    import csv

    from .report import IterationRecord, load_report

    def cell(value):
        return "" if value is None else int(value) if json_is(value, bool) else value

    rep = load_report(cfg["in"])
    with open(cfg["csv"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(IterationRecord)])
        writer.writerows([cell(v) for v in astuple(rec)] for rec in rep.records)
    print(f"report: {len(rep.records)} records -> {cfg['csv']}")
    return {"report": cfg["in"]}, {"csv": cfg["csv"]}, {}


# ---------------------------------------------------------------- parser


_COMMANDS = {
    "synth": _Command(_cmd_synth, "generate a Gaussian-mixture feature benchmark", _SYNTH_OPTIONS, "out_features"),
    "corrupt": _Command(_cmd_corrupt, "inject label noise into a labels file", _CORRUPT_OPTIONS, "out"),
    "purify": _Command(
        _cmd_purify, "purify noisy labels against a clean validation set", _PURIFY_OPTIONS, "out_labels"
    ),
    "retrain": _Command(_cmd_retrain, "train a linear head with cross entropy", _RETRAIN_OPTIONS, "out_model"),
    "eval": _Command(_cmd_eval, "held-out accuracy of a trained head", _EVAL_OPTIONS, "out_json"),
    "report": _Command(_cmd_report, "flatten a JSON-lines report to CSV", _REPORT_OPTIONS, "csv"),
}


def build_parser() -> argparse.ArgumentParser:
    description = "Purify noisy classification labels over frozen feature embeddings."
    parser = argparse.ArgumentParser(prog="labelpure", description=description)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", help=_REPLAY_HELP)
        for opt in cmd.options:
            if opt.type is bool:
                kind = {"action": argparse.BooleanOptionalAction, "default": None}
            else:
                kind = {"type": opt.type, "choices": opt.choices}
            p.add_argument(opt.flag, help=opt.help, **kind)
    return parser


def dispatch(argv: list[str]) -> int:
    """Route argv to a subcommand; 0 on success, 2 on usage error, 1 on failure."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 0 after --help, 2 on a usage error
        return exc.code
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg, manifest = _resolve(args)
        _write_manifest(manifest, args.command, cfg, *_COMMANDS[args.command].func(cfg))
        return 0
    except Exception as exc:
        print(f"labelpure: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
