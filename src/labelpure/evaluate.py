"""Downstream use of purified labels: linear cross-entropy retraining and
held-out accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FeatureMatrix, HardLabels, one_hot
from .eac import LinearClassifier, TrainState, check_targets, classifier_forward, eac_train_step, minibatches
from .errors import FormatError, check_config, json_is, parse_json, read_text


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch: int = 256
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        check_config(vars(self), at_least={"epochs": 1, "batch": 1}, nonnegative=("lr", "seed"))


def train_linear_on_targets(
    features: FeatureMatrix, targets: np.ndarray, cfg: TrainConfig
) -> LinearClassifier:
    """Minibatch cross-entropy training of a linear head on soft target rows."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[0] != features.n:
        raise ValueError(f"{features.n} feature rows vs target shape {targets.shape}")
    check_targets(targets)
    # Class-major, so each batch gathers into a column-major matrix, the layout
    # the softmax in eac_train_step reduces over.
    by_class = np.ascontiguousarray(targets.T)
    state = TrainState(features.dim, targets.shape[1], cfg.lr)
    for _, idx, f in minibatches(features.values, cfg.batch, cfg.epochs, cfg.seed):
        eac_train_step(state, f, np.take(by_class, idx, axis=1).T, gamma_ent=0.0)
    return LinearClassifier(state.weights, state.bias)


def train_linear_ce(
    features: FeatureMatrix, labels: HardLabels, cfg: TrainConfig
) -> LinearClassifier:
    """Retrain a linear head with plain cross entropy on hard labels."""
    return train_linear_on_targets(features, one_hot(labels, order="F"), cfg)


def evaluate_classifier(clf: LinearClassifier, features: FeatureMatrix, y: HardLabels) -> float:
    """Fraction of rows whose argmax prediction matches y (ties to lowest index)."""
    if len(y) != features.n:
        raise ValueError(f"{features.n} feature rows vs {len(y)} labels")
    pred = np.argmax(classifier_forward(clf, features.values), axis=1)
    return float(np.mean(pred == y.values))


def save_classifier(clf: LinearClassifier, path: str | Path) -> None:
    """Write a classifier to versioned JSON."""
    payload = {
        "version": 1,
        "weights": clf.weights.tolist(),
        "bias": clf.bias.tolist(),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_classifier(path: str | Path) -> LinearClassifier:
    data = parse_json(read_text(path), path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: a classifier must be a JSON object, got {type(data).__name__}")
    version = data.get("version")
    if not (json_is(version, int) and version == 1):  # true == 1 and 1.0 == 1 in Python
        raise FormatError(f"{path}: unsupported classifier version {json.dumps(version)}")
    arrays = []
    for key in ("weights", "bias"):
        if key not in data:
            raise FormatError(f"{path}: missing key '{key}'")
        value = data[key]  # save_classifier writes weights as rows of numbers and bias as one row
        rows = value if key == "weights" and json_is(value, list) else [value]
        try:
            if not all(json_is(row, list) and all(json_is(x, float) for x in row) for row in rows):
                raise ValueError  # numpy would also read "1.5", true and deeper nests as numbers
            arrays.append(np.asarray(value, dtype=np.float64))
        except ValueError:  # a value that is not a number, or rows of unequal length
            raise FormatError(f"{path}: {key} must be an array of numbers") from None
        except OverflowError:
            raise FormatError(f"{path}: {key} holds an integer beyond the float64 range") from None
    try:
        return LinearClassifier(*arrays)
    except ValueError as exc:  # shapes that do not fit together, or non-finite entries
        raise FormatError(f"{path}: {exc}") from None
