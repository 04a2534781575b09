"""labelpure: purify noisy classification labels over frozen feature embeddings.

A closed-form ridge regression over each training batch turns a clean
validation set's prediction discrepancy into an exact gradient on the noisy
label logits; an accompanying linear classifier trained on the evolving soft
labels periodically replaces them outright. Includes synthetic benchmark
generation, noise injection, retraining, evaluation, and a reproducible CLI.
"""

import importlib

__version__ = "0.1.0"

# Public names by defining submodule. They load on first access, so importing
# ``labelpure.cli`` does not import numpy and the CLI can pin BLAS threads first.
_EXPORTS = {
    "data": (
        "CleanValidationSet",
        "FeatureMatrix",
        "HardLabels",
        "LabelLogits",
        "effective_labels",
        "hard_labels",
        "init_logits",
        "load_features",
        "load_hard_labels",
        "load_onehot_csv",
        "one_hot",
        "softmax",
        "write_features",
        "write_hard_labels",
        "write_onehot_csv",
    ),
    "eac": (
        "AdamState",
        "EacConfig",
        "LinearClassifier",
        "classifier_forward",
        "eac_gradients",
        "eac_label_update",
        "eac_loss",
        "eac_train_step",
    ),
    "errors": ("FormatError", "NumericError"),
    "evaluate": (
        "TrainConfig",
        "evaluate_classifier",
        "linear_probe",
        "load_classifier",
        "save_classifier",
        "train_linear_ce",
        "train_linear_on_targets",
    ),
    "ipc": (
        "IpcConfig",
        "RidgeSolution",
        "ipc_step",
        "loss_and_label_gradient",
        "ridge_fit",
        "ridge_predict",
        "validation_loss",
    ),
    "noise": (
        "CIFAR10_CLASS_MAP",
        "MixtureSpec",
        "gen_gaussian_mixture",
        "gen_gaussian_mixture_split",
        "inject_asymmetric",
        "inject_symmetric",
        "label_accuracy",
    ),
    "purifier": (
        "CorrectionReport",
        "IterationRecord",
        "PurifierConfig",
        "load_report",
        "purify",
        "save_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
