"""Orchestration of the correction loop: per-batch ridge hypergradient steps
interleaved with classifier training and periodic label replacement, plus the
per-iteration report.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from .data import (
    CleanValidationSet,
    FeatureMatrix,
    HardLabels,
    LabelLogits,
    hard_labels,
    l2_normalize_rows,
    logits_from_probabilities,
    one_hot,
    softmax,
)
from .eac import AdamState, EacConfig, LinearClassifier, classifier_forward, eac_label_update, eac_train_step
from .errors import NumericError
from .ipc import IpcConfig, ipc_step, loss_and_label_gradient
from .noise import label_accuracy

REPORT_SCHEMA = 1


@dataclass(frozen=True)
class PurifierConfig:
    """Loop configuration.

    ``track_truth`` carries ground-truth labels used only for reporting; it
    never influences the updates. ``use_ipc`` / ``use_eac`` switch the two
    correction processes on and off for ablations. ``add_bias_feature``
    appends a constant-1 column to all features, emulating a ridge bias.
    """

    ipc: IpcConfig = field(default_factory=IpcConfig)
    eac: EacConfig = field(default_factory=EacConfig)
    batch_size: int = 256
    epochs: int = 100
    shuffle_seed: int = 0
    track_truth: HardLabels | None = None
    init_scale: float = 1.0
    normalize_features: bool = False
    add_bias_feature: bool = False
    use_ipc: bool = True
    use_eac: bool = True
    eac_steps_per_iter: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.init_scale < float("inf"):
            raise ValueError(f"init_scale must be positive and finite, got {self.init_scale}")
        if self.eac_steps_per_iter < 1:
            raise ValueError(f"eac_steps_per_iter must be >= 1, got {self.eac_steps_per_iter}")
        if not (self.use_ipc or self.use_eac):
            raise ValueError("at least one of use_ipc / use_eac must be enabled")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the correction report (one ridge/classifier iteration)."""

    p: int
    epoch: int
    val_loss: float | None
    grad_norm: float | None
    eac_update: bool
    acc: float | None = None


@dataclass
class CorrectionReport:
    """Per-iteration records plus a run summary."""

    records: list[IterationRecord]
    summary: dict


def purify(
    features: FeatureMatrix,
    noisy: HardLabels,
    val: CleanValidationSet,
    cfg: PurifierConfig,
) -> tuple[LabelLogits, HardLabels, CorrectionReport]:
    """Run the correction loop and return purified logits, hard labels, and report.

    Per epoch the training indices are shuffled (seeded) and split into
    batches. Per batch: one hypergradient step on that batch's logit rows,
    then classifier training on the freshly updated soft targets. A global
    iteration counter p advances per batch; whenever p is a multiple of the
    replacement period, the classifier's logits over the full training set
    are momentum-blended into all logit rows.
    """
    n, c = features.n, noisy.n_classes
    if len(noisy) != n:
        raise ValueError(f"{n} feature rows vs {len(noisy)} labels")
    if val.features.dim != features.dim:
        raise ValueError(
            f"feature dim mismatch: train {features.dim} vs validation {val.features.dim}"
        )
    if val.n_classes != c:
        raise ValueError(f"class count mismatch: labels {c} vs validation {val.n_classes}")
    truth = cfg.track_truth
    if truth is not None and (len(truth) != n or truth.n_classes != c):
        raise ValueError("track_truth must match the noisy labels in length and classes")

    F_t = features.values
    F_v = val.features.values
    Y_v = val.labels
    if cfg.normalize_features:
        F_t = l2_normalize_rows(F_t)
        F_v = l2_normalize_rows(F_v)
    if cfg.add_bias_feature:
        F_t = np.hstack([F_t, np.ones((F_t.shape[0], 1))])
        F_v = np.hstack([F_v, np.ones((F_v.shape[0], 1))])

    Y = one_hot(noisy) * cfg.init_scale
    clf = LinearClassifier.zeros(F_t.shape[1], c)
    opt = AdamState.init(F_t.shape[1], c, cfg.eac.lr)
    rng = np.random.default_rng(cfg.shuffle_seed)
    alpha = cfg.ipc.alpha
    n_v = F_v.shape[0]
    sub_val = cfg.ipc.val_batch is not None and cfg.ipc.val_batch < n_v

    records: list[IterationRecord] = []
    start = time.perf_counter()
    p = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            p += 1
            val_loss = grad_norm = None
            try:
                if cfg.use_ipc:
                    if sub_val:
                        pick = rng.choice(n_v, size=cfg.ipc.val_batch, replace=False)
                        fv, yv = F_v[pick], Y_v[pick]
                    else:
                        fv, yv = F_v, Y_v
                    val_loss, grad = loss_and_label_gradient(F_t[idx], Y[idx], fv, yv, cfg.ipc)
                    grad_norm = float(np.linalg.norm(grad))
                    Y[idx] = ipc_step(Y[idx], grad, cfg.ipc.eta)
                did_replace = False
                if cfg.use_eac:
                    if cfg.eac.hard_targets:
                        targets = np.eye(c)[np.argmax(Y[idx], axis=1)]
                    else:
                        targets = softmax(alpha * Y[idx])
                    for _ in range(cfg.eac_steps_per_iter):
                        clf, opt = eac_train_step(
                            clf,
                            F_t[idx],
                            targets,
                            opt,
                            gamma_ent=cfg.eac.gamma_ent,
                            update_bias=cfg.eac.use_bias,
                        )
                    if p % cfg.eac.period == 0:
                        logits_all = classifier_forward(clf, F_t)
                        if cfg.eac.blend_space == "logit":
                            Y = eac_label_update(Y, logits_all, cfg.eac.eta)
                        else:
                            blended = (1.0 - cfg.eac.eta) * softmax(alpha * Y) + cfg.eac.eta * softmax(logits_all)
                            Y = logits_from_probabilities(blended, alpha)
                        did_replace = True
            except (NumericError, LinAlgError) as exc:
                raise type(exc)(f"{exc} (epoch {epoch}, iteration {p})") from exc
            acc = None
            if truth is not None:
                acc = float(np.mean(np.argmax(Y, axis=1) == truth.values))
            records.append(
                IterationRecord(
                    p=p, epoch=epoch, val_loss=val_loss, grad_norm=grad_norm,
                    eac_update=did_replace, acc=acc,
                )
            )

    logits = LabelLogits(Y)
    purified = hard_labels(logits)
    summary = {
        "schema": REPORT_SCHEMA,
        "iterations": p,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "wall_time_s": time.perf_counter() - start,
    }
    if truth is not None:
        summary["initial_accuracy"] = label_accuracy(noisy, truth)
        summary["final_accuracy"] = label_accuracy(purified, truth)
    return logits, purified, CorrectionReport(records=records, summary=summary)


def save_report(report: CorrectionReport, path: str | Path) -> None:
    """Write the report as JSON lines: one record per iteration, then a summary object.

    Accuracy keys appear only when ground truth was tracked.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in report.records:
            row = asdict(rec)
            if rec.acc is None:
                del row["acc"]
            fh.write(json.dumps(row) + "\n")
        fh.write(json.dumps({"summary": report.summary}) + "\n")


def load_report(path: str | Path) -> CorrectionReport:
    """Read a report written by save_report."""
    records: list[IterationRecord] = []
    summary: dict | None = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if "summary" in row:
                summary = row["summary"]
            else:
                records.append(IterationRecord(**row))
    if summary is None:
        raise ValueError(f"{path}: missing summary line")
    return CorrectionReport(records=records, summary=summary)
