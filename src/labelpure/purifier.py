"""Orchestration of the correction loop: per-batch ridge hypergradient steps
interleaved with classifier training and periodic label replacement. The
per-iteration report it returns is defined in ``labelpure.report``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from .data import CleanValidationSet, FeatureMatrix, HardLabels, one_hot, softmax
from .eac import EacConfig, TrainState, classifier_forward, eac_label_update, eac_train_step, minibatches, row_chunks
from .errors import NumericError, check_config
from .ipc import IpcConfig, ipc_step, loss_and_label_gradient

# The CLI and traced benchmark runs look save_report up on this module.
from .report import REPORT_SCHEMA, CorrectionReport, IterationRecord, save_report  # noqa: F401


@dataclass(frozen=True)
class PurifierConfig:
    """Loop configuration. ``use_ipc`` / ``use_eac`` switch the two correction
    processes on and off for ablations."""

    ipc: IpcConfig = field(default_factory=IpcConfig)
    eac: EacConfig = field(default_factory=EacConfig)
    batch_size: int = 256
    epochs: int = 100
    shuffle_seed: int = 0
    use_ipc: bool = True
    use_eac: bool = True

    def __post_init__(self) -> None:
        check_config(vars(self), at_least={"batch_size": 2, "epochs": 1}, nonnegative=("shuffle_seed",))
        if not (self.use_ipc or self.use_eac):
            raise ValueError("at least one of use_ipc / use_eac must be enabled")


def purify(
    features: FeatureMatrix,
    noisy: HardLabels,
    val: CleanValidationSet,
    cfg: PurifierConfig,
    truth: HardLabels | None = None,
) -> tuple[FeatureMatrix, HardLabels, CorrectionReport]:
    """Run the correction loop and return purified logits, hard labels, and report.

    The logits are an N x c ``FeatureMatrix``, a read-only view of the loop's
    final label logits; the hard labels are their row argmax (ties break to
    the lowest class index). ``truth``, when given, adds label accuracy to
    the report; it never influences the updates.

    Per ``minibatches`` batch: one hypergradient step on its logit rows, then
    classifier training on the freshly updated soft targets. Every
    ``period``-th batch, the classifier's logits over the full training set
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
    if truth is not None and (len(truth) != n or truth.n_classes != c):
        raise ValueError("truth must match the noisy labels in length and classes")

    F_t = features.values  # float32 or float64: each batch gather widens its rows
    F_v = val.features.values.astype(np.float64, copy=False)
    Y_v = val.labels
    Y = one_hot(noisy)  # the one N x c buffer: ridge steps write its batch rows, replacements a chunk at a time
    state = TrainState(features.dim, c, cfg.eac.lr)

    # Hard labels for the truth accuracy of each record, kept in step with Y so
    # that a record needs no full argmax: a ridge step changes only the batch
    # rows, a replacement each chunk's.
    if truth is not None:
        pred = np.argmax(Y, axis=1)
        initial_accuracy = int(np.count_nonzero(pred == truth.values)) / n

    records: list[IterationRecord] = []
    start = time.perf_counter()
    for p, (epoch, idx, f) in enumerate(minibatches(F_t, cfg.batch_size, cfg.epochs, cfg.shuffle_seed), 1):
        y = np.take(Y, idx, axis=0)
        val_loss = grad_norm = None
        replace = bool(cfg.use_eac) and p % cfg.eac.period == 0
        try:
            if cfg.use_ipc:
                val_loss, grad = loss_and_label_gradient(f, y, F_v, Y_v, cfg.ipc)
                grad_norm = float(np.linalg.norm(grad))
                Y[idx] = y = ipc_step(y, grad, cfg.ipc.eta)
                if truth is not None:
                    pred[idx] = np.argmax(y, axis=1)
            if cfg.use_eac:
                eac_train_step(state, f, softmax(cfg.ipc.alpha * y), gamma_ent=cfg.eac.gamma_ent)
            if replace:
                for lo, hi in row_chunks(n):
                    Y[lo:hi] = eac_label_update(Y[lo:hi], classifier_forward(state, F_t[lo:hi]), cfg.eac.eta)
                    if truth is not None:
                        pred[lo:hi] = np.argmax(Y[lo:hi], axis=1)
        except (NumericError, LinAlgError) as exc:
            raise type(exc)(f"{exc} (epoch {epoch}, iteration {p})") from exc
        records.append(
            IterationRecord(
                p=p, epoch=epoch, val_loss=val_loss, grad_norm=grad_norm, eac_update=replace,
                acc=None if truth is None else int(np.count_nonzero(pred == truth.values)) / n,
            )
        )

    summary = {
        "schema": REPORT_SCHEMA,
        "iterations": len(records),
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "wall_time_s": time.perf_counter() - start,
    }
    if truth is not None:
        summary["initial_accuracy"] = initial_accuracy
        summary["final_accuracy"] = records[-1].acc
    return FeatureMatrix(Y), HardLabels(np.argmax(Y, axis=1), c), CorrectionReport(records=records, summary=summary)
