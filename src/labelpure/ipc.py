"""Closed-form ridge correction: batch ridge fit, validation discrepancy,
and the analytic gradient of that discrepancy with respect to label logits.

The inner problem  min_w ||softmax(alpha Y) - F w||^2 + lam ||w||^2  has the
closed form  w* = (F'F + lam I)^{-1} F' softmax(alpha Y), so the validation
loss is an analytic function of the batch logits Y and its gradient is exact
(no unrolled inner loop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor, cho_solve

from .data import softmax, softmax_entropy
from .errors import NumericError


@dataclass(frozen=True)
class IpcConfig:
    """Hyperparameters of the ridge-based corrector.

    ``val_batch`` optionally subsamples the validation set per step (the
    purification loop draws the subsets); None means the full set.
    ``normalize_gram`` divides the Gram matrix (and the matching right-hand
    side) by the batch size before adding lam * I.
    """

    alpha: float = 1.0
    lam: float = 1.0
    eta: float = 0.01
    gamma_ent: float = 1.0
    val_batch: int | None = None
    normalize_gram: bool = False

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.gamma_ent < 0:
            raise ValueError(f"gamma_ent must be nonnegative, got {self.gamma_ent}")
        if self.val_batch is not None and self.val_batch < 1:
            raise ValueError(f"val_batch must be >= 1, got {self.val_batch}")


@dataclass(frozen=True)
class RidgeSolution:
    """Minimizer of the batch ridge objective, d x c weights."""

    weights: np.ndarray
    lam: float
    alpha: float


def _gram_solver(F_t: np.ndarray, lam: float, normalize_gram: bool):
    """Cholesky factor of F'F + lam I, with lam scaled by b under ``normalize_gram``:
    (F'F/b + lam I)^{-1} F'/b = (F'F + b lam I)^{-1} F'."""
    b, d = F_t.shape
    A = F_t.T @ F_t + (lam * b if normalize_gram else lam) * np.eye(d)
    try:
        return cho_factor(A, lower=True)
    except LinAlgError as exc:
        raise LinAlgError(f"Gram matrix is singular at lam={lam}: {exc}") from exc


def ridge_fit(
    F_t: np.ndarray,
    Y_t: np.ndarray,
    alpha: float,
    lam: float,
    normalize_gram: bool = False,
) -> RidgeSolution:
    """Solve the ridge regression of softmax(alpha * Y_t) onto the batch features.

    Returns w* = (F'F + lam I)^{-1} F' softmax(alpha Y), computed by a
    symmetric positive definite factorization, never an explicit inverse.
    Raises LinAlgError when lam = 0 and the Gram matrix is singular.
    """
    F_t = np.asarray(F_t, dtype=np.float64)
    Y_t = np.asarray(Y_t, dtype=np.float64)
    if F_t.shape[0] != Y_t.shape[0]:
        raise ValueError(f"batch size mismatch: {F_t.shape[0]} feature rows vs {Y_t.shape[0]} logit rows")
    factor = _gram_solver(F_t, lam, normalize_gram)
    targets = softmax(alpha * Y_t)
    weights = cho_solve(factor, F_t.T @ targets)
    return RidgeSolution(weights=weights, lam=lam, alpha=alpha)


def ridge_predict(solution: RidgeSolution, F: np.ndarray) -> np.ndarray:
    """Linear predictions F @ w*, one row per sample."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != solution.weights.shape[0]:
        raise ValueError(
            f"feature dim {F.shape[-1]} does not match solution dim {solution.weights.shape[0]}"
        )
    return F @ solution.weights


def validation_loss(pred: np.ndarray, Y_v: np.ndarray, gamma_ent: float = 1.0) -> float:
    """Mean squared discrepancy plus entropy of softmax(pred), averaged over rows."""
    pred = np.asarray(pred, dtype=np.float64)
    Y_v = np.asarray(Y_v, dtype=np.float64)
    if pred.shape != Y_v.shape:
        raise ValueError(f"prediction shape {pred.shape} does not match labels {Y_v.shape}")
    if gamma_ent < 0:
        raise ValueError(f"gamma_ent must be nonnegative, got {gamma_ent}")
    n_v = pred.shape[0]
    sq = float(((pred - Y_v) ** 2).sum()) / n_v
    _, _, entropy, _ = softmax_entropy(pred)
    return sq + gamma_ent * float(entropy.sum()) / n_v


def loss_and_label_gradient(
    F_t: np.ndarray,
    Y_t: np.ndarray,
    F_v: np.ndarray,
    Y_v: np.ndarray,
    cfg: IpcConfig,
) -> tuple[float, np.ndarray]:
    """Validation loss and its exact gradient w.r.t. the batch logits Y_t.

    Chain: predictions P = F_v (F'F + lam I)^{-1} F' S with S = softmax(alpha Y);
    dL/dP from the squared and entropy terms; dL/dS through the linear map;
    dL/dY through the row-wise softmax Jacobian scaled by alpha.
    """
    F_t = np.asarray(F_t, dtype=np.float64)
    Y_t = np.asarray(Y_t, dtype=np.float64)
    F_v = np.asarray(F_v, dtype=np.float64)
    Y_v = np.asarray(Y_v, dtype=np.float64)
    factor = _gram_solver(F_t, cfg.lam, cfg.normalize_gram)
    K = cho_solve(factor, F_t.T)              # d x b, (F'F + lam I)^{-1} F'
    M = F_v @ K                               # n_v x b
    S = softmax(cfg.alpha * Y_t)
    P = M @ S
    n_v = F_v.shape[0]

    _, _, entropy, d_entropy = softmax_entropy(P)
    loss = (float(((P - Y_v) ** 2).sum()) + cfg.gamma_ent * float(entropy.sum())) / n_v

    grad_pred = (2.0 * (P - Y_v) + cfg.gamma_ent * d_entropy) / n_v
    grad_soft = M.T @ grad_pred
    inner = (S * grad_soft).sum(axis=1, keepdims=True)
    grad = cfg.alpha * S * (grad_soft - inner)
    return loss, grad


def ipc_step(Y_rows: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """One gradient step on the logits: Y - eta * grad."""
    Y_rows = np.asarray(Y_rows, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if Y_rows.shape != grad.shape:
        raise ValueError(f"logit shape {Y_rows.shape} does not match gradient {grad.shape}")
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite label gradient")
    return Y_rows - eta * grad
