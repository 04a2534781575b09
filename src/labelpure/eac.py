"""Accompanying linear classifier: trained on the corrector's soft labels,
its logits periodically replace (momentum-blend into) the label logits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import softmax_entropy
from .errors import NumericError

_BLEND_SPACES = ("logit", "probability")

# Adam's moment decay rates and denominator floor.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass(frozen=True)
class LinearClassifier:
    """Affine map features -> class logits: F @ weights + bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        b = np.array(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise ValueError(f"inconsistent classifier shapes {w.shape} / {b.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("classifier parameters contain non-finite entries")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @classmethod
    def zeros(cls, dim: int, n_classes: int) -> "LinearClassifier":
        return cls(np.zeros((dim, n_classes)), np.zeros(n_classes))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def n_classes(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class EacConfig:
    """Classifier-side hyperparameters.

    ``eta`` is the blend momentum of the periodic label replacement (1.0
    replaces outright), ``period`` the number of iterations between
    replacements. ``blend_space`` selects whether the blend happens on raw
    logits or on the softmax probabilities. ``lr`` is the classifier's Adam
    step size; the classifier starts at zero, so nothing here is random.
    """

    eta: float = 1.0
    period: int = 50
    gamma_ent: float = 1.0
    lr: float = 1e-3
    blend_space: str = "logit"
    hard_targets: bool = False
    use_bias: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.gamma_ent < 0:
            raise ValueError(f"gamma_ent must be nonnegative, got {self.gamma_ent}")
        if self.lr < 0:
            raise ValueError(f"lr must be nonnegative, got {self.lr}")
        if self.blend_space not in _BLEND_SPACES:
            raise ValueError(f"blend_space must be one of {_BLEND_SPACES}, got {self.blend_space!r}")


@dataclass(frozen=True)
class AdamState:
    """Adaptive-moment optimizer state for a LinearClassifier."""

    lr: float = 1e-3
    step: int = 0
    m_w: np.ndarray | None = None
    v_w: np.ndarray | None = None
    m_b: np.ndarray | None = None
    v_b: np.ndarray | None = None

    @classmethod
    def init(cls, dim: int, n_classes: int, lr: float = 1e-3) -> "AdamState":
        return cls(
            lr=lr,
            step=0,
            m_w=np.zeros((dim, n_classes)),
            v_w=np.zeros((dim, n_classes)),
            m_b=np.zeros(n_classes),
            v_b=np.zeros(n_classes),
        )


def classifier_forward(clf: LinearClassifier, F: np.ndarray) -> np.ndarray:
    """Class logits for each feature row."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != clf.dim:
        raise ValueError(f"feature dim {F.shape[-1]} does not match classifier dim {clf.dim}")
    return F @ clf.weights + clf.bias


def _check_targets(logits: np.ndarray, targets: np.ndarray) -> None:
    if logits.shape != targets.shape:
        raise ValueError(f"logits shape {logits.shape} does not match targets {targets.shape}")
    sums = targets.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6 or targets.min() < -1e-12:
        raise ValueError("target rows must be probability vectors summing to 1")


def _loss_and_logit_gradient(
    logits: np.ndarray, targets: np.ndarray, gamma_ent: float
) -> tuple[float, np.ndarray]:
    """Mean cross entropy plus gamma_ent * entropy, and its gradient w.r.t. the logits."""
    _check_targets(logits, targets)
    logq, q, entropy, d_entropy = softmax_entropy(logits)
    ce = -(targets * logq).sum(axis=1)
    loss = float((ce + gamma_ent * entropy).mean())
    # d/dlogits of mean CE is (q - t)/m
    return loss, (q - targets + gamma_ent * d_entropy) / logits.shape[0]


def eac_loss(logits: np.ndarray, targets: np.ndarray, gamma_ent: float = 1.0) -> float:
    """Soft-target cross entropy plus entropy of the predictions, mean over rows."""
    if gamma_ent < 0:
        raise ValueError(f"gamma_ent must be nonnegative, got {gamma_ent}")
    logits = np.asarray(logits, dtype=np.float64)
    return _loss_and_logit_gradient(logits, np.asarray(targets, dtype=np.float64), gamma_ent)[0]


def eac_gradients(
    clf: LinearClassifier,
    F: np.ndarray,
    targets: np.ndarray,
    gamma_ent: float = 1.0,
    weight_decay: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus its analytic gradients w.r.t. classifier weights and bias."""
    F = np.asarray(F, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    loss, grad_logits = _loss_and_logit_gradient(classifier_forward(clf, F), targets, gamma_ent)
    grad_w = F.T @ grad_logits + weight_decay * clf.weights
    grad_b = grad_logits.sum(axis=0)
    return loss, grad_w, grad_b


def eac_train_step(
    clf: LinearClassifier,
    F_batch: np.ndarray,
    targets: np.ndarray,
    opt: AdamState,
    *,
    gamma_ent: float = 1.0,
    weight_decay: float = 0.0,
    update_bias: bool = True,
) -> tuple[LinearClassifier, AdamState]:
    """One adaptive-moment update of the classifier on a batch of soft targets."""
    _, grad_w, grad_b = eac_gradients(clf, F_batch, targets, gamma_ent, weight_decay)
    if not (np.all(np.isfinite(grad_w)) and np.all(np.isfinite(grad_b))):
        raise NumericError("non-finite classifier gradient")
    step = opt.step + 1
    m_w = _BETA1 * opt.m_w + (1 - _BETA1) * grad_w
    v_w = _BETA2 * opt.v_w + (1 - _BETA2) * grad_w**2
    m_b = _BETA1 * opt.m_b + (1 - _BETA1) * grad_b
    v_b = _BETA2 * opt.v_b + (1 - _BETA2) * grad_b**2
    bias_c1 = 1 - _BETA1**step
    bias_c2 = 1 - _BETA2**step
    new_w = clf.weights - opt.lr * (m_w / bias_c1) / (np.sqrt(v_w / bias_c2) + _EPS)
    if update_bias:
        new_b = clf.bias - opt.lr * (m_b / bias_c1) / (np.sqrt(v_b / bias_c2) + _EPS)
    else:
        new_b = clf.bias
    new_clf = LinearClassifier(new_w, new_b)
    new_opt = replace(opt, step=step, m_w=m_w, v_w=v_w, m_b=m_b, v_b=v_b)
    return new_clf, new_opt


def eac_label_update(Y_t: np.ndarray, logits_all: np.ndarray, eta: float) -> np.ndarray:
    """Momentum blend of label logits with classifier logits: (1-eta) Y + eta C."""
    Y_t = np.asarray(Y_t, dtype=np.float64)
    logits_all = np.asarray(logits_all, dtype=np.float64)
    if Y_t.shape != logits_all.shape:
        raise ValueError(f"logit shape {Y_t.shape} does not match classifier output {logits_all.shape}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return (1.0 - eta) * Y_t + eta * logits_all
