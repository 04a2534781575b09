"""Accompanying linear classifier: trained on the corrector's soft labels,
its logits periodically replace (momentum-blend into) the label logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import softmax, softmax_entropy
from .errors import NumericError, check_config

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


@dataclass(frozen=True)
class EacConfig:
    """Classifier-side hyperparameters.

    ``eta`` is the blend momentum of the periodic label replacement (1.0
    replaces outright), ``period`` the number of iterations between
    replacements. ``lr`` is the classifier's Adam step size; the classifier
    starts at zero, so nothing here is random.
    """

    eta: float = 1.0
    period: int = 50
    gamma_ent: float = 1.0
    lr: float = 1e-3

    def __post_init__(self) -> None:
        check_config(vars(self), unit=("eta",), at_least={"period": 1}, nonnegative=("gamma_ent", "lr"))


class TrainState:
    """A linear classifier under Adam training, updated in place by eac_train_step.

    ``params`` stacks the d x c weights over the bias row, so one set of moment
    updates covers both; ``weights`` and ``bias`` are views into it. The state
    is checked only when a ``LinearClassifier`` copies it out.
    """

    def __init__(self, dim: int, n_classes: int, lr: float = 1e-3) -> None:
        self.lr = lr
        self.step = 0
        self.params = np.zeros((dim + 1, n_classes))
        self.weights = self.params[:dim]
        self.bias = self.params[dim]
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.grad = np.zeros_like(self.params)


def minibatches(F: np.ndarray, batch: int, epochs: int, seed: int):
    """Yield ``(epoch, idx, F[idx] widened to float64)`` for each ``batch``-row
    slice, the last one ragged, of one permutation of the rows per epoch, all
    drawn from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        perm = rng.permutation(F.shape[0])
        for lo in range(0, F.shape[0], batch):
            idx = perm[lo : lo + batch]
            yield epoch, idx, np.take(F, idx, axis=0).astype(np.float64, copy=False)


def row_chunks(n: int) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` row ranges that tile ``[0, n)``. Every chunk starts at
    a multiple of 2048 rows and the last one absorbs a remainder under 1024
    rows: under the SkylakeX and Haswell kernels that keeps each chunk's
    product bitwise equal to its columns of the single product, where short
    tails, unaligned starts or 1024-row chunks are not."""
    edges = [*range(0, max(1, n - 1024), 2048), n]
    return list(zip(edges, edges[1:]))


def classifier_forward(clf: LinearClassifier | TrainState, F: np.ndarray) -> np.ndarray:
    """Class logits for each feature row, as an n x c view of the class-major
    product ``weights.T @ F.T`` (c x n): on splits of thousands of rows
    OpenBLAS's SkylakeX kernel runs it faster than ``F @ weights``, to the
    same bits, and other kernels about as fast.

    The product is formed one ``row_chunks`` range at a time, so a float32
    ``F`` is widened only a chunk at a time. A range is one chunk of its own
    rows, so their forward is bitwise those rows of the full one.
    """
    F = np.asarray(F)
    dim = clf.weights.shape[0]
    if F.ndim != 2 or F.shape[1] != dim:
        raise ValueError(f"feature dim {F.shape[-1]} does not match classifier dim {dim}")
    n = F.shape[0]
    logits = np.empty((clf.weights.shape[1], n))
    for lo, hi in row_chunks(n):
        np.matmul(clf.weights.T, F[lo:hi].astype(np.float64, copy=False).T, out=logits[:, lo:hi])
    logits += clf.bias[:, None]
    return logits.T


def check_targets(targets: np.ndarray) -> None:
    """Refuse target matrices whose rows are not finite probability vectors."""
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets contain non-finite entries")
    if np.abs(targets.sum(axis=1) - 1.0).max() > 1e-6 or targets.min() < -1e-12:
        raise ValueError("target rows must be probability vectors summing to 1")


def _logit_gradient(logits: np.ndarray, targets: np.ndarray, gamma_ent: float) -> np.ndarray:
    """Gradient of the mean cross entropy plus gamma_ent * entropy w.r.t. the
    logits: (q - t + gamma_ent * dH/dlogits) / m for q = softmax(logits)."""
    if gamma_ent:
        _, q, _, d_entropy = softmax_entropy(logits)
        return (q - targets + gamma_ent * d_entropy) / logits.shape[0]
    return (softmax(logits) - targets) / logits.shape[0]


def eac_train_step(state: TrainState, F_batch: np.ndarray, targets: np.ndarray, *, gamma_ent: float = 1.0) -> None:
    """One Adam update of the classifier in ``state``, in place, on a batch of
    soft targets: the gradient of the mean soft-target cross entropy plus
    gamma_ent times the prediction entropy.

    Only the targets' shape is checked here; callers hand in probability rows
    (see check_targets). A non-finite gradient raises before the state changes.
    """
    logits = F_batch @ state.weights + state.bias
    if logits.shape != targets.shape:
        raise ValueError(f"logits shape {logits.shape} does not match targets {targets.shape}")
    grad_logits = _logit_gradient(logits, targets, gamma_ent)
    grad = state.grad
    dim = state.weights.shape[0]
    np.matmul(F_batch.T, grad_logits, out=grad[:dim])
    np.sum(grad_logits, axis=0, out=grad[dim])
    if not np.isfinite(grad).all():
        raise NumericError("non-finite classifier gradient")
    state.step += 1
    m, v = state.m, state.v
    m *= _BETA1
    m += (1 - _BETA1) * grad
    v *= _BETA2
    v += (1 - _BETA2) * grad**2
    state.params -= state.lr * (m / (1 - _BETA1**state.step)) / (np.sqrt(v / (1 - _BETA2**state.step)) + _EPS)


def eac_label_update(Y_t: np.ndarray, logits_all: np.ndarray, eta: float) -> np.ndarray:
    """Momentum blend of label logits with classifier logits: (1-eta) Y + eta C.

    The blend is written into ``logits_all``, which is returned; ``Y_t`` is
    left as it was. The loop hands in one ``row_chunks`` range of the labels
    and a fresh forward of those rows, so a replacement's temporaries are
    chunk-sized. Each product is the one the out-of-place sum forms, and IEEE
    addition commutes, so the result is bitwise that sum's. The loop passes
    same-shape float64 arrays and ``EacConfig`` checked ``eta``.
    """
    logits_all *= eta
    logits_all += (1.0 - eta) * Y_t
    return logits_all
