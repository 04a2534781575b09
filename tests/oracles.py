"""Independent oracles for the test suite: brute-force minimization, finite
differences, and the sequential primal hypergradient. These deliberately avoid
the library's analytic paths; the ridge minimizer sees only loss gradients,
the finite-difference oracles drive public forward computations alone, and the
primal reference builds the ridge operator explicitly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from labelpure.data import log_softmax, softmax
from labelpure.eac import LinearClassifier, classifier_forward, eac_loss
from labelpure.ipc import IpcConfig, ridge_fit, ridge_predict, validation_loss


def ridge_descent_minimizer(
    F: np.ndarray, S: np.ndarray, lam: float, tol: float = 1e-7, max_iter: int = 500_000
) -> np.ndarray:
    """Minimize ||S - F w||^2 + lam ||w||^2 by accelerated gradient descent.

    Runs until the gradient norm guarantees a weight error below ``tol``
    (strong convexity bound), so the result is an independent check on any
    closed-form solution.
    """
    b, d = F.shape
    svals = np.linalg.svd(F, compute_uv=False)
    smax2 = float(svals[0] ** 2)
    smin2 = float(svals[-1] ** 2) if b >= d else 0.0
    lip = 2.0 * (smax2 + lam)
    mu = 2.0 * (smin2 + lam)
    if mu <= 0:
        raise ValueError("objective is not strongly convex (lam = 0 with singular design)")
    kappa = lip / mu
    momentum = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
    gtol = tol * mu
    w = np.zeros((d, S.shape[1]))
    w_prev = w
    for _ in range(max_iter):
        y = w + momentum * (w - w_prev)
        grad = 2.0 * (F.T @ (F @ y - S) + lam * y)
        w_prev = w
        w = y - grad / lip
        if np.linalg.norm(grad) < gtol:
            return w
    raise RuntimeError(f"descent did not converge in {max_iter} iterations")


def fd_label_gradient(
    F_t: np.ndarray,
    Y_t: np.ndarray,
    F_v: np.ndarray,
    Y_v: np.ndarray,
    alpha: float,
    lam: float,
    gamma_ent: float,
    step: float = 1e-5,
    normalize_gram: bool = False,
) -> np.ndarray:
    """Central finite differences of the fit -> predict -> loss composition."""

    def loss_at(Y: np.ndarray) -> float:
        sol = ridge_fit(F_t, Y, alpha, lam, normalize_gram)
        return validation_loss(ridge_predict(sol, F_v), Y_v, gamma_ent)

    out = np.zeros_like(Y_t, dtype=np.float64)
    for i in range(Y_t.shape[0]):
        for j in range(Y_t.shape[1]):
            plus = Y_t.copy()
            minus = Y_t.copy()
            plus[i, j] += step
            minus[i, j] -= step
            out[i, j] = (loss_at(plus) - loss_at(minus)) / (2.0 * step)
    return out


def primal_loss_and_label_gradient(
    F_t: np.ndarray, Y_t: np.ndarray, F_v: np.ndarray, Y_v: np.ndarray, cfg: IpcConfig
) -> tuple[float, np.ndarray]:
    """Validation loss and label gradient through the explicit n_v x b operator
    M = F_v (F'F + lam I)^{-1} F', with lam scaled by b under normalize_gram:
    the sequential primal reference for ``ipc.loss_and_label_gradient``."""
    b, d = F_t.shape
    lam = cfg.lam * b if cfg.normalize_gram else cfg.lam
    M = F_v @ cho_solve(cho_factor(F_t.T @ F_t + lam * np.eye(d), lower=True), F_t.T)
    S = softmax(cfg.alpha * Y_t)
    P = M @ S
    n_v = F_v.shape[0]
    logq = log_softmax(P)
    q = np.exp(logq)
    entropy = -(q * logq).sum(axis=1)
    loss = (float(((P - Y_v) ** 2).sum()) + cfg.gamma_ent * float(entropy.sum())) / n_v
    grad_soft = M.T @ ((2.0 * (P - Y_v) - cfg.gamma_ent * q * (logq + entropy[:, None])) / n_v)
    return loss, cfg.alpha * S * (grad_soft - (S * grad_soft).sum(axis=1, keepdims=True))


def fd_classifier_gradients(
    clf: LinearClassifier,
    F: np.ndarray,
    targets: np.ndarray,
    gamma_ent: float,
    step: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Central finite differences of eac_loss w.r.t. classifier weights and bias."""

    def loss_at(w: np.ndarray, b: np.ndarray) -> float:
        return eac_loss(classifier_forward(LinearClassifier(w, b), F), targets, gamma_ent)

    w0, b0 = np.array(clf.weights), np.array(clf.bias)
    grad_w = np.zeros_like(w0)
    for i in range(w0.shape[0]):
        for j in range(w0.shape[1]):
            plus, minus = w0.copy(), w0.copy()
            plus[i, j] += step
            minus[i, j] -= step
            grad_w[i, j] = (loss_at(plus, b0) - loss_at(minus, b0)) / (2.0 * step)
    grad_b = np.zeros_like(b0)
    for j in range(b0.shape[0]):
        plus, minus = b0.copy(), b0.copy()
        plus[j] += step
        minus[j] -= step
        grad_b[j] = (loss_at(w0, plus) - loss_at(w0, minus)) / (2.0 * step)
    return grad_w, grad_b


def naive_forward(clf: LinearClassifier, F: np.ndarray) -> np.ndarray:
    """Scalar-loop affine map, as an oracle for classifier_forward."""
    m, d = F.shape
    c = clf.n_classes
    out = np.zeros((m, c))
    for i in range(m):
        for k in range(c):
            acc = 0.0
            for j in range(d):
                acc += F[i, j] * clf.weights[j, k]
            out[i, k] = acc + clf.bias[k]
    return out


def relative_errors(analytic: np.ndarray, reference: np.ndarray, abs_floor: float = 1e-8):
    """Split element errors: relative where |reference| >= abs_floor, absolute below."""
    ref = np.abs(reference)
    diff = np.abs(analytic - reference)
    big = ref >= abs_floor
    max_rel = float((diff[big] / ref[big]).max()) if big.any() else 0.0
    max_abs = float(diff[~big].max()) if (~big).any() else 0.0
    return max_rel, max_abs
