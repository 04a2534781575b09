"""Independent oracles for the test suite: brute-force minimization, finite
differences, the sequential primal hypergradient, and a sequential reference
of the whole purify and retraining loops. These deliberately avoid the
library's analytic paths; the ridge minimizer sees only loss gradients, the
finite-difference oracles drive public forward computations alone, the primal
reference builds the ridge operator explicitly, the reference loops use a
row-major softmax and a functional Adam step that returns fresh arrays, and
the reference mixture generator concatenates per-class blocks, and the
reference class-map parser reads each entry with one regular expression.
The metamorphic transforms rename classes, reorder or duplicate the clean
set: each gives a problem whose purify outputs follow from the original's.

The first section holds the decomposed forms the oracles are compared
through: the ridge fit, its predictions and the validation loss, the
classifier loss and its gradients, a linear probe, and the label agreement
that scores labels against ground truth. The ridge fit factors
and solves with the library's ``ipc._cholesky``/``_solve``, and the classifier
gradients come from ``eac._logit_gradient``, the one ``eac_train_step`` uses,
so checking these against the oracles checks those library paths too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from labelpure.data import CleanValidationSet, FeatureMatrix, HardLabels, one_hot, softmax, softmax_entropy
from labelpure.eac import LinearClassifier, _logit_gradient, check_targets, classifier_forward
from labelpure.evaluate import TrainConfig, evaluate_classifier, train_linear_ce
from labelpure.ipc import IpcConfig, _cholesky, _solve
from labelpure.noise import MixtureSpec, _balanced_counts, _cluster_means
from labelpure.purifier import PurifierConfig


# ---------------------------------------------------------------- decomposed forms


@dataclass(frozen=True)
class RidgeSolution:
    """Minimizer of the batch ridge objective, d x c weights."""

    weights: np.ndarray
    lam: float
    alpha: float


def ridge_fit(
    F_t: np.ndarray,
    Y_t: np.ndarray,
    alpha: float,
    lam: float,
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
    factor = _cholesky(F_t, lam)
    weights = _solve(factor, F_t.T @ softmax(alpha * Y_t))
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


def eac_loss(logits: np.ndarray, targets: np.ndarray, gamma_ent: float = 1.0) -> float:
    """Soft-target cross entropy plus entropy of the predictions, mean over rows."""
    if gamma_ent < 0:
        raise ValueError(f"gamma_ent must be nonnegative, got {gamma_ent}")
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError(f"logits shape {logits.shape} does not match targets {targets.shape}")
    check_targets(targets)
    logq, _, entropy, _ = softmax_entropy(logits)
    return float((-(targets * logq).sum(axis=1) + gamma_ent * entropy).mean())


def eac_gradients(
    clf: LinearClassifier,
    F: np.ndarray,
    targets: np.ndarray,
    gamma_ent: float = 1.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus its analytic gradients w.r.t. classifier weights and bias."""
    F = np.asarray(F, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    logits = classifier_forward(clf, F)
    loss = eac_loss(logits, targets, gamma_ent)
    grad_logits = _logit_gradient(logits, targets, gamma_ent)
    return loss, F.T @ grad_logits, grad_logits.sum(axis=0)


def linear_probe(
    train_features: FeatureMatrix,
    clean_labels_subset: HardLabels,
    test_features: FeatureMatrix,
    y_test: HardLabels,
    cfg: TrainConfig,
) -> float:
    """Train on a clean labeled subset only and return held-out accuracy.

    The subset is put into a canonical order (by label, then by feature
    values) before batching, so the probe does not depend on caller row order.
    """
    if len(clean_labels_subset) == 0:
        raise ValueError("probe subset must be nonempty")
    if len(clean_labels_subset) != train_features.n:
        raise ValueError(
            f"{train_features.n} subset feature rows vs {len(clean_labels_subset)} labels"
        )
    order = np.lexsort(
        tuple(train_features.values[:, j] for j in range(train_features.dim - 1, -1, -1))
        + (clean_labels_subset.values,)
    )
    ordered_f = FeatureMatrix(train_features.values[order])
    ordered_y = HardLabels(clean_labels_subset.values[order], clean_labels_subset.n_classes)
    clf = train_linear_ce(ordered_f, ordered_y, cfg)
    return evaluate_classifier(clf, test_features, y_test)


def label_accuracy(a: HardLabels, b: HardLabels) -> float:
    """Fraction of positions where the two label sequences agree."""
    if len(a) != len(b):
        raise ValueError(f"label length mismatch: {len(a)} vs {len(b)}")
    return float(np.mean(a.values == b.values))


# ---------------------------------------------------------------- oracles


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
) -> np.ndarray:
    """Central finite differences of the fit -> predict -> loss composition."""

    def loss_at(Y: np.ndarray) -> float:
        sol = ridge_fit(F_t, Y, alpha, lam)
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


def rowmajor_log_softmax(x: np.ndarray) -> np.ndarray:
    """Row log-softmax with the max and the sum taken over each row of a
    row-major copy: the reference for ``data.log_softmax``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def rowmajor_softmax(x: np.ndarray) -> np.ndarray:
    return np.exp(rowmajor_log_softmax(x))


def rowmajor_softmax_entropy(x: np.ndarray):
    """``(log q, q, H, dH/dx)`` from the row-major log-softmax."""
    logq = rowmajor_log_softmax(x)
    q = np.exp(logq)
    h = -(q * logq).sum(axis=1)
    return logq, q, h, -q * (logq + h[:, None])


def primal_loss_and_label_gradient(
    F_t: np.ndarray, Y_t: np.ndarray, F_v: np.ndarray, Y_v: np.ndarray, cfg: IpcConfig
) -> tuple[float, np.ndarray]:
    """Validation loss and label gradient through the explicit n_v x b operator
    M = F_v (F'F + lam I)^{-1} F': the sequential primal reference for
    ``ipc.loss_and_label_gradient``."""
    d = F_t.shape[1]
    M = F_v @ cho_solve(cho_factor(F_t.T @ F_t + cfg.lam * np.eye(d), lower=True), F_t.T)
    S = rowmajor_softmax(cfg.alpha * Y_t)
    P = M @ S
    n_v = F_v.shape[0]
    logq = rowmajor_log_softmax(P)
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
    c = clf.weights.shape[1]
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


# ---------------------------------------------------------------- reference loops

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamState:
    """Adam's step count and moments, replaced rather than updated."""

    lr: float
    step: int
    m_w: np.ndarray
    v_w: np.ndarray
    m_b: np.ndarray
    v_b: np.ndarray

    @classmethod
    def init(cls, dim: int, n_classes: int, lr: float) -> "AdamState":
        zw, zb = np.zeros((dim, n_classes)), np.zeros(n_classes)
        return cls(lr, 0, zw, zw, zb, zb)


def functional_train_step(
    clf: LinearClassifier,
    F: np.ndarray,
    targets: np.ndarray,
    opt: AdamState,
    gamma_ent: float,
) -> tuple[LinearClassifier, AdamState]:
    """One Adam step of the classifier on soft targets, returning a new
    classifier and a new optimizer state: the reference for ``eac_train_step``."""
    _, q, _, d_entropy = rowmajor_softmax_entropy(F @ clf.weights + clf.bias)
    grad_logits = (q - targets + gamma_ent * d_entropy) / F.shape[0]
    grad_w = F.T @ grad_logits
    grad_b = grad_logits.sum(axis=0)
    step = opt.step + 1
    m_w = _BETA1 * opt.m_w + (1 - _BETA1) * grad_w
    v_w = _BETA2 * opt.v_w + (1 - _BETA2) * grad_w**2
    m_b = _BETA1 * opt.m_b + (1 - _BETA1) * grad_b
    v_b = _BETA2 * opt.v_b + (1 - _BETA2) * grad_b**2
    c1, c2 = 1 - _BETA1**step, 1 - _BETA2**step
    new_w = clf.weights - opt.lr * (m_w / c1) / (np.sqrt(v_w / c2) + _EPS)
    new_b = clf.bias - opt.lr * (m_b / c1) / (np.sqrt(v_b / c2) + _EPS)
    return LinearClassifier(new_w, new_b), AdamState(opt.lr, step, m_w, v_w, m_b, v_b)


def reference_purify(
    features: FeatureMatrix, noisy: HardLabels, val: CleanValidationSet, cfg: PurifierConfig
) -> np.ndarray:
    """Final label logits of the purify loop, computed sequentially: explicit
    primal hypergradient, row-major softmax, functional Adam step. Covers the
    loop with both processes on."""
    assert cfg.use_ipc and cfg.use_eac
    F_t, n, c = features.values, features.n, noisy.n_classes
    alpha, ecfg = cfg.ipc.alpha, cfg.eac
    Y = one_hot(noisy)
    clf = LinearClassifier(np.zeros((features.dim, c)), np.zeros(c))
    opt = AdamState.init(features.dim, c, ecfg.lr)
    rng = np.random.default_rng(cfg.shuffle_seed)
    p = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            p += 1
            _, grad = primal_loss_and_label_gradient(F_t[idx], Y[idx], val.features.values, val.labels, cfg.ipc)
            Y[idx] = Y[idx] - cfg.ipc.eta * grad
            clf, opt = functional_train_step(clf, F_t[idx], rowmajor_softmax(alpha * Y[idx]), opt, ecfg.gamma_ent)
            if p % ecfg.period == 0:
                Y = (1.0 - ecfg.eta) * Y + ecfg.eta * (F_t @ clf.weights + clf.bias)
    return Y


def reference_train_linear_ce(features: FeatureMatrix, labels: HardLabels, cfg: TrainConfig) -> LinearClassifier:
    """Retraining on one-hot targets with the functional Adam step."""
    F, targets = features.values, one_hot(labels)
    clf = LinearClassifier(np.zeros((features.dim, labels.n_classes)), np.zeros(labels.n_classes))
    opt = AdamState.init(features.dim, labels.n_classes, cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        perm = rng.permutation(features.n)
        for lo in range(0, features.n, cfg.batch):
            idx = perm[lo : lo + cfg.batch]
            clf, opt = functional_train_step(clf, F[idx], targets[idx], opt, 0.0)
    return clf


def reference_gaussian_mixture_split(spec: MixtureSpec, n_val: int = 0, n_test: int = 0):
    """The mixture generator built from per-class blocks: each class's draws for
    all three splits in one array, sliced per split, concatenated, then shuffled."""
    rng = np.random.default_rng(spec.seed)
    means = _cluster_means(rng, spec)
    sizes = (spec.n, n_val, n_test)
    counts = [_balanced_counts(size, spec.classes) for size in sizes]

    blocks: list[list[np.ndarray]] = [[], [], []]
    label_blocks: list[list[np.ndarray]] = [[], [], []]
    for k in range(spec.classes):
        total = sum(int(cnt[k]) for cnt in counts)
        draws = means[k] + rng.standard_normal((total, spec.dim))
        offset = 0
        for s in range(3):
            take = int(counts[s][k])
            blocks[s].append(draws[offset : offset + take])
            label_blocks[s].append(np.full(take, k, dtype=np.int64))
            offset += take

    out = []
    for s, size in enumerate(sizes):
        if size == 0:
            out.append(None)
            continue
        feats = np.concatenate(blocks[s])
        labs = np.concatenate(label_blocks[s])
        perm = rng.permutation(size)
        out.append((FeatureMatrix(feats[perm]), HardLabels(labs[perm], spec.classes)))
    return tuple(out)


# One class-map entry: two ASCII decimal indices with an optional sign, around a
# colon, with ASCII whitespace around each part.
CLASS_MAP_ENTRY = re.compile(r"([+-]?\d+)\s*:\s*([+-]?\d+)", re.ASCII)


def reference_parse_class_map(text: str) -> dict[int, int]:
    """``cli._parse_class_map`` by ``CLASS_MAP_ENTRY``, with its refusals."""
    out: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip(" \t\n\r\x0b\x0c")
        if not part:
            continue
        entry = CLASS_MAP_ENTRY.fullmatch(part)
        try:
            if entry is None:
                raise ValueError
            src, dst = int(entry[1]), int(entry[2])
        except ValueError:  # no match, or more digits than int() converts
            raise ValueError(f"bad class map entry {part!r}, expected 'src:dst'") from None
        if src in out:
            raise ValueError(f"class map gives source class {src} twice")
        out[src] = dst
    if not out:
        raise ValueError("empty class map")
    return out


# ---------------------------------------------------------------- metamorphic transforms


def permute_classes(
    noisy: HardLabels, val: CleanValidationSet, truth: HardLabels, sigma: np.ndarray
) -> tuple[HardLabels, CleanValidationSet, HardLabels]:
    """Class k renamed ``sigma[k]`` in the noisy labels, the clean one-hot
    columns and the truth. Purify's logits should come back with column k
    moved to ``sigma[k]``, and its hard labels renamed the same way."""
    def rename(y: HardLabels) -> HardLabels:
        return HardLabels(sigma[y.values], y.n_classes)

    return rename(noisy), CleanValidationSet(val.features, val.labels[:, np.argsort(sigma)]), rename(truth)


def permute_clean_rows(val: CleanValidationSet, perm: np.ndarray) -> CleanValidationSet:
    """The clean set in another row order: the loop should not notice."""
    return CleanValidationSet(FeatureMatrix(val.features.values[perm]), val.labels[perm])


def duplicate_clean_set(val: CleanValidationSet) -> CleanValidationSet:
    """Every clean row given twice: the validation loss is a mean over rows,
    so the loop should not notice. A sum where a mean belongs doubles it."""
    return CleanValidationSet(
        FeatureMatrix(np.concatenate([val.features.values] * 2)), np.concatenate([val.labels] * 2)
    )
