import mpmath
import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor, cho_solve

from labelpure.data import CleanValidationSet, FeatureMatrix, HardLabels, log_softmax, one_hot, softmax
from labelpure.errors import NumericError
from labelpure.ipc import (
    IpcConfig,
    ipc_step,
    loss_and_label_gradient,
    ridge_fit,
    ridge_predict,
    validation_loss,
)

from oracles import fd_label_gradient, relative_errors, ridge_descent_minimizer

mpmath.mp.dps = 50


# ---------------------------------------------------------------- ridge_fit


def test_ridge_identity_design_reproduces_soft_labels():
    Y = np.array([[0.3, -1.0, 2.0], [0.0, 0.0, 0.0], [5.0, 1.0, -2.0]])
    sol = ridge_fit(np.eye(3), Y, alpha=1.0, lam=0.0)
    assert np.abs(sol.weights - softmax(Y)).max() < 1e-12


def test_ridge_huge_lambda_shrinks_to_zero():
    rng = np.random.default_rng(0)
    F = rng.normal(size=(8, 4))
    Y = rng.normal(size=(8, 3))
    sol = ridge_fit(F, Y, alpha=1.0, lam=1e12)
    rhs_norm = np.linalg.norm(F.T @ softmax(Y))
    assert np.linalg.norm(sol.weights) < 1e-6 * rhs_norm


def test_ridge_matches_descent_oracle():
    rng = np.random.default_rng(1)
    F = rng.normal(size=(6, 3))
    Y = rng.normal(size=(6, 2))
    alpha, lam = 1.0, 0.5
    sol = ridge_fit(F, Y, alpha, lam)
    oracle = ridge_descent_minimizer(F, softmax(alpha * Y), lam)
    assert np.abs(sol.weights - oracle).max() < 1e-5


def test_ridge_normal_equation_residual():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b = int(rng.integers(3, 17))
        d = int(rng.integers(2, 11))
        c = int(rng.integers(2, 6))
        lam = float(10 ** rng.uniform(-3, 1))
        F = rng.normal(size=(b, d))
        Y = rng.normal(size=(b, c))
        sol = ridge_fit(F, Y, alpha=1.0, lam=lam)
        rhs = F.T @ softmax(Y)
        lhs = (F.T @ F + lam * np.eye(d)) @ sol.weights
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_ridge_singular_gram_raises():
    rng = np.random.default_rng(3)
    F = rng.normal(size=(2, 5))  # rank 2 < dim 5
    Y = rng.normal(size=(2, 3))
    with pytest.raises(LinAlgError):
        ridge_fit(F, Y, alpha=1.0, lam=0.0)


def test_ridge_batch_mismatch_raises():
    with pytest.raises(ValueError):
        ridge_fit(np.ones((3, 2)), np.ones((4, 2)), alpha=1.0, lam=1.0)


def test_ridge_normalized_gram_mode():
    rng = np.random.default_rng(4)
    F = rng.normal(size=(10, 4))
    Y = rng.normal(size=(10, 3))
    lam = 0.5
    sol = ridge_fit(F, Y, alpha=1.0, lam=lam, normalize_gram=True)
    b = F.shape[0]
    expected = np.linalg.solve(F.T @ F / b + lam * np.eye(4), F.T @ softmax(Y) / b)
    assert np.abs(sol.weights - expected).max() < 1e-10


def test_normalized_gram_gradient_matches_the_scaled_system():
    rng = np.random.default_rng(5)
    F_t, Y_t = rng.normal(size=(12, 4)), rng.normal(size=(12, 3))
    F_v, Y_v = rng.normal(size=(6, 4)), one_hot(HardLabels(rng.integers(0, 3, 6), 3))
    cfg = IpcConfig(lam=0.01, normalize_gram=True)
    b = F_t.shape[0]
    loss, _ = loss_and_label_gradient(F_t, Y_t, F_v, Y_v, cfg)
    K = np.linalg.solve(F_t.T @ F_t / b + cfg.lam * np.eye(4), F_t.T / b)
    S = softmax(Y_t)
    P = F_v @ K @ S
    q = softmax(P)
    expected_loss = (((P - Y_v) ** 2).sum() - (q * np.log(q)).sum()) / F_v.shape[0]
    assert abs(loss - expected_loss) < 1e-12


# ---------------------------------------------------------------- ridge_predict


def test_predict_zero_weights():
    from labelpure.ipc import RidgeSolution

    sol = RidgeSolution(weights=np.zeros((4, 2)), lam=1.0, alpha=1.0)
    assert np.array_equal(ridge_predict(sol, np.ones((5, 4))), np.zeros((5, 2)))


def test_predict_identity_composition():
    Y = np.array([[1.0, 0.0], [0.3, 0.7], [-2.0, 2.0]])
    sol = ridge_fit(np.eye(3), Y, alpha=2.0, lam=0.0)
    assert np.abs(ridge_predict(sol, np.eye(3)) - softmax(2.0 * Y)).max() < 1e-12


def test_predict_matches_explicit_inverse_expression():
    rng = np.random.default_rng(5)
    F_t = rng.normal(size=(12, 4))
    Y_t = rng.normal(size=(12, 3))
    F_v = rng.normal(size=(7, 4))
    alpha, lam = 1.3, 0.8
    sol = ridge_fit(F_t, Y_t, alpha, lam)
    pred = ridge_predict(sol, F_v)
    # literal evaluation with an explicit inverse
    S = softmax(alpha * Y_t)
    literal = (S.T @ F_t @ np.linalg.inv(F_t.T @ F_t + lam * np.eye(4)) @ F_v.T).T
    assert np.abs(pred - literal).max() < 1e-8


def test_predict_dim_mismatch_raises():
    sol = ridge_fit(np.eye(3), np.zeros((3, 2)), alpha=1.0, lam=1.0)
    with pytest.raises(ValueError):
        ridge_predict(sol, np.ones((2, 4)))


# ---------------------------------------------------------------- validation_loss


def test_validation_loss_zero_at_exact_match():
    Y_v = one_hot(HardLabels(np.array([0, 1, 1]), 2))
    assert validation_loss(Y_v, Y_v, gamma_ent=0.0) == 0.0


def test_validation_loss_single_coordinate_deviation():
    Y_v = np.array([[1.0, 0.0, 0.0]])
    pred = np.array([[1.0, 0.0, 0.25]])
    assert abs(validation_loss(pred, Y_v, gamma_ent=0.0) - 0.25**2) < 1e-15


def test_validation_loss_constant_rows_entropy_is_log_c():
    pred = np.full((4, 5), 0.2)
    Y_v = one_hot(HardLabels(np.array([0, 1, 2, 3]), 5))
    sq = float(((pred - Y_v) ** 2).sum()) / 4
    loss = validation_loss(pred, Y_v, gamma_ent=1.0)
    assert abs(loss - (sq + np.log(5))) < 1e-12


def test_validation_loss_matches_high_precision_oracle():
    rng = np.random.default_rng(6)
    pred = rng.normal(size=(3, 4))
    Y_v = one_hot(HardLabels(np.array([0, 2, 3]), 4))
    gamma = 0.7
    total = mpmath.mpf(0)
    for i in range(3):
        row = [mpmath.mpf(repr(float(v))) for v in pred[i]]
        sq = sum((r - mpmath.mpf(repr(float(Y_v[i, j])))) ** 2 for j, r in enumerate(row))
        exps = [mpmath.exp(r) for r in row]
        Z = sum(exps)
        q = [v / Z for v in exps]
        H = -sum(v * mpmath.log(v) for v in q)
        total += sq + mpmath.mpf(repr(gamma)) * H
    expected = float(total / 3)
    assert abs(validation_loss(pred, Y_v, gamma) - expected) < 1e-12


def test_validation_loss_shape_mismatch_raises():
    with pytest.raises(ValueError):
        validation_loss(np.ones((2, 3)), np.ones((3, 3)), 0.0)


# ---------------------------------------------------------------- label_gradient


def _random_val_set(rng, n_v, d, c):
    return CleanValidationSet(
        FeatureMatrix(rng.normal(size=(n_v, d))),
        one_hot(HardLabels(rng.integers(0, c, size=n_v), c)),
    )


def test_label_gradient_vanishes_as_alpha_goes_to_zero():
    rng = np.random.default_rng(7)
    F_t = rng.normal(size=(6, 4))
    Y_t = rng.normal(size=(6, 3))
    val = _random_val_set(rng, 5, 4, 3)
    cfg = IpcConfig(alpha=1e-8, lam=1.0)
    _, grad = loss_and_label_gradient(F_t, Y_t, val.features.values, val.labels, cfg)
    assert np.linalg.norm(grad) < 1e-6


def test_label_gradient_zero_at_squared_error_stationary_point():
    # identity design, lam=0, validation targets equal to the predictions
    Y_t = np.array([[0.5, -0.5], [1.0, 0.0], [0.0, 2.0]])
    S = softmax(Y_t)
    loss, grad = loss_and_label_gradient(
        np.eye(3), Y_t, np.eye(3), S, IpcConfig(alpha=1.0, lam=0.0, gamma_ent=0.0)
    )
    assert loss < 1e-20
    assert np.abs(grad).max() < 1e-12


def test_label_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    F_t = rng.normal(size=(8, 5))
    Y_t = rng.normal(size=(8, 3))
    F_v = rng.normal(size=(6, 5))
    Y_v = one_hot(HardLabels(rng.integers(0, 3, size=6), 3))
    cfg = IpcConfig(alpha=1.0, lam=1.0, gamma_ent=1.0)
    _, grad = loss_and_label_gradient(F_t, Y_t, F_v, Y_v, cfg)
    fd = fd_label_gradient(F_t, Y_t, F_v, Y_v, cfg.alpha, cfg.lam, cfg.gamma_ent, step=1e-5)
    max_rel, max_abs = relative_errors(grad, fd)
    assert max_rel <= 1e-4
    assert max_abs <= 1e-8


def test_label_gradient_fd_across_random_configs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        b = int(rng.integers(2, 11))
        d = int(rng.integers(1, 9))
        c = int(rng.integers(2, 5))
        n_v = int(rng.integers(1, 9))
        F_t = rng.normal(size=(b, d))
        Y_t = rng.normal(size=(b, c))
        F_v = rng.normal(size=(n_v, d))
        Y_v = one_hot(HardLabels(rng.integers(0, c, size=n_v), c))
        cfg = IpcConfig(
            alpha=float(rng.uniform(0.5, 2.0)),
            lam=float(10 ** rng.uniform(-3, 1)),
            gamma_ent=float(rng.uniform(0.0, 2.0)),
            normalize_gram=bool(rng.integers(0, 2)),
        )
        _, grad = loss_and_label_gradient(F_t, Y_t, F_v, Y_v, cfg)
        fd = fd_label_gradient(
            F_t, Y_t, F_v, Y_v, cfg.alpha, cfg.lam, cfg.gamma_ent,
            step=1e-5, normalize_gram=cfg.normalize_gram,
        )
        cos = float(
            np.dot(grad.ravel(), fd.ravel())
            / (np.linalg.norm(grad) * np.linalg.norm(fd))
        )
        max_rel, max_abs = relative_errors(grad, fd)
        assert cos >= 0.999999
        assert max_rel <= 1e-4 and max_abs <= 1e-8


def test_small_step_does_not_increase_loss():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(20):
        F_t = rng.normal(size=(7, 4))
        Y_t = rng.normal(size=(7, 3))
        F_v = rng.normal(size=(5, 4))
        Y_v = one_hot(HardLabels(rng.integers(0, 3, size=5), 3))
        cfg = IpcConfig(alpha=1.0, lam=float(10 ** rng.uniform(-2, 1)))
        loss, grad = loss_and_label_gradient(F_t, Y_t, F_v, Y_v, cfg)
        if np.linalg.norm(grad) < 1e-10:
            continue
        stepped = ipc_step(Y_t, grad, 1e-4)
        new_loss, _ = loss_and_label_gradient(F_t, stepped, F_v, Y_v, cfg)
        assert new_loss <= loss
        checked += 1
    assert checked >= 15


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_label_gradient_bitwise_equal_to_written_out_algebra(gamma):
    # Reference: the chain rule spelled out term by term, as it was before the
    # entropy algebra moved into softmax_entropy; purification depends on it.
    rng = np.random.default_rng(13)
    F_t, Y_t = rng.normal(size=(16, 5)), rng.normal(size=(16, 3))
    val = _random_val_set(rng, 10, 5, 3)
    F_v, Y_v = val.features.values, val.labels
    cfg = IpcConfig(alpha=1.5, lam=0.5, gamma_ent=gamma)
    loss, grad = loss_and_label_gradient(F_t, Y_t, F_v, Y_v, cfg)

    M = F_v @ cho_solve(cho_factor(F_t.T @ F_t + cfg.lam * np.eye(5), lower=True), F_t.T)
    S = softmax(cfg.alpha * Y_t)
    P = M @ S
    logq = log_softmax(P)
    q = np.exp(logq)
    entropy = -(q * logq).sum(axis=1)
    ref_loss = (float(((P - Y_v) ** 2).sum()) + gamma * float(entropy.sum())) / 10
    grad_soft = M.T @ ((2.0 * (P - Y_v) - gamma * q * (logq + entropy[:, None])) / 10)
    ref_grad = cfg.alpha * S * (grad_soft - (S * grad_soft).sum(axis=1, keepdims=True))
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


def test_label_gradient_permutation_equivariance():
    rng = np.random.default_rng(11)
    F_t = rng.normal(size=(9, 4))
    Y_t = rng.normal(size=(9, 3))
    val = _random_val_set(rng, 6, 4, 3)
    cfg = IpcConfig()
    _, grad = loss_and_label_gradient(F_t, Y_t, val.features.values, val.labels, cfg)
    perm = rng.permutation(9)
    _, grad_perm = loss_and_label_gradient(F_t[perm], Y_t[perm], val.features.values, val.labels, cfg)
    assert np.abs(grad_perm - grad[perm]).max() < 1e-12


# ---------------------------------------------------------------- ipc_step


def test_ipc_step_zero_gradient_is_identity():
    Y = np.array([[1.0, 2.0]])
    assert np.array_equal(ipc_step(Y, np.zeros_like(Y), 0.5), Y)


def test_ipc_step_zero_rate_is_identity():
    Y = np.array([[1.0, 2.0]])
    assert np.array_equal(ipc_step(Y, np.ones_like(Y), 0.0), Y)


def test_ipc_step_arithmetic():
    out = ipc_step(np.array([[1.0, 2.0]]), np.array([[10.0, -10.0]]), 0.01)
    assert np.allclose(out, [[0.9, 2.1]], atol=1e-15)


def test_ipc_step_rejects_nonfinite_gradient():
    with pytest.raises(NumericError):
        ipc_step(np.ones((1, 2)), np.array([[np.nan, 0.0]]), 0.1)


def test_ipc_config_validation():
    with pytest.raises(ValueError):
        IpcConfig(alpha=0.0)
    with pytest.raises(ValueError):
        IpcConfig(lam=-1.0)
    with pytest.raises(ValueError):
        IpcConfig(eta=0.0)
    with pytest.raises(ValueError):
        IpcConfig(gamma_ent=-0.5)
    with pytest.raises(ValueError):
        IpcConfig(val_batch=0)
