import subprocess
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor, cho_solve

from labelpure import ipc
from labelpure.data import CleanValidationSet, FeatureMatrix, HardLabels, log_softmax, one_hot, softmax
from labelpure.errors import NumericError
from labelpure.ipc import IpcConfig, ipc_step, loss_and_label_gradient

from oracles import (
    RidgeSolution,
    fd_label_gradient,
    primal_loss_and_label_gradient,
    relative_errors,
    ridge_descent_minimizer,
    ridge_fit,
    ridge_predict,
    validation_loss,
)

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


# ---------------------------------------------------------------- ridge_predict


def test_predict_zero_weights():
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
        alpha = float(rng.uniform(0.5, 2.0))
        lam = float(10 ** rng.uniform(-3, 1))
        gamma = float(rng.uniform(0.0, 2.0))
        per_row = bool(rng.integers(0, 2))  # half the draws scale lam by the batch size
        cfg = IpcConfig(alpha=alpha, lam=lam * b if per_row else lam, gamma_ent=gamma)
        _, grad = loss_and_label_gradient(F_t, Y_t, F_v, Y_v, cfg)
        fd = fd_label_gradient(F_t, Y_t, F_v, Y_v, cfg.alpha, cfg.lam, cfg.gamma_ent, step=1e-5)
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


def test_label_gradient_matches_finite_differences_in_dual_form():
    # d > b: the gradient goes through the b x b factor of FF' + lam I.
    rng = np.random.default_rng(14)
    F_t, Y_t = rng.normal(size=(6, 12)), rng.normal(size=(6, 3))
    F_v = rng.normal(size=(5, 12))
    Y_v = one_hot(HardLabels(rng.integers(0, 3, size=5), 3))
    cfg = IpcConfig(alpha=1.0, lam=1.0, gamma_ent=1.0)
    _, grad = loss_and_label_gradient(F_t, Y_t, F_v, Y_v, cfg)
    fd = fd_label_gradient(F_t, Y_t, F_v, Y_v, cfg.alpha, cfg.lam, cfg.gamma_ent, step=1e-5)
    max_rel, max_abs = relative_errors(grad, fd)
    assert max_rel <= 1e-4
    assert max_abs <= 1e-8


# (b, d): dual, primal, square, one-row dual, one-row primal, and a wider dual.
_SHAPES = [(5, 9), (12, 4), (6, 6), (1, 4), (1, 1), (24, 60)]


@pytest.mark.parametrize("b, d", _SHAPES)
@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
# At lam = 1e-3 and d > b, F'F + lam I is ill-conditioned and the primal
# reference itself loses digits.
@pytest.mark.parametrize("lam, tol", [(1.0, 1e-10), (0.1, 1e-10), (1e-3, 1e-8)])
def test_label_gradient_matches_primal_reference(b, d, per_row, gamma, lam, tol):
    # per_row scales lam by the batch size b.
    rng = np.random.default_rng(100 * b + d)
    F_t, Y_t = rng.normal(size=(b, d)), rng.normal(size=(b, 3))
    val = _random_val_set(rng, 7, d, 3)
    cfg = IpcConfig(alpha=1.7, lam=lam * b if per_row else lam, gamma_ent=gamma)
    args = (F_t, Y_t, val.features.values, val.labels, cfg)
    loss, grad = loss_and_label_gradient(*args)
    ref_loss, ref_grad = primal_loss_and_label_gradient(*args)
    assert abs(loss - ref_loss) <= tol * abs(ref_loss)
    assert np.abs(grad - ref_grad).max() <= tol * np.abs(ref_grad).max()


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_label_gradient_bitwise_equal_to_written_out_algebra(gamma):
    # Reference: the chain rule spelled out term by term in the association the
    # library uses at d <= b, P = F_v (A^{-1} (F'S)) and dL/dS = F (A^{-1} (F_v' G));
    # purification depends on it.
    rng = np.random.default_rng(13)
    F_t, Y_t = rng.normal(size=(16, 5)), rng.normal(size=(16, 3))
    val = _random_val_set(rng, 10, 5, 3)
    F_v, Y_v = val.features.values, val.labels
    cfg = IpcConfig(alpha=1.5, lam=0.5, gamma_ent=gamma)
    loss, grad = loss_and_label_gradient(F_t, Y_t, F_v, Y_v, cfg)

    factor = cho_factor(F_t.T @ F_t + cfg.lam * np.eye(5), lower=True)
    S = softmax(cfg.alpha * Y_t)
    P = F_v @ cho_solve(factor, F_t.T @ S)
    logq = log_softmax(P)
    q = np.exp(logq)
    entropy = -(q * logq).sum(axis=1)
    ref_loss = (float(((P - Y_v) ** 2).sum()) + gamma * float(entropy.sum())) / 10
    grad_pred = (2.0 * (P - Y_v) - gamma * q * (logq + entropy[:, None])) / 10
    grad_soft = F_t @ cho_solve(factor, F_v.T @ grad_pred)
    ref_grad = cfg.alpha * S * (grad_soft - (S * grad_soft).sum(axis=1, keepdims=True))
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


def test_zero_lambda_with_more_dims_than_rows_raises():
    # F'F has rank <= b < d, so there is no unique ridge solution to differentiate.
    rng = np.random.default_rng(15)
    F_t, Y_t = rng.normal(size=(4, 7)), rng.normal(size=(4, 3))
    val = _random_val_set(rng, 5, 7, 3)
    with pytest.raises(LinAlgError, match=r"singular at lam=0\.0"):
        loss_and_label_gradient(F_t, Y_t, val.features.values, val.labels, IpcConfig(lam=0.0))
    with pytest.raises(LinAlgError, match=r"singular at lam=0\.0"):
        ridge_fit(F_t, Y_t, alpha=1.0, lam=0.0)


def test_zero_lambda_rank_deficient_batch_raises_in_primal_form():
    rng = np.random.default_rng(16)
    F_t = rng.normal(size=(10, 4))
    F_t[:, 2] = 0.0  # rank 3 < d = 4 <= b
    val = _random_val_set(rng, 5, 4, 3)
    with pytest.raises(LinAlgError, match=r"singular at lam=0\.0"):
        loss_and_label_gradient(F_t, rng.normal(size=(10, 3)), val.features.values, val.labels, IpcConfig(lam=0.0))


@pytest.mark.parametrize("b, d", [(6, 3), (2, 5)])
def test_non_finite_batch_features_raise(b, d):
    F_t = np.ones((b, d))
    F_t[1, 2] = np.nan
    Y_t = np.zeros((b, 2))
    with pytest.raises(ValueError, match="not finite"):
        ridge_fit(F_t, Y_t, alpha=1.0, lam=1.0)
    with pytest.raises(ValueError, match="not finite"):
        loss_and_label_gradient(F_t, Y_t, np.ones((4, d)), np.eye(2)[[0, 1, 0, 1]], IpcConfig())


def test_one_row_batch_in_dual_form_is_finite():
    rng = np.random.default_rng(17)
    val = _random_val_set(rng, 5, 6, 3)
    loss, grad = loss_and_label_gradient(
        rng.normal(size=(1, 6)), rng.normal(size=(1, 3)), val.features.values, val.labels, IpcConfig(lam=0.1)
    )
    assert np.isfinite(loss)
    assert grad.shape == (1, 3) and np.all(np.isfinite(grad))


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


@pytest.mark.parametrize("b, d", [(64, 16), (16, 64), (256, 512)], ids=["primal", "dual", "embed-dual"])
@pytest.mark.parametrize("layout", ["C", "F", "sliced", "transposed"])
def test_cholesky_factors_the_gram_in_place_bitwise(monkeypatch, b, d, layout):
    """numpy fills both triangles of F'F and FF' for a batch of any layout, so
    handing LAPACK the Gram's transpose factors it in place, with the bits of
    factoring a C-ordered copy of the Gram."""
    rng = np.random.default_rng(b + d)
    F = {
        "C": lambda: rng.standard_normal((b, d)),
        "F": lambda: np.asfortranarray(rng.standard_normal((b, d))),
        "sliced": lambda: rng.standard_normal((2 * b, d + 3))[::2, 1 : d + 1],
        "transposed": lambda: rng.standard_normal((d, b)).T,
    }[layout]()
    dual = d > b
    gram = F @ F.T if dual else F.T @ F
    gram.flat[:: gram.shape[0] + 1] += 0.5
    expected, info = ipc.dpotrf(np.ascontiguousarray(gram), lower=1, clean=0)
    assert info == 0
    real, passed = ipc.dpotrf, []

    def spy(a, **kwargs):
        passed.append(a)
        return real(a, **kwargs)

    monkeypatch.setattr(ipc, "dpotrf", spy)
    factor = ipc._cholesky(F, 0.5, dual)
    assert factor.tobytes() == expected.tobytes()
    assert np.shares_memory(factor, passed[0])  # no copy on the way into LAPACK


def test_ipc_config_validation():
    with pytest.raises(ValueError):
        IpcConfig(alpha=0.0)
    with pytest.raises(ValueError):
        IpcConfig(lam=-1.0)
    with pytest.raises(ValueError):
        IpcConfig(eta=0.0)
    with pytest.raises(ValueError):
        IpcConfig(gamma_ent=-0.5)


# ---------------------------------------------------------------- LAPACK loading


@pytest.mark.parametrize("imports", [
    "from labelpure import ipc\nimport scipy.linalg.lapack as lapack",
    "import scipy.linalg.lapack as lapack\nfrom labelpure import ipc",
])
def test_lapack_routines_are_scipys_in_either_import_order(imports):
    """ipc loads scipy's LAPACK extension without scipy.linalg; whichever of
    the two loads first, both hold the same routines. This process loaded
    scipy.linalg first, so each order runs in a fresh one."""
    F = np.cos(np.arange(48.0)).reshape(8, 6)
    script = (
        "import sys\n"
        "import numpy as np\n"
        f"{imports}\n"
        "print(ipc.dpotrf is lapack.dpotrf, ipc.dpotrs is lapack.dpotrs)\n"
        "F = np.frombuffer(bytes.fromhex(sys.argv[1])).reshape(8, 6)\n"
        "print(ipc._cholesky(F, 0.5).tobytes().hex())\n"
    )
    out = subprocess.run([sys.executable, "-c", script, F.tobytes().hex()], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    same, factor = out.stdout.splitlines()
    assert same == "True True"
    assert factor == ipc._cholesky(F, 0.5).tobytes().hex()


def test_missing_lapack_extension_raises_naming_it(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    # No extension in scipy's linalg directory, then no scipy package at all.
    fakes = {"PathFinder": SimpleNamespace(find_spec=lambda name, path: None), "find_spec": lambda name: None}
    for attr, fake in fakes.items():
        with monkeypatch.context() as patch:
            patch.setattr(ipc, attr, fake)
            with pytest.raises(ImportError, match=r"^scipy's LAPACK extension scipy\.linalg\._flapack is missing$"):
                ipc._load_flapack()


def test_failed_bare_lapack_load_imports_scipy_and_loads_once_more():
    """Where the extension cannot load before scipy's package init has run
    (scipy's Windows wheels make their DLLs loadable there), the loader
    imports scipy and loads again, and the routines are scipy's own. The
    first load is made to fail in a fresh process, before ipc is imported."""
    script = (
        "import sys\n"
        "import importlib.util\n"
        "real, calls = importlib.util.module_from_spec, []\n"
        "def flaky(spec):\n"
        "    calls.append('scipy' in sys.modules)\n"
        "    if len(calls) == 1:\n"
        "        raise ImportError('DLL load failed')\n"
        "    return real(spec)\n"
        "importlib.util.module_from_spec = flaky\n"
        "from labelpure import ipc\n"
        "importlib.util.module_from_spec = real\n"
        "print(calls, 'scipy.linalg' in sys.modules)\n"
        "import scipy.linalg.lapack as lapack\n"
        "print(ipc.dpotrf is lapack.dpotrf, ipc.dpotrs is lapack.dpotrs)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[False, True] False", "True True"]
