import mpmath
import numpy as np
import pytest

from labelpure.data import HardLabels, log_softmax, one_hot, softmax
from labelpure.eac import (
    EacConfig,
    LinearClassifier,
    TrainState,
    classifier_forward,
    eac_label_update,
    eac_train_step,
    minibatches,
    row_chunks,
)
from labelpure.errors import NumericError

from oracles import (
    AdamState,
    eac_gradients,
    eac_loss,
    fd_classifier_gradients,
    functional_train_step,
    naive_forward,
    relative_errors,
)

mpmath.mp.dps = 50


# ---------------------------------------------------------------- schedule


def test_minibatches_cut_one_seeded_permutation_per_epoch():
    F = np.arange(20, dtype=np.float32).reshape(10, 2)
    batches = list(minibatches(F, 4, 2, seed=3))
    assert [(epoch, len(idx)) for epoch, idx, _ in batches] == [(0, 4), (0, 4), (0, 2), (1, 4), (1, 4), (1, 2)]
    rng = np.random.default_rng(3)
    for epoch in (0, 1):
        assert np.array_equal(np.concatenate([idx for e, idx, _ in batches if e == epoch]), rng.permutation(10))
    assert all(rows.dtype == np.float64 and np.array_equal(rows, F[idx]) for _, idx, rows in batches)


# ---------------------------------------------------------------- forward


def test_forward_zero_classifier():
    clf = LinearClassifier(np.zeros((3, 2)), np.zeros(2))
    assert np.array_equal(classifier_forward(clf, np.ones((4, 3))), np.zeros((4, 2)))


def test_forward_identity():
    clf = LinearClassifier(np.eye(3), np.zeros(3))
    assert np.array_equal(classifier_forward(clf, np.eye(3)), np.eye(3))


def test_forward_matches_naive_loop():
    rng = np.random.default_rng(0)
    clf = LinearClassifier(rng.normal(size=(5, 4)), rng.normal(size=4))
    F = rng.normal(size=(7, 5))
    assert np.abs(classifier_forward(clf, F) - naive_forward(clf, F)).max() < 1e-12


def test_forward_returns_n_by_c_float64_logits():
    """Callers blend the logits and take their row-wise argmax."""
    rng = np.random.default_rng(4)
    w, b = rng.normal(size=(6, 3)), rng.normal(size=3)
    state = TrainState(6, 3)
    state.weights[:], state.bias[:] = w, b
    F = rng.normal(size=(9, 6))
    for clf in (LinearClassifier(w, b), state):
        out = classifier_forward(clf, F)
        assert out.shape == (9, 3) and out.dtype == np.float64
        assert np.array_equal(out, classifier_forward(LinearClassifier(w, b), F))


# The class-major product runs in another GEMM kernel order than F @ W, so it
# is held to a float64 tolerance; the argmax every caller takes must not move.
@pytest.mark.parametrize("n, d, c", [(2000, 32, 5), (5000, 128, 10), (5000, 512, 10)])
def test_forward_matches_row_major_product_at_split_shapes(n, d, c):
    rng = np.random.default_rng(n + d + c)
    clf = LinearClassifier(rng.normal(size=(d, c)), rng.normal(size=c))
    F = rng.normal(size=(n, d))
    out, ref = classifier_forward(clf, F), F @ clf.weights + clf.bias
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(np.argmax(out, axis=1), np.argmax(ref, axis=1))


# The forward widens a float32 split one row chunk at a time. Its chunk edges
# keep each chunk's product bitwise equal to its columns of the single float64
# product; CI's two tier-1 steps check that under the runner's default OpenBLAS
# kernel and under Haswell. A float64 split takes the same chunks and must give
# the same bits.
@pytest.mark.parametrize("c", [2, 5, 10])
@pytest.mark.parametrize("d", [32, 512])
@pytest.mark.parametrize("n", [2049, 4097, 20001])
def test_forward_of_float32_rows_is_the_single_float64_product(n, d, c):
    rng = np.random.default_rng(n * d + c)
    clf = LinearClassifier(rng.normal(size=(d, c)), rng.normal(size=c))
    F = rng.normal(size=(n, d)).astype(np.float32)
    wide = F.astype(np.float64)
    ref = (clf.weights.T @ wide.T + clf.bias[:, None]).T
    assert np.array_equal(classifier_forward(clf, F), ref)
    assert np.array_equal(classifier_forward(clf, wide), ref)


# purify replaces labels one row_chunks range at a time: each range's forward
# must be those rows of the full forward, bit for bit, and the ranges must tile
# the rows, so the blended labels are those of one full-N replacement.
def test_replacement_by_row_chunks_is_the_full_replacement():
    n, d, c, eta = 7000, 32, 10, 0.3
    rng = np.random.default_rng(27)
    state = TrainState(d, c)
    state.params[:] = rng.normal(size=state.params.shape)
    F = rng.normal(size=(n, d)).astype(np.float32)
    Y = rng.normal(size=(n, c))
    assert [lo for lo, _ in row_chunks(n)] + [n] == [0, 2048, 4096, 7000]
    full = classifier_forward(state, F)
    want = eac_label_update(Y, full.copy(), eta)
    for lo, hi in row_chunks(n):
        chunk = classifier_forward(state, F[lo:hi])
        assert chunk.tobytes() == full[lo:hi].tobytes()
        Y[lo:hi] = eac_label_update(Y[lo:hi], chunk, eta)
    assert Y.tobytes() == want.tobytes()
    for m in (1, 1024, 1025, 2048, 3071, 3072, 4097, 20001):
        chunks = row_chunks(m)
        assert chunks[0][0] == 0 and chunks[-1][1] == m
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(row_chunks(hi - lo) == [(0, hi - lo)] for lo, hi in chunks)


def test_forward_dim_mismatch():
    with pytest.raises(ValueError):
        classifier_forward(LinearClassifier(np.zeros((3, 2)), np.zeros(2)), np.ones((2, 4)))


# ---------------------------------------------------------------- loss


def test_loss_uniform_logits_is_log_c():
    logits = np.zeros((6, 4))
    targets = one_hot(HardLabels(np.arange(6) % 4, 4))
    assert abs(eac_loss(logits, targets, gamma_ent=0.0) - np.log(4)) < 1e-12


def test_loss_uniform_logits_with_entropy_doubles():
    logits = np.zeros((3, 5))
    targets = one_hot(HardLabels(np.array([0, 1, 2]), 5))
    assert abs(eac_loss(logits, targets, gamma_ent=1.0) - 2 * np.log(5)) < 1e-12


def test_loss_saturated_correct_prediction():
    logits = np.array([[10.0, 0.0, 0.0]])
    targets = np.array([[1.0, 0.0, 0.0]])
    loss = eac_loss(logits, targets, gamma_ent=0.0)
    assert loss < 1e-3
    # exact value from a high-precision evaluation of -log softmax
    exps = [mpmath.exp(v) for v in (10.0, 0.0, 0.0)]
    expected = float(-mpmath.log(exps[0] / sum(exps)))
    assert abs(loss - expected) < 1e-15


def test_loss_rejects_unnormalized_targets():
    with pytest.raises(ValueError):
        eac_loss(np.zeros((1, 3)), np.array([[0.5, 0.2, 0.1]]))
    with pytest.raises(ValueError):
        eac_loss(np.zeros((1, 3)), np.array([[1.5, -0.5, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_loss_rejects_nonfinite_targets(bad):
    with pytest.raises(ValueError, match="non-finite"):
        eac_loss(np.zeros((1, 3)), np.array([[bad, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        eac_gradients(LinearClassifier(np.zeros((2, 3)), np.zeros(3)), np.ones((1, 2)), np.array([[bad, 0.0, 0.0]]))


def test_loss_nonnegative_on_random_inputs():
    rng = np.random.default_rng(1)
    for _ in range(50):
        logits = rng.normal(size=(5, 4)) * 3
        targets = softmax(rng.normal(size=(5, 4)))
        assert eac_loss(logits, targets, gamma_ent=float(rng.uniform(0, 2))) >= 0.0


# ---------------------------------------------------------------- gradients


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    clf = LinearClassifier(rng.normal(size=(3, 2)), rng.normal(size=2))
    F = rng.normal(size=(4, 3))
    targets = softmax(rng.normal(size=(4, 2)))
    for gamma in (0.0, 1.0):
        _, grad_w, grad_b = eac_gradients(clf, F, targets, gamma_ent=gamma)
        fd_w, fd_b = fd_classifier_gradients(clf, F, targets, gamma)
        rel_w, abs_w = relative_errors(grad_w, fd_w)
        rel_b, abs_b = relative_errors(grad_b, fd_b)
        assert rel_w <= 1e-4 and abs_w <= 1e-8
        assert rel_b <= 1e-4 and abs_b <= 1e-8


# ---------------------------------------------------------------- training


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_gradients_bitwise_equal_to_written_out_algebra(gamma):
    # Reference: the loss and gradient spelled out term by term, as they were
    # before the entropy algebra moved into softmax_entropy. Purification runs
    # at gamma 1 and retraining at gamma 0, so their outputs depend on this.
    rng = np.random.default_rng(21)
    clf = LinearClassifier(rng.normal(size=(5, 4)), rng.normal(size=4))
    F = rng.normal(size=(32, 5))
    targets = softmax(rng.normal(size=(32, 4)))
    loss, grad_w, grad_b = eac_gradients(clf, F, targets, gamma)

    logq = log_softmax(F @ clf.weights + clf.bias)
    q = np.exp(logq)
    entropy = -(q * logq).sum(axis=1)
    ref_loss = float((-(targets * logq).sum(axis=1) + gamma * entropy).mean())
    grad_logits = (q - targets - gamma * q * (logq + entropy[:, None])) / 32
    assert loss == ref_loss == eac_loss(F @ clf.weights + clf.bias, targets, gamma)
    assert np.array_equal(grad_w, F.T @ grad_logits)
    assert np.array_equal(grad_b, grad_logits.sum(axis=0))


def _state(dim, n_classes, lr=1e-3, weights=None, bias=None):
    state = TrainState(dim, n_classes, lr)
    if weights is not None:
        state.weights[...] = weights
    if bias is not None:
        state.bias[...] = bias
    return state


def test_train_step_zero_lr_keeps_classifier():
    rng = np.random.default_rng(4)
    state = _state(3, 2, lr=0.0, weights=rng.normal(size=(3, 2)), bias=rng.normal(size=2))
    before = state.params.copy()
    F = rng.normal(size=(5, 3))
    targets = softmax(rng.normal(size=(5, 2)))
    assert eac_train_step(state, F, targets) is None
    assert np.array_equal(state.params, before)
    assert state.step == 1


def test_training_reduces_loss():
    rng = np.random.default_rng(5)
    F = np.vstack([rng.normal(size=(20, 4)) + 3, rng.normal(size=(20, 4)) - 3])
    targets = one_hot(HardLabels(np.repeat([0, 1], 20), 2))
    state = TrainState(4, 2)
    initial = eac_loss(classifier_forward(state, F), targets, gamma_ent=0.0)
    for _ in range(200):
        eac_train_step(state, F, targets, gamma_ent=0.0)
    final = eac_loss(classifier_forward(state, F), targets, gamma_ent=0.0)
    assert final < initial


def test_training_is_deterministic():
    rng = np.random.default_rng(6)
    F = rng.normal(size=(10, 3))
    targets = softmax(rng.normal(size=(10, 4)))

    def run():
        state = TrainState(3, 4)
        for _ in range(25):
            eac_train_step(state, F, targets)
        return LinearClassifier(state.weights, state.bias)

    a, b = run(), run()
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_train_step_rejects_nonfinite():
    state = _state(2, 2, weights=np.ones((2, 2)))
    before = [state.params.copy(), state.m.copy(), state.v.copy()]
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        eac_train_step(state, np.array([[1e308, 1e308]]), np.array([[1.0, 0.0]]))
    assert state.step == 0
    for now, was in zip((state.params, state.m, state.v), before):
        assert np.array_equal(now, was)


def test_train_step_rejects_targets_of_another_shape():
    state = TrainState(2, 3)
    with pytest.raises(ValueError, match="does not match targets"):
        eac_train_step(state, np.ones((4, 2)), np.full((1, 3), 1.0 / 3))
    assert state.step == 0


def test_classifier_is_a_read_only_copy_of_the_state():
    state = _state(3, 2, weights=np.arange(6.0).reshape(3, 2), bias=[1.0, 2.0])
    clf = LinearClassifier(state.weights, state.bias)
    state.params += 1.0
    assert np.array_equal(clf.weights, np.arange(6.0).reshape(3, 2))
    assert np.array_equal(clf.bias, [1.0, 2.0])
    assert not clf.weights.flags.writeable


@pytest.mark.parametrize("c", [3, 10])
@pytest.mark.parametrize("gamma", [1.0, 0.0, 0.5])
def test_train_steps_match_the_functional_reference(c, gamma):
    # Targets from softmax are column-major, one-hot gathers row-major; the
    # step must agree with the reference on both.
    rng = np.random.default_rng(11)
    F = rng.normal(size=(37, 6))
    soft = softmax(rng.normal(size=(37, c)) * 2)
    hard = one_hot(HardLabels(rng.integers(0, c, size=37), c))
    state = TrainState(6, c, lr=0.05)
    clf, opt = LinearClassifier(np.zeros((6, c)), np.zeros(c)), AdamState.init(6, c, 0.05)
    for step in range(30):
        targets = soft if step % 2 else hard
        eac_train_step(state, F, targets, gamma_ent=gamma)
        clf, opt = functional_train_step(clf, F, targets, opt, gamma)
    assert state.step == opt.step == 30
    assert np.abs(state.weights - clf.weights).max() < 1e-12
    assert np.abs(state.bias - clf.bias).max() < 1e-12
    assert np.abs(state.m[:-1] - opt.m_w).max() < 1e-12 and np.abs(state.v[-1] - opt.v_b).max() < 1e-12


# ---------------------------------------------------------------- label update


def test_label_update_endpoints_are_exact():
    rng = np.random.default_rng(8)
    Y = rng.normal(size=(6, 3))
    logits = rng.normal(size=(6, 3))
    assert np.array_equal(eac_label_update(Y, logits.copy(), 0.0), Y)
    assert np.array_equal(eac_label_update(Y, logits.copy(), 1.0), logits)


def test_label_update_midpoint_arithmetic():
    out = eac_label_update(np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]]), 0.5)
    assert np.array_equal(out, [[1.0, 1.0]])


def test_label_update_is_affine():
    rng = np.random.default_rng(9)
    Y = rng.normal(size=(4, 2))
    logits = rng.normal(size=(4, 2))
    eta = 0.3
    out = eac_label_update(Y, logits.copy(), eta)
    assert np.array_equal(out, (1 - eta) * Y + eta * logits)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
def test_label_update_blends_into_the_logits_it_is_handed(eta):
    # The loop copies the result into its label matrix, so the blend may reuse
    # the forward's array, but must leave Y as it was: the tracer compares the
    # argmax before and after. The sum is bitwise the out-of-place one's.
    rng = np.random.default_rng(10)
    Y = rng.normal(size=(50, 7))
    logits = rng.normal(size=(50, 7))
    Y_before, expected = Y.copy(), (1 - eta) * Y + eta * logits
    out = eac_label_update(Y, logits, eta)
    assert out is logits
    assert np.array_equal(out, expected)
    assert np.array_equal(Y, Y_before)


def test_eac_config_validation():
    with pytest.raises(ValueError):
        EacConfig(eta=1.2)
    with pytest.raises(ValueError):
        EacConfig(period=0)
    with pytest.raises(ValueError):
        EacConfig(gamma_ent=-1.0)
