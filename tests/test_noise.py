import hashlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelpure import noise
from labelpure.evaluate import TrainConfig, evaluate_classifier, train_linear_ce
from labelpure.noise import (
    CIFAR10_CLASS_MAP,
    MixtureSpec,
    gen_gaussian_mixture_split,
    inject_asymmetric,
    inject_symmetric,
)
from labelpure.data import HardLabels

from oracles import label_accuracy, reference_gaussian_mixture_split


# ---------------------------------------------------------------- mixture


def test_mixture_balance_exact():
    (feats, labels), _, _ = gen_gaussian_mixture_split(MixtureSpec(4, 3, 2, 1.0, seed=0))
    assert feats.n == 4
    assert np.bincount(labels.values, minlength=2).tolist() == [2, 2]


def test_mixture_balance_within_one():
    (_, labels), _, _ = gen_gaussian_mixture_split(MixtureSpec(11, 2, 3, 1.0, seed=1))
    counts = np.bincount(labels.values, minlength=3)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 11


def test_mixture_deterministic():
    spec = MixtureSpec(50, 4, 3, 2.0, seed=42)
    (a_feats, a_labels), _, _ = gen_gaussian_mixture_split(spec)
    (b_feats, b_labels), _, _ = gen_gaussian_mixture_split(spec)
    assert np.array_equal(a_feats.values, b_feats.values)
    assert np.array_equal(a_labels.values, b_labels.values)


def test_mixture_mean_separation():
    spec = MixtureSpec(500, 8, 5, 6.0, seed=3)
    (feats, labels), _, _ = gen_gaussian_mixture_split(spec)
    means = np.stack([feats.values[labels.values == k].mean(axis=0) for k in range(5)])
    dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
    off_diag = dists[np.triu_indices(5, 1)]
    # empirical means wander ~1/sqrt(100) around the true means
    assert off_diag.min() > 6.0 - 1.0


def test_mixture_split_sizes_and_balance():
    spec = MixtureSpec(100, 3, 4, 3.0, seed=7)
    train, val, test = gen_gaussian_mixture_split(spec, n_val=21, n_test=10)
    assert train[0].n == 100 and val[0].n == 21 and test[0].n == 10
    for part in (train, val, test):
        counts = np.bincount(part[1].values, minlength=4)
        assert counts.max() - counts.min() <= 1


def test_mixture_split_none_when_zero():
    _, val, test = gen_gaussian_mixture_split(MixtureSpec(10, 2, 2, 1.0, seed=0))
    assert val is None and test is None


def test_mixture_separable_benchmark_clean_probe():
    # the oracle backing the correction benchmark: clean labels train a
    # near-perfect linear classifier at separation 8
    spec = MixtureSpec(2000, 32, 5, 8.0, seed=0)
    train, _, test = gen_gaussian_mixture_split(spec, n_test=1000)
    clf = train_linear_ce(train[0], train[1], TrainConfig(seed=0))
    assert evaluate_classifier(clf, test[0], test[1]) >= 0.99


_MIXTURE_CASES = [
    (MixtureSpec(2000, 32, 5, 8.0, seed=0), 100, 1000),  # the paper benchmark
    (MixtureSpec(50, 4, 3, 2.0, seed=1), 0, 0),
    (MixtureSpec(50, 4, 3, 2.0, seed=2), 0, 7),
    (MixtureSpec(50, 4, 3, 2.0, seed=3), 9, 0),
    (MixtureSpec(103, 6, 7, 3.0, seed=4), 11, 13),  # no split divisible by the classes
    (MixtureSpec(9, 3, 2, 1.5, seed=5), 1, 3),  # 2 classes, a 1-row split
    (MixtureSpec(40, 1, 4, 2.0, seed=6), 5, 6),  # dim 1
    (MixtureSpec(30, 5, 10, 4.0, seed=7), 3, 4),  # splits smaller than the class count
]


def _assert_matches_the_block_reference(spec, n_val, n_test):
    got = gen_gaussian_mixture_split(spec, n_val, n_test)
    want = reference_gaussian_mixture_split(spec, n_val, n_test)
    for part, ref in zip(got, want):
        assert (part is None) == (ref is None)
        if part is not None:
            assert part[0].values.tobytes() == ref[0].values.tobytes()
            assert np.array_equal(part[1].values, ref[1].values)


# The default scratch shuffles every one of these splits with one gather.
@pytest.mark.parametrize("spec, n_val, n_test", _MIXTURE_CASES)
def test_mixture_split_matches_the_block_reference_bitwise(spec, n_val, n_test):
    _assert_matches_the_block_reference(spec, n_val, n_test)


# 4 KiB of scratch sends the larger splits along their cycles; 1 byte saves
# only row 0, so every other cycle is left to the final gather.
@pytest.mark.parametrize("scratch", [4096, 1], ids=["4KiB", "1B"])
@pytest.mark.parametrize("spec, n_val, n_test", _MIXTURE_CASES)
def test_mixture_split_matches_the_block_reference_in_place(spec, n_val, n_test, scratch, monkeypatch):
    monkeypatch.setattr(noise, "_SHUFFLE_SCRATCH_BYTES", scratch)
    _assert_matches_the_block_reference(spec, n_val, n_test)


def test_mixture_split_holds_each_matrix_once():
    spec = MixtureSpec(20000, 64, 10, 6.0, seed=0)
    tracemalloc.start()
    try:
        splits = gen_gaussian_mixture_split(spec, n_val=500, n_test=5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(f.values.nbytes + y.values.nbytes for f, y in splits)
    # The three split buffers, each shuffled in place, plus the shuffle's
    # fixed scratch (1.21x). Gathering the 10 MB train split into a shuffled
    # copy took the peak to 1.83x, and per-class blocks would take it past 3x.
    assert peak < 1.25 * size, peak / size


def _permutation(kind, n, seed):
    if kind == "identity":
        return np.arange(n)
    if kind == "pairs":  # all 2-cycles, plus a fixed point when n is odd
        return np.minimum(np.arange(n) ^ 1, n - 1)
    return np.random.default_rng(seed).permutation(n)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    dim=st.integers(1, 3),
    kind=st.sampled_from(["random", "identity", "pairs"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_permute_rows_in_place_equals_the_gather(n, dim, kind, seed, data):
    rows = np.arange(n * dim, dtype=np.float64).reshape(n, dim)
    perm = _permutation(kind, n, seed)
    want = rows[perm].tobytes()
    # 1 byte saves only row 0; 2 * nbytes bytes take the plain gather. Once
    # a row is skipped, each fixed point of the identity and each pair of
    # "pairs" that holds no saved row is a cycle left to the final gather.
    scratch = data.draw(st.integers(1, 2 * rows.nbytes))
    with mock.patch.object(noise, "_SHUFFLE_SCRATCH_BYTES", scratch):
        noise._permute_rows(rows, perm)
    assert rows.tobytes() == want


def test_mixture_spec_validation():
    for args, message in [
        ((10, 2, 1, 1.0), "classes must be >= 2, got 1"),
        ((1, 2, 2, 1.0), "need n >= classes, got n=1, classes=2"),
        ((10, 0, 2, 1.0), "dim must be >= 1, got 0"),
        ((10, 0, 1, 1.0), "dim must be >= 1, got 0"),  # the first bad field is reported
        ((10, 2, 2, 0.0), "separation must be positive, got 0.0"),
        ((10, 2, 2, float("inf")), "separation must be finite, got inf"),
        ((10, 2, 2, float("nan")), "separation must be finite, got nan"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MixtureSpec(*args, seed=0)
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        MixtureSpec(10, 2, 2, 1.0, seed=-1)
    for n_val, n_test, name in ((-1, 0, "n_val"), (0, -1, "n_test")):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
            gen_gaussian_mixture_split(MixtureSpec(10, 2, 2, 1.0, seed=0), n_val, n_test)


# ---------------------------------------------------------------- symmetric noise


def _labels(n, c, seed):
    return HardLabels(np.random.default_rng(seed).integers(0, c, size=n), c)


def test_symmetric_zero_ratio_is_identity():
    labels = _labels(200, 4, 0)
    assert np.array_equal(inject_symmetric(labels, 0.0, seed=1).values, labels.values)


def test_symmetric_full_ratio_has_no_fixed_points():
    labels = _labels(5000, 10, 1)
    noisy = inject_symmetric(labels, 1.0, seed=2)
    assert not np.any(noisy.values == labels.values)


def test_symmetric_flip_fraction_concentrates():
    labels = _labels(10_000, 10, 2)
    noisy = inject_symmetric(labels, 0.5, seed=3)
    frac = float(np.mean(noisy.values != labels.values))
    assert 0.48 <= frac <= 0.52


def test_symmetric_correct_fraction_bound():
    n, ratio = 10_000, 0.3
    labels = _labels(n, 6, 4)
    noisy = inject_symmetric(labels, ratio, seed=5)
    correct = float(np.mean(noisy.values == labels.values))
    assert abs(correct - (1 - ratio)) <= 3 * np.sqrt(ratio * (1 - ratio) / n)


def test_symmetric_deterministic():
    labels = _labels(500, 5, 6)
    a = inject_symmetric(labels, 0.4, seed=9)
    b = inject_symmetric(labels, 0.4, seed=9)
    assert np.array_equal(a.values, b.values)
    c = inject_symmetric(labels, 0.4, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_symmetric_rejects_bad_inputs():
    labels = _labels(10, 4, 0)
    with pytest.raises(ValueError):
        inject_symmetric(labels, 1.5, seed=0)
    binary_free = HardLabels(np.zeros(4, dtype=int), 1)
    with pytest.raises(ValueError):
        inject_symmetric(binary_free, 0.5, seed=0)


# ---------------------------------------------------------------- asymmetric noise


def test_asymmetric_zero_ratio_is_identity():
    labels = _labels(100, 10, 1)
    out = inject_asymmetric(labels, 0.0, CIFAR10_CLASS_MAP, seed=0)
    assert np.array_equal(out.values, labels.values)


def test_asymmetric_full_ratio_maps_everything():
    labels = HardLabels(np.zeros(50, dtype=int), 2)
    out = inject_asymmetric(labels, 1.0, {0: 1}, seed=0)
    assert np.all(out.values == 1)


def test_asymmetric_flips_land_only_on_targets():
    c = 10
    class_map = {k: (k + 1) % c for k in range(c)}
    labels = _labels(10_000, c, 3)
    out = inject_asymmetric(labels, 0.4, class_map, seed=4)
    flipped = out.values != labels.values
    frac = float(flipped.mean())
    assert 0.37 <= frac <= 0.43
    targets = np.array([class_map[k] for k in range(c)])
    assert np.all(out.values[flipped] == targets[labels.values[flipped]])
    assert np.all(np.isin(out.values[~flipped], labels.values[~flipped]))


def test_asymmetric_unmapped_classes_untouched():
    labels = _labels(2000, 10, 5)
    out = inject_asymmetric(labels, 0.9, CIFAR10_CLASS_MAP, seed=6)
    unmapped = ~np.isin(labels.values, list(CIFAR10_CLASS_MAP))
    assert np.array_equal(out.values[unmapped], labels.values[unmapped])


def test_asymmetric_rejects_self_map():
    labels = _labels(10, 3, 0)
    for class_map, message in [
        ({1: 1}, "maps a class to itself"), ({-1: 0}, "has a negative index"), ({0: -1}, "has a negative index"),
        ({0: 9}, "outside 3 classes"),
    ]:
        with pytest.raises(ValueError, match=message):
            inject_asymmetric(labels, 0.5, class_map, seed=0)
    for ratio in (-0.1, 1.5):
        with pytest.raises(ValueError, match=rf"^ratio must lie in \[0, 1\], got {ratio}$"):
            inject_asymmetric(labels, ratio, {0: 1}, seed=0)


def test_asymmetric_allocates_nothing_sized_by_the_class_count():
    # A class-sized target table for a label of 10**7 alone takes 80 MB.
    labels = HardLabels(np.array([0, 1, 2, 10**7]), 10**7 + 1)
    tracemalloc.start()
    try:
        out = inject_asymmetric(labels, 1.0, {0: 1}, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.values.tolist() == [1, 1, 2, 10**7]
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("inject, c, label_seed, digest", [
    (lambda y: inject_symmetric(y, 0.3, seed=12), 5, 11, "06593188db849890"),
    (lambda y: inject_symmetric(y, 0.6, seed=14), 10, 13, "b2868738225be7e0"),
    (lambda y: inject_asymmetric(y, 0.4, CIFAR10_CLASS_MAP, seed=16), 10, 15, "325b0671fa041d37"),
    (lambda y: inject_asymmetric(y, 0.5, {0: 1, 2: 3}, seed=18), 5, 17, "c2befe843cef6977"),
], ids=["symmetric-5", "symmetric-10", "asymmetric-cifar10", "asymmetric-partial-map"])
def test_injectors_reproduce_their_pinned_outputs(inject, c, label_seed, digest):
    # The digests pin each injector's draw order: a manifest replays a corrupt
    # run only if the same seed still flips the same rows to the same classes.
    out = inject(_labels(1000, c, label_seed)).values
    assert hashlib.sha256(out.astype("<i8").tobytes()).hexdigest()[:16] == digest


# ---------------------------------------------------------------- accuracy


def test_label_accuracy_cases():
    a = HardLabels(np.array([0, 1, 2, 3]), 4)
    b = HardLabels(np.array([1, 2, 3, 0]), 4)
    half = HardLabels(np.array([0, 1, 3, 0]), 4)
    assert label_accuracy(a, a) == 1.0
    assert label_accuracy(a, b) == 0.0
    assert label_accuracy(a, half) == 0.5
    with pytest.raises(ValueError):
        label_accuracy(a, HardLabels(np.array([0]), 4))
