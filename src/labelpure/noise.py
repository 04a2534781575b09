"""Synthetic feature generation and label-noise injection.

All randomness flows through numpy's seeded Generator (PCG64); every
operation here is a pure function of its arguments and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import FeatureMatrix, HardLabels
from .errors import check_config

# Conventional similar-class map for the 10-class CIFAR layout:
# truck->automobile, bird->airplane, deer->horse, cat<->dog.
CIFAR10_CLASS_MAP = {9: 1, 2: 0, 4: 7, 3: 5, 5: 3}

# A split of at most half this many bytes is shuffled by gathering it into a
# fresh copy; a larger one is permuted in place, one cycle at a time, with one
# row and one byte per row of scratch, so it never exists twice.
_SHUFFLE_SCRATCH_BYTES = 2 << 20


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture: a desk-scale stand-in for pretrained embeddings.

    ``separation`` is the minimum pairwise distance between cluster means in
    units of the per-component standard deviation (which is 1).
    """

    n: int
    dim: int
    classes: int
    separation: float
    seed: int = 0

    def __post_init__(self) -> None:
        check_config(vars(self), at_least={"dim": 1, "classes": 2}, positive=("separation",), nonnegative=("seed",))
        if self.n < self.classes:
            raise ValueError(f"need n >= classes, got n={self.n}, classes={self.classes}")


def _balanced_counts(n: int, c: int) -> np.ndarray:
    counts = np.full(c, n // c, dtype=np.int64)
    counts[: n % c] += 1
    return counts


def _min_distance(points: np.ndarray) -> np.float64:
    """The least distance between two rows of ``points``, each compared only with the rows after it."""
    return np.min([np.linalg.norm(points[i] - points[i + 1 :], axis=1).min() for i in range(len(points) - 1)])


def _cluster_means(rng: np.random.Generator, spec: MixtureSpec) -> np.ndarray:
    # Random point cloud rescaled so the minimum pairwise distance equals the
    # requested separation exactly, then verified.
    for _ in range(100):
        pts = rng.standard_normal((spec.classes, spec.dim))
        min_dist = _min_distance(pts)
        if min_dist > 1e-9:
            means = pts * (spec.separation / min_dist)
            assert _min_distance(means) >= spec.separation * (1 - 1e-9)
            return means
    raise RuntimeError("failed to place distinct cluster means")


def _permute_rows(rows: np.ndarray, perm: np.ndarray) -> None:
    """Set ``rows[:] = rows[perm]`` in place. A split of more than half
    ``_SHUFFLE_SCRATCH_BYTES`` walks each cycle of ``perm`` once, holding its
    first row aside while each row takes the one ``perm`` names."""
    if 2 * rows.nbytes <= _SHUFFLE_SCRATCH_BYTES:
        rows[...] = rows[perm]
        return
    held = np.empty_like(rows[0])
    done = bytearray(len(rows))
    source = memoryview(perm)  # indexes perm without a list of N Python ints
    for start in range(len(rows)):
        if not done[start]:
            held[...] = rows[start]
            dst = start
            while (src := source[dst]) != start:
                rows[dst] = rows[src]
                done[src] = 1
                dst = src
            rows[dst] = held


def gen_gaussian_mixture_split(
    spec: MixtureSpec, n_val: int = 0, n_test: int = 0
) -> tuple[
    tuple[FeatureMatrix, HardLabels],
    tuple[FeatureMatrix, HardLabels] | None,
    tuple[FeatureMatrix, HardLabels] | None,
]:
    """Draw train/validation/test splits that share one set of cluster means.

    Each split is balanced within +/-1 per class and shuffled. Splits must
    come from a single call: separate calls with different seeds would place
    different means, and with the same seed would replicate samples.
    """
    check_config({"n_val": n_val, "n_test": n_test}, nonnegative=("n_val", "n_test"))
    rng = np.random.default_rng(spec.seed)
    means = _cluster_means(rng, spec)
    sizes = (spec.n, n_val, n_test)
    counts = [_balanced_counts(size, spec.classes) for size in sizes]

    # Each split's rows are drawn class-major straight into one buffer: class
    # k's train rows, then its validation and test rows, then class k+1's.
    # Each buffer is then shuffled in place and becomes the split's matrix.
    buffers = [np.empty((size, spec.dim)) for size in sizes]
    ends = [np.cumsum(cnt) for cnt in counts]
    for k in range(spec.classes):
        for buf, end, cnt in zip(buffers, ends, counts):
            rows = buf[end[k] - cnt[k] : end[k]]
            rng.standard_normal(out=rows)
            rows += means[k]

    out: list[tuple[FeatureMatrix, HardLabels] | None] = []
    for s, size in enumerate(sizes):
        if size == 0:
            out.append(None)
            continue
        perm = rng.permutation(size)
        _permute_rows(buffers[s], perm)
        labels = np.repeat(np.arange(spec.classes, dtype=np.int64), counts[s])
        out.append((FeatureMatrix(buffers[s]), HardLabels(labels[perm], spec.classes)))
    train = out[0]
    assert train is not None
    return train, out[1], out[2]


def check_flip(ratio: float, seed: int) -> None:
    """Refuse a flip ``ratio`` outside [0, 1] and a negative ``seed``."""
    check_config({"ratio": ratio, "seed": seed}, unit=("ratio",), nonnegative=("seed",))


def _flip(labels: HardLabels, ratio: float, seed: int, targets: Callable[[np.random.Generator], np.ndarray]) -> HardLabels:
    """Replace each label with probability ``ratio`` by its row of ``targets(rng)``,
    which draws from the generator after the flip mask."""
    check_flip(ratio, seed)
    rng = np.random.default_rng(seed)
    flip = rng.random(len(labels)) < ratio
    return HardLabels(np.where(flip, targets(rng), labels.values), labels.n_classes)


def inject_symmetric(labels: HardLabels, ratio: float, seed: int) -> HardLabels:
    """Flip each label with probability ``ratio`` to a uniformly chosen other class."""
    c = labels.n_classes
    if c < 2:
        raise ValueError(f"symmetric noise needs at least 2 classes, got {c}")
    # label + 1 + U{0..c-2} mod c is uniform over the c-1 other classes
    return _flip(labels, ratio, seed, lambda rng: (labels.values + 1 + rng.integers(0, c - 1, size=len(labels))) % c)


def inject_asymmetric(labels: HardLabels, ratio: float, class_map: dict[int, int], seed: int) -> HardLabels:
    """Flip mapped classes to their designated target with probability ``ratio``.

    Classes absent from the map are their own target, so they are never
    touched; a flipped label always lands on ``class_map[original]``.
    """
    c = labels.n_classes
    target = labels.values.copy()
    for src, dst in class_map.items():
        if src == dst:
            raise ValueError(f"class map entry {src}->{dst} maps a class to itself")
        if src < 0 or dst < 0:
            raise ValueError(f"class map entry {src}->{dst} has a negative index")
        if src >= c or dst >= c:
            raise ValueError(f"class map entry {src}->{dst} outside {c} classes")
        target[labels.values == src] = dst
    return _flip(labels, ratio, seed, lambda rng: target)
