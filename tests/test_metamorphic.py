"""Metamorphic oracles: purify's outputs must not depend on how the classes
are numbered, how the clean rows are ordered, or whether each clean row is
given once or twice, and retraining's must not depend on the class numbering.
Each arm runs at 400x8x4 with 40 clean rows. The ridge step barely moves the
logits at the default ``eta``, so every oracle also runs at ``eta=5``, where
it changes hard labels against classifier-only purification."""

import numpy as np
import pytest

from labelpure.data import CleanValidationSet, HardLabels, one_hot
from labelpure.eac import EacConfig, classifier_forward
from labelpure.evaluate import TrainConfig, train_linear_ce
from labelpure.ipc import IpcConfig
from labelpure.noise import MixtureSpec, gen_gaussian_mixture_split, inject_symmetric
from labelpure.purifier import PurifierConfig, purify

from oracles import duplicate_clean_set, permute_classes, permute_clean_rows

TOL = 1e-12
SIGMA = np.array([2, 0, 3, 1])  # no class keeps its index
IDENTITY = np.arange(4)
SEEDS = [3, 4]
ARMS = {"default-eta": IpcConfig(), "eta-5": IpcConfig(eta=5.0)}


def _problem(seed):
    (features, truth), (val_features, val_labels), _ = gen_gaussian_mixture_split(
        MixtureSpec(400, 8, 4, 3.0, seed=seed), n_val=40
    )
    noisy = inject_symmetric(truth, 0.4, seed=seed + 100)
    return features, noisy, CleanValidationSet(val_features, one_hot(val_labels)), truth


def _config(ipc, **overrides):
    return PurifierConfig(ipc=ipc, eac=EacConfig(period=5), batch_size=64, epochs=6, **overrides)


# Each oracle maps (noisy, clean set, truth, seed) to a transformed problem and
# the class renaming its outputs should show.
ORACLES = {
    "class-permutation": lambda noisy, val, truth, seed: (*permute_classes(noisy, val, truth, SIGMA), SIGMA),
    "clean-row-permutation": lambda noisy, val, truth, seed: (
        noisy, permute_clean_rows(val, np.random.default_rng(seed).permutation(val.features.n)), truth, IDENTITY
    ),
    "clean-set-duplication": lambda noisy, val, truth, seed: (noisy, duplicate_clean_set(val), truth, IDENTITY),
}


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_purify_passes_the_metamorphic_oracle(seed, arm, oracle):
    features, noisy, val, truth = _problem(seed)
    cfg = _config(ARMS[arm])
    logits, hard, report = purify(features, noisy, val, cfg, truth=truth)
    noisy2, val2, truth2, sigma = ORACLES[oracle](noisy, val, truth, seed)
    logits2, hard2, report2 = purify(features, noisy2, val2, cfg, truth=truth2)
    assert np.abs(logits2.values[:, sigma] - logits.values).max() <= TOL
    assert np.array_equal(hard2.values, sigma[hard.values])
    assert [r.acc for r in report2.records] == [r.acc for r in report.records]


@pytest.mark.parametrize("seed", SEEDS)
def test_the_large_eta_arm_moves_labels(seed):
    features, noisy, val, _ = _problem(seed)
    _, hard, _ = purify(features, noisy, val, _config(ARMS["eta-5"]))
    _, classifier_only, _ = purify(features, noisy, val, _config(ARMS["eta-5"], use_ipc=False))
    assert np.count_nonzero(hard.values != classifier_only.values) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_retraining_is_invariant_to_class_numbering(seed):
    features, noisy, _, _ = _problem(seed)
    cfg = TrainConfig(epochs=6, batch=64)
    clf = train_linear_ce(features, noisy, cfg)
    clf2 = train_linear_ce(features, HardLabels(SIGMA[noisy.values], 4), cfg)
    assert np.abs(clf2.weights[:, SIGMA] - clf.weights).max() <= TOL
    assert np.abs(clf2.bias[SIGMA] - clf.bias).max() <= TOL
    pred, pred2 = (np.argmax(classifier_forward(c, features.values), axis=1) for c in (clf, clf2))
    assert np.array_equal(pred2, SIGMA[pred])
