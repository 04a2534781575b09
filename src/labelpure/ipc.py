"""Closed-form ridge correction: the validation discrepancy of a batch ridge
fit and its analytic gradient with respect to label logits.

The inner problem  min_w ||softmax(alpha Y) - F w||^2 + lam ||w||^2  has the
closed form  w* = (F'F + lam I)^{-1} F' softmax(alpha Y), so the validation
loss is an analytic function of the batch logits Y and its gradient is exact
(no unrolled inner loop).

The hypergradient never forms the d x b operator (F'F + lam I)^{-1} F' or its
n_v x b image on the validation set: both passes apply it to c-column matrices
through a Cholesky factor of the smaller Gram matrix. That is the primal F'F
(d x d) when d <= b, and the dual FF' (b x b) when d > b, by the identity
(F'F + lam I)^{-1} F' = F'(FF' + lam I)^{-1} (dual ridge regression). At
lam = 0 the ridge solution is unique only when F'F is nonsingular: a batch
with fewer rows than feature columns raises LinAlgError before factoring, and
a rank-deficient one raises when its factorization breaks down.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from types import ModuleType

import numpy as np
from numpy.linalg import LinAlgError

from .data import softmax, softmax_entropy
from .errors import NumericError, check_config


def _load_flapack() -> ModuleType:
    """scipy's f2py LAPACK extension, loaded without the package init of
    ``scipy`` or ``scipy.linalg`` (which imports every linalg submodule). Only
    if that bare load fails is ``scipy`` imported, as its Windows wheels make
    their DLLs loadable there, and the load tried once more. The module goes
    into sys.modules under its own name, or is taken from there, so a later
    ``import scipy.linalg`` holds this very module."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    package = find_spec("scipy")
    spec = package and PathFinder.find_spec(name, [os.path.join(p, "linalg") for p in package.submodule_search_locations])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension {name} is missing", name=name)
    try:
        module = module_from_spec(spec)
    except ImportError:
        import scipy  # noqa: F401
        module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


@dataclass(frozen=True)
class IpcConfig:
    """Hyperparameters of the ridge-based corrector."""

    alpha: float = 1.0
    lam: float = 1.0
    eta: float = 0.01
    gamma_ent: float = 1.0

    def __post_init__(self) -> None:
        check_config(vars(self), positive=("alpha", "eta"), nonnegative=("lam", "gamma_ent"))


def _cholesky(F_t: np.ndarray, lam: float, dual: bool = False) -> np.ndarray:
    """Lower Cholesky factor of F'F + lam I, or of the dual FF' + lam I.

    At lam = 0 with more feature columns than rows, F'F is singular whatever the
    values, so that raises before any factoring. A non-finite feature makes a
    diagonal entry non-finite, which LAPACK would not report, so the diagonal
    is checked first."""
    b, d = F_t.shape
    if lam == 0 and d > b:
        raise LinAlgError(f"Gram matrix is singular at lam={lam}: {b} batch rows span at most {b} of {d} dims")
    gram = F_t @ F_t.T if dual else F_t.T @ F_t
    if not np.isfinite(gram.diagonal()).all():
        raise ValueError("Gram matrix is not finite: the batch features are non-finite or too large")
    gram.flat[:: gram.shape[0] + 1] += lam
    # numpy fills both triangles of the symmetric Gram, so gram.T is the same
    # matrix column-major, and LAPACK factors it in place, with no copy.
    factor, info = dpotrf(gram.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise LinAlgError(
            f"Gram matrix is singular at lam={lam}: {info}-th leading minor of the array is not positive definite"
        )
    return factor


def _solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(L L')^{-1} rhs for the lower Cholesky factor L."""
    return dpotrs(factor, rhs, lower=1)[0]


def loss_and_label_gradient(
    F_t: np.ndarray,
    Y_t: np.ndarray,
    F_v: np.ndarray,
    Y_v: np.ndarray,
    cfg: IpcConfig,
) -> tuple[float, np.ndarray]:
    """Validation loss and its exact gradient w.r.t. the batch logits Y_t.

    Chain: predictions P = F_v (F'F + lam I)^{-1} F' S with S = softmax(alpha Y);
    dL/dP from the squared and entropy terms; dL/dS through the linear map;
    dL/dY through the row-wise softmax Jacobian scaled by alpha. The map is
    applied without being built, through the primal factor when d <= b and the
    dual one when d > b; at lam = 0 the latter raises, as F'F is singular.
    The four arrays are float64, as the purify loop passes them.
    """
    dual = F_t.shape[1] > F_t.shape[0]
    factor = _cholesky(F_t, cfg.lam, dual)
    S = softmax(cfg.alpha * Y_t)
    P = F_v @ (F_t.T @ _solve(factor, S) if dual else _solve(factor, F_t.T @ S))
    n_v = F_v.shape[0]

    _, _, entropy, d_entropy = softmax_entropy(P)
    resid = P - Y_v
    loss = (float((resid**2).sum()) + cfg.gamma_ent * float(entropy.sum())) / n_v

    # Row-major like P: the bits of the product below depend on that layout.
    grad_pred = (2.0 * resid + cfg.gamma_ent * np.ascontiguousarray(d_entropy)) / n_v
    back = F_v.T @ grad_pred                  # d x c
    # Column-major like S, so the row sum below reduces over whole columns.
    grad_soft = np.asfortranarray(_solve(factor, F_t @ back) if dual else F_t @ _solve(factor, back))
    inner = (S * grad_soft).sum(axis=1, keepdims=True)
    grad = cfg.alpha * S * (grad_soft - inner)
    return loss, grad


def ipc_step(Y_rows: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """One gradient step on the logits: Y - eta * grad. The gradient is the
    loop's own, of ``Y_rows``' shape, and ``IpcConfig`` checked ``eta``."""
    if not np.isfinite(grad).all():
        raise NumericError("non-finite label gradient")
    return Y_rows - eta * grad
