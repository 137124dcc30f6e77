"""Reference optimizers for comparison and cross-checking.

Contains SGD with momentum (optional coupled weight decay and cosine
annealing), Adam with canonical defaults, and two deliberately small-scale
dense oracles: natural-gradient descent with the empirical Fisher matrix,
and exact Newton for quadratic problems.  The dense Fisher refuses more
than :data:`DENSE_FIM_CAP` dimensions; the oracles exist to verify the
O(d) optimizer, not to compete with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sofim.core import BLOCK, blocks, check_step, require_finite, shape_error
from sofim.exceptions import ConfigError, DimensionMismatchError, ScaleCapError, require

#: Dense-Fisher operations refuse dimensions above this.
DENSE_FIM_CAP = 200

#: Default damping for the natural-gradient oracle; the empirical Fisher of
#: a finite batch is rank-deficient, so some damping is always required.
DEFAULT_NGD_DAMPING = 1e-3


@dataclass(frozen=True)
class SgdConfig:
    """SGD hyperparameters.  ``schedule`` is ``"constant"`` or ``"cosine"``;
    cosine anneals from ``eta`` to 0 over ``total_steps``."""

    eta: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    schedule: str = "constant"
    total_steps: int | None = None

    def __post_init__(self):
        require(self.eta > 0, f"eta must be > 0, got {self.eta}")
        require(0.0 <= self.momentum < 1.0, f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        require(self.schedule in ("constant", "cosine"),
                f"schedule must be 'constant' or 'cosine', got {self.schedule!r}")
        if self.schedule == "cosine" and (self.total_steps is None or self.total_steps < 1):
            raise ConfigError("cosine schedule requires total_steps >= 1")


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters with the canonical defaults."""

    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        require(self.eta > 0, f"eta must be > 0, got {self.eta}")
        require(0.0 <= self.beta1 < 1.0, f"beta1 must lie in [0, 1), got {self.beta1}")
        require(0.0 <= self.beta2 < 1.0, f"beta2 must lie in [0, 1), got {self.beta2}")
        require(self.epsilon > 0, f"epsilon must be > 0, got {self.epsilon}")


@dataclass(frozen=True)
class NgdConfig:
    """Natural-gradient oracle hyperparameters."""

    eta: float = 0.1
    damping: float = DEFAULT_NGD_DAMPING

    def __post_init__(self):
        require(self.eta > 0, f"eta must be > 0, got {self.eta}")
        require(self.damping > 0, f"damping must be > 0, got {self.damping}")


@dataclass(frozen=True)
class NewtonConfig:
    """Newton oracle hyperparameters; ``eta = 1`` is the full Newton step."""

    eta: float = 1.0

    def __post_init__(self):
        require(self.eta > 0, f"eta must be > 0, got {self.eta}")


def sgd_learning_rate(cfg: SgdConfig, step_index: int) -> float:
    """Scheduled learning rate at ``step_index`` (0-based).

    Cosine: ``eta(s) = eta_min + 0.5 * (eta0 - eta_min) * (1 + cos(pi * s / total_steps))``
    with ``eta_min = 0``, so ``eta(0) = eta0`` and ``eta(total_steps) = 0``.
    """
    if cfg.schedule == "constant":
        return cfg.eta
    s = min(step_index, cfg.total_steps)
    return 0.5 * cfg.eta * (1.0 + math.cos(math.pi * s / cfg.total_steps))


def empirical_fim(per_sample_grads) -> np.ndarray:
    """Dense empirical Fisher matrix ``mean_i g_i g_i^T``, exactly symmetric.

    ``per_sample_grads`` is a sequence of length-d vectors (or a (B, d)
    array).  Refuses d above ``DENSE_FIM_CAP``: this is a verification
    oracle with O(B d^2) cost, not a large-scale operation.
    """
    grads = np.atleast_2d(np.asarray(per_sample_grads, dtype=np.float64))
    require(grads.size > 0, "per_sample_grads must contain at least one gradient")
    d = grads.shape[1]
    if d > DENSE_FIM_CAP:
        raise ScaleCapError(f"dense Fisher oracle capped at d <= {DENSE_FIM_CAP}, got d = {d}")
    f = grads.T @ grads / grads.shape[0]
    # Enforce exact symmetry against BLAS round-off.
    return 0.5 * (f + f.T)


def ngd_step(w, per_sample_grads, eta: float, damping: float = DEFAULT_NGD_DAMPING):
    """Natural-gradient step with the dense empirical Fisher.

    ``w' = w - eta * (F + damping * I)^{-1} g_bar`` where ``g_bar`` is the
    mean per-sample gradient.  Damping must be positive because the
    empirical Fisher of a finite batch is rank-deficient.
    """
    require(damping > 0, f"damping must be > 0, got {damping}")
    w = np.asarray(w, dtype=np.float64)
    grads = np.atleast_2d(np.asarray(per_sample_grads, dtype=np.float64))
    if grads.shape[1] != w.shape[0]:
        raise DimensionMismatchError(
            f"gradients have length {grads.shape[1]} but w has length {w.shape[0]}"
        )
    g_bar = grads.mean(axis=0)
    a = empirical_fim(grads) + damping * np.eye(grads.shape[1])
    direction = np.linalg.solve(a, g_bar)
    return w - eta * direction


def _require_positive_definite(hess) -> None:
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError as exc:
        raise ConfigError("Hessian is not positive definite") from exc


class SgdMomentumOptimizer:
    """Stateful momentum-SGD stepper.  Step ``s`` (0-based) folds coupled
    weight decay into the gradient and sets ``v = momentum v + g +
    weight_decay w`` and ``w = w - eta(s) v``, with ``eta(s)`` from
    :func:`sgd_learning_rate`.

    It mutates ``w`` in place over :func:`sofim.core.blocks`, so a step
    allocates nothing.  It owns ``d + min(d, BLOCK)`` floats: the velocity
    and one scratch block for its one intermediate."""

    def __init__(self, dim: int, config: SgdConfig):
        self.config = config
        self.velocity = np.zeros(dim)
        self._scratch = np.empty(min(dim, BLOCK))
        self.step_count = 0

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        check_step(w, g, self.velocity.shape)
        cfg = self.config
        lr = sgd_learning_rate(cfg, self.step_count)
        for rows in blocks(len(w)):
            w_b, v = w[rows], self.velocity[rows]
            scratch = self._scratch[:len(v)]
            v *= cfg.momentum
            v += g[rows]
            if cfg.weight_decay != 0.0:
                v += np.multiply(w_b, cfg.weight_decay, out=scratch)
            w_b -= np.multiply(v, lr, out=scratch)
        self.step_count += 1


class AdamOptimizer:
    """Stateful Adam stepper.  Step ``t`` (1-based) sets ``m = beta1 m +
    (1 - beta1) g``, ``v = beta2 v + (1 - beta2) g^2`` and ``w = w - eta
    m_hat / (sqrt(v_hat) + epsilon)``, where ``m_hat = m / (1 - beta1^t)``
    and ``v_hat = v / (1 - beta2^t)``.

    It mutates ``w`` in place over :func:`sofim.core.blocks`, so a step
    allocates nothing.  It owns ``2d + 2 min(d, BLOCK)`` floats: the
    moments ``m`` and ``v`` and two scratch blocks for its intermediates."""

    def __init__(self, dim: int, config: AdamConfig):
        self.config = config
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self._scratch = np.empty(min(dim, BLOCK))
        self._denom = np.empty(min(dim, BLOCK))
        self.step_count = 0

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        check_step(w, g, self.m.shape)
        self.step_count += 1
        cfg, t = self.config, self.step_count
        bc1, bc2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
        for rows in blocks(len(w)):
            w_b, g_b, m, v = w[rows], g[rows], self.m[rows], self.v[rows]
            scratch, denom = self._scratch[:len(m)], self._denom[:len(m)]
            m *= cfg.beta1
            m += np.multiply(g_b, 1.0 - cfg.beta1, out=scratch)
            v *= cfg.beta2
            np.square(g_b, out=scratch)
            v += np.multiply(scratch, 1.0 - cfg.beta2, out=scratch)
            # w -= lr * (m / bc1) / (sqrt(v / bc2) + eps), with bc = 1 - beta**t
            np.divide(m, bc1, out=scratch)
            scratch *= cfg.eta
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += cfg.epsilon
            scratch /= denom
            w_b -= scratch


class NgdOracle:
    """Stepper for :func:`ngd_step`; ``g`` is a (B, dim) array of per-sample
    gradients, refused before ``w`` changes if its shape is wrong or it is not finite."""

    def __init__(self, dim: int, config: NgdConfig):
        self.config, self.dim = config, dim

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        if w.shape != (self.dim,) or g.ndim != 2 or g.shape[0] < 1 or g.shape[1] != self.dim:
            raise shape_error(w, g, f"w of shape ({self.dim},) and g of shape (B, {self.dim})")
        require_finite(g, "g")
        w[...] = ngd_step(w, g, self.config.eta, self.config.damping)


class NewtonOracle:
    """Stepper ``w -= eta * H^{-1} g`` for a constant Hessian ``H``, which is
    handed over once and checked positive definite here."""

    def __init__(self, dim: int, config: NewtonConfig, hessian: np.ndarray):
        _require_positive_definite(hessian)
        self.config, self.hessian, self.dim = config, hessian, dim

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        check_step(w, g, (self.dim,))
        w -= self.config.eta * np.linalg.solve(self.hessian, g)
