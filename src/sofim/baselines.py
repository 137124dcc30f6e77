"""Baseline optimizers for comparison: SGD with momentum (optional coupled
weight decay and cosine annealing) and Adam with canonical defaults.
Each is a stepper whose ``step(w, g)`` is its only implementation.  The
dense natural-gradient step that checks sofim at batch size 1 is a
formula-only test reference, not a stepper of the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sofim.core import BLOCK, blocks, check_step
from sofim.exceptions import ConfigError, require


@dataclass(frozen=True)
class SgdConfig:
    """SGD hyperparameters.  ``schedule`` is ``"constant"`` or ``"cosine"``;
    cosine anneals from ``eta`` to 0 over ``total_steps``."""

    eta: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    schedule: str = "constant"
    total_steps: int | None = None

    def __post_init__(self):
        require(math.isfinite(self.eta) and self.eta > 0,
                f"eta must be finite and > 0, got {self.eta}")
        require(0.0 <= self.momentum < 1.0, f"momentum must lie in [0, 1), got {self.momentum}")
        require(math.isfinite(self.weight_decay) and self.weight_decay >= 0,
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        require(self.schedule in ("constant", "cosine"),
                f"schedule must be 'constant' or 'cosine', got {self.schedule!r}")
        if self.schedule == "cosine" and (self.total_steps is None or self.total_steps < 1):
            raise ConfigError("cosine schedule requires total_steps >= 1")


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters with the canonical defaults."""

    eta: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        require(math.isfinite(self.eta) and self.eta > 0,
                f"eta must be finite and > 0, got {self.eta}")
        require(0.0 <= self.beta1 < 1.0, f"beta1 must lie in [0, 1), got {self.beta1}")
        require(0.0 <= self.beta2 < 1.0, f"beta2 must lie in [0, 1), got {self.beta2}")
        require(math.isfinite(self.epsilon) and self.epsilon > 0,
                f"epsilon must be finite and > 0, got {self.epsilon}")


def sgd_learning_rate(cfg: SgdConfig, step_index: int) -> float:
    """Scheduled learning rate at ``step_index`` (0-based).

    Cosine: ``eta(s) = eta_min + 0.5 * (eta0 - eta_min) * (1 + cos(pi * s / total_steps))``
    with ``eta_min = 0``, so ``eta(0) = eta0`` and ``eta(total_steps) = 0``.
    """
    if cfg.schedule == "constant":
        return cfg.eta
    s = min(step_index, cfg.total_steps)
    return 0.5 * cfg.eta * (1.0 + math.cos(math.pi * s / cfg.total_steps))


class SgdMomentumOptimizer:
    """Stateful momentum-SGD stepper.  Step ``s`` (0-based) folds coupled
    weight decay into the gradient and sets ``v = momentum v + g +
    weight_decay w`` and ``w = w - eta(s) v``, with ``eta(s)`` from
    :func:`sgd_learning_rate`.

    It mutates ``w`` in place over :func:`sofim.core.blocks`, so a step
    allocates nothing.  It owns ``d + min(d, BLOCK)`` floats: the velocity
    and one scratch block for its one intermediate.  Each block's views of
    both are cut once, at construction, so a step slices only ``w`` and
    ``g``."""

    def __init__(self, dim: int, config: SgdConfig):
        self.config = config
        self.velocity = np.zeros(dim)
        self._scratch = np.empty(min(dim, BLOCK))
        self._blocks = [(rows, self.velocity[rows], self._scratch[:rows.stop - rows.start])
                        for rows in blocks(dim)]
        self.step_count = 0

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        check_step(w, g, self.velocity.shape)
        cfg = self.config
        lr = sgd_learning_rate(cfg, self.step_count)
        for rows, v, scratch in self._blocks:
            w_b = w[rows]
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

    It computes the update in the equivalent form of Kingma & Ba (2015,
    section 2), ``w = w - alpha_t m / (sqrt(v) + eps_hat)`` with the two
    scalars ``alpha_t = eta sqrt(1 - beta2^t) / (1 - beta1^t)`` and
    ``eps_hat = epsilon sqrt(1 - beta2^t)``: one divide and one square root
    per entry instead of three divides and one square root.  ``m`` and
    ``v`` are exactly the textbook ones; ``w`` differs from the textbook
    ordering only by rounding.

    It mutates ``w`` in place over :func:`sofim.core.blocks`, so a step
    allocates nothing.  It owns ``2d + 2 min(d, BLOCK)`` floats: the
    moments ``m`` and ``v`` and two scratch blocks for its intermediates.
    Each block's views of all four are cut once, at construction, so a step
    slices only ``w`` and ``g``."""

    def __init__(self, dim: int, config: AdamConfig):
        self.config = config
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self._scratch = np.empty(min(dim, BLOCK))
        self._denom = np.empty(min(dim, BLOCK))
        self._blocks = [(rows, self.m[rows], self.v[rows], self._scratch[:rows.stop - rows.start],
                         self._denom[:rows.stop - rows.start]) for rows in blocks(dim)]
        self.step_count = 0

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        check_step(w, g, self.m.shape)
        self.step_count += 1
        cfg, t = self.config, self.step_count
        root_bc2 = math.sqrt(1.0 - cfg.beta2**t)
        alpha, eps_hat = cfg.eta * root_bc2 / (1.0 - cfg.beta1**t), cfg.epsilon * root_bc2
        for rows, m, v, scratch, denom in self._blocks:
            w_b, g_b = w[rows], g[rows]
            m *= cfg.beta1
            m += np.multiply(g_b, 1.0 - cfg.beta1, out=scratch)
            v *= cfg.beta2
            np.square(g_b, out=scratch)
            v += np.multiply(scratch, 1.0 - cfg.beta2, out=scratch)
            np.sqrt(v, out=denom)
            denom += eps_hat
            np.divide(m, denom, out=scratch)
            scratch *= alpha
            w_b -= scratch
