"""Formula-only references for the tests.

Each reference is one update written straight from its formula, returning
new arrays and checking nothing, so that a test can hold the library's
in-place steppers against it.  The two ``stepped_*`` probes read what a
``SofimOptimizer`` step computed back from the step it takes from ``w = 0``.
"""

import numpy as np

from sofim.baselines import sgd_learning_rate
from sofim.core import SofimConfig, SofimOptimizer
from sofim.exceptions import NonFiniteError


def sherman_morrison_apply(a, u, v, b):
    """``(a I + u v^T)^{-1} b`` by the rank-one (Sherman-Morrison) inverse."""
    return b / a - (v @ b) / (a * a * (1.0 + (v @ u) / a)) * u


def sofim_step(w, m, g, cfg, t):
    """SOFIM step ``t`` (1-based) from moment ``m``; returns ``(w, m)``.
    Raises :class:`NonFiniteError` where ``||m_hat||^2`` overflows."""
    m = cfg.beta * m + (1.0 - cfg.beta) * g
    m_hat = m / (1.0 - cfg.beta**t)
    sq = np.vdot(m_hat, m_hat)
    if not np.isfinite(sq):
        raise NonFiniteError("||m_hat||^2 overflowed")
    return w - cfg.eta * m_hat / (cfg.rho + sq), m


def sofim_momentum_step(w, v, g, cfg, t, sq):
    """SOFIM step ``t`` (1-based) written as a momentum-SGD step: velocity
    ``v = beta v + g``, so that sofim's moment is ``m = (1 - beta) v``, and
    ``w - lr_t v`` at the scalar rate ``lr_t = eta (1 - beta) / ((rho + sq)
    (1 - beta^t))``, where ``sq = ||m_hat||^2`` is read from the stepper's
    step; returns ``(w, v)``."""
    v = cfg.beta * v + g
    lr = cfg.eta * (1.0 - cfg.beta) / ((cfg.rho + sq) * (1.0 - cfg.beta**t))
    return w - lr * v, v


def sgd_momentum_step(w, v, g, cfg, s):
    """Momentum-SGD step ``s`` (0-based); returns ``(w, v)``."""
    v = cfg.momentum * v + g + cfg.weight_decay * w
    return w - sgd_learning_rate(cfg, s) * v, v


def adam_step(w, m, v, g, cfg, t):
    """Adam step ``t`` (1-based); returns ``(w, m, v)``."""
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * np.square(g)
    m_hat, v_hat = m / (1.0 - cfg.beta1**t), v / (1.0 - cfg.beta2**t)
    return w - cfg.eta * m_hat / (np.sqrt(v_hat) + cfg.epsilon), m, v


def stepped_m_hat(opt, g):
    """The bias-corrected moment ``m_hat`` that ``opt``, a ``SofimOptimizer``,
    steps with on ``g``: its step from ``w = 0`` is ``-eta m_hat / (rho + sq)``."""
    w = np.zeros(len(g))
    opt.step(w, g)
    return -w / (opt.config.eta / (opt.config.rho + opt._last_sq))


def stepped_direction(m_hat, rho):
    """The direction of a fresh beta = 0, eta = 1 sofim step on gradient
    ``m_hat``: minus the step it takes from ``w = 0``."""
    w = np.zeros(len(m_hat))
    SofimOptimizer(len(m_hat), SofimConfig(eta=1.0, rho=rho, beta=0.0)).step(w, m_hat)
    return -w
