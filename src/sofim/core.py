"""SOFIM optimizer: Newton-style steps with a rank-one regularized Fisher
information matrix.

Each step accumulates an exponential first moment of the stochastic
gradient, bias-corrects it, and preconditions it with the inverse of
``F = m_hat m_hat^T + rho * I``.  Because F is a rank-one update of a scaled
identity, applying ``F^{-1}`` to ``m_hat`` costs O(d) via the rank-one
(Sherman-Morrison) inverse formula and collapses algebraically to
``m_hat / (rho + ||m_hat||^2)``.  The whole update therefore runs in O(d)
time with O(d) extra memory, like SGD with momentum.

:class:`SofimOptimizer` is the one implementation of that update: it runs
in place with numpy and allocates nothing per step.  The momentum-SGD and
Adam steppers of :mod:`sofim.baselines` run their elementwise work over
:func:`blocks`, one cache-sized block at a time, and so does forward-only
evaluation in :mod:`sofim.problems`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sofim.exceptions import DimensionMismatchError, NonFiniteError, require

#: A step whose bound on ``||m_hat||`` is below this cannot overflow
#: ``||m_hat||^2``: the square stays under 1e300, eight orders of magnitude
#: clear of rounding in the bound and in the sum.
_SAFE_NORM = 1e150

#: The momentum-SGD and Adam steppers and forward-only evaluation work over
#: contiguous blocks of at most this many float64 elements, 256 KiB a
#: vector (:func:`blocks`).  The most any step's block touches is Adam's six
#: views (w, g, both moments and two scratch blocks), 1.5 MiB, which fits a
#: 2 MiB per-core L2: each of a block's operations then reads what the one
#: before it wrote from L2, where whole-vector operations at d = 1e6 stream
#: every 8 MB vector through the last-level cache once per operation.  It
#: also bounds the scratch those steppers need to one block, and the
#: memory of an evaluation pass to one block of its widest intermediate.
BLOCK = 32768


def blocks(n: int, width: int = 1) -> list:
    """The fewest contiguous slices covering ``range(n)`` that hold at most
    :data:`BLOCK` elements of ``width``-wide rows each (one row at least);
    their sizes differ by at most one.

    An elementwise step gives every element the bits one operation on the
    whole vectors would, so blocking it changes no output.  A reduction
    over a vector stays outside the blocks: summed block by block it would
    round differently.
    """
    k = -(-n // max(1, BLOCK // width))
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def require_finite(arr: np.ndarray, name: str) -> None:
    """Raise :class:`NonFiniteError` unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains NaN or Inf")


def shape_error(w: np.ndarray, g: np.ndarray, expected) -> DimensionMismatchError:
    """The error a stepper raises for a ``(w, g)`` pair of the wrong shapes."""
    return DimensionMismatchError(
        f"g has shape {g.shape} and w has shape {w.shape}; the optimizer expects {expected}"
    )


def check_step(w: np.ndarray, g: np.ndarray, shape: tuple) -> float:
    """Refuse a stepper's ``(w, g)`` before the step changes anything: both
    must have the stepper's ``shape`` and ``g`` must be finite.  That costs
    one read of ``g`` (``g . g``, returned) and no allocation unless the sum
    is not finite.  ``np.vdot`` does the read because, unlike ``np.dot``, it
    emits no overflow warning for a finite ``g`` whose square overflows.
    """
    if w.shape != shape or g.shape != shape:
        raise shape_error(w, g, shape)
    gg = float(np.vdot(g, g))
    if not math.isfinite(gg):
        require_finite(g, "g")
    return gg


@dataclass(frozen=True)
class SofimConfig:
    """Hyperparameters: learning rate ``eta``, curvature regularizer ``rho``,
    moment decay ``beta``."""

    eta: float
    rho: float
    beta: float = 0.9

    def __post_init__(self):
        require(self.eta > 0, f"eta must be > 0, got {self.eta}")
        # rho <= 0 destroys positive-definiteness of the preconditioner;
        # fail fast instead of silently diverging.
        require(self.rho > 0, f"rho must be > 0, got {self.rho}")
        require(0.0 <= self.beta < 1.0, f"beta must lie in [0, 1), got {self.beta}")


class SofimOptimizer:
    """The SOFIM stepper.  Step ``t`` with gradient ``g`` sets

        m = beta m + (1 - beta) g,    m_hat = m / (1 - beta^t),
        w = w - eta m_hat / (rho + ||m_hat||^2),

    the closed form of ``w - eta (m_hat m_hat^T + rho I)^{-1} m_hat``; the
    two-term rank-one inverse would cancel catastrophically where
    ``||m_hat||^2 >> rho``, the closed form does not.

    ``step`` mutates ``w`` and the internal moment in place and writes every
    intermediate vector into a scratch vector the optimizer owns, so a long
    run allocates nothing per iteration.  A gradient of the wrong shape, with
    a NaN or Inf entry, or whose ``||m_hat||^2`` would overflow is refused
    before any state changes.

    It owns 2d floats, the moment and a d-length ``m_hat``: the O(d) space
    the paper claims, as for momentum SGD.  ``m_hat`` must be whole at once,
    because ``||m_hat||^2`` is one BLAS sum over all of it, and summing it
    block by block would change its rounding.  Blocking (:func:`blocks`)
    would therefore save sofim no memory, only cache traffic, and the step
    runs whole-vector operations.  Blocked, it was about 12% faster at
    d = 1e6 with its vectors warm, but about 18% slower in the scaling
    probe, which interleaves dimensions, on a busy 2-vCPU host.

    The overflow test costs a normal step O(1): by the triangle inequality
    ``||m_hat|| <= (beta ||m|| + (1 - beta) ||g||) / (1 - beta^t)``, where
    ``||m|| = sqrt(sq) (1 - beta^(t-1))`` comes from the last step's
    ``sq = ||m_hat||^2`` and ``||g||^2`` from :func:`check_step`.  Only a step
    whose bound is not safely finite works out ``||m_hat||^2`` exactly, in
    temporaries, before it mutates anything.
    """

    def __init__(self, dim: int, config: SofimConfig):
        self.config = config
        self.moment = np.zeros(dim)
        self._scratch = np.empty(dim)
        self.step_count = 0
        self._beta_pow = 1.0
        self._last_sq = 0.0  # ||m_hat||^2 of the last step

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        gg = check_step(w, g, self.moment.shape)
        beta, beta_pow = self.config.beta, self._beta_pow * self.config.beta
        bound = (beta * math.sqrt(self._last_sq) * (1.0 - self._beta_pow)
                 + (1.0 - beta) * math.sqrt(gg)) / (1.0 - beta_pow)
        if not bound < _SAFE_NORM:  # also true for an inf or NaN bound
            m_hat = (self.moment * beta + g * (1.0 - beta)) / (1.0 - beta_pow)
            if not math.isfinite(np.vdot(m_hat, m_hat)):  # the in-place sum, bitwise
                raise NonFiniteError("||m_hat||^2 overflowed during a step")
        self.step_count += 1
        self._beta_pow = beta_pow
        m, scratch = self.moment, self._scratch
        m *= beta
        np.multiply(g, 1.0 - beta, out=scratch)
        m += scratch
        m_hat = np.divide(m, 1.0 - beta_pow, out=scratch)
        sq = self._last_sq = float(np.vdot(m_hat, m_hat))  # no overflow warning
        m_hat *= self.config.eta / (self.config.rho + sq)
        w -= m_hat
