"""SOFIM optimizer: Newton-style steps with a rank-one regularized Fisher
information matrix.

Each step accumulates an exponential first moment of the stochastic
gradient, bias-corrects it, and preconditions it with the inverse of
``F = m_hat m_hat^T + rho * I``.  Because F is a rank-one update of a scaled
identity, applying ``F^{-1}`` to ``m_hat`` costs O(d) via the rank-one
(Sherman-Morrison) inverse formula and collapses algebraically to
``m_hat / (rho + ||m_hat||^2)``.  The whole update therefore runs in O(d)
time with O(d) extra memory, like SGD with momentum.

The module-level functions are the pure contract surface: they validate
inputs and return new arrays/states.  :class:`SofimOptimizer` is the
buffer-reusing stepper the experiment harness drives; it runs the same
update in place with numpy, allocating nothing per step.  The momentum-SGD
and Adam steppers of :mod:`sofim.baselines` run their elementwise work
through :func:`blocked`, one cache-sized block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from sofim.exceptions import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
    SingularUpdateError,
    require,
)

#: Reject rank-one inverse updates whose denominator is smaller than this.
SM_DENOM_TOL = 1e-12

#: A step whose bound on ``||m_hat||`` is below this cannot overflow
#: ``||m_hat||^2``: the square stays under 1e300, eight orders of magnitude
#: clear of rounding in the bound and in the sum.
_SAFE_NORM = 1e150

#: The momentum-SGD and Adam steppers run their elementwise work over
#: contiguous blocks of this many float64 elements, 256 KiB a vector.  The
#: most any block body touches is Adam's six views (w, g, both moments and
#: two scratch blocks), 1.5 MiB, which fits a 2 MiB per-core L2: each of a
#: block's operations then reads what the one before it wrote from L2,
#: where whole-vector operations at d = 1e6 stream every 8 MB vector
#: through the last-level cache once per operation.  It also bounds the
#: scratch those steppers need to one block.
BLOCK = 32768


def blocked(body, vectors: int, dim: int):
    """``body`` run over contiguous blocks of its first ``vectors`` arguments.

    Those arguments are ``dim``-length arrays, cut into runs of
    :data:`BLOCK` elements, the last one shorter.  Every later array
    argument is scratch of length ``min(dim, BLOCK)`` and lends each call
    its first as many elements as the block has; other arguments pass as
    they are.  At ``dim <= BLOCK`` this is ``body`` itself, so a step of a
    small model pays for no slicing and no extra call.

    An elementwise body gives every element the bits one call on the whole
    vectors would, so blocking changes no output.  A reduction over a
    vector stays outside the body: summed block by block it would round
    differently.
    """
    if dim <= BLOCK:
        return body

    def each_block(*args):
        for start in range(0, dim, BLOCK):
            n = min(BLOCK, dim - start)
            body(*[a[start:start + n] for a in args[:vectors]],
                 *[a[:n] if isinstance(a, np.ndarray) else a for a in args[vectors:]])

    return each_block


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


def require_finite(arr: np.ndarray, name: str) -> None:
    """Raise :class:`NonFiniteError` unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains NaN or Inf")


def _require_same_length(a: np.ndarray, b: np.ndarray, a_name: str, b_name: str) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"{a_name} has length {a.shape[0]} but {b_name} has length {b.shape[0]}"
        )


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


@dataclass
class SofimState:
    """Optimizer state: first-moment vector, step counter, config.

    ``beta_pow`` caches ``beta ** step`` as a running product so each step
    costs O(1) bookkeeping; once it underflows, the bias-correction
    denominator is exactly 1.
    """

    moment: np.ndarray
    step: int
    config: SofimConfig
    beta_pow: float = 1.0

    def __post_init__(self):
        self.moment = _as_vector(self.moment, "moment")
        require(self.step >= 0, f"step must be >= 0, got {self.step}")
        if self.step == 0 and np.any(self.moment != 0.0):
            raise ConfigError("a state at step 0 must have a zero moment vector")

    @classmethod
    def initial(cls, dim: int, config: SofimConfig) -> "SofimState":
        require(dim >= 1, f"dim must be >= 1, got {dim}")
        return cls(moment=np.zeros(dim), step=0, config=config, beta_pow=1.0)

    @property
    def dim(self) -> int:
        return self.moment.shape[0]


def first_moment_update(state: SofimState, g) -> SofimState:
    """Accumulate a gradient into the first moment and advance the step.

    Returns a new state with ``moment = beta * moment + (1 - beta) * g`` and
    ``step + 1``; the input state is not mutated.
    """
    g = _as_vector(g, "g")
    _require_same_length(state.moment, g, "state.moment", "g")
    require_finite(g, "g")
    beta = state.config.beta
    new_moment = beta * state.moment + (1.0 - beta) * g
    return replace(
        state,
        moment=new_moment,
        step=state.step + 1,
        beta_pow=state.beta_pow * beta,
    )


def bias_correct(state: SofimState) -> np.ndarray:
    """Return the bias-corrected moment ``moment / (1 - beta ** step)``.

    Requires at least one accumulated step; at step 0 the denominator is
    zero and the moment carries no information.
    """
    require(state.step >= 1, "bias_correct requires step >= 1 (no gradients accumulated yet)")
    denom = 1.0 - state.beta_pow
    return state.moment / denom


def sherman_morrison_inverse_apply(a_diag: float, u, v, b) -> np.ndarray:
    """Apply ``(a_diag * I + u v^T)^{-1}`` to ``b`` in O(d).

    Uses the rank-one inverse-update identity; no d x d matrix is formed.
    Raises :class:`SingularUpdateError` when ``|1 + v^T u / a_diag|`` falls
    below :data:`SM_DENOM_TOL`.
    """
    require(a_diag > 0, f"a_diag must be > 0, got {a_diag}")
    u = _as_vector(u, "u")
    v = _as_vector(v, "v")
    b = _as_vector(b, "b")
    _require_same_length(u, v, "u", "v")
    _require_same_length(u, b, "u", "b")
    denom = 1.0 + float(np.dot(v, u)) / a_diag
    if abs(denom) < SM_DENOM_TOL:
        raise SingularUpdateError(
            f"rank-one update is singular: |1 + v.u/a| = {abs(denom):.3e}"
        )
    coeff = float(np.dot(v, b)) / (a_diag * a_diag * denom)
    return b / a_diag - coeff * u


def sofim_direction(m_hat, rho: float) -> np.ndarray:
    """Preconditioned update direction ``(m_hat m_hat^T + rho I)^{-1} m_hat``.

    The rank-one inverse applied to its own vector reduces exactly to
    ``m_hat / (rho + ||m_hat||^2)``, which is the numerically stable form
    computed here (the two-term expansion cancels catastrophically when
    ``||m_hat||^2 >> rho``).  The direction is always parallel to ``m_hat``.
    """
    require(rho > 0, f"rho must be > 0, got {rho}")
    m_hat = _as_vector(m_hat, "m_hat")
    require_finite(m_hat, "m_hat")
    sq = float(np.dot(m_hat, m_hat))
    if not math.isfinite(sq):
        raise NonFiniteError("||m_hat||^2 overflowed")
    return m_hat / (rho + sq)


def sofim_step(w, state: SofimState, g):
    """One full optimizer step.

    Composes the moment update, bias correction and preconditioned
    direction; returns ``(w - eta * direction, advanced_state)``.  Exactly
    one state advance per call.
    """
    w = _as_vector(w, "w")
    _require_same_length(w, state.moment, "w", "state.moment")
    new_state = first_moment_update(state, g)
    m_hat = bias_correct(new_state)
    direction = sofim_direction(m_hat, new_state.config.rho)
    return w - new_state.config.eta * direction, new_state


class SofimOptimizer:
    """Buffer-reusing stepper equivalent to iterating :func:`sofim_step`.

    ``step`` mutates ``w`` and the internal moment in place and writes every
    intermediate vector into a scratch vector the optimizer owns, so a long
    run allocates nothing per iteration.  A gradient of the wrong shape, with
    a NaN or Inf entry, or whose ``||m_hat||^2`` would overflow is refused
    before any state changes.

    It owns 2d floats, the moment and a d-length ``m_hat``: the O(d) space
    the paper claims, as for momentum SGD.  ``m_hat`` must be whole at once,
    because ``||m_hat||^2`` is one BLAS sum over all of it, and summing it
    block by block would change its rounding.  Blocking (:func:`blocked`)
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

    @property
    def state(self) -> SofimState:
        """Snapshot of the internal state as a :class:`SofimState`."""
        return SofimState(
            moment=self.moment.copy(),
            step=self.step_count,
            config=self.config,
            beta_pow=self._beta_pow,
        )
