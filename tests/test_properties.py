"""Property tests of the in-place steppers, over random dimensions,
hyperparameters and gradient streams (Hypothesis).

- Each O(d) stepper tracks the formula-only reference of its update in
  ``reference.py``: ``sofim_step``, ``sgd_momentum_step`` and ``adam_step``.
- Every sofim step is a momentum-SGD step at the scalar rate ``lr_t``
  (``sofim_momentum_step``): the rank-one Fisher term acts only through
  ``||m_hat||^2 / rho``.
- A refused step (wrong shape, a dtype other than float64, NaN or Inf
  entry, and for sofim a finite ``g`` whose ``||m_hat||^2`` overflows) raises and leaves ``w`` and every
  attribute of the stepper bitwise unchanged, at a dimension of several
  blocks too.
  Sofim refuses exactly the steps whose ``||m_hat||^2`` overflows in the
  reference ``sofim_step``.
- A sofim step is never longer than ``eta / (2 sqrt(rho))``: the length
  ``eta ||m_hat|| / (rho + ||m_hat||^2)`` peaks at ``||m_hat|| = sqrt(rho)``.
- Bias correction recovers a constant gradient stream: ``m_hat == g`` at
  every step, to a relative 1e-12 per entry.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sofim.baselines import (
    AdamConfig,
    AdamOptimizer,
    SgdConfig,
    SgdMomentumOptimizer,
)
from sofim.core import BLOCK, SofimConfig, SofimOptimizer, blocks
from sofim.exceptions import DimensionMismatchError, NonFiniteError

from reference import adam_step, sgd_momentum_step, sofim_momentum_step, sofim_step

MAX_DIM = 64
FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
#: From subnormal to 1e150: ||m_hat||^2 still fits a float64 at d = 64.
WIDE = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
#: Zero, or a magnitude in [1e-150, 1e150]: (1 - beta) g stays a normal float
#: for beta <= 0.999, and ||m_hat||^2 fits a float64 at d = 64.
NORMAL = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))
PROPERTY = settings(deadline=None, max_examples=40)


@st.composite
def streams(draw, elements=FINITE, max_steps=12):
    """A start point and a stream of 1..max_steps gradients of one dimension."""
    d = draw(st.integers(1, MAX_DIM))
    steps = draw(st.integers(1, max_steps))
    return draw(arrays(np.float64, d, elements=elements)), draw(
        arrays(np.float64, (steps, d), elements=elements)
    )


def close(a, b, rtol=1e-10):
    """Equal up to rounding, relative to the larger of the two vectors."""
    scale = 1.0 + max(np.abs(a).max(), np.abs(b).max())
    return np.abs(a - b).max() <= rtol * scale


@PROPERTY
@given(stream=streams(), eta=st.floats(1e-4, 10.0), rho=st.floats(1e-3, 10.0),
       beta=st.floats(0.0, 0.999))
def test_sofim_stepper_matches_sofim_step(stream, eta, rho, beta):
    w, grads = stream
    cfg = SofimConfig(eta=eta, rho=rho, beta=beta)
    opt, w_ref, m_ref = SofimOptimizer(len(w), cfg), w.copy(), np.zeros(len(w))
    for t, g in enumerate(grads, start=1):
        opt.step(w, g)
        w_ref, m_ref = sofim_step(w_ref, m_ref, g, cfg, t)
    assert opt.step_count == len(grads)
    assert np.array_equal(opt.moment, m_ref)
    assert close(w, w_ref)


@PROPERTY
@given(stream=streams(), eta=st.floats(1e-4, 10.0), rho=st.floats(1e-3, 10.0),
       beta=st.floats(0.0, 0.999))
def test_sofim_stepper_is_momentum_sgd_at_rate_lr_t(stream, eta, rho, beta):
    """The sofim stepper and ``sofim_momentum_step``, fed its ``sq``, stay
    within 1e-12 relative.  The scale is ``w``'s and the sum of the steps'
    bounds ``eta max|g| / (rho + sq)``: the two forms round their moments
    apart by a few ulps of the gradients, which a moment that cancels to
    near zero does not shrink."""
    w, grads = stream
    cfg = SofimConfig(eta=eta, rho=rho, beta=beta)
    opt, w_ref, v = SofimOptimizer(len(w), cfg), w.copy(), np.zeros(len(w))
    g_max = path = 0.0
    for t, g in enumerate(grads, start=1):
        opt.step(w, g)
        w_ref, v = sofim_momentum_step(w_ref, v, g, cfg, t, opt.last_sq)
        g_max = max(g_max, np.abs(g).max())
        path += eta * g_max / (rho + opt.last_sq)
        assert np.abs(w - w_ref).max() <= 1e-12 * (1.0 + np.abs(w_ref).max() + path), t


@PROPERTY
@given(stream=streams(), eta=st.floats(1e-4, 1.0), momentum=st.floats(0.0, 0.99),
       weight_decay=st.floats(0.0, 0.1), schedule=st.sampled_from(["constant", "cosine"]),
       total_steps=st.integers(1, 30))
def test_sgd_stepper_matches_sgd_momentum_step(stream, eta, momentum, weight_decay,
                                               schedule, total_steps):
    w, grads = stream
    cfg = SgdConfig(eta=eta, momentum=momentum, weight_decay=weight_decay,
                    schedule=schedule, total_steps=total_steps)
    opt, w_ref, v_ref = SgdMomentumOptimizer(len(w), cfg), w.copy(), np.zeros(len(w))
    for s, g in enumerate(grads):
        opt.step(w, g)
        w_ref, v_ref = sgd_momentum_step(w_ref, v_ref, g, cfg, s)
    assert opt.step_count == len(grads)
    assert close(opt.velocity, v_ref)
    assert close(w, w_ref)


@PROPERTY
@given(stream=streams(), eta=st.floats(1e-4, 1.0), beta1=st.floats(0.0, 0.99),
       beta2=st.floats(0.0, 0.9999), epsilon=st.floats(1e-10, 1e-3))
# epsilon dominates sqrt(v_hat) from t = 1: the stepper's denominator needs
# epsilon scaled by sqrt(1 - beta2^t), or its step is off by that factor.
@example(stream=(np.zeros(3), np.array([[1e-12, -2e-12, 5e-13], [1e-12, 1e-12, -1e-12]])),
         eta=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8)
def test_adam_stepper_matches_adam_step(stream, eta, beta1, beta2, epsilon):
    w, grads = stream
    cfg = AdamConfig(eta=eta, beta1=beta1, beta2=beta2, epsilon=epsilon)
    opt, w_ref = AdamOptimizer(len(w), cfg), w.copy()
    m_ref, v_ref = np.zeros(len(w)), np.zeros(len(w))
    for t, g in enumerate(grads, start=1):
        opt.step(w, g)
        w_ref, m_ref, v_ref = adam_step(w_ref, m_ref, v_ref, g, cfg, t)
    assert opt.step_count == len(grads)
    assert np.array_equal(opt.m, m_ref) and np.array_equal(opt.v, v_ref)
    assert close(w, w_ref)


STEPPERS = {
    "sofim": lambda d: SofimOptimizer(d, SofimConfig(eta=0.1, rho=0.5)),
    "sgd_momentum": lambda d: SgdMomentumOptimizer(
        d, SgdConfig(eta=0.1, momentum=0.9, weight_decay=1e-4)),
    "adam": lambda d: AdamOptimizer(d, AdamConfig(eta=0.01)),
}
#: A finite entry this large makes sofim's ||m_hat||^2 overflow: with beta =
#: 0.9, t <= 4 and the other entries at most 1e3, |m_hat_i| > 1e159.
HUGE = st.floats(1e160, 1e300)


def _snapshot(opt) -> dict:
    return {
        name: value.tobytes() if isinstance(value, np.ndarray) else copy.copy(value)
        for name, value in vars(opt).items()
    }


#: Each fault a stepper refuses, with the error it raises.
FAULTS = {"g length": DimensionMismatchError, "g rank": DimensionMismatchError,
          "w length": DimensionMismatchError, "nan": NonFiniteError, "inf": NonFiniteError,
          "-inf": NonFiniteError, "w int64": TypeError, "w float32": TypeError,
          "g int64": TypeError, "g float32": TypeError}
#: Four blocks of 24577 or 24578 elements: each stepper steps over
#: blocks(MULTI_BLOCK_DIM).
MULTI_BLOCK_DIM = 3 * BLOCK + 5


def refuse_each_fault(name, w, grads, data, first_index=0):
    """Warm a fresh stepper on ``grads``, then make every fault in turn, the
    bad entry of ``g`` at or after ``first_index``, and check that each is
    refused without changing ``w`` or any attribute of the stepper."""
    d = len(w)
    opt = STEPPERS[name](d)
    for g in grads:
        opt.step(w, g)
    good = grads[-1]
    wrong = data.draw(st.integers(1, MAX_DIM + 2).filter(lambda n: n != d), label="wrong")
    index = data.draw(st.integers(first_index, good.size - 1), label="index")
    huge = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(HUGE, label="huge")
    for fault in [*FAULTS] + ["overflow"] * (name == "sofim"):
        w_in, g = w, good.copy()
        if fault == "g length":
            g = np.ones(wrong)  # a length-1 g used to be broadcast over w
        elif fault == "g rank":
            g = g[None, :]
        elif fault == "w length":
            w_in = np.zeros(wrong)
        elif fault.startswith("w "):
            w_in = w.astype(fault[2:])
        elif fault.startswith("g "):
            g = g.astype(fault[2:])
        else:
            g[index] = huge if fault == "overflow" else float(fault)
        expected = FAULTS.get(fault, NonFiniteError)
        w_before, state_before = w_in.tobytes(), _snapshot(opt)
        with pytest.raises(expected, match="overflowed" if fault == "overflow" else "g"):
            opt.step(w_in, g)
        assert w_in.tobytes() == w_before, fault
        assert _snapshot(opt) == state_before, fault


@pytest.mark.parametrize("name", STEPPERS)
@PROPERTY
@given(stream=streams(max_steps=3), data=st.data())
def test_refused_step_changes_nothing(name, stream, data):
    """Every fault in turn, sofim's overflow included, on one warm stepper.
    Each stepper is also checked at ``MULTI_BLOCK_DIM``, on the stream
    tiled to that length, with the bad entry in the last block."""
    w, grads = stream
    refuse_each_fault(name, w, grads, data)
    tiled = np.resize(w, MULTI_BLOCK_DIM), np.resize(grads, (len(grads), MULTI_BLOCK_DIM))
    refuse_each_fault(name, *tiled, data, first_index=blocks(MULTI_BLOCK_DIM)[-1].start)


@PROPERTY
@given(stream=streams(max_steps=8), scales=arrays(np.float64, 8, elements=st.integers(140, 156)),
       beta=st.floats(0.0, 0.999))
def test_sofim_refuses_exactly_the_steps_that_overflow(stream, scales, beta):
    """Gradients scaled by 1e140..1e156 straddle the point where ||m_hat||^2
    overflows: the stepper refuses those steps, changing nothing, and takes
    every other step as the reference ``sofim_step`` does, steps its cheap
    bound cannot clear included."""
    w, grads = stream
    cfg = SofimConfig(eta=0.1, rho=0.5, beta=beta)
    opt, w_ref, m_ref, t = SofimOptimizer(len(w), cfg), w.copy(), np.zeros(len(w)), 0
    for g in grads * 10.0 ** scales[: len(grads), None]:
        try:
            w_ref, m_ref = sofim_step(w_ref, m_ref, g, cfg, t + 1)
        except NonFiniteError:
            w_before, state_before = w.tobytes(), _snapshot(opt)
            with pytest.raises(NonFiniteError, match="overflowed"):
                opt.step(w, g)
            assert w.tobytes() == w_before and _snapshot(opt) == state_before
        else:
            opt.step(w, g)
            t += 1
        assert opt.step_count == t
        assert np.array_equal(opt.moment, m_ref)
        assert close(w, w_ref)


@PROPERTY
@given(stream=streams(elements=WIDE), eta=st.floats(1e-4, 10.0),
       rho=st.floats(1e-3, 10.0), beta=st.floats(0.0, 0.999))
def test_sofim_step_length_at_most_eta_over_two_sqrt_rho(stream, eta, rho, beta):
    _, grads = stream
    w = np.zeros(grads.shape[1])
    opt = SofimOptimizer(len(w), SofimConfig(eta=eta, rho=rho, beta=beta))
    bound = eta / (2.0 * math.sqrt(rho))
    for g in grads:
        before = w.copy()
        opt.step(w, g)
        assert np.linalg.norm(w - before) <= bound * (1.0 + 1e-9)


@PROPERTY
@given(g=arrays(np.float64, st.integers(1, MAX_DIM), elements=NORMAL),
       beta=st.floats(0.0, 0.999), steps=st.integers(1, 300))
def test_bias_correction_recovers_a_constant_gradient(g, beta, steps):
    """``beta`` stops at 0.999, as in criterion 03: ``1 - beta**t`` loses about
    ``eps / (1 - beta)`` to cancellation, which passes 1e-12 near 0.99999."""
    opt = SofimOptimizer(len(g), SofimConfig(eta=0.1, rho=0.5, beta=beta))
    w = np.zeros(len(g))
    for _ in range(steps):
        opt.step(w, g)
        m_hat = opt.moment / (1.0 - opt._beta_pow)
        assert np.all(np.abs(m_hat - g) <= 1e-12 * np.abs(g))
