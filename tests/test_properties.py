"""Property tests of the in-place steppers, over random dimensions,
hyperparameters and gradient streams (Hypothesis).

- Each O(d) stepper tracks its functional reference: ``sofim_step``,
  ``sgd_momentum_step`` and ``adam_step``.
- A refused step (wrong shape, NaN or Inf entry) raises and leaves ``w``
  and every attribute of the stepper bitwise unchanged; that holds for the
  dense NGD and Newton oracles too.
- A sofim step is never longer than ``eta / (2 sqrt(rho))``: the length
  ``eta ||m_hat|| / (rho + ||m_hat||^2)`` peaks at ``||m_hat|| = sqrt(rho)``.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sofim.baselines import (
    AdamConfig,
    AdamOptimizer,
    NewtonConfig,
    NewtonOracle,
    NgdConfig,
    NgdOracle,
    SgdConfig,
    SgdMomentumOptimizer,
    adam_step,
    sgd_momentum_step,
)
from sofim.core import SofimConfig, SofimOptimizer, SofimState, sofim_step
from sofim.exceptions import DimensionMismatchError, NonFiniteError

MAX_DIM = 64
FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
#: From subnormal to 1e150: ||m_hat||^2 still fits a float64 at d = 64.
WIDE = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
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
    opt, state, w_ref = SofimOptimizer(len(w), cfg), SofimState.initial(len(w), cfg), w.copy()
    for g in grads:
        opt.step(w, g)
        w_ref, state = sofim_step(w_ref, state, g)
    assert opt.step_count == state.step
    assert np.array_equal(opt.moment, state.moment)
    assert close(w, w_ref)


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
    "ngd_oracle": lambda d: NgdOracle(d, NgdConfig()),
    "newton_oracle": lambda d: NewtonOracle(d, NewtonConfig(), np.eye(d)),
}
#: Steppers whose g is a (B, d) array of per-sample gradients.
PER_SAMPLE = ("ngd_oracle",)


def _snapshot(opt) -> dict:
    return {
        name: value.tobytes() if isinstance(value, np.ndarray) else copy.copy(value)
        for name, value in vars(opt).items()
    }


@pytest.mark.parametrize("name", STEPPERS)
@PROPERTY
@given(stream=streams(max_steps=3), data=st.data())
def test_refused_step_changes_nothing(name, stream, data):
    w, grads = stream
    d = len(w)
    opt = STEPPERS[name](d)
    per_sample = name in PER_SAMPLE
    for g in [grads] if per_sample else grads:
        opt.step(w, g)
    g = (grads if per_sample else grads[-1]).copy()
    wrong = data.draw(st.integers(1, MAX_DIM + 2).filter(lambda n: n != d), label="wrong")
    fault = data.draw(st.sampled_from(["g length", "g rank", "w length", "nan", "inf", "-inf"]))
    if fault == "g length":
        g = np.ones(g.shape[:-1] + (wrong,))  # a length-1 g used to be broadcast over w
    elif fault == "g rank":
        g = g[0] if per_sample else g[None, :]  # NGD needs the (B, d) batch
    elif fault == "w length":
        w = np.zeros(wrong)
    else:
        index = data.draw(st.integers(0, g.size - 1), label="index")
        g[np.unravel_index(index, g.shape)] = float(fault)
    expected = NonFiniteError if fault in ("nan", "inf", "-inf") else DimensionMismatchError
    w_before, state_before = w.tobytes(), _snapshot(opt)
    with pytest.raises(expected, match="g"):
        opt.step(w, g)
    assert w.tobytes() == w_before
    assert _snapshot(opt) == state_before


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
