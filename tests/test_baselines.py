"""Baseline optimizers: hand-worked examples, and the rank-one consistency
between damped NGD and the O(d) update.  Each stepper is checked against a
formula-only reference of its update, and the dense NGD reference against
the explicit inverse of its Fisher.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sofim.baselines import (
    AdamConfig,
    AdamOptimizer,
    SgdConfig,
    SgdMomentumOptimizer,
    sgd_learning_rate,
)
from sofim.core import SofimConfig, SofimOptimizer
from sofim.exceptions import ConfigError
from sofim.problems import LogisticRegressionProblem, make_blobs

from reference import adam_step, ngd_step, sgd_momentum_step


class TestSgdMomentum:
    def test_hand_worked_two_steps(self):
        """w=1, v=0, g=1, eta=0.1, momentum=0.9: w goes 1 -> 0.9 -> 0.71."""
        opt = SgdMomentumOptimizer(1, SgdConfig(eta=0.1, momentum=0.9))
        w = np.array([1.0])
        opt.step(w, np.array([1.0]))
        assert_allclose(w, [0.9], rtol=1e-15)
        assert_allclose(opt.velocity, [1.0], rtol=0, atol=0)
        opt.step(w, np.array([1.0]))
        assert_allclose(w, [0.71], rtol=1e-14)
        assert_allclose(opt.velocity, [1.9], rtol=1e-15)

    def test_zero_momentum_is_plain_sgd(self):
        """momentum=0 reduces to w' = w - eta g at every step, not only the
        first, whose velocity starts at zero for any momentum."""
        rng = np.random.default_rng(42)
        w, g1, g2 = rng.standard_normal((3, 8))
        opt, w_new = SgdMomentumOptimizer(8, SgdConfig(eta=0.05, momentum=0.0)), w.copy()
        opt.step(w_new, g1)
        opt.step(w_new, g2)
        assert_allclose(w_new, w - 0.05 * g1 - 0.05 * g2, rtol=1e-14)

    def test_weight_decay_folds_into_gradient(self):
        """g_eff = g + weight_decay * w enters the velocity."""
        opt = SgdMomentumOptimizer(1, SgdConfig(eta=0.1, momentum=0.5, weight_decay=0.01))
        opt.step(np.array([2.0]), np.array([1.0]))
        assert_allclose(opt.velocity, [1.0 + 0.01 * 2.0], rtol=1e-15)

    def test_cosine_schedule_endpoints(self):
        """Cosine annealing starts at eta and ends at 0."""
        cfg = SgdConfig(eta=0.4, momentum=0.9, schedule="cosine", total_steps=100)
        assert sgd_learning_rate(cfg, 0) == pytest.approx(0.4)
        assert sgd_learning_rate(cfg, 50) == pytest.approx(0.2)
        assert sgd_learning_rate(cfg, 100) == pytest.approx(0.0, abs=1e-17)
        # Clamped past the horizon, never negative.
        assert sgd_learning_rate(cfg, 500) == pytest.approx(0.0, abs=1e-17)

    def test_cosine_schedule_monotone(self):
        """The cosine schedule never increases."""
        cfg = SgdConfig(eta=1.0, momentum=0.0, schedule="cosine", total_steps=37)
        rates = [sgd_learning_rate(cfg, s) for s in range(40)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_config_validation(self):
        """Bad eta/momentum/weight_decay/schedule combinations are rejected,
        a NaN weight decay included."""
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.0)
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.1, momentum=1.0)
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.1, weight_decay=-1e-6)
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.1, weight_decay=float("nan"))
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.1, schedule="linear")
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.1, schedule="cosine")

    def test_stepper_matches_functional(self):
        """SgdMomentumOptimizer tracks the iterated reference step, cosine included."""
        rng = np.random.default_rng(42)
        cfg = SgdConfig(eta=0.1, momentum=0.9, weight_decay=1e-6,
                        schedule="cosine", total_steps=50)
        opt = SgdMomentumOptimizer(6, cfg)
        w_fast = rng.standard_normal(6)
        w_ref, v_ref = w_fast.copy(), np.zeros(6)
        for s in range(50):
            g = rng.standard_normal(6)
            opt.step(w_fast, g)
            w_ref, v_ref = sgd_momentum_step(w_ref, v_ref, g, cfg, s)
        assert_allclose(w_fast, w_ref, rtol=1e-12, atol=1e-13)
        assert_allclose(opt.velocity, v_ref, rtol=1e-12, atol=1e-13)


class TestAdam:
    def test_first_step_size(self):
        """From zero state the first step has magnitude ~eta regardless of |g|."""
        opt, w = AdamOptimizer(1, AdamConfig(eta=0.1)), np.zeros(1)
        opt.step(w, np.array([1.0]))
        # m_hat = 1, v_hat = 1: step = eta / (1 + eps)
        assert w[0] == pytest.approx(-0.1, rel=1e-6)
        assert opt.m[0] == pytest.approx(0.1)
        assert opt.v[0] == pytest.approx(0.001)

    def test_two_steps_match_manual(self):
        """Second step agrees with the written-out recurrence."""
        opt = AdamOptimizer(1, AdamConfig(eta=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8))
        w = np.zeros(1)
        opt.step(w, np.array([1.0]))
        opt.step(w, np.array([2.0]))
        m2 = 0.9 * 0.1 + 0.1 * 2.0
        v2 = 0.999 * 0.001 + 0.001 * 4.0
        m_hat = m2 / (1 - 0.9**2)
        v_hat = v2 / (1 - 0.999**2)
        expected = (-0.1 / (1 + 1e-8)) - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert w[0] == pytest.approx(expected, rel=1e-12)

    def test_config_validation(self):
        """Invalid beta and epsilon values are rejected."""
        with pytest.raises(ConfigError):
            AdamConfig(eta=0.1, beta1=1.0)
        with pytest.raises(ConfigError):
            AdamConfig(eta=0.1, beta2=-0.1)
        with pytest.raises(ConfigError):
            AdamConfig(eta=0.1, epsilon=0.0)

    def test_stepper_matches_functional(self):
        """AdamOptimizer tracks the iterated reference step."""
        rng = np.random.default_rng(42)
        cfg = AdamConfig(eta=0.01)
        opt = AdamOptimizer(5, cfg)
        w_fast = rng.standard_normal(5)
        w_ref = w_fast.copy()
        m_ref, v_ref = np.zeros(5), np.zeros(5)
        for t in range(1, 40):
            g = rng.standard_normal(5)
            opt.step(w_fast, g)
            w_ref, m_ref, v_ref = adam_step(w_ref, m_ref, v_ref, g, cfg, t)
        assert_allclose(w_fast, w_ref, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("config,field", [
    (SofimConfig, "eta"), (SofimConfig, "rho"), (SgdConfig, "eta"), (SgdConfig, "weight_decay"),
    (AdamConfig, "eta"), (AdamConfig, "epsilon"),
])
def test_infinite_hyperparameter_refused(config, field):
    """Each config refuses an infinite value with a ConfigError naming the
    field, as the CLI's conversion does: ``eta = inf`` would write ``inf``
    into ``w``."""
    with pytest.raises(ConfigError, match=f"^{field} must be finite and .*, got inf$"):
        config(**{field: math.inf})


class TestNgdStep:
    def test_matches_explicit_inverse(self):
        """Five reference NGD steps equal the steps with the explicit dense
        inverse of the Fisher built from explicit outer products."""
        rng = np.random.default_rng(42)
        w = rng.standard_normal(12)
        expected = w.copy()
        for _ in range(5):
            grads = rng.standard_normal((8, 12))
            fim = sum(np.outer(g, g) for g in grads) / 8
            expected -= 0.5 * (np.linalg.inv(fim + 0.1 * np.eye(12)) @ grads.mean(axis=0))
            w = ngd_step(w, grads, 0.5, 0.1)
            assert_allclose(w, expected, rtol=1e-11, atol=1e-13)

    def test_rank_one_matches_sofim_first_step(self):
        """Batch-size-1 damped NGD equals the rank-one update with beta=0.

        Dual route: NGD builds the dense (g g^T + rho I) and solves with
        LAPACK; the O(d) path uses the closed form.  Checked on random
        logistic instances.
        """
        rng = np.random.default_rng(42)
        dataset = make_blobs(60, 9, 2, 3.0, 0)
        problem = LogisticRegressionProblem(dataset)
        for trial in range(100):
            w = rng.standard_normal(problem.dim)
            batch = rng.integers(0, problem.n_train, size=1)
            g = problem.grad(w, batch)[None, :]
            eta, rho = 0.1, float(rng.uniform(0.05, 2.0))
            dense = ngd_step(w, g, eta, rho)
            fast = w.copy()
            SofimOptimizer(problem.dim, SofimConfig(eta=eta, rho=rho, beta=0.0)).step(fast, g[0])
            err = np.linalg.norm(fast - dense) / max(np.linalg.norm(dense), 1e-12)
            assert err <= 1e-10, f"trial {trial}: relative error {err:.3e}"
