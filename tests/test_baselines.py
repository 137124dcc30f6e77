"""Reference optimizers: hand-worked examples, dense-oracle cross-checks,
and the rank-one consistency between damped NGD and the O(d) update.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sofim.baselines import (
    DEFAULT_NGD_DAMPING,
    DENSE_FIM_CAP,
    AdamConfig,
    AdamOptimizer,
    EmpiricalFim,
    NewtonConfig,
    NewtonOracle,
    NgdConfig,
    NgdOracle,
    SgdConfig,
    SgdMomentumOptimizer,
    adam_step,
    empirical_fim,
    newton_step_quadratic,
    ngd_step,
    sgd_learning_rate,
    sgd_momentum_step,
)
from sofim.core import SofimConfig, SofimState, sofim_step
from sofim.exceptions import ConfigError, DimensionMismatchError, ScaleCapError
from sofim.problems import LogisticRegressionProblem, make_blobs, make_quadratic


class TestSgdMomentum:
    def test_hand_worked_two_steps(self):
        """w=1, v=0, g=1, eta=0.1, momentum=0.9: w goes 1 -> 0.9 -> 0.71."""
        cfg = SgdConfig(eta=0.1, momentum=0.9)
        w, v = np.array([1.0]), np.array([0.0])
        w, v = sgd_momentum_step(w, v, np.array([1.0]), cfg, 0)
        assert_allclose(w, [0.9], rtol=1e-15)
        assert_allclose(v, [1.0], rtol=0, atol=0)
        w, v = sgd_momentum_step(w, v, np.array([1.0]), cfg, 1)
        assert_allclose(w, [0.71], rtol=1e-14)
        assert_allclose(v, [1.9], rtol=1e-15)

    def test_zero_momentum_is_plain_sgd(self):
        """momentum=0 reduces to w' = w - eta g."""
        rng = np.random.default_rng(42)
        w, g = rng.standard_normal((2, 8))
        w_new, _ = sgd_momentum_step(w, np.zeros(8), g, SgdConfig(eta=0.05), 0)
        assert_allclose(w_new, w - 0.05 * g, rtol=1e-15)

    def test_weight_decay_folds_into_gradient(self):
        """g_eff = g + weight_decay * w enters the velocity."""
        cfg = SgdConfig(eta=0.1, momentum=0.5, weight_decay=0.01)
        w = np.array([2.0])
        _, v = sgd_momentum_step(w, np.array([0.0]), np.array([1.0]), cfg, 0)
        assert_allclose(v, [1.0 + 0.01 * 2.0], rtol=1e-15)

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
        """Bad eta/momentum/schedule combinations are rejected."""
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.0)
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.1, momentum=1.0)
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.1, weight_decay=-1e-6)
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.1, schedule="linear")
        with pytest.raises(ConfigError):
            SgdConfig(eta=0.1, schedule="cosine")

    def test_stepper_matches_functional(self):
        """SgdMomentumOptimizer tracks iterated sgd_momentum_step, cosine included."""
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
        cfg = AdamConfig(eta=0.1)
        w, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
        w1, m1, v1 = adam_step(w, m, v, np.array([1.0]), cfg, 1)
        # m_hat = 1, v_hat = 1: step = eta / (1 + eps)
        assert w1[0] == pytest.approx(-0.1, rel=1e-6)
        assert m1[0] == pytest.approx(0.1)
        assert v1[0] == pytest.approx(0.001)

    def test_two_steps_match_manual(self):
        """Second step agrees with the written-out recurrence."""
        cfg = AdamConfig(eta=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
        g1, g2 = np.array([1.0]), np.array([2.0])
        w, m, v = adam_step(np.zeros(1), np.zeros(1), np.zeros(1), g1, cfg, 1)
        w, m, v = adam_step(w, m, v, g2, cfg, 2)
        m2 = 0.9 * 0.1 + 0.1 * 2.0
        v2 = 0.999 * 0.001 + 0.001 * 4.0
        m_hat = m2 / (1 - 0.9**2)
        v_hat = v2 / (1 - 0.999**2)
        expected = (-0.1 / (1 + 1e-8)) - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert w[0] == pytest.approx(expected, rel=1e-12)

    def test_step_rejects_t_zero(self):
        """Bias correction is undefined at t=0."""
        cfg = AdamConfig(eta=0.1)
        with pytest.raises(ConfigError):
            adam_step(np.zeros(1), np.zeros(1), np.zeros(1), np.ones(1), cfg, 0)

    def test_config_validation(self):
        """Invalid beta and epsilon values are rejected."""
        with pytest.raises(ConfigError):
            AdamConfig(eta=0.1, beta1=1.0)
        with pytest.raises(ConfigError):
            AdamConfig(eta=0.1, beta2=-0.1)
        with pytest.raises(ConfigError):
            AdamConfig(eta=0.1, epsilon=0.0)

    def test_stepper_matches_functional(self):
        """AdamOptimizer tracks iterated adam_step."""
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


class TestEmpiricalFim:
    def test_matches_manual_average(self):
        """F = mean of g_i g_i^T, verified against an explicit loop."""
        rng = np.random.default_rng(42)
        grads = rng.standard_normal((16, 7))
        expected = sum(np.outer(g, g) for g in grads) / 16
        fim = empirical_fim(grads)
        assert_allclose(fim.matrix, expected, rtol=1e-13, atol=1e-14)

    def test_positive_semidefinite_and_symmetric(self):
        """Every empirical Fisher is symmetric PSD."""
        rng = np.random.default_rng(1)
        fim = empirical_fim(rng.standard_normal((5, 40)))
        assert_allclose(fim.matrix, fim.matrix.T, rtol=0, atol=0)
        assert np.min(np.linalg.eigvalsh(fim.matrix)) >= -1e-12

    def test_single_gradient_is_rank_one(self):
        """B=1 gives exactly g g^T."""
        g = np.array([1.0, -2.0, 3.0])
        fim = empirical_fim(g[None, :])
        assert_allclose(fim.matrix, np.outer(g, g), rtol=0, atol=0)
        assert np.linalg.matrix_rank(fim.matrix) == 1

    def test_scale_cap(self):
        """Dimensions above the cap are refused, at the cap accepted."""
        rng = np.random.default_rng(2)
        with pytest.raises(ScaleCapError):
            empirical_fim(rng.standard_normal((2, DENSE_FIM_CAP + 1)))
        fim = empirical_fim(rng.standard_normal((2, DENSE_FIM_CAP)))
        assert fim.dim == DENSE_FIM_CAP

    def test_empty_batch_rejected(self):
        """An empty gradient batch has no Fisher."""
        with pytest.raises(ConfigError):
            empirical_fim(np.empty((0, 3)))

    def test_type_validation(self):
        """Non-square or asymmetric matrices cannot form an EmpiricalFim."""
        with pytest.raises(DimensionMismatchError):
            EmpiricalFim(np.ones((2, 3)))
        bad = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
        with pytest.raises(ConfigError):
            EmpiricalFim(bad)


class TestNgdStep:
    def test_matches_explicit_inverse(self):
        """solve-based step equals the explicit dense inverse."""
        rng = np.random.default_rng(42)
        grads = rng.standard_normal((8, 12))
        w = rng.standard_normal(12)
        fim = empirical_fim(grads).matrix
        a = fim + 0.1 * np.eye(12)
        expected = w - 0.5 * (np.linalg.inv(a) @ grads.mean(axis=0))
        got = ngd_step(w, grads, eta=0.5, damping=0.1)
        assert_allclose(got, expected, rtol=1e-11, atol=1e-13)

    def test_damping_required(self):
        """Zero or negative damping is rejected (batch Fisher is singular),
        by the step and by the oracle's config."""
        grads = np.ones((1, 3))
        with pytest.raises(ConfigError):
            ngd_step(np.zeros(3), grads, eta=0.1, damping=0.0)
        with pytest.raises(ConfigError, match="damping"):
            NgdConfig(damping=-1e-3)
        with pytest.raises(ConfigError, match="eta"):
            NgdConfig(eta=0.0)

    def test_stepper_matches_functional(self):
        """NgdOracle updates w in place exactly as iterated ngd_step."""
        rng = np.random.default_rng(42)
        opt = NgdOracle(12, NgdConfig(eta=0.5, damping=0.1))
        w_fast = rng.standard_normal(12)
        w_ref = w_fast.copy()
        for _ in range(5):
            grads = rng.standard_normal((8, 12))
            opt.step(w_fast, grads)
            w_ref = ngd_step(w_ref, grads, eta=0.5, damping=0.1)
        assert np.array_equal(w_fast, w_ref)

    def test_default_damping_exposed(self):
        assert DEFAULT_NGD_DAMPING == 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ngd_step(np.zeros(4), np.ones((2, 3)), eta=0.1)

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
            g = problem.per_sample_grads(w, batch)
            eta, rho = 0.1, float(rng.uniform(0.05, 2.0))
            dense = ngd_step(w, g, eta=eta, damping=rho)
            state = SofimState.initial(problem.dim, SofimConfig(eta=eta, rho=rho, beta=0.0))
            fast, _ = sofim_step(w, state, g[0])
            err = np.linalg.norm(fast - dense) / max(np.linalg.norm(dense), 1e-12)
            assert err <= 1e-10, f"trial {trial}: relative error {err:.3e}"


class TestNewtonStep:
    def test_full_step_solves_quadratic(self):
        """eta=1 Newton from any point lands on the minimizer."""
        problem = make_quadratic(15, 30.0, seed=3)
        rng = np.random.default_rng(4)
        w0 = problem.initial_point(rng)
        w1 = newton_step_quadratic(w0, problem, eta=1.0)
        assert np.linalg.norm(problem.grad(w1)) <= 1e-9

    def test_partial_step_interpolates(self):
        """eta=0.5 moves halfway to the minimizer in Newton coordinates."""
        problem = make_quadratic(6, 5.0, seed=1)
        rng = np.random.default_rng(2)
        w0 = problem.initial_point(rng)
        w_star = newton_step_quadratic(w0, problem, eta=1.0)
        w_half = newton_step_quadratic(w0, problem, eta=0.5)
        assert_allclose(w_half, 0.5 * (w0 + w_star), rtol=1e-10)

    def test_rejects_indefinite_hessian(self):
        """A problem with a non-PD Hessian is refused."""

        class Indefinite:
            def exact_hessian(self, w):
                return np.diag([1.0, -1.0])

            def grad(self, w, batch=None):
                return np.zeros(2)

        with pytest.raises(ConfigError):
            newton_step_quadratic(np.zeros(2), Indefinite(), eta=1.0)
        with pytest.raises(ConfigError, match="positive definite"):
            NewtonOracle(2, NewtonConfig(), Indefinite().exact_hessian(None))
        with pytest.raises(ConfigError, match="eta"):
            NewtonConfig(eta=-1.0)

    def test_stepper_matches_functional(self):
        """NewtonOracle, given the Hessian once, updates w in place exactly
        as iterated newton_step_quadratic."""
        problem = make_quadratic(15, 30.0, seed=3)
        w_fast = problem.initial_point(np.random.default_rng(4))
        w_ref = w_fast.copy()
        opt = NewtonOracle(15, NewtonConfig(eta=0.5), problem.exact_hessian(w_fast))
        for _ in range(4):
            opt.step(w_fast, problem.grad(w_fast))
            w_ref = newton_step_quadratic(w_ref, problem, eta=0.5)
        assert np.array_equal(w_fast, w_ref)
