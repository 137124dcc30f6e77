"""Core update algebra checked against dense linear-algebra oracles.

The oracles at the top build the d x d matrices the library never forms
and solve them with LAPACK; the sofim stepper's O(d) closed form must
agree.  A beta = 0, eta = 1 step from ``w = 0`` moves ``w`` by exactly
minus the direction (``reference.stepped_direction``), and
``reference.stepped_m_hat`` reads a step's bias-corrected moment back.
The in-place steppers' whole-vector step bodies are kept as oracles for
the three cache-blocked O(d) steps, which must match them bitwise.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sofim
from sofim import cli, harness, problems
from sofim.baselines import (
    AdamConfig,
    AdamOptimizer,
    SgdConfig,
    SgdMomentumOptimizer,
    sgd_learning_rate,
)
from sofim.core import BLOCK, SofimConfig, SofimOptimizer, blocks
from sofim.exceptions import ConfigError, DimensionMismatchError, NonFiniteError

from reference import sherman_morrison_apply, sofim_step, stepped_direction, stepped_m_hat

def dense_rank_one_solve(a_diag, u, v, b):
    """Oracle: solve (a_diag * I + u v^T) x = b with a dense factorization."""
    d = u.shape[0]
    return np.linalg.solve(a_diag * np.eye(d) + np.outer(u, v), b)


def dense_direction(m_hat, rho):
    """Oracle: solve (m_hat m_hat^T + rho I) x = m_hat densely."""
    d = m_hat.shape[0]
    return np.linalg.solve(np.outer(m_hat, m_hat) + rho * np.eye(d), m_hat)


def reference_sofim_trajectory(w0, grads, config):
    """Oracle: run the update recurrence with explicit dense bookkeeping."""
    w = np.array(w0, dtype=np.float64)
    m = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        m = config.beta * m + (1.0 - config.beta) * np.asarray(g, dtype=np.float64)
        m_hat = m / (1.0 - config.beta**t)
        w = w - config.eta * dense_direction(m_hat, config.rho)
    return w


class WholeVectorSofim:
    """``SofimOptimizer.step`` in its former form, as an oracle: each
    operation is one numpy call over all d entries.  Refusals are left out."""

    def __init__(self, dim, config):
        self.config, self.moment = config, np.zeros(dim)
        self.step_count, self._beta_pow, self.last_sq = 0, 1.0, 0.0

    def step(self, w, g):
        beta, beta_pow = self.config.beta, self._beta_pow * self.config.beta
        self.step_count += 1
        self._beta_pow = beta_pow
        m, scratch = self.moment, np.empty(len(w))
        m *= beta
        np.multiply(g, 1.0 - beta, out=scratch)
        m += scratch
        m_hat = np.divide(m, 1.0 - beta_pow, out=scratch)
        sq = self.last_sq = float(np.vdot(m_hat, m_hat))
        m_hat *= self.config.eta / (self.config.rho + sq)
        w -= m_hat


class WholeVectorSgd:
    """``SgdMomentumOptimizer.step`` in its former whole-vector form."""

    def __init__(self, dim, config):
        self.config, self.velocity, self.step_count = config, np.zeros(dim), 0

    def step(self, w, g):
        lr = sgd_learning_rate(self.config, self.step_count)
        v, scratch = self.velocity, np.empty(len(w))
        v *= self.config.momentum
        v += g
        if self.config.weight_decay != 0.0:
            v += np.multiply(w, self.config.weight_decay, out=scratch)
        w -= np.multiply(v, lr, out=scratch)
        self.step_count += 1


class WholeVectorAdam:
    """``AdamOptimizer.step``'s one-divide arithmetic in whole-vector form:
    ``w -= alpha_t m / (sqrt(v) + eps_hat)``, each operation one numpy call
    over all d entries."""

    def __init__(self, dim, config):
        self.config, self.m, self.v, self.step_count = config, np.zeros(dim), np.zeros(dim), 0

    def step(self, w, g):
        self.step_count += 1
        cfg = self.config
        root_bc2 = math.sqrt(1.0 - cfg.beta2**self.step_count)
        alpha = cfg.eta * root_bc2 / (1.0 - cfg.beta1**self.step_count)
        m, v, scratch, denom = self.m, self.v, np.empty(len(w)), np.empty(len(w))
        m *= cfg.beta1
        m += np.multiply(g, 1.0 - cfg.beta1, out=scratch)
        v *= cfg.beta2
        np.square(g, out=scratch)
        v += np.multiply(scratch, 1.0 - cfg.beta2, out=scratch)
        np.sqrt(v, out=denom)
        denom += cfg.epsilon * root_bc2
        np.divide(m, denom, out=scratch)
        scratch *= alpha
        w -= scratch


def test_names_the_benchmark_uses_resolve():
    """Every name in ``sofim.__all__`` resolves, and so do the ones
    ``perfbench/`` reads off the package.  ``perfbench/spans.py`` and
    ``perfbench/child.py`` patch each stepper's ``step`` and the CLI,
    harness and problem functions below through their owner's own
    ``__dict__``, so each keeps its name there."""
    for name in [*sofim.__all__, "SofimConfig", "SofimOptimizer", "KERNEL_BACKEND"]:
        assert hasattr(sofim, name), name
    patched = {
        SofimOptimizer: ["step"], SgdMomentumOptimizer: ["step"], AdamOptimizer: ["step"],
        cli: ["main", "_echo_config"],
        harness: ["sweep", "run_experiment", "scaling_probe", "RunRecord"],
        harness.RunRecord: ["write_csv", "write_summary"],
        problems: ["problem_from_spec", "minibatch_epochs"],
    }
    for owner, names in patched.items():
        for name in names:
            assert name in vars(owner), f"{owner.__name__}.{name}"


def test_every_write_goes_through_the_methods_the_benchmark_wraps(tmp_path, monkeypatch):
    """``perfbench/spans.py`` times a run's CSV and summary by replacing
    ``RunRecord.write_csv`` and ``write_summary`` on the class.  A run's and
    a sweep's ``write`` call both, once per record, so ``--trace 1`` does
    not read 0 for them."""
    calls = []
    for name in ("write_csv", "write_summary"):
        monkeypatch.setattr(harness.RunRecord, name,
                            lambda self, path, name=name: calls.append((name, path.name)))
    cfg = harness.ExperimentConfig(problem={"kind": "quadratic"}, optimizer="sofim")
    record = harness.RunRecord(cfg, "quadratic20", [])
    record.write(tmp_path)
    harness.SweepResult([record, record], None).write(tmp_path)
    stem = record.output_stem()
    assert calls == [("write_csv", f"{stem}.csv"), ("write_summary", f"{stem}_summary.txt")] * 3


class TestShermanMorrison:
    def test_matches_dense_solve(self):
        """100 random instances over d in {5, 20, 50} agree with LAPACK to 1e-10."""
        rng = np.random.default_rng(42)
        for i in range(100):
            d = int(rng.choice([5, 20, 50]))
            a = float(rng.uniform(0.1, 5.0))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            b = rng.standard_normal(d)
            expected = dense_rank_one_solve(a, u, v, b)
            got = sherman_morrison_apply(a, u, v, b)
            err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
            assert err <= 1e-10, f"instance {i}: relative error {err:.3e}"

    def test_solves_the_linear_system(self):
        """The returned x satisfies (a I + u v^T) x = b directly."""
        rng = np.random.default_rng(7)
        a = 0.5
        u, v, b = rng.standard_normal((3, 20))
        x = sherman_morrison_apply(a, u, v, b)
        assert_allclose((a * np.eye(20) + np.outer(u, v)) @ x, b, atol=1e-12)

    def test_zero_update_reduces_to_scaling(self):
        """With u = 0 the result is exactly b / a_diag."""
        b = np.array([1.0, -2.0, 3.0])
        out = sherman_morrison_apply(2.0, np.zeros(3), np.ones(3), b)
        assert_allclose(out, b / 2.0, rtol=0, atol=0)


class TestSofimDirection:
    def test_matches_dense_solve(self):
        """Direction equals the dense solve of (m m^T + rho I) x = m to 1e-10."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(2, 60))
            m_hat = rng.standard_normal(d) * float(rng.uniform(0.1, 10.0))
            rho = float(rng.uniform(0.01, 10.0))
            expected = dense_direction(m_hat, rho)
            got = stepped_direction(m_hat, rho)
            err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
            assert err <= 1e-10

    def test_closed_form_identity(self):
        """Direction equals m_hat / (rho + ||m_hat||^2) to 1e-12 relative."""
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(1, 40))
            m_hat = rng.standard_normal(d)
            rho = float(rng.uniform(0.01, 10.0))
            expected = m_hat / (rho + np.dot(m_hat, m_hat))
            assert_allclose(stepped_direction(m_hat, rho), expected, rtol=1e-12, atol=0)

    def test_parallel_to_moment(self):
        """The direction is a positive multiple of m_hat."""
        m_hat = np.array([3.0, -4.0])
        out = stepped_direction(m_hat, 0.5)
        scale = out[0] / m_hat[0]
        assert scale > 0
        assert_allclose(out, scale * m_hat, rtol=1e-15)

    def test_step_length_bounded(self):
        """||direction|| = r/(rho + r^2) is maximized at r = sqrt(rho)."""
        rho = 0.5
        bound = 1.0 / (2.0 * np.sqrt(rho))
        rng = np.random.default_rng(5)
        for scale in [1e-6, 1e-2, 1.0, 1e2, 1e6]:
            m_hat = scale * rng.standard_normal(30)
            assert np.linalg.norm(stepped_direction(m_hat, rho)) <= bound + 1e-15

    def test_huge_moment_does_not_cancel(self):
        """||m_hat||^2 >> rho is exactly the regime the stable form protects."""
        m_hat = np.full(10, 1e8)
        out = stepped_direction(m_hat, 0.01)
        assert_allclose(out, m_hat / (0.01 + np.dot(m_hat, m_hat)), rtol=1e-15)

    def test_validation(self):
        """rho <= 0 is refused by the config, a non-finite moment by the step."""
        with pytest.raises(ConfigError):
            SofimConfig(eta=0.1, rho=0.0)
        with pytest.raises(ConfigError):
            SofimConfig(eta=0.1, rho=-0.5)
        with pytest.raises(NonFiniteError):
            stepped_direction(np.array([1.0, np.nan]), 0.5)


class TestMomentAndBiasCorrection:
    def test_recurrence_matches_manual_loop(self):
        """The moment follows m_t = beta m_{t-1} + (1-beta) g_t."""
        rng = np.random.default_rng(42)
        beta = 0.9
        opt = SofimOptimizer(6, SofimConfig(eta=0.1, rho=0.5, beta=beta))
        manual, w = np.zeros(6), np.zeros(6)
        for t in range(1, 20):
            g = rng.standard_normal(6)
            manual = beta * manual + (1 - beta) * g
            opt.step(w, g)
            assert opt.step_count == t
            assert_allclose(opt.moment, manual, rtol=1e-15)
            assert_allclose(opt._beta_pow, 0.9**t, rtol=1e-13)

    @pytest.mark.parametrize("beta", [0.0, 0.9, 0.999])
    def test_constant_gradient_identity(self, beta):
        """A constant gradient stream gives m_hat == g to 1e-12 for all t."""
        rng = np.random.default_rng(1)
        g = rng.standard_normal(10)
        scale = np.max(np.abs(g))
        opt = SofimOptimizer(10, SofimConfig(eta=0.1, rho=0.5, beta=beta))
        for _ in range(10_000):
            err = np.max(np.abs(stepped_m_hat(opt, g) - g)) / scale
            assert err <= 1e-12

    def test_bias_correction_denominator(self):
        """After t steps the correction divides by 1 - beta^t."""
        opt = SofimOptimizer(3, SofimConfig(eta=0.1, rho=0.5, beta=0.5))
        g = np.ones(3)
        # m_1 = 0.5, denominator 1 - 0.5 = 0.5
        assert_allclose(stepped_m_hat(opt, g), np.ones(3), rtol=0, atol=0)
        # m_2 = 0.75, denominator 1 - 0.25 = 0.75
        assert_allclose(stepped_m_hat(opt, g), np.ones(3), rtol=1e-15)

    def test_gradient_validation(self):
        """Wrong length and non-finite gradients are rejected."""
        opt = SofimOptimizer(3, SofimConfig(eta=0.1, rho=0.5))
        with pytest.raises(DimensionMismatchError):
            opt.step(np.zeros(3), np.ones(4))
        with pytest.raises(NonFiniteError):
            opt.step(np.zeros(3), np.array([1.0, np.inf, 0.0]))


class TestConfigAndState:
    def test_config_rejects_bad_values(self):
        """eta <= 0, rho <= 0 and beta outside [0, 1) all fail fast."""
        with pytest.raises(ConfigError):
            SofimConfig(eta=0.0, rho=0.5)
        with pytest.raises(ConfigError):
            SofimConfig(eta=0.1, rho=0.0)
        with pytest.raises(ConfigError):
            SofimConfig(eta=0.1, rho=-1.0)
        with pytest.raises(ConfigError):
            SofimConfig(eta=0.1, rho=0.5, beta=1.0)
        with pytest.raises(ConfigError):
            SofimConfig(eta=0.1, rho=0.5, beta=-0.1)
        with pytest.raises(ConfigError):
            SofimConfig(eta=float("nan"), rho=0.5)


class TestSofimStep:
    def test_composition(self):
        """A step from a warm moment equals moment update, bias correction
        and closed-form direction, composed."""
        rng = np.random.default_rng(42)
        cfg = SofimConfig(eta=0.05, rho=0.5, beta=0.9)
        opt = SofimOptimizer(8, cfg)
        w, g0, g = rng.standard_normal((3, 8))
        opt.step(w.copy(), g0)
        m = (1.0 - cfg.beta) * g0
        m = cfg.beta * m + (1.0 - cfg.beta) * g
        m_hat = m / (1.0 - cfg.beta**2)
        expected = w - cfg.eta * m_hat / (cfg.rho + np.dot(m_hat, m_hat))
        opt.step(w, g)
        assert_allclose(w, expected, rtol=1e-14)
        assert opt.step_count == 2

    def test_first_step_direction(self):
        """At t=1 bias correction cancels (1-beta), so m_hat = g exactly."""
        cfg = SofimConfig(eta=0.1, rho=0.5, beta=0.9)
        g = np.array([2.0, 0.0])
        w = np.zeros(2)
        SofimOptimizer(2, cfg).step(w, g)
        expected = -cfg.eta * g / (cfg.rho + 4.0)
        assert_allclose(w, expected, rtol=1e-15)

    def test_matches_dense_reference_trajectory(self):
        """20 steps agree with the dense-solve reference to 1e-10."""
        rng = np.random.default_rng(9)
        cfg = SofimConfig(eta=0.2, rho=0.3, beta=0.8)
        w0 = rng.standard_normal(12)
        grads = [rng.standard_normal(12) for _ in range(20)]
        w, opt = w0.copy(), SofimOptimizer(12, cfg)
        for g in grads:
            opt.step(w, g)
        expected = reference_sofim_trajectory(w0, grads, cfg)
        assert_allclose(w, expected, rtol=1e-10)

    def test_shape_mismatch(self):
        """w and the stepper's dimension must agree."""
        opt = SofimOptimizer(4, SofimConfig(eta=0.1, rho=0.5))
        with pytest.raises(DimensionMismatchError):
            opt.step(np.zeros(3), np.zeros(4))


class TestSofimOptimizer:
    def test_matches_functional_path(self):
        """The in-place stepper tracks the closed-form reference step to 1e-12."""
        rng = np.random.default_rng(42)
        cfg = SofimConfig(eta=0.1, rho=0.5, beta=0.9)
        opt = SofimOptimizer(10, cfg)
        w_fast = rng.standard_normal(10)
        w_ref, m_ref = w_fast.copy(), np.zeros(10)
        for t in range(1, 201):
            g = rng.standard_normal(10)
            opt.step(w_fast, g)
            w_ref, m_ref = sofim_step(w_ref, m_ref, g, cfg, t)
        assert_allclose(w_fast, w_ref, rtol=1e-12, atol=1e-12)
        assert opt.step_count == 200
        assert_allclose(opt.moment, m_ref, rtol=1e-12, atol=1e-12)

    def test_overflow_raises(self):
        """A finite gradient stream that overflows ||m_hat||^2 raises
        NonFiniteError for the overflow, not for g, before ``w`` changes."""
        opt = SofimOptimizer(2, SofimConfig(eta=0.1, rho=0.5, beta=0.0))
        w = np.zeros(2)
        with pytest.raises(NonFiniteError, match="overflowed"):
            opt.step(w, np.full(2, 1e200))
        assert np.array_equal(w, np.zeros(2))

    def test_warm_step_allocates_less_than_one_vector(self):
        """A warm step keeps its intermediates in owned buffers: numpy
        allocates less than one block of float64 inside it, for sofim and
        for the momentum-SGD (with weight decay) and Adam steppers alike.
        Each stepper owns the float64 arrays its docstring states: sofim 2d
        plus a block, SGD d plus a block, Adam 2d plus two blocks."""
        d = 100_000  # four blocks, the last one short
        block = min(d, BLOCK)
        steppers = [
            (SofimOptimizer(d, SofimConfig(eta=0.01, rho=0.5, beta=0.9)), 2 * d + block),
            (SgdMomentumOptimizer(d, SgdConfig(eta=0.01, momentum=0.9, weight_decay=1e-4)),
             d + block),
            (AdamOptimizer(d, AdamConfig(eta=0.01)), 2 * d + 2 * block),
        ]
        for opt, owned in steppers:
            name = type(opt).__name__
            arrays = [a for a in vars(opt).values() if isinstance(a, np.ndarray)]
            assert all(a.dtype == np.float64 for a in arrays), name
            assert sum(a.size for a in arrays) == owned, name
            rng = np.random.default_rng(0)
            w, g = rng.standard_normal(d), rng.standard_normal(d)
            opt.step(w, g)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                opt.step(w, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < block * 8, f"one warm {name} step allocated {peak} bytes at d={d}"

    @pytest.mark.parametrize("d", [21, BLOCK + 1, 3 * BLOCK + 5])
    def test_m_hat_is_written_once_per_step(self, d):
        """After each step ``_m_hat`` holds that step's bias-corrected moment,
        bitwise, and ``last_sq`` is its sum: the second pass scales into the
        block scratch and never writes ``m_hat`` again."""
        opt = SofimOptimizer(d, SofimConfig(eta=0.01, rho=0.5, beta=0.9))
        rng = np.random.default_rng(d)
        w = rng.standard_normal(d)
        for step in range(4):
            opt.step(w, rng.standard_normal(d))
            assert np.array_equal(opt._m_hat, opt.moment / (1.0 - opt._beta_pow)), step
            assert opt.last_sq == float(np.vdot(opt._m_hat, opt._m_hat)), step


class TestBlockedStepsMatchTheirFormerForms:
    """The three O(d) steppers, blocked over :func:`blocks`, keep ``w`` and
    their state bitwise equal to the whole-vector steps above (Adam's in its
    one-divide form), at dimensions on both sides of each block edge and
    over four blocks; sofim's one sum stays over its whole ``m_hat``."""

    CASES = {
        "sofim": (SofimOptimizer, WholeVectorSofim, SofimConfig(eta=0.01, rho=0.5, beta=0.9)),
        "sgd_momentum": (SgdMomentumOptimizer, WholeVectorSgd, SgdConfig(eta=0.05, momentum=0.9)),
        "sgd_decay_cosine": (SgdMomentumOptimizer, WholeVectorSgd, SgdConfig(
            eta=0.05, momentum=0.5, weight_decay=1e-3, schedule="cosine", total_steps=3)),
        "adam": (AdamOptimizer, WholeVectorAdam, AdamConfig(eta=0.01)),
    }

    @pytest.mark.parametrize("d", [1, 21, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("case", CASES)
    def test_bitwise_equal(self, case, d):
        stepper, oracle, cfg = self.CASES[case]
        opt, ref = stepper(d, cfg), oracle(d, cfg)
        rng = np.random.default_rng(d)
        w = rng.standard_normal(d)
        w_ref = w.copy()
        for step in range(4):
            g = rng.standard_normal(d)
            opt.step(w, g)
            ref.step(w_ref, g)
            assert np.array_equal(w, w_ref), step
            for name, value in vars(ref).items():
                assert np.array_equal(getattr(opt, name), value), (step, name)


@pytest.mark.parametrize("n", [0, 1, BLOCK, BLOCK + 1, 10**6])
def test_vector_blocks_are_balanced_and_bounded(n):
    """``blocks(n)``, the steppers' blocks of a d = n vector, covers
    ``range(n)`` once, in order, in the fewest slices of at most BLOCK
    elements, whose sizes differ by at most one: one block up to BLOCK,
    and two of 16384 and 16385 just past it."""
    slices = blocks(n)
    edges = [0] + [s.stop for s in slices]
    assert [s.start for s in slices] == edges[:-1] and edges[-1] == n
    sizes = np.diff(edges)
    assert len(sizes) == -(-n // BLOCK)
    assert n == 0 or (sizes.max() <= BLOCK and sizes.max() - sizes.min() <= 1)
    if n == BLOCK + 1:
        assert sizes.tolist() == [BLOCK // 2, BLOCK // 2 + 1]
