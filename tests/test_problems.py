"""Test problems and datasets: finite-difference gradient oracles, loss
identities at known points, dataset determinism, and CSV loading.
"""

import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from sofim import core, problems
from sofim.core import BLOCK
from sofim.exceptions import ConfigError, DimensionMismatchError
from sofim.problems import (
    Dataset,
    LogisticRegressionProblem,
    MlpProblem,
    QuadraticProblem,
    SoftmaxRegressionProblem,
    finite_difference_gradient,
    gradient_check,
    load_csv_dataset,
    make_blobs,
    make_quadratic,
    minibatch_epochs,
    problem_from_spec,
)


#: Every optional problem key at the default it had before the keys and
#: defaults moved into one table, written out as literals; the MLP keys
#: apply to ``model: mlp`` only.
MLP_DEFAULTS = {"hidden": 32, "activation": "tanh"}
FORMER_DEFAULTS = {
    "quadratic": {"dim": 20, "condition_number": 10.0, "seed": 0},
    "blobs": {"n": 2000, "p": 20, "classes": 2, "spread": 3.0, "seed": 0, "model": "logistic"},
    "csv": {"label_column": "label", "split_fraction": 0.8, "seed": 0, "model": "logistic"},
}


def blobs2():
    return make_blobs(200, 6, 2, 3.0, 0)


def blobs3():
    return make_blobs(240, 5, 3, 3.0, 1)


def problem_zoo():
    """One instance of every problem family, with its gradient tolerance."""
    ds2, ds3 = blobs2(), blobs3()
    return [
        ("quadratic", make_quadratic(12, 10.0, 0), 1e-8),
        ("logistic", LogisticRegressionProblem(ds2), 1e-6),
        ("softmax", SoftmaxRegressionProblem(ds3), 1e-6),
        ("mlp_tanh", MlpProblem(ds3, 7, "tanh"), 1e-5),
        ("mlp_relu", MlpProblem(ds3, 7, "relu"), 1e-5),
    ]


class TestGradientOracle:
    @pytest.mark.parametrize("label,problem,tol",
                             problem_zoo(), ids=lambda v: v if isinstance(v, str) else "")
    def test_finite_differences(self, label, problem, tol):
        """Central differences reproduce every analytic gradient."""
        rng = np.random.default_rng(42)
        err = gradient_check(problem, rng, n_points=5)
        assert err <= tol, f"{label}: max relative error {err:.3e} > {tol:g}"

    @pytest.mark.parametrize("label,problem,tol",
                             problem_zoo(), ids=lambda v: v if isinstance(v, str) else "")
    def test_batch_grad_is_mean_of_per_sample(self, label, problem, tol):
        """grad(w, batch) equals the mean of the one-row gradients grad(w, [i])."""
        rng = np.random.default_rng(7)
        w = problem.initial_point(rng) + 0.1 * rng.standard_normal(problem.dim)
        batch = rng.integers(0, problem.n_train, size=min(9, problem.n_train))
        batch = None if problem.n_train == 1 else batch
        rows = range(problem.n_train) if batch is None else batch
        mean_grad = np.mean([problem.grad(w, [i]) for i in rows], axis=0)
        assert_allclose(problem.grad(w, batch), mean_grad, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("on", ["batch", "full"])
    @pytest.mark.parametrize("label,problem,tol",
                             problem_zoo(), ids=lambda v: v if isinstance(v, str) else "")
    def test_fused_calls_equal_separate_calls(self, label, problem, tol, on):
        """loss_and_grad is bitwise the pair (loss, grad)."""
        rng = np.random.default_rng(5)
        w = problem.initial_point(rng) + 0.1 * rng.standard_normal(problem.dim)
        batch = rng.integers(0, problem.n_train, size=9) if on == "batch" else None
        loss, g = problem.loss_and_grad(w, batch)
        assert loss == problem.loss(w, batch)
        assert np.array_equal(g, problem.grad(w, batch))

    @pytest.mark.parametrize("on", ["batch", "full"])
    @pytest.mark.parametrize("label,problem,tol",
                             problem_zoo(), ids=lambda v: v if isinstance(v, str) else "")
    def test_returned_gradient_is_not_aliased(self, label, problem, tol, on):
        """Writing into a returned gradient changes neither w nor the next
        call's result: no gradient is a view of the problem's or the
        caller's arrays."""
        rng = np.random.default_rng(3)
        w = problem.initial_point(rng) + 0.1 * rng.standard_normal(problem.dim)
        w_before = w.copy()
        batch = rng.integers(0, problem.n_train, size=9) if on == "batch" else None
        for call in (problem.loss_and_grad, lambda w, batch: (None, problem.grad(w, batch))):
            loss, g = call(w, batch)
            expected = g.copy()
            g += 1.0
            again = call(w, batch)
            assert again[0] == loss and np.array_equal(again[1], expected)
            assert not np.shares_memory(again[1], g)
            assert np.array_equal(w, w_before)

    @pytest.mark.parametrize("shape", [(1,), ()])
    @pytest.mark.parametrize("label,problem,tol",
                             problem_zoo(), ids=lambda v: v if isinstance(v, str) else "")
    def test_w_of_a_wrong_shape_is_refused(self, label, problem, tol, shape):
        """Every problem refuses a ``w`` that is not of shape ``(dim,)``
        rather than broadcasting it."""
        w = np.zeros(shape)
        for call in (problem.loss, problem.loss_and_grad, problem.test_loss):
            with pytest.raises(DimensionMismatchError, match=rf"shape \({problem.dim},\)"):
                call(w)

    def test_problem_with_only_a_loss_has_no_gradient(self):
        """The base class derives the gradient from the fused call only, so a
        problem that implements just ``loss`` fails with NotImplementedError,
        not a recursion between two defaults."""

        class LossOnly(problems.Problem):
            dim = 2

            def loss(self, w, batch=None):
                return float(self._check_w(w) @ w)

        with pytest.raises(NotImplementedError):
            LossOnly().grad(np.zeros(2))

    @pytest.mark.parametrize("label", ["logistic", "softmax", "mlp_tanh", "mlp_relu"])
    def test_public_methods_leave_their_inputs_unchanged(self, label):
        """No public method writes into ``w`` or the train and test features,
        bitwise, on a batch or on a full split: the forward pass works in
        its own buffers."""
        problem = {name: prob for name, prob, _ in problem_zoo()}[label]
        rng = np.random.default_rng(8)
        w = rng.standard_normal(problem.dim)
        watched = (w, problem._x_train, problem._x_test)
        before = [a.copy() for a in watched]
        batch = rng.integers(0, problem.n_train, size=9)
        for call in (problem.loss, problem.loss_and_grad):
            call(w, batch)
            call(w)
        problem.test_loss(w)
        problem.test_accuracy(w)
        for array, copy in zip(watched, before):
            assert same_bits(array, copy)

    @pytest.mark.parametrize("nan_calls", [None, 1], ids=["every-point", "first-point"])
    def test_nan_gradient_propagates(self, monkeypatch, nan_calls):
        """A NaN gradient at any checked point makes the error NaN, so no
        tolerance passes it; a later finite point does not hide it."""
        problem = make_quadratic(5, 10.0, 0)
        exact, calls = problem.grad, []

        def grad(w, batch=None):
            calls.append(w)
            if nan_calls is None or len(calls) <= nan_calls:
                return np.full(problem.dim, np.nan)
            return exact(w, batch)

        monkeypatch.setattr(problem, "grad", grad)
        assert math.isnan(gradient_check(problem, np.random.default_rng(0), n_points=3))
        assert len(calls) == 3

    def test_finite_difference_helper(self):
        """The helper itself differentiates a known polynomial."""
        f = lambda w: float(w[0] ** 2 + 3.0 * w[1])
        grad = finite_difference_gradient(f, np.array([2.0, 5.0]))
        assert_allclose(grad, [4.0, 3.0], rtol=1e-9)


def reference_logits(problem, w, x):
    """Class logits of raw features ``x``, read from the documented flat
    parameter layout of ``problem``."""
    if isinstance(problem, LogisticRegressionProblem):
        z = x @ w[:-1] + w[-1]  # the bias is the last weight
        return np.column_stack([np.zeros_like(z), z])  # P(y=1) = sigmoid(z)
    if isinstance(problem, SoftmaxRegressionProblem):
        return x @ w.reshape(problem.num_classes, problem.n_features).T
    p, h, c = problem.widths
    w1, b1 = w[: h * p].reshape(h, p), w[h * p : h * p + h]
    w2, b2 = w[h * p + h : -c].reshape(c, h), w[-c:]
    z1 = x @ w1.T + b1
    hidden = np.tanh(z1) if problem.activation == "tanh" else np.maximum(z1, 0.0)
    return hidden @ w2.T + b2


def reference_cross_entropy(logits, y):
    """Mean over rows of ``log(sum(exp(logits))) - logits[y]``."""
    top = logits.max(axis=1)
    log_norm = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    return float(np.mean(log_norm - logits[np.arange(len(y)), y]))


class TestReferenceValues:
    @pytest.mark.parametrize("label", ["logistic", "softmax", "mlp_tanh", "mlp_relu"])
    def test_losses_and_accuracy_match_plain_numpy(self, label):
        """At seeded random w, loss(w, batch), loss(w) and test_loss(w) match
        a cross-entropy computed here from the documented layout, and
        test_accuracy(w) is exactly the argmax accuracy of the same logits."""
        problem = {name: prob for name, prob, _ in problem_zoo()}[label]
        ds = blobs2() if label == "logistic" else blobs3()
        x_train, y_train = ds.features[ds.train_idx], ds.labels[ds.train_idx]
        x_test, y_test = ds.features[ds.test_idx], ds.labels[ds.test_idx]
        rng = np.random.default_rng(11)
        for _ in range(3):
            w = rng.standard_normal(problem.dim)
            batch = rng.integers(0, problem.n_train, size=17)
            cases = [
                (problem.loss(w, batch), x_train[batch], y_train[batch]),
                (problem.loss(w), x_train, y_train),
                (problem.test_loss(w), x_test, y_test),
            ]
            for value, x, y in cases:
                expected = reference_cross_entropy(reference_logits(problem, w, x), y)
                assert value == pytest.approx(expected, rel=1e-12)
            pred = np.argmax(reference_logits(problem, w, x_test), axis=1)
            assert problem.test_accuracy(w) == float(np.mean(pred == y_test))


def split_problem(model, n, hidden=32):
    """A problem over random rows with train and test splits of ``n`` rows
    each: ``logistic`` (3 features), ``softmax`` (20 features, 100
    classes), or an MLP of widths (20, hidden, 5) with activation
    ``model``."""
    rng = np.random.default_rng(n)
    classes = {"logistic": 2, "softmax": 100}.get(model, 5)
    p = 3 if model == "logistic" else 20
    ds = Dataset(rng.standard_normal((2 * n, p)), rng.integers(0, classes, 2 * n),
                 train_idx=np.arange(n), test_idx=np.arange(n, 2 * n), num_classes=classes)
    if model == "logistic":
        return LogisticRegressionProblem(ds)
    if model == "softmax":
        return SoftmaxRegressionProblem(ds)
    return MlpProblem(ds, hidden, model)


def one_pass(problem, w, x, y):
    """The former full-split evaluation, as an oracle: the mean loss and
    the accuracy from one forward pass over all rows of ``x``."""
    outputs = problem._forward(w, x)[0]
    hits = np.count_nonzero(problem.head.predict(outputs) == y)
    return float(problem.head.losses(outputs, y).mean()), hits / len(y)


#: Rows in one evaluation block: BLOCK elements of each model's widest
#: per-row intermediate (the logit, 100 logits, the 32-wide hidden layer).
BLOCK_ROWS = {"logistic": BLOCK, "softmax": BLOCK // 100, "tanh": BLOCK // 32,
              "relu": BLOCK // 32}


class TestBlockedEvaluation:
    @pytest.mark.parametrize("blocks,extra", [(1, 0), (3, 0), (2, 1), (3, 2)],
                             ids=["one-block", "exact-multiple", "multiple-plus-one",
                                  "two-row-tail"])
    @pytest.mark.parametrize("model", ["logistic", "softmax", "tanh", "relu"])
    def test_full_splits_match_one_pass_bitwise(self, model, blocks, extra):
        """loss(w), test_loss(w) and test_accuracy(w) over a split of one
        block, of exactly three, of two blocks and a row, and of three
        blocks and two rows (fixed-size blocks would end in a 2-row tail)
        are bitwise those of one pass over the whole split."""
        n = blocks * BLOCK_ROWS[model] + extra
        problem = split_problem(model, n)
        assert len(core.blocks(n, problem._row_width)) == blocks + (extra > 0)
        w = np.random.default_rng(1).standard_normal(problem.dim)
        train_loss = one_pass(problem, w, problem._x_train, problem._y_train)[0]
        test_loss, accuracy = one_pass(problem, w, problem._x_test, problem._y_test)
        assert problem.loss(w).hex() == train_loss.hex()
        assert problem.test_loss(w).hex() == test_loss.hex()
        assert problem.test_accuracy(w) == accuracy

    @pytest.mark.parametrize("model", ["softmax", "tanh", "relu"])
    def test_fused_full_split_loss_equals_blocked_loss(self, model):
        """On a full split of two blocks and a row, the one-pass loss of
        loss_and_grad is bitwise the blocked loss(w): the fused call keeps
        its contract at the shipped shapes."""
        n = 2 * BLOCK_ROWS[model] + 1
        problem = split_problem(model, n)
        w = np.random.default_rng(6).standard_normal(problem.dim)
        assert len(core.blocks(n, problem._row_width)) == 3
        loss = problem.loss(w)
        assert problem.loss_and_grad(w)[0].hex() == loss.hex()

    @pytest.mark.parametrize("model", ["logistic", "softmax", "tanh"])
    @pytest.mark.parametrize("n", [1, 1024, 1025, 4000, 32769, 98306])
    def test_row_blocks_are_balanced_and_bounded(self, model, n):
        """The blocks cover every row once, in order, as few as hold at most
        BLOCK elements of the widest per-row intermediate each, and their
        sizes differ by at most one: 4000 MLP rows are 4 blocks of 1000."""
        problem = split_problem(model, 1)
        blocks = core.blocks(n, problem._row_width)
        sizes = [rows.stop - rows.start for rows in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) <= BLOCK_ROWS[model] and max(sizes) - min(sizes) <= 1
        assert len(blocks) == -(-n // BLOCK_ROWS[model])
        if (model, n) == ("tanh", 4000):
            assert sizes == [1000] * 4

    def test_wide_hidden_layer_stays_within_rounding(self):
        """A 300-wide hidden layer evaluates in 109-row blocks.  There the
        BLAS may round a block's products differently from a whole split's,
        so the losses agree with one pass to rounding, not bitwise."""
        n = 3 * (BLOCK // 300)
        problem = split_problem("tanh", n, hidden=300)
        w = np.random.default_rng(4).standard_normal(problem.dim)
        assert len(core.blocks(n, problem._row_width)) == 3
        assert problem.loss(w) == pytest.approx(
            one_pass(problem, w, problem._x_train, problem._y_train)[0], rel=1e-13)
        test_loss, accuracy = one_pass(problem, w, problem._x_test, problem._y_test)
        assert problem.test_loss(w) == pytest.approx(test_loss, rel=1e-13)
        assert problem.test_accuracy(w) == accuracy

    def test_full_split_loss_memory_is_bounded_by_the_block(self):
        """One loss(w) over 4000 train rows of a hidden-32 MLP allocates at
        most two blocks' worth of float64s at its peak (one pass held a
        4000 x 32 hidden layer plus the 4000 x 5 head temporaries, about
        1.2 MB)."""
        problem = problem_from_spec({"kind": "blobs", "n": 5000, "p": 20, "classes": 5,
                                     "model": "mlp", "hidden": 32})
        w = problem.initial_point(np.random.default_rng(0))
        problem.loss(w)
        tracemalloc.start()
        try:
            problem.loss(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problem.n_train == 4000
        assert peak <= 2 * BLOCK * 8

    @pytest.mark.parametrize("model", ["logistic", "softmax", "mlp"])
    def test_dataset_features_are_freed_once_the_problem_is_built(self, monkeypatch, model):
        """A built problem holds its gathered splits, not the dataset, so
        the full feature matrix dies when problem_from_spec returns."""
        made = []

        def recording_make_blobs(*args):
            made.append(make_blobs(*args))
            return made[-1]

        monkeypatch.setattr(problems, "make_blobs", recording_make_blobs)
        problem = problem_from_spec({"kind": "blobs", "n": 50, "p": 3, "model": model})
        features = weakref.ref(made.pop().features)
        assert features() is None
        assert (problem.n_train, problem.n_test) == (40, 10)


def masked_sigmoid_residual(z, y):
    """The sigmoid residual in its former two-branch form, as an oracle:
    ``1 / (1 + exp(-z))`` on ``z >= 0`` and ``exp(z) / (1 + exp(z))`` on
    ``z < 0``, gathered and scattered through boolean masks."""
    s = np.empty_like(z)
    pos = z >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    s[~pos] = ez / (1.0 + ez)
    return s - y


def rowmax_log_softmax(logits):
    """The log-softmax in its former form, as an oracle: the row max taken
    with ``max(axis=1)``."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def rowmax_softmax_losses_and_residual(logits, y):
    """The softmax head's losses and residual in their former form."""
    log_p, rows = rowmax_log_softmax(logits), np.arange(logits.shape[0])
    r = np.exp(log_p)
    r[rows, y] -= 1.0
    return -log_p[rows, y], r


def same_bits(a, b):
    """Bitwise equal: signs of zeros and NaN bits included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


TINY = 5e-324  # the smallest subnormal
SPECIAL_Z = [0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, 2.2250738585072014e-308,
             745.0, -745.0, 745.2, -745.2, 1e308, -1e308, np.inf, -np.inf]
HEADS = settings(deadline=None, max_examples=200)


class TestHeadsMatchTheirFormerForms:
    """The one-exp sigmoid residual and the transposed row max are bitwise
    the masked two-branch sigmoid and the ``max(axis=1)`` log-softmax they
    replaced, on the values where floating point is most fragile."""

    @HEADS
    @given(z=arrays(np.float64, st.integers(1, 40), elements=st.one_of(
               st.sampled_from(SPECIAL_Z), st.floats(allow_nan=False))),
           data=st.data())
    def test_sigmoid_residual(self, z, data):
        y = data.draw(arrays(np.int64, z.shape, elements=st.integers(0, 1)), label="y")
        with np.errstate(all="ignore"):  # inf * 0 in the loss of an infinite z
            losses, residual = problems._SigmoidHead().losses_and_residual(z, y)
            assert same_bits(losses, np.logaddexp(0.0, z) - y * z)
        assert same_bits(residual, masked_sigmoid_residual(z, y))

    def test_sigmoid_residual_at_every_special_value(self):
        z = np.array(SPECIAL_Z)
        for y in (np.zeros(len(z), np.int64), np.ones(len(z), np.int64)):
            with np.errstate(all="ignore"):
                residual = problems._SigmoidHead().losses_and_residual(z, y)[1]
            assert same_bits(residual, masked_sigmoid_residual(z, y))

    @HEADS
    @given(classes=st.sampled_from([2, 5, 100]), rows=st.integers(1, 12), data=st.data())
    def test_log_softmax_and_softmax_residual(self, classes, rows, data):
        # Few distinct values make ties, signed zeros tie each other, -inf
        # and NaN make rows with infinite and undefined maxima.
        elements = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.5, -np.inf, np.nan, 1e308, -1e308]),
            st.floats(-1e3, 1e3))
        logits = data.draw(arrays(np.float64, (rows, classes), elements=elements), label="logits")
        if data.draw(st.booleans(), label="nan row"):
            logits[data.draw(st.integers(0, rows - 1), label="row")] = np.nan
        y = data.draw(arrays(np.int64, rows, elements=st.integers(0, classes - 1)), label="y")
        with np.errstate(all="ignore"):  # -inf - -inf and inf - inf make NaN
            assert same_bits(problems._log_softmax(logits), rowmax_log_softmax(logits))
            new = problems._SoftmaxHead().losses_and_residual(logits, y)
            old = rowmax_softmax_losses_and_residual(logits, y)
            assert same_bits(problems._SoftmaxHead().losses(logits, y), old[0])
        assert same_bits(new[0], old[0]) and same_bits(new[1], old[1])

    def test_softmax_residual_of_a_fortran_ordered_batch(self):
        """The residual is written in C order whatever the logits' layout."""
        rng = np.random.default_rng(0)
        logits, y = np.asfortranarray(rng.standard_normal((7, 5))), rng.integers(0, 5, 7)
        new = problems._SoftmaxHead().losses_and_residual(logits, y)
        old = rowmax_softmax_losses_and_residual(logits, y)
        assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])


class TestConvexity:
    @pytest.mark.parametrize("factory", [
        lambda: LogisticRegressionProblem(blobs2()),
        lambda: SoftmaxRegressionProblem(blobs3()),
    ], ids=["logistic", "softmax"])
    def test_midpoint_convexity(self, factory):
        """loss(midpoint) <= mean of endpoint losses along random segments."""
        problem = factory()
        rng = np.random.default_rng(42)
        for _ in range(25):
            w1 = rng.standard_normal(problem.dim)
            w2 = rng.standard_normal(problem.dim)
            mid = problem.loss(0.5 * (w1 + w2))
            assert mid <= 0.5 * (problem.loss(w1) + problem.loss(w2)) + 1e-10


class TestQuadratic:
    def test_minimum_at_w_star(self):
        """Loss and gradient vanish at the constructed minimizer."""
        problem = make_quadratic(10, 25.0, seed=3)
        assert problem.loss(problem.w_star) == 0.0
        assert_allclose(problem.grad(problem.w_star), np.zeros(10), atol=1e-12)

    def test_conditioning(self):
        """Eigenvalues span exactly [1, condition_number]."""
        problem = make_quadratic(20, 10.0, seed=0)
        eigs = np.linalg.eigvalsh(problem.a_matrix)
        assert eigs.min() == pytest.approx(1.0, rel=1e-9)
        assert eigs.max() == pytest.approx(10.0, rel=1e-9)

    def test_deterministic_in_seed(self):
        """Same seed, same problem; different seed, different problem."""
        a = make_quadratic(8, 50.0, seed=5)
        b = make_quadratic(8, 50.0, seed=5)
        c = make_quadratic(8, 50.0, seed=6)
        assert_allclose(a.a_matrix, b.a_matrix, rtol=0, atol=0)
        assert_allclose(a.w_star, b.w_star, rtol=0, atol=0)
        assert not np.allclose(a.w_star, c.w_star)

    def test_test_metrics_mirror_train(self):
        """Single-sample problem: test loss equals train loss, no accuracy."""
        problem = make_quadratic(5, 2.0, seed=1)
        w = np.ones(5)
        assert problem.test_loss(w) == problem.loss(w)
        assert math.isnan(problem.test_accuracy(w))

    def test_construction_validation(self):
        """Asymmetric, indefinite or NaN matrices, bad shapes and a NaN
        condition number are rejected."""
        with pytest.raises(ConfigError):
            QuadraticProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ConfigError):
            QuadraticProblem(np.diag([1.0, -1.0]), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            QuadraticProblem(np.eye(3), np.zeros(2))
        with pytest.raises(ConfigError):
            make_quadratic(0, 10.0, 0)
        with pytest.raises(ConfigError):
            make_quadratic(5, 0.5, 0)
        with pytest.raises(ConfigError):
            QuadraticProblem(np.full((2, 2), np.nan), np.zeros(2))
        with pytest.raises(ConfigError):
            make_quadratic(5, np.nan, 0)


class TestLogistic:
    def test_zero_weights_loss_is_log_two(self):
        """At w=0 every per-sample NLL is exactly log 2."""
        problem = LogisticRegressionProblem(blobs2())
        w = np.zeros(problem.dim)
        assert problem.loss(w) == pytest.approx(math.log(2.0), rel=1e-15)
        assert problem.test_loss(w) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_zero_weights_predicts_class_zero(self):
        """z=0 ties break to the lowest class index."""
        ds = blobs2()
        acc = LogisticRegressionProblem(ds).test_accuracy(np.zeros(ds.n_features + 1))
        y_test = ds.labels[ds.test_idx]
        assert acc == pytest.approx(float(np.mean(y_test == 0)))

    def test_bias_column_appended(self):
        """dim = n_features + 1 and the appended feature is constant 1."""
        ds = blobs2()
        problem = LogisticRegressionProblem(ds)
        assert problem.dim == ds.n_features + 1
        assert np.all(problem._x_train[:, -1] == 1.0)

    def test_requires_binary_labels(self):
        """Multiclass datasets are refused."""
        with pytest.raises(ConfigError):
            LogisticRegressionProblem(blobs3())

    def test_extreme_logits_stay_finite(self):
        """Huge weights give finite losses via the stable formulation."""
        problem = LogisticRegressionProblem(blobs2())
        w = np.full(problem.dim, 500.0)
        assert math.isfinite(problem.loss(w))


class TestSoftmax:
    def test_zero_weights_loss_is_log_c(self):
        """At w=0 the cross-entropy is exactly log C."""
        problem = SoftmaxRegressionProblem(blobs3())
        w = np.zeros(problem.dim)
        assert problem.loss(w) == pytest.approx(math.log(3.0), rel=1e-15)

    def test_zero_weights_predicts_class_zero(self):
        """Equal logits tie-break to the lowest class index."""
        ds = blobs3()
        acc = SoftmaxRegressionProblem(ds).test_accuracy(np.zeros(ds.n_features * 3))
        y_test = ds.labels[ds.test_idx]
        assert acc == pytest.approx(float(np.mean(y_test == 0)))

    def test_parameter_layout(self):
        """dim = p * C and the weight matrix is the row-major reshape."""
        ds = blobs3()
        problem = SoftmaxRegressionProblem(ds)
        assert problem.dim == ds.n_features * ds.num_classes
        w = np.arange(problem.dim, dtype=np.float64)
        assert_allclose(problem._weights(w),
                        w.reshape(ds.num_classes, ds.n_features), rtol=0)

    def test_accuracy_in_unit_interval(self):
        """Accuracy is a fraction in [0, 1]."""
        problem = SoftmaxRegressionProblem(blobs3())
        rng = np.random.default_rng(0)
        for _ in range(5):
            acc = problem.test_accuracy(rng.standard_normal(problem.dim))
            assert 0.0 <= acc <= 1.0


class TestMlp:
    def test_flatten_round_trip(self):
        """unflatten . flatten is the identity on the flat layout."""
        problem = MlpProblem(blobs3(), 4)
        rng = np.random.default_rng(42)
        w = rng.standard_normal(problem.dim)
        w1, b1, w2, b2 = problem.unflatten(w)
        assert w1.shape == (4, 5) and b1.shape == (4,)
        assert w2.shape == (3, 4) and b2.shape == (3,)
        assert_allclose(problem.flatten(w1, b1, w2, b2), w, rtol=0, atol=0)

    def test_initial_point_bounds_and_determinism(self):
        """Init weights are within per-layer fan-in bounds and reproducible."""
        problem = MlpProblem(blobs3(), 4)
        w = problem.initial_point(np.random.default_rng(9))
        assert_allclose(w, problem.initial_point(np.random.default_rng(9)), rtol=0, atol=0)
        w1, b1, w2, b2 = problem.unflatten(w)
        bound1, bound2 = 1 / math.sqrt(5), 1 / math.sqrt(4)
        assert np.max(np.abs(w1)) <= bound1 and np.max(np.abs(b1)) <= bound1
        assert np.max(np.abs(w2)) <= bound2 and np.max(np.abs(b2)) <= bound2

    def test_relu_subgradient_at_zero_is_zero(self):
        """With z1 = 0 everywhere the first-layer gradient blocks vanish."""
        ds = blobs3()
        problem = MlpProblem(ds, 4, "relu")
        rng = np.random.default_rng(1)
        w = rng.standard_normal(problem.dim)
        w1, b1, w2, b2 = (a.copy() for a in problem.unflatten(w))
        w1[:] = 0.0
        b1[:] = 0.0
        g = problem.grad(problem.flatten(w1, b1, w2, b2))
        gw1, gb1, _, _ = problem.unflatten(g)
        assert_allclose(gw1, 0.0, atol=0)
        assert_allclose(gb1, 0.0, atol=0)

    def test_spec_validation(self):
        """A bad hidden width or activation is refused by name; the inputs
        and classes are the dataset's."""
        with pytest.raises(ConfigError, match="hidden must be >= 1, got 0"):
            MlpProblem(blobs3(), 0)
        with pytest.raises(ConfigError, match="activation must be 'tanh' or 'relu', got 'gelu'"):
            MlpProblem(blobs3(), 4, activation="gelu")
        problem = MlpProblem(blobs3(), 4)
        assert (problem.widths, problem.activation, problem.dim) == ((5, 4, 3), "tanh", 39)


class TestBlobs:
    def test_balanced_class_counts(self):
        """Class counts differ by at most one."""
        ds = make_blobs(10, 3, 3, 2.0, 0)
        counts = np.bincount(ds.labels, minlength=3)
        assert sorted(counts) == [3, 3, 4]

    def test_split_sizes_and_disjointness(self):
        """80/20 split, disjoint, covering every row exactly once."""
        ds = make_blobs(250, 4, 2, 3.0, 7)
        assert ds.n_train == 200 and ds.n_test == 50
        combined = np.sort(np.concatenate([ds.train_idx, ds.test_idx]))
        assert_allclose(combined, np.arange(250), rtol=0, atol=0)

    def test_deterministic_in_seed(self):
        """Same seed reproduces features, labels and split."""
        a = make_blobs(100, 5, 2, 3.0, 11)
        b = make_blobs(100, 5, 2, 3.0, 11)
        c = make_blobs(100, 5, 2, 3.0, 12)
        assert_allclose(a.features, b.features, rtol=0, atol=0)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert not np.allclose(a.features, c.features)

    def test_features_match_the_gathered_center_form(self):
        """Adding each center to its class's run of rows gives the bits of
        adding the gathered ``centers[labels]``, from the same draws."""
        for n, p, c, seed in [(10, 3, 3, 0), (257, 20, 5, 1), (5000, 20, 5, 0)]:
            rng = np.random.default_rng(seed)
            centers = rng.standard_normal((c, p))
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)
            centers *= 3.0
            labels = np.repeat(np.arange(c), [n // c + (k < n % c) for k in range(c)])
            features = rng.standard_normal((n, p)) + centers[labels]
            assert same_bits(make_blobs(n, p, c, 3.0, seed).features, features)

    def test_spread_sets_center_scale(self):
        """Class means sit near radius `spread` from the origin."""
        ds = make_blobs(3000, 10, 2, 5.0, 0)
        for cls in range(2):
            center = ds.features[ds.labels == cls].mean(axis=0)
            assert np.linalg.norm(center) == pytest.approx(5.0, abs=0.5)

    def test_validation(self):
        """Need at least two classes, n >= c and a non-empty test split."""
        with pytest.raises(ConfigError):
            make_blobs(10, 3, 1, 1.0, 0)
        with pytest.raises(ConfigError):
            make_blobs(2, 3, 4, 1.0, 0)
        with pytest.raises(ConfigError, match="the test split is empty: 2 of 2 rows"):
            make_blobs(2, 3, 2, 1.0, 0)


class TestDatasetInvariants:
    def test_overlapping_split_rejected(self):
        """An index in both splits violates the partition invariant."""
        with pytest.raises(ConfigError):
            Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int),
                    train_idx=[0, 1, 2], test_idx=[2, 3], num_classes=2)

    @pytest.mark.parametrize("train_idx,test_idx,message", [
        ([0, 1, 3], [-1], r"test split indices must lie in \[0, 4\), got range \[-1, -1\]"),
        ([0, 1, 2], [7], r"test split indices must lie in \[0, 4\), got range \[7, 7\]"),
        ([-4, 1], [2, 3], r"train split indices must lie in \[0, 4\)"),
        ([0, 1, 2, 3], [], "the test split is empty: 4 of 4 rows go to train and 0 to test"),
        ([], [0, 1], "the train split is empty: 0 of 4 rows go to train and 2 to test"),
        ([0, 0, 1], [2, 3], "the train split lists row 0 more than once"),
        ([0, 1], [3, 2, 3], "the test split lists row 3 more than once"),
    ], ids=["negative-wraps-onto-train", "past-the-end", "negative-train", "empty-test",
            "empty-train", "repeated-train-row", "repeated-test-row"])
    def test_bad_split_rejected_naming_it(self, train_idx, test_idx, message):
        """An index outside [0, n), an empty split and a row listed twice in
        one split are refused, naming the split; a negative index would
        otherwise wrap past the overlap check, and a repeated row would
        weigh twice in every mean."""
        with pytest.raises(ConfigError, match=message):
            Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int),
                    train_idx=train_idx, test_idx=test_idx, num_classes=2)

    def test_no_feature_column_rejected(self):
        """A dataset without a feature column is refused, whatever its
        source; a model on it would fit its bias alone."""
        with pytest.raises(ConfigError, match="the dataset has no feature column"):
            Dataset(np.zeros((4, 0)), [0, 1, 0, 1], [0, 1], [2, 3], num_classes=2)
        with pytest.raises(ConfigError, match="the dataset has no feature column"):
            make_blobs(40, 0, 2, 3.0, 0)

    def test_label_range_checked(self):
        """Labels outside [0, C) are rejected."""
        with pytest.raises(ConfigError):
            Dataset(np.zeros((3, 2)), [0, 1, 2], [0, 1], [2], num_classes=2)

    def test_non_finite_features_rejected(self):
        """NaN features are caught at construction."""
        bad = np.zeros((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ConfigError):
            Dataset(bad, [0, 1, 0], [0, 1], [2], num_classes=2)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCsvDataset:
    def test_four_row_half_split(self, tmp_path):
        """4 rows with split 0.5 give 2 train / 2 test, reproducibly."""
        path = write_csv(tmp_path / "d.csv",
                         "a,b,label\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
        ds1 = load_csv_dataset(path, "label", 0.5, seed=3)
        ds2 = load_csv_dataset(path, "label", 0.5, seed=3)
        assert ds1.n_train == 2 and ds1.n_test == 2
        assert np.array_equal(ds1.train_idx, ds2.train_idx)
        assert ds1.num_classes == 2

    def test_standardization_uses_train_statistics(self, tmp_path):
        """Train columns come out mean 0 / var 1; stats never use test rows."""
        rng = np.random.default_rng(5)
        rows = ["x0,x1,label"]
        for _ in range(50):
            rows.append(f"{rng.uniform(10, 20)},{rng.uniform(-5, 5)},{rng.integers(0, 2)}")
        path = write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
        ds = load_csv_dataset(path, "label", 0.8, seed=0)
        train = ds.features[ds.train_idx]
        assert_allclose(train.mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(train.std(axis=0), 1.0, rtol=1e-12)
        # The full column is not standardized, only the train part is exact.
        assert not np.allclose(ds.features.mean(axis=0), 0.0, atol=1e-12)

    def test_constant_column_standardizes_to_zero(self, tmp_path):
        """A zero-variance column must not divide by zero."""
        path = write_csv(tmp_path / "d.csv", "a,b,label\n5,1,0\n5,2,1\n5,3,0\n5,4,1\n")
        ds = load_csv_dataset(path, "label", 0.5, seed=0)
        assert_allclose(ds.features[:, 0], 0.0, atol=0)
        assert np.isfinite(ds.features).all()

    def test_labels_remapped_to_contiguous_range(self, tmp_path):
        """Arbitrary integer labels map onto 0..C-1 preserving order."""
        path = write_csv(tmp_path / "d.csv", "a,label\n1,7\n2,3\n3,7\n4,3\n")
        ds = load_csv_dataset(path, "label", 0.5, seed=0)
        assert ds.num_classes == 2
        assert np.array_equal(np.unique(ds.labels), [0, 1])
        # 3 < 7, so 3 -> 0 and 7 -> 1.
        assert np.array_equal(ds.labels, [1, 0, 1, 0])
        # Labels beyond the int64 range keep their order too.
        path = write_csv(tmp_path / "big.csv", "a,label\n1,1e300\n2,0\n3,-1e300\n4,1\n")
        assert np.array_equal(load_csv_dataset(path, "label", 0.5, seed=0).labels, [3, 1, 0, 2])

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A CSV saved with a UTF-8 byte-order mark (Excel's "CSV UTF-8")
        loads as the same file without one, its first column the label."""
        text = "label,a,b\n0,1,2\n1,3,4\n0,5,6\n1,7,8\n"
        plain = load_csv_dataset(write_csv(tmp_path / "plain.csv", text), "label", 0.5, seed=0)
        marked = load_csv_dataset(write_csv(tmp_path / "bom.csv", "\ufeff" + text),
                                  "label", 0.5, seed=0)
        assert np.array_equal(marked.labels, plain.labels)
        assert np.array_equal(marked.features, plain.features)
        assert np.array_equal(marked.train_idx, plain.train_idx)

    def test_error_messages_name_the_line(self, tmp_path):
        """Bad cells and ragged rows are reported with their line number."""
        ragged = write_csv(tmp_path / "r.csv", "a,b,label\n1,2,0\n3,4\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_csv_dataset(ragged, "label", 0.5, seed=0)
        alpha = write_csv(tmp_path / "t.csv", "a,b,label\n1,2,0\n3,oops,1\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_csv_dataset(alpha, "label", 0.5, seed=0)

    def test_header_and_label_validation(self, tmp_path):
        """Missing or repeated label columns, a label column with one value,
        non-integral labels and empty files fail."""
        path = write_csv(tmp_path / "d.csv", "a,b,label\n1,2,0\n3,4,1\n")
        with pytest.raises(ConfigError, match="'target'"):
            load_csv_dataset(path, "target", 0.5, seed=0)
        twice = write_csv(tmp_path / "twice.csv", "a,label,label\n1,0,0\n2,1,1\n3,0,1\n4,1,0\n")
        with pytest.raises(ConfigError, match="header names label column 'label' 2 times"):
            load_csv_dataset(twice, "label", 0.5, seed=0)
        one = write_csv(tmp_path / "one.csv", "a,label\n1,4\n2,4\n3,4\n4,4\n5,4\n")
        with pytest.raises(ConfigError, match="label column 'label' holds one value, 4;"):
            load_csv_dataset(one, "label", 0.5, seed=0)
        frac = write_csv(tmp_path / "f.csv", "a,label\n1,0.5\n2,1\n")
        with pytest.raises(ConfigError, match="non-integral"):
            load_csv_dataset(frac, "label", 0.5, seed=0)
        for label in ("inf", "-inf", "nan"):
            bad = write_csv(tmp_path / "n.csv", f"a,label\n1,0\n2,1\n3,{label}\n")
            with pytest.raises(ConfigError, match="label column 'label' has non-finite values"):
                load_csv_dataset(bad, "label", 0.5, seed=0)
        empty = write_csv(tmp_path / "e.csv", "")
        with pytest.raises(ConfigError, match="empty"):
            load_csv_dataset(empty, "label", 0.5, seed=0)
        with pytest.raises(ConfigError):
            load_csv_dataset(path, "label", 1.0, seed=0)

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_path_that_is_not_a_file_refused_naming_it(self, tmp_path, name):
        """A missing file or a directory is a ConfigError naming the path,
        not an OSError from ``open``."""
        path = tmp_path / name
        with pytest.raises(ConfigError, match=re.escape(f"names no file: {path}")):
            load_csv_dataset(path, "label", 0.5, seed=0)

    def test_label_only_file_refused_naming_it(self, tmp_path):
        """A file whose only column is the label has no features to learn
        from; it is refused by name instead of building a zero-parameter
        model."""
        path = write_csv(tmp_path / "labels.csv", "label\n0\n1\n2\n0\n1\n2\n")
        with pytest.raises(ConfigError, match=r"labels\.csv: no feature columns besides "
                                              r"label column 'label'"):
            load_csv_dataset(path, "label", 0.5, seed=0)

    @pytest.mark.parametrize("fraction,message", [
        (0.1, "the train split is empty: 0 of 2 rows go to train and 2 to test"),
        (0.9, "the test split is empty: 2 of 2 rows go to train and 0 to test"),
    ])
    def test_empty_split_refused_before_standardizing(self, tmp_path, fraction, message):
        """A split fraction that leaves one side of a small file empty is
        refused by name, without standardizing on no rows."""
        path = write_csv(tmp_path / "d.csv", "a,b,label\n1,2,0\n3,4,1\n")
        with pytest.raises(ConfigError, match=message):
            load_csv_dataset(path, "label", fraction, seed=0)

    def test_loaded_dataset_trains(self, tmp_path):
        """A loaded CSV dataset plugs into a problem and yields gradients."""
        rng = np.random.default_rng(2)
        rows = ["x0,x1,y"]
        for _ in range(40):
            cls = int(rng.integers(0, 2))
            x = rng.standard_normal(2) + 3.0 * cls
            rows.append(f"{x[0]},{x[1]},{cls}")
        path = write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
        ds = load_csv_dataset(path, "y", 0.8, seed=0)
        problem = LogisticRegressionProblem(ds)
        err = gradient_check(problem, np.random.default_rng(0), n_points=3)
        assert err <= 1e-6


class TestMinibatchSampler:
    def test_epoch_visits_every_index_once(self):
        """Concatenated batches of one epoch form a permutation."""
        gen = minibatch_epochs(25, 7, np.random.default_rng(0))
        batches = [next(gen) for _ in range(4)]
        assert [len(b) for b in batches] == [7, 7, 7, 4]
        combined = np.sort(np.concatenate(batches))
        assert np.array_equal(combined, np.arange(25))

    def test_epochs_reshuffle(self):
        """Different epochs use different permutations (same membership)."""
        gen = minibatch_epochs(64, 64, np.random.default_rng(1))
        first, second = next(gen), next(gen)
        assert not np.array_equal(first, second)
        assert np.array_equal(np.sort(first), np.sort(second))

    def test_deterministic_given_seed(self):
        """The sampler is a pure function of its generator seed."""
        a = minibatch_epochs(30, 8, np.random.default_rng(5))
        b = minibatch_epochs(30, 8, np.random.default_rng(5))
        for _ in range(10):
            assert np.array_equal(next(a), next(b))

    def test_oversized_batch_clipped(self):
        """batch_size > n_train degrades to full-batch epochs."""
        gen = minibatch_epochs(5, 100, np.random.default_rng(0))
        assert len(next(gen)) == 5


class TestProblemFromSpec:
    def test_quadratic_spec(self):
        """Quadratic kind honors dim and condition number."""
        problem = problem_from_spec(
            {"kind": "quadratic", "dim": 9, "condition_number": 4.0, "seed": 2}
        )
        assert problem.dim == 9
        eigs = np.linalg.eigvalsh(problem.a_matrix)
        assert eigs.max() / eigs.min() == pytest.approx(4.0, rel=1e-9)

    def test_blobs_models(self):
        """Each model name builds the matching problem type."""
        base = {"kind": "blobs", "n": 60, "p": 4, "classes": 2, "seed": 0}
        assert problem_from_spec({**base, "model": "logistic"}).dim == 5
        assert problem_from_spec({**base, "model": "softmax"}).dim == 8
        mlp = problem_from_spec({**base, "model": "mlp", "hidden": 3})
        assert mlp.widths == (4, 3, 2)

    def test_csv_spec(self, tmp_path):
        """CSV kind loads the file and applies the model."""
        path = write_csv(tmp_path / "d.csv",
                         "a,b,label\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
        problem = problem_from_spec(
            {"kind": "csv", "path": path, "label_column": "label",
             "split_fraction": 0.5, "model": "logistic"}
        )
        assert problem.n_train == 2

    def test_rejections_name_the_offender(self):
        """Unknown kinds, keys and models are named in the error."""
        with pytest.raises(ConfigError, match="kind"):
            problem_from_spec({})
        with pytest.raises(ConfigError, match="'poly'"):
            problem_from_spec({"kind": "poly"})
        with pytest.raises(ConfigError, match="typo_key"):
            problem_from_spec({"kind": "quadratic", "typo_key": 1})
        with pytest.raises(ConfigError, match="'tree'"):
            problem_from_spec({"kind": "blobs", "model": "tree"})
        with pytest.raises(ConfigError, match="path"):
            problem_from_spec({"kind": "csv"})
        with pytest.raises(ConfigError, match="'seed' must be >= 0"):
            problem_from_spec({"kind": "quadratic", "seed": -1})
        with pytest.raises(ConfigError, match=r"unknown problem key\(s\) \['init_seed'\]"):
            problem_from_spec({"kind": "blobs", "n": 40, "model": "mlp", "init_seed": -1})

    def test_canonical_spec_coerces_the_given_keys_only(self):
        """canonical_spec keeps ``kind`` and the given keys, each converted to
        its type, and adds no default; it is idempotent."""
        spec = problems.canonical_spec({"kind": "blobs", "n": 60.0, "spread": 3, "model": "mlp"})
        assert spec == {"kind": "blobs", "n": 60, "spread": 3.0, "model": "mlp"}
        assert (type(spec["n"]), type(spec["spread"])) == (int, float)
        assert problems.canonical_spec(spec) == spec
        assert (problems.canonical_spec({"kind": "quadratic", "condition_number": 10})
                == {"kind": "quadratic", "condition_number": 10.0})

    @pytest.mark.parametrize("model", [None, "logistic", "softmax"])
    @pytest.mark.parametrize("key,value", [("hidden", 64), ("activation", "relu")])
    def test_mlp_keys_of_another_model_are_refused(self, model, key, value):
        """``hidden`` and ``activation`` shape only an MLP: another model
        would ignore them while the run's hash counted them, so they are
        refused by name."""
        spec = {"kind": "blobs", key: value, **({"model": model} if model else {})}
        message = f"problem key '{key}' applies only to model 'mlp', not '{model or 'logistic'}'"
        with pytest.raises(ConfigError, match=message):
            problems.canonical_spec(spec)
        assert problems.canonical_spec({**spec, "model": "mlp"})[key] == value

    @pytest.mark.parametrize("kind,key", [(kind, key) for kind, keys in
                                          problems.SPEC_SCHEMA.items() for key in keys])
    def test_malformed_value_names_its_key(self, kind, key):
        """Every key of every kind converts its value to the key's type and
        refuses one that does not convert, by name."""
        malformed = {int: "abc", float: "abc", str: ["abc"]}[problems.SPEC_SCHEMA[kind][key][0]]
        spec = {"kind": kind, "path": "unused.csv"} if kind == "csv" else {"kind": kind}
        with pytest.raises(ConfigError, match=f"problem key '{key}' must be"):
            problem_from_spec({**spec, key: malformed})

    @pytest.mark.parametrize("kind,given", [
        ("quadratic", {}), ("blobs", {}), ("blobs", {"model": "mlp"}),
        ("csv", {}), ("csv", {"model": "mlp"}),
    ], ids=["quadratic", "blobs", "blobs-mlp", "csv", "csv-mlp"])
    def test_omitted_keys_take_the_former_defaults(self, tmp_path, kind, given):
        """A spec that leaves out every optional key builds the same problem
        as one that writes the former defaults out, so an edit to a default
        in SPEC_SCHEMA fails here."""
        if kind == "csv":
            features = np.random.default_rng(0).standard_normal((40, 2))
            rows = "".join(f"{a},{b},{i % 2}\n" for i, (a, b) in enumerate(features))
            given = {**given, "path": write_csv(tmp_path / "d.csv", "a,b,label\n" + rows)}
        short = problem_from_spec({"kind": kind, **given})
        mlp = MLP_DEFAULTS if given.get("model") == "mlp" else {}
        full = problem_from_spec({"kind": kind, **FORMER_DEFAULTS[kind], **mlp, **given})
        assert (short.name, short.dim, short.n_train) == (full.name, full.dim, full.n_train)
        points = (short.initial_point(np.random.default_rng(3)),
                  np.random.default_rng(4).standard_normal(short.dim))
        for w in points:
            assert short.loss(w) == full.loss(w)
