"""Test problems and datasets: finite-difference gradient oracles, loss
identities at known points, dataset determinism, and CSV loading.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sofim.exceptions import ConfigError, DimensionMismatchError
from sofim.problems import (
    Dataset,
    LogisticRegressionProblem,
    MlpProblem,
    MlpSpec,
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
        ("mlp_tanh", MlpProblem(ds3, MlpSpec((5, 7, 3), "tanh")), 1e-5),
        ("mlp_relu", MlpProblem(ds3, MlpSpec((5, 7, 3), "relu")), 1e-5),
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
        """grad(w, batch) equals the mean of per_sample_grads rows."""
        rng = np.random.default_rng(7)
        w = problem.initial_point(rng) + 0.1 * rng.standard_normal(problem.dim)
        batch = rng.integers(0, problem.n_train, size=min(9, problem.n_train))
        batch = None if problem.n_train == 1 else batch
        mean_grad = problem.per_sample_grads(w, batch).mean(axis=0)
        assert_allclose(problem.grad(w, batch), mean_grad, rtol=1e-12, atol=1e-14)

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
    p, h, c = problem.spec.widths
    w1, b1 = w[: h * p].reshape(h, p), w[h * p : h * p + h]
    w2, b2 = w[h * p + h : -c].reshape(c, h), w[-c:]
    z1 = x @ w1.T + b1
    hidden = np.tanh(z1) if problem.spec.activation == "tanh" else np.maximum(z1, 0.0)
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
        ds = problem.dataset
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

    def test_hessian_is_a(self):
        """exact_hessian returns the quadratic form matrix."""
        problem = make_quadratic(6, 4.0, seed=2)
        assert_allclose(problem.exact_hessian(np.zeros(6)), problem.a_matrix, rtol=0)

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
        assert problem.test_accuracy(w) is None

    def test_construction_validation(self):
        """Asymmetric or indefinite matrices and bad shapes are rejected."""
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


class TestLogistic:
    def test_zero_weights_loss_is_log_two(self):
        """At w=0 every per-sample NLL is exactly log 2."""
        problem = LogisticRegressionProblem(blobs2())
        w = np.zeros(problem.dim)
        assert problem.loss(w) == pytest.approx(math.log(2.0), rel=1e-15)
        assert problem.test_loss(w) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_zero_weights_predicts_class_zero(self):
        """z=0 ties break to the lowest class index."""
        problem = LogisticRegressionProblem(blobs2())
        acc = problem.test_accuracy(np.zeros(problem.dim))
        y_test = problem.dataset.labels[problem.dataset.test_idx]
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
        problem = SoftmaxRegressionProblem(blobs3())
        acc = problem.test_accuracy(np.zeros(problem.dim))
        y_test = problem.dataset.labels[problem.dataset.test_idx]
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
        problem = MlpProblem(blobs3(), MlpSpec((5, 4, 3)))
        rng = np.random.default_rng(42)
        w = rng.standard_normal(problem.dim)
        w1, b1, w2, b2 = problem.unflatten(w)
        assert w1.shape == (4, 5) and b1.shape == (4,)
        assert w2.shape == (3, 4) and b2.shape == (3,)
        assert_allclose(problem.flatten(w1, b1, w2, b2), w, rtol=0, atol=0)

    def test_initial_point_bounds_and_determinism(self):
        """Init weights are within per-layer fan-in bounds and reproducible."""
        problem = MlpProblem(blobs3(), MlpSpec((5, 4, 3)), init_seed=9)
        w = problem.initial_point()
        assert_allclose(w, problem.initial_point(), rtol=0, atol=0)
        w1, b1, w2, b2 = problem.unflatten(w)
        bound1, bound2 = 1 / math.sqrt(5), 1 / math.sqrt(4)
        assert np.max(np.abs(w1)) <= bound1 and np.max(np.abs(b1)) <= bound1
        assert np.max(np.abs(w2)) <= bound2 and np.max(np.abs(b2)) <= bound2

    def test_relu_subgradient_at_zero_is_zero(self):
        """With z1 = 0 everywhere the first-layer gradient blocks vanish."""
        ds = blobs3()
        problem = MlpProblem(ds, MlpSpec((5, 4, 3), "relu"))
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
        """Bad widths, activations and dataset mismatches are rejected."""
        with pytest.raises(ConfigError):
            MlpSpec((5, 4))
        with pytest.raises(ConfigError):
            MlpSpec((5, 0, 3))
        with pytest.raises(ConfigError):
            MlpSpec((5, 4, 3), activation="gelu")
        with pytest.raises(ConfigError):
            MlpProblem(blobs3(), MlpSpec((6, 4, 3)))
        with pytest.raises(ConfigError):
            MlpProblem(blobs3(), MlpSpec((5, 4, 2)))

    def test_no_exact_hessian(self):
        """The MLP declines to provide a Hessian."""
        problem = MlpProblem(blobs3(), MlpSpec((5, 4, 3)))
        with pytest.raises(NotImplementedError):
            problem.exact_hessian(np.zeros(problem.dim))


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

    def test_spread_sets_center_scale(self):
        """Class means sit near radius `spread` from the origin."""
        ds = make_blobs(3000, 10, 2, 5.0, 0)
        for cls in range(2):
            center = ds.features[ds.labels == cls].mean(axis=0)
            assert np.linalg.norm(center) == pytest.approx(5.0, abs=0.5)

    def test_validation(self):
        """Need at least two classes and n >= c."""
        with pytest.raises(ConfigError):
            make_blobs(10, 3, 1, 1.0, 0)
        with pytest.raises(ConfigError):
            make_blobs(2, 3, 4, 1.0, 0)


class TestDatasetInvariants:
    def test_overlapping_split_rejected(self):
        """An index in both splits violates the partition invariant."""
        with pytest.raises(ConfigError):
            Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int),
                    train_idx=[0, 1, 2], test_idx=[2, 3], num_classes=2)

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

    def test_error_messages_name_the_line(self, tmp_path):
        """Bad cells and ragged rows are reported with their line number."""
        ragged = write_csv(tmp_path / "r.csv", "a,b,label\n1,2,0\n3,4\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_csv_dataset(ragged, "label", 0.5, seed=0)
        alpha = write_csv(tmp_path / "t.csv", "a,b,label\n1,2,0\n3,oops,1\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_csv_dataset(alpha, "label", 0.5, seed=0)

    def test_header_and_label_validation(self, tmp_path):
        """Missing label column, non-integral labels and empty files fail."""
        path = write_csv(tmp_path / "d.csv", "a,b,label\n1,2,0\n3,4,1\n")
        with pytest.raises(ConfigError, match="'target'"):
            load_csv_dataset(path, "target", 0.5, seed=0)
        frac = write_csv(tmp_path / "f.csv", "a,label\n1,0.5\n2,1\n")
        with pytest.raises(ConfigError, match="non-integral"):
            load_csv_dataset(frac, "label", 0.5, seed=0)
        empty = write_csv(tmp_path / "e.csv", "")
        with pytest.raises(ConfigError, match="empty"):
            load_csv_dataset(empty, "label", 0.5, seed=0)
        with pytest.raises(ConfigError):
            load_csv_dataset(path, "label", 1.0, seed=0)

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
        assert mlp.spec.widths == (4, 3, 2)

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
