"""Differentiable test problems with analytic gradients, plus dataset
generation and loading.

Every problem exposes the same surface: a mean loss over a batch of
training rows, its analytic gradient, per-sample gradients (for the dense
Fisher oracle), and held-out test metrics.  Losses are means of per-sample
losses, so the gradient of a batch equals the mean of the per-sample
gradients.  Each dataset model (logistic, softmax, MLP) states its math
once: a forward pass, a cross-entropy head (sigmoid or softmax) and a
pull-back from the head's residual to the gradient.

Parameters are always a single flat float64 vector; problems with several
weight arrays (the MLP) define a fixed, documented flattening order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from sofim.exceptions import ConfigError, DimensionMismatchError, convert

__all__ = [
    "Dataset",
    "Problem",
    "QuadraticProblem",
    "LogisticRegressionProblem",
    "SoftmaxRegressionProblem",
    "MlpSpec",
    "MlpProblem",
    "make_quadratic",
    "make_blobs",
    "load_csv_dataset",
    "minibatch_epochs",
    "finite_difference_gradient",
    "gradient_check",
    "problem_from_spec",
]


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Feature matrix + integer labels with a fixed train/test split."""

    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.train_idx = np.asarray(self.train_idx, dtype=np.int64)
        self.test_idx = np.asarray(self.test_idx, dtype=np.int64)
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise DimensionMismatchError(
                f"labels shape {self.labels.shape} does not match {n} feature rows"
            )
        if not np.isfinite(self.features).all():
            raise ConfigError("features contain NaN or Inf")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes:
            raise ConfigError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )
        if np.intersect1d(self.train_idx, self.test_idx).size:
            raise ConfigError("train and test splits overlap")

    @property
    def n_train(self) -> int:
        return self.train_idx.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_idx.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def make_blobs(n: int, p: int, c: int, spread: float, seed: int) -> Dataset:
    """Gaussian blob classification data with an 80/20 split.

    ``c`` cluster centers are random unit vectors scaled by ``spread``;
    samples add unit-variance Gaussian noise.  Class counts are balanced to
    within one sample.  Deterministic in ``seed``.
    """
    if not (n >= c >= 2):
        raise ConfigError(f"need n >= c >= 2, got n={n}, c={c}")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, p))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= spread

    base, rem = divmod(n, c)
    counts = np.full(c, base)
    counts[:rem] += 1
    labels = np.repeat(np.arange(c), counts)
    features = centers[labels] + rng.standard_normal((n, p))

    perm = rng.permutation(n)
    n_train = int(round(0.8 * n))
    return Dataset(
        features=features,
        labels=labels,
        train_idx=perm[:n_train],
        test_idx=perm[n_train:],
        num_classes=c,
    )


def load_csv_dataset(path, label_column: str, split_fraction: float, seed: int) -> Dataset:
    """Load a numeric CSV (header row, comma separators, '.' decimals).

    ``label_column`` names the integer class column.  Features are
    standardized per column to mean 0 / variance 1 using train-split
    statistics only; constant columns standardize to 0.  The train split
    holds ``round(split_fraction * N)`` rows chosen by a seeded shuffle.
    """
    if not (0.0 < split_fraction < 1.0):
        raise ConfigError(f"split_fraction must lie in (0, 1), got {split_fraction}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ConfigError(f"{path}: label column {label_column!r} not in header {header}")
        label_pos = header.index(label_column)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}: line {lineno}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")

    data = np.asarray(rows, dtype=np.float64)
    raw_labels = data[:, label_pos]
    if np.any(raw_labels != np.round(raw_labels)):
        raise ConfigError(f"{path}: label column {label_column!r} has non-integral values")
    features = np.delete(data, label_pos, axis=1)
    # Remap arbitrary integer labels onto 0..C-1, preserving order.
    _, labels = np.unique(raw_labels.astype(np.int64), return_inverse=True)
    num_classes = int(labels.max()) + 1

    n = features.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(split_fraction * n))
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    mean = features[train_idx].mean(axis=0)
    std = features[train_idx].std(axis=0)
    std[std == 0.0] = 1.0
    features = (features - mean) / std

    return Dataset(
        features=features,
        labels=labels,
        train_idx=train_idx,
        test_idx=test_idx,
        num_classes=num_classes,
    )


def minibatch_epochs(n_train: int, batch_size: int, rng: np.random.Generator):
    """Yield index arrays into the train split, forever.

    Each epoch draws a fresh permutation of ``range(n_train)`` and consumes
    it in contiguous chunks of ``batch_size``; a short final chunk is kept,
    so every index is visited exactly once per epoch.
    """
    batch_size = min(batch_size, n_train)
    while True:
        perm = rng.permutation(n_train)
        for start in range(0, n_train, batch_size):
            yield perm[start : start + batch_size]


# ---------------------------------------------------------------------------
# problems


class Problem:
    """Loss over (flat parameter vector, batch of train rows).

    ``batch`` arguments are integer indices into the train split;
    ``None`` means the full train split.
    """

    dim: int
    name: str

    @property
    def n_train(self) -> int:
        raise NotImplementedError

    def loss(self, w, batch=None) -> float:
        raise NotImplementedError

    def grad(self, w, batch=None) -> np.ndarray:
        raise NotImplementedError

    def per_sample_grads(self, w, batch=None) -> np.ndarray:
        raise NotImplementedError

    def test_loss(self, w) -> float:
        raise NotImplementedError

    def test_accuracy(self, w):
        """Fraction of correct test predictions, or None when the problem
        has no classification semantics."""
        return None

    def initial_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def exact_hessian(self, w) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no cheap exact Hessian")


class QuadraticProblem(Problem):
    """``loss(w) = 0.5 (w - w*)^T A (w - w*)`` with symmetric PD ``A``.

    Behaves as a single-sample problem: batches are ignored and the test
    metrics mirror the train loss.  The minimizer is ``w_star`` by
    construction.
    """

    def __init__(self, a_matrix, w_star):
        a = np.asarray(a_matrix, dtype=np.float64)
        w_star = np.asarray(w_star, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != w_star.shape[0]:
            raise DimensionMismatchError(
                f"A has shape {a.shape}, w_star has length {w_star.shape[0]}"
            )
        if np.max(np.abs(a - a.T)) > 1e-10:
            raise ConfigError("A must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        if eigs.min() <= 0:
            raise ConfigError(f"A must be positive definite, min eigenvalue {eigs.min():.3e}")
        self.a_matrix = a
        self.w_star = w_star
        self.dim = w_star.shape[0]
        self.name = f"quadratic{self.dim}"

    @property
    def n_train(self) -> int:
        return 1

    def loss(self, w, batch=None) -> float:
        r = np.asarray(w, dtype=np.float64) - self.w_star
        return 0.5 * float(r @ self.a_matrix @ r)

    def grad(self, w, batch=None) -> np.ndarray:
        r = np.asarray(w, dtype=np.float64) - self.w_star
        return self.a_matrix @ r

    def per_sample_grads(self, w, batch=None) -> np.ndarray:
        return self.grad(w)[None, :]

    def test_loss(self, w) -> float:
        return self.loss(w)

    def initial_point(self, rng: np.random.Generator) -> np.ndarray:
        return self.w_star + rng.standard_normal(self.dim)

    def exact_hessian(self, w) -> np.ndarray:
        return self.a_matrix


def make_quadratic(d: int, condition_number: float, seed: int) -> QuadraticProblem:
    """Random-rotation quadratic with eigenvalues spread log-uniformly over
    ``[1, condition_number]`` and a random minimizer.  Deterministic in
    ``seed``."""
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    if condition_number < 1:
        raise ConfigError(f"condition_number must be >= 1, got {condition_number}")
    rng = np.random.default_rng(seed)
    eigs = np.geomspace(1.0, condition_number, d)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    a = (q * eigs) @ q.T
    a = 0.5 * (a + a.T)
    return QuadraticProblem(a_matrix=a, w_star=rng.standard_normal(d))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction (no overflow)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class _SigmoidHead:
    """Binary cross-entropy on one logit ``z`` per sample: the loss
    ``-(y log s + (1 - y) log(1 - s))``, ``s = sigmoid(z)``, is computed as
    ``log(1 + exp(z)) - y z`` for stability; the residual ``dloss/dz`` is
    ``s - y``.  ``z == 0`` ties predict class 0."""

    def losses(self, z, y):
        return np.logaddexp(0.0, z) - y * z

    def residual(self, z, y):
        s = np.empty_like(z)
        pos = z >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        s[~pos] = ez / (1.0 + ez)
        return s - y

    def predict(self, z):
        return (z > 0).astype(np.int64)


class _SoftmaxHead:
    """Cross-entropy over a row of class logits per sample; the residual
    ``dloss/dlogits`` is ``softmax(logits) - onehot(y)``.  Ties predict the
    lowest class, because ``np.argmax`` returns the first maximum."""

    def losses(self, logits, y):
        return -_log_softmax(logits)[np.arange(logits.shape[0]), y]

    def residual(self, logits, y):
        r = np.exp(_log_softmax(logits))
        r[np.arange(logits.shape[0]), y] -= 1.0
        return r

    def predict(self, logits):
        return np.argmax(logits, axis=1)


class _DatasetProblem(Problem):
    """A model over a Dataset, stated in three pieces: ``_forward(w, x)``
    returns ``(outputs, cache)``; ``head`` turns outputs into per-sample
    losses, the residual ``dloss/doutputs`` and predictions;
    ``_pullback(w, cache, residual)`` returns one ``(error, input)`` pair per
    parameter block in flat-layout order.  A weight block's per-sample
    gradient is ``error outer input``; a bias block's input is ``None`` and
    its per-sample gradient is ``error``.  Every public method is built here.
    """

    head: _SigmoidHead | _SoftmaxHead

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._x_train = dataset.features[dataset.train_idx]
        self._y_train = dataset.labels[dataset.train_idx]
        self._x_test = dataset.features[dataset.test_idx]
        self._y_test = dataset.labels[dataset.test_idx]

    @property
    def n_train(self) -> int:
        return self._x_train.shape[0]

    def _select(self, batch):
        if batch is None:
            return self._x_train, self._y_train
        batch = np.asarray(batch, dtype=np.int64)
        return self._x_train[batch], self._y_train[batch]

    def _check_w(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.dim,):
            raise DimensionMismatchError(f"w must have shape ({self.dim},), got {w.shape}")
        return w

    def _mean_loss(self, w, x, y) -> float:
        outputs = self._forward(self._check_w(w), x)[0]  # [0] frees the cache early
        return float(self.head.losses(outputs, y).mean())

    def _blocks(self, w, batch):
        """The pull-back's ``(error, input)`` pairs on a batch, and its size."""
        x, y = self._select(batch)
        w = self._check_w(w)
        outputs, cache = self._forward(w, x)
        return self._pullback(w, cache, self.head.residual(outputs, y)), x.shape[0]

    def loss(self, w, batch=None) -> float:
        return self._mean_loss(w, *self._select(batch))

    def grad(self, w, batch=None) -> np.ndarray:
        blocks, b = self._blocks(w, batch)
        return np.concatenate([err.mean(axis=0) if inp is None else err.T @ inp / b
                               for err, inp in blocks], axis=None)

    def per_sample_grads(self, w, batch=None) -> np.ndarray:
        blocks, b = self._blocks(w, batch)
        return np.hstack([err if inp is None else
                          np.einsum("bi,bj->bij", err.reshape(b, -1), inp).reshape(b, -1)
                          for err, inp in blocks])

    def test_loss(self, w) -> float:
        return self._mean_loss(w, self._x_test, self._y_test)

    def test_accuracy(self, w) -> float:
        outputs = self._forward(self._check_w(w), self._x_test)[0]
        return float(np.mean(self.head.predict(outputs) == self._y_test))

    def initial_point(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)


class _LinearProblem(_DatasetProblem):
    """Outputs ``x @ W.T`` for the weight view ``W = _weights(w)``; the
    gradient of ``W`` is ``residual.T @ x``."""

    def _forward(self, w, x):
        return x @ self._weights(w).T, x

    def _pullback(self, w, x, residual):
        return [(residual, x)]


class LogisticRegressionProblem(_LinearProblem):
    """Binary logistic regression (the sigmoid head) with the bias folded
    in as a constant-1 last feature, so ``dim = n_features + 1`` and the
    bias is the last weight."""

    head = _SigmoidHead()

    def __init__(self, dataset: Dataset):
        if dataset.num_classes != 2:
            raise ConfigError(
                f"logistic regression needs binary labels, got {dataset.num_classes} classes"
            )
        super().__init__(dataset)
        augmented = np.hstack([dataset.features, np.ones((dataset.features.shape[0], 1))])
        self._x_train = augmented[dataset.train_idx]
        self._x_test = augmented[dataset.test_idx]
        self.dim = augmented.shape[1]
        self.name = f"logistic{self.dim}"

    def _weights(self, w):
        return w


class SoftmaxRegressionProblem(_LinearProblem):
    """Multinomial logistic regression: the softmax head over logits ``W x``.

    Parameters are the weight matrix ``W`` of shape (C, p) flattened
    row-major, class-by-class: ``dim = p * C``.  Per-sample gradient is
    ``(softmax(W x) - onehot(y)) outer x`` in the same layout.
    """

    head = _SoftmaxHead()

    def __init__(self, dataset: Dataset):
        super().__init__(dataset)
        self.num_classes = dataset.num_classes
        self.n_features = dataset.n_features
        self.dim = self.n_features * self.num_classes
        self.name = f"softmax{self.num_classes}x{self.n_features}"

    def _weights(self, w):
        return w.reshape(self.num_classes, self.n_features)


@dataclass(frozen=True)
class MlpSpec:
    """One-hidden-layer network shape: ``widths = (inputs, hidden, classes)``."""

    widths: tuple
    activation: str = "tanh"

    def __post_init__(self):
        if len(self.widths) != 3 or any(wd < 1 for wd in self.widths):
            raise ConfigError(f"widths must be three integers >= 1, got {self.widths}")
        if self.activation not in ("tanh", "relu"):
            raise ConfigError(f"activation must be 'tanh' or 'relu', got {self.activation!r}")


class MlpProblem(_DatasetProblem):
    """One-hidden-layer classifier with manual backprop and the softmax head.

    Flat parameter layout, in order: W1 (hidden, inputs) row-major, b1
    (hidden,), W2 (classes, hidden) row-major, b2 (classes,).  Initial
    weights are uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer,
    drawn in that same order.  The ReLU subgradient at 0 is taken as 0.
    """

    head = _SoftmaxHead()

    def __init__(self, dataset: Dataset, spec: MlpSpec, init_seed: int = 0):
        super().__init__(dataset)
        p, h, c = spec.widths
        if p != dataset.n_features:
            raise ConfigError(
                f"spec expects {p} input features but dataset has {dataset.n_features}"
            )
        if c != dataset.num_classes:
            raise ConfigError(
                f"spec expects {c} classes but dataset has {dataset.num_classes}"
            )
        self.spec = spec
        self.init_seed = init_seed
        sizes = (h * p, h, c * h, c)
        starts = np.cumsum((0,) + sizes[:-1]).tolist()
        self._layout = tuple(zip(starts, sizes, ((h, p), (h,), (c, h), (c,))))
        self.dim = sum(sizes)
        self.name = f"mlp{p}x{h}x{c}{spec.activation}"

    def unflatten(self, w):
        """Split a flat vector into (W1, b1, W2, b2) views."""
        return tuple(w[start : start + size].reshape(shape)
                     for start, size, shape in self._layout)

    def flatten(self, w1, b1, w2, b2) -> np.ndarray:
        return np.concatenate([w1.ravel(), b1.ravel(), w2.ravel(), b2.ravel()])

    def initial_point(self, rng: np.random.Generator = None) -> np.ndarray:
        if rng is None:
            rng = np.random.default_rng(self.init_seed)
        p, h, c = self.spec.widths
        bound1 = 1.0 / np.sqrt(p)
        bound2 = 1.0 / np.sqrt(h)
        w1 = rng.uniform(-bound1, bound1, size=(h, p))
        b1 = rng.uniform(-bound1, bound1, size=h)
        w2 = rng.uniform(-bound2, bound2, size=(c, h))
        b2 = rng.uniform(-bound2, bound2, size=c)
        return self.flatten(w1, b1, w2, b2)

    def _forward(self, w, x):
        w1, b1, w2, b2 = self.unflatten(w)
        z1 = x @ w1.T + b1
        a1 = np.tanh(z1) if self.spec.activation == "tanh" else np.maximum(z1, 0.0)
        return a1 @ w2.T + b2, (x, z1, a1)

    def _pullback(self, w, cache, r):
        x, z1, a1 = cache
        tanh = self.spec.activation == "tanh"
        act_deriv = 1.0 - a1 * a1 if tanh else (z1 > 0.0).astype(np.float64)
        dz1 = (r @ self.unflatten(w)[2]) * act_deriv
        return [(dz1, x), (dz1, None), (r, a1), (r, None)]


# ---------------------------------------------------------------------------
# verification helpers


def finite_difference_gradient(f, w, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    w = np.asarray(w, dtype=np.float64)
    grad = np.empty_like(w)
    for j in range(w.shape[0]):
        step = np.zeros_like(w)
        step[j] = h
        grad[j] = (f(w + step) - f(w - step)) / (2.0 * h)
    return grad


def gradient_check(problem: Problem, rng: np.random.Generator, n_points: int = 5,
                   batch_size: int = 8, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over random (point, batch) pairs.

    Relative error is ``max|fd - g| / max(max|g|, 1e-8)``.
    """
    worst = 0.0
    for _ in range(n_points):
        w = problem.initial_point(rng) + 0.1 * rng.standard_normal(problem.dim)
        if problem.n_train > 1:
            batch = rng.integers(0, problem.n_train, size=min(batch_size, problem.n_train))
        else:
            batch = None
        analytic = problem.grad(w, batch)
        fd = finite_difference_gradient(lambda wv: problem.loss(wv, batch), w, h=h)
        err = np.max(np.abs(fd - analytic)) / max(np.max(np.abs(analytic)), 1e-8)
        worst = max(worst, float(err))
    return worst


# ---------------------------------------------------------------------------
# declarative construction (used by the harness and CLI)

_SPEC_KEYS = {
    "quadratic": {"kind", "dim", "condition_number", "seed"},
    "blobs": {"kind", "n", "p", "classes", "spread", "seed", "model",
              "hidden", "activation", "init_seed"},
    "csv": {"kind", "path", "label_column", "split_fraction", "seed", "model",
            "hidden", "activation", "init_seed"},
}

_MODELS = ("logistic", "softmax", "mlp")


def _spec_value(spec: dict, key: str, kind: type, default):
    """``kind(spec[key])``, or ``default`` when the key is absent."""
    return convert(kind, spec.get(key, default), f"problem key {key!r}")


def problem_from_spec(spec: dict) -> Problem:
    """Build a problem from a declarative dict (as found in config files).

    ``kind`` selects quadratic / blobs / csv; dataset kinds also need a
    ``model`` (logistic, softmax or mlp).  Unknown keys are rejected by
    name.
    """
    if "kind" not in spec:
        raise ConfigError("problem spec is missing 'kind'")
    kind = spec["kind"]
    if kind not in _SPEC_KEYS:
        raise ConfigError(f"unknown problem kind {kind!r}; expected one of {sorted(_SPEC_KEYS)}")
    unknown = set(spec) - _SPEC_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown problem key(s) {sorted(unknown)} for kind {kind!r}")

    if kind == "quadratic":
        return make_quadratic(
            d=_spec_value(spec, "dim", int, 20),
            condition_number=_spec_value(spec, "condition_number", float, 10.0),
            seed=_spec_value(spec, "seed", int, 0),
        )

    if kind == "blobs":
        dataset = make_blobs(
            n=_spec_value(spec, "n", int, 2000),
            p=_spec_value(spec, "p", int, 20),
            c=_spec_value(spec, "classes", int, 2),
            spread=_spec_value(spec, "spread", float, 3.0),
            seed=_spec_value(spec, "seed", int, 0),
        )
    else:
        if "path" not in spec:
            raise ConfigError("csv problem spec is missing 'path'")
        dataset = load_csv_dataset(
            path=spec["path"],
            label_column=spec.get("label_column", "label"),
            split_fraction=_spec_value(spec, "split_fraction", float, 0.8),
            seed=_spec_value(spec, "seed", int, 0),
        )

    model = spec.get("model", "logistic")
    if model not in _MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {_MODELS}")
    if model == "logistic":
        return LogisticRegressionProblem(dataset)
    if model == "softmax":
        return SoftmaxRegressionProblem(dataset)
    mlp_spec = MlpSpec(
        widths=(dataset.n_features, _spec_value(spec, "hidden", int, 32), dataset.num_classes),
        activation=spec.get("activation", "tanh"),
    )
    return MlpProblem(dataset, mlp_spec, init_seed=_spec_value(spec, "init_seed", int, 0))
